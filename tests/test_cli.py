import csv
import io
import json
import re

import pytest

from drn.cli import main
from drn.matrices import read_matrix, verify, write_matrix
from drn.graphs import graph_from_spec_text
import fixtures


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_valid(tmp_path, capsys):
    f = fixtures.get("p3_width4")
    p = tmp_path / "p3.drnmat"
    p.write_text(write_matrix(f.matrix()))
    code, out, _ = run(capsys, "verify", "P3", str(p))
    assert code == 0 and "valid" in out


def test_verify_reference_cycle_certificate(tmp_path, capsys):
    res_code = main(["construct", "C10", "--out", str(tmp_path / "c10.drnmat")])
    assert res_code == 0
    code, out, _ = run(capsys, "verify", "C10", str(tmp_path / "c10.drnmat"))
    assert code == 0


def test_verify_duplicate_rows_exit_1(tmp_path, capsys):
    p = tmp_path / "dup.drnmat"
    p.write_text("drnmat 1\n2 2\n1 2\n1 2\n")
    code, out, _ = run(capsys, "verify", "K2", str(p))
    assert code == 1
    assert "duplicate rows 1,2" in out


def test_verify_invalid_matrix_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.drnmat"
    p.write_text("drnmat 1\n2 2\n1 2\n2 1\n")
    code, out, _ = run(capsys, "verify", "E2", str(p))
    assert code == 1 and "disagree everywhere" in out


def test_verify_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.drnmat"
    p.write_text("drnmat 1\n1 3\n1 1 2\n")
    code, _, err = run(capsys, "verify", "K1", str(p))
    assert code == 2 and "row 1" in err


def test_construct_writes_verifying_file(tmp_path, capsys):
    out_path = tmp_path / "k8p6.drnmat"
    code, out, err = run(capsys, "construct", "K8-P6", "--out", str(out_path))
    assert code == 0 and "width 8" in err and out == ""
    m = read_matrix(out_path.read_text())
    assert m.rows == fixtures.get("k8_minus_p6_width8").rows
    code, _, _ = run(capsys, "verify", "K8-P6", str(out_path))
    assert code == 0


def test_construct_examples(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "C10", "--out", str(tmp_path / "x"))
    assert code == 0 and "width 6" in err
    code, _, err = run(capsys, "construct", "E7", "--out", str(tmp_path / "y"))
    assert code == 0 and "width 5" in err


def test_construct_stdout_is_the_certificate(tmp_path, capsys):
    # drn construct K6-2K2 > m.drnmat; drn verify K6-2K2 m.drnmat
    code, out, err = run(capsys, "construct", "K6-2K2")
    assert code == 0 and "width 6 via near-complete-2k2" in err
    assert out.startswith("# construction: near-complete-2k2\n") and "via" not in out
    (tmp_path / "m.drnmat").write_text(out)
    code, out, _ = run(capsys, "verify", "K6-2K2", str(tmp_path / "m.drnmat"))
    assert code == 0 and "valid" in out


def test_construct_bad_family_exit_2(capsys):
    code, _, err = run(capsys, "construct", "Qx7")
    assert code == 2
    # a family name with a parameter out of range is reported as such, not
    # re-read as graph6
    for spec, message in (("C2", "C_n needs n >= 3"), ("K0", "K_n needs n >= 1"),
                          ("E0", "E_n needs n >= 1"), ("P0", "P_n needs n >= 1"),
                          ("K1,0", "K_{r,s} needs r, s >= 1"),
                          ("K3-P5", "K_n - P_k needs 2 <= k <= n"),
                          ("K5-C2", "K_n - C_k needs 3 <= k <= n")):
        for command in ("construct", "solve"):
            code, out, err = run(capsys, command, spec)
            assert (code, out) == (2, "") and message in err, (command, spec)


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "C12", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["lower"] == 4 and data["upper"] == 7


def test_solve_text_and_json(capsys):
    code, out, _ = run(capsys, "solve", "P3")
    assert code == 0 and "drn(P3) = 4" in out and "refuted widths: 3" in out
    code, out, _ = run(capsys, "solve", "P3", "--format", "json")
    data = json.loads(out)
    assert data["drn"] == 4 and data["refuted"] == [3]
    w = read_matrix(data["witness"])
    assert verify(graph_from_spec_text("P3"), w).valid


def test_solve_examples(capsys):
    code, out, _ = run(capsys, "solve", "C12", "--format", "json")
    assert json.loads(out)["drn"] == 5
    code, out, _ = run(capsys, "solve", "K3,4", "--format", "json")
    assert json.loads(out)["drn"] == 5


def test_solve_reports_skips_per_width(capsys):
    # C7's width-4 refutation spends 9 nodes and skips 22 candidates
    code, out, _ = run(capsys, "solve", "C7", "--format", "json")
    width4 = json.loads(out)["stats"]["4"]
    assert (width4["verdict"], width4["nodes"], width4["skips"]) == ("no", 9, 22)
    code, out, _ = run(capsys, "solve", "C7")
    assert "width 4: no after 9 nodes, 22 skipped, 0 Hall-closed, 0 degree-closed (" in out


def test_solve_reports_hall_closings_per_width(capsys):
    # of C13's 2 width-4 nodes, the distinct-images check closes one and the
    # degree-fit check the other
    code, out, _ = run(capsys, "solve", "C13", "--format", "json")
    width4 = json.loads(out)["stats"]["4"]
    counts = width4["verdict"], width4["nodes"], width4["hall_closed"], width4["degree_closed"]
    assert counts == ("no", 2, 1, 1)
    code, out, _ = run(capsys, "solve", "C13")
    assert "width 4: no after 2 nodes, 7 skipped, 1 Hall-closed, 1 degree-closed (" in out


def test_solve_budget_exit_4(capsys):
    code, _, err = run(capsys, "solve", "K3,3", "--node-limit", "3")
    assert code == 4 and "budget" in err
    code, out, err = run(capsys, "solve", "K3,3", "--time-limit-ms", "0")
    assert code == 4 and "after 0 nodes" in err and out == ""


def test_solve_max_k_exit_4(capsys):
    # K3,3 needs width 5: width 4 is refuted, and width 5 lies above --max-k
    code, out, err = run(capsys, "solve", "K3,3", "--max-k", "4")
    assert code == 4 and out == "" and "widths [4] refuted, stopped at max-k 4" in err


def test_budget_bounds_the_whole_command(capsys):
    # node totals: K3,3 spends 6 nodes at width 4 and 5 at width 5; cycles
    # 9..12 spend 65 over all their widths; the 34 order-5 graphs 142 at width 4
    for argv, total in ((("solve", "K3,3"), 11),
                        (("table", "cycles", "9..12"), 65),
                        (("survey", "--order", "5", "--k", "4"), 142)):
        code, out, err = run(capsys, *argv, "--node-limit", str(total - 1))
        assert code == 4 and f"({total - 1} in all)" in err and out == "", argv
        code, out, _ = run(capsys, *argv, "--node-limit", str(total))
        assert code == 0 and out, argv


def test_each_command_takes_only_the_options_it_reads(capsys):
    shared = {"--format", "--out", "--node-limit", "--time-limit-ms"}
    expected = {"verify": set(), "construct": {"--out"}, "bounds": {"--format", "--out"},
                "solve": shared | {"--max-k"}, "table": shared,
                "survey": shared | {"--order", "--k"}}
    for command, options in expected.items():
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) - {"--help"} == options, command
    for argv in (("verify", "K3", "m.drnmat", "--format", "json"),
                 ("construct", "K3", "--node-limit", "5"),
                 ("bounds", "K3", "--time-limit-ms", "5")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "unrecognized arguments" in err and out == "", argv


def test_solve_c15_node_limit_counts_every_width(capsys):
    # width 5 is refuted in exactly 3,379 nodes, so width 6 gets none
    code, out, err = run(capsys, "solve", "C15", "--node-limit", "3379")
    assert code == 4 and "at width 6 after 0 nodes (3379 in all)" in err and out == ""


def test_solve_g6_and_file_inputs(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "g6:Bw", "--format", "json")
    assert json.loads(out)["drn"] == 3
    p = tmp_path / "g.txt"
    p.write_text("# a graph\nBw\n")
    code, out, _ = run(capsys, "solve", f"@{p}", "--format", "json")
    assert json.loads(out)["drn"] == 3


def test_table_paths_small(capsys):
    code, out, _ = run(capsys, "table", "paths", "2..6", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["drn"]) for r in rows] == [2, 4, 4, 4, 4]


def test_table_csv_json_agree(capsys):
    code, out_csv, _ = run(capsys, "table", "cycles", "3..6", "--format", "csv")
    code, out_json, _ = run(capsys, "table", "cycles", "3..6", "--format", "json")
    csv_vals = {int(r["n"]): int(r["drn"]) for r in csv.DictReader(io.StringIO(out_csv))}
    json_vals = {r["n"]: r["drn"] for r in json.loads(out_json)["rows"]}
    assert csv_vals == json_vals == {3: 3, 4: 4, 5: 4, 6: 4}


def test_table_text_grouping(capsys):
    code, out, _ = run(capsys, "table", "cycles", "3..6")
    assert "4..6" in out


def test_table_bipartite(capsys):
    code, out, _ = run(capsys, "table", "bipartite", "3", "--format", "csv")
    vals = {(int(r["r"]), int(r["s"])): int(r["drn"])
            for r in csv.DictReader(io.StringIO(out))}
    assert vals == {(1, 1): 2, (1, 2): 4, (2, 2): 4, (1, 3): 4, (2, 3): 4, (3, 3): 5}


def test_table_bad_range_exit_2(capsys):
    for argv, message in ((("table", "cycles", "1..5"), "start at 3"),
                          (("table", "cycles", "12..3"), "ends before it starts"),
                          (("table", "paths", "6..2"), "ends before it starts"),
                          (("table", "bipartite", "0"), "max s >= 1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and message in err and out == "", argv


def test_table_range_over_the_order_cap_exit_2(capsys):
    # the solver takes graphs of at most 32 vertices; K16,16 has 32
    for argv in (("table", "cycles", "31..33", "--node-limit", "50"),
                 ("table", "paths", "30..40", "--node-limit", "50"),
                 ("table", "bipartite", "17", "--node-limit", "100000")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "order cap of 32" in err and out == "", argv


def test_survey_order(capsys):
    code, out, _ = run(capsys, "survey", "--order", "3", "--format", "json")
    data = json.loads(out)
    assert data["order"] == 3 and data["not_representable"] == 2 and data["total"] == 4


def test_survey_corpus_file(tmp_path, capsys):
    from drn.graphs import graph6_encode
    p = tmp_path / "corpus.g6"
    p.write_text(graph6_encode(graph_from_spec_text("E3")) + "\n")
    code, out, _ = run(capsys, "survey", str(p), "--k", "3", "--format", "json")
    data = json.loads(out)
    assert data["order"] is None and data["not_representable"] == 1
    code, out, _ = run(capsys, "survey", str(p), "--k", "4", "--format", "json")
    assert json.loads(out)["not_representable"] == 0


def test_survey_e2_at_width_4(tmp_path, capsys):
    from drn.graphs import graph6_encode
    p = tmp_path / "corpus.g6"
    p.write_text(graph6_encode(graph_from_spec_text("E2")) + "\n")
    code, out, _ = run(capsys, "survey", str(p), "--k", "4", "--format", "json")
    assert json.loads(out)["not_representable"] == 0


def test_survey_input_validation(capsys):
    code, _, _ = run(capsys, "survey", "--order", "9")
    assert code == 2
    code, _, _ = run(capsys, "survey")
    assert code == 2
    # each rejected by argparse before any search runs
    for argv, message in ((("survey", "--order", "3", "--k", "0"), "--k: must be >= 1"),
                          (("solve", "C5", "--workers", "2"), "unrecognized arguments: --workers"),
                          (("solve", "C5", "--time-limit-ms", "-5"), "--time-limit-ms: must be >= 0"),
                          (("solve", "C5", "--time-limit-ms", "nan"), "--time-limit-ms: must be >= 0"),
                          (("solve", "C5", "--node-limit", "-1"), "--node-limit: must be >= 0"),
                          (("solve", "C5", "--node-limit", "ten"), "--node-limit: not a number"),
                          (("solve", "C5", "--max-k", "0"), "--max-k: must be >= 1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and message in err and out == "", argv


@pytest.mark.parametrize("argv", [
    ("verify", "K3", "{dir}"),
    ("solve", "@{dir}"),
    ("bounds", "K3", "--out", "{dir}"),
    ("survey", "{dir}", "--k", "3"),
], ids=("verify", "solve", "bounds", "survey"))
def test_directory_in_place_of_a_file_exit_2(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2 and err.startswith("error: ") and out == ""


def test_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, "verify", "K3", "/nonexistent/path.drnmat")
    assert code == 2
    code, _, _ = run(capsys, "solve", "@/nonexistent/graph")
    assert code == 2
