"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py [--seed N] [--workload NAME ...]

For each workload (by default those of ``BENCHMARK.json``) it runs
``perfbench/run.py`` once with ``--trace 0`` and once with ``--trace 1``,
each for one unit, and checks that:

* ``run.py`` accepts every workload of ``BENCHMARK.json``;
* both runs are correct, and emit exactly the metrics ``BENCHMARK.json``
  names for their mode, each with its unit;
* no end-to-end value is 0;
* the spans of the traced run nest and carry the workload's name;
* search nodes repeat exactly: the units of the two runs report the same
  nodes per width for every call.

It takes about a minute, most of it the C15 refutation in ``cycles``.
Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict

import run
import spans


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(last stdout line, full record) of one benchmark run."""
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((run.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def check_workload(workload: str, seed: int, spec: dict) -> list[str]:
    problems = []
    nodes_by_unit = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, record = run_once(workload, seed, trace)
        where = f"{workload} --trace {trace}"
        if not result["correct"] or result["failed"]:
            problems.append(f"{where}: not correct: {record['failures'][:3]}")
            continue
        want = {m["name"]: m["unit"] for m in spec[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"{where}: metrics or units differ from BENCHMARK.json: "
                            f"{sorted(set(got.items()) ^ set(want.items()))}")
        if trace == 0:
            problems += [f"{where}: {name} is 0" for name, m in result["metrics"].items()
                         if m["value"] == 0]
        else:
            by_unit = defaultdict(list)
            for line in (run.OUT / f"{workload}-seed{seed}-trace1.spans.jsonl").read_text().splitlines():
                s = json.loads(line)
                by_unit[s["unit"]].append(s)
                if s["workload"] != workload:
                    problems.append(f"{where}: span {s['id']} names workload {s['workload']!r}")
            if not by_unit:
                problems.append(f"{where}: no spans recorded")
            for unit_spans in by_unit.values():
                problems += [f"{where}: {p}" for p in spans.nesting_problems(unit_spans)]
        nodes_by_unit += [[(op[0], op[2]) for op in u["ops"]] for u in record["units"]]
    if any(nodes != nodes_by_unit[0] for nodes in nodes_by_unit):
        problems.append(f"{workload}: search nodes differ between runs of the same inputs")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = ap.parse_args(argv)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    gated = [w["name"] for w in spec["workloads"]]
    problems += [f"run.py does not accept workload {w!r}" for w in gated if w not in run.WORKLOADS]
    for workload in args.workload or gated:
        found = check_workload(workload, args.seed, spec)
        print(f"{workload}: {'ok' if not found else f'{len(found)} problem(s)'}", flush=True)
        problems += found
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
