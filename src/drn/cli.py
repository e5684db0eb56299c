"""Command-line driver: verify certificates, emit constructions, compute
bounds, solve exactly, reproduce the parameter tables, and survey corpora.

Exit codes are a stable contract:
    0  success / certificate valid
    1  semantic negative (certificate invalid)
    2  input or parameter error
    3  construction defect
    4  budget exhausted before a decision
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from drn.constructions import ConstructionDefectError, best_certificate, bounds
from drn.graphs import (
    Graph,
    Graph6Error,
    MAX_ENUM_ORDER,
    build_family,
    data_lines,
    graph6_decode,
    graph_from_spec_text,
    nonisomorphic_graphs,
    parse_family,
    read_graph6_lines,
)
from drn.matrices import (
    MatrixParseError,
    read_matrix,
    verify,
    write_matrix,
)
from drn.solver import (
    DEFAULT_NODE_LIMIT,
    DEFAULT_TIME_LIMIT_MS,
    ORDER_CAP,
    Budget,
    BudgetExhaustedError,
    WidthCapError,
    solve_drn,
    survey,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_CONSTRUCTION = 3
EXIT_BUDGET = 4


class InputError(ValueError):
    pass


def _load_graph(spec: str) -> Graph:
    """Family grammar string, "g6:..." payload, or @file with such a line."""
    text = spec.strip()
    if text.startswith("@"):
        path = Path(text[1:])
        if not path.exists():
            raise InputError(f"no such file: {path}")
        lines = data_lines(path.read_text())
        if not lines:
            raise InputError(f"{path} has no graph line")
        text = lines[0]
    try:
        spec = parse_family(text)
    except ValueError:  # no family pattern matches: a bare graph6 line
        return graph6_decode(text)
    return build_family(spec)


def _emit(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _group_runs(rows):
    """Collapse consecutive (label, value) rows with equal value into ranges."""
    out = []
    for label, value in rows:
        if out and out[-1][2] == value and out[-1][1] + 1 == label:
            out[-1] = (out[-1][0], label, value)
        else:
            out.append((label, label, value))
    return out


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    text = Path(args.matrix).read_text()
    m = read_matrix(text)
    try:
        report = verify(g, m)
    except ValueError as e:
        raise InputError(str(e))
    if report.valid:
        print(f"valid: {m.n} x {m.k} certificate for {args.graph}")
        return EXIT_OK
    for v in report.violations:
        print(v.describe())
    return EXIT_INVALID


def cmd_construct(args) -> int:
    g = _load_graph(args.graph)
    res = best_certificate(g)
    check = verify(res.graph, res.matrix)
    if not check.valid:  # builders verify already; defense in depth
        raise ConstructionDefectError("certificate failed re-verification")
    print(f"{args.graph}: width {res.claimed_width} via {res.theorem}", file=sys.stderr)
    _emit(res.to_drnmat(), args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    g = _load_graph(args.graph)
    rep = bounds(g)
    if args.format == "json":
        _emit(json.dumps({
            "graph": args.graph, "graph6": rep.graph_id,
            "lower": rep.lower, "lower_provenance": rep.lower_provenance,
            "upper": rep.upper, "upper_provenance": rep.upper_provenance,
        }, indent=2), args.out)
    elif args.format == "csv":
        _emit("graph,lower,lower_provenance,upper,upper_provenance\n"
              f"{args.graph},{rep.lower},{rep.lower_provenance},{rep.upper},{rep.upper_provenance}\n",
              args.out)
    else:
        _emit(f"{args.graph}: {rep.lower} <= drn <= {rep.upper}\n"
              f"  lower: {rep.lower_provenance}\n  upper: {rep.upper_provenance}", args.out)
    return EXIT_OK


def _solve_payload(spec: str, res) -> dict:
    return {
        "graph": spec,
        "drn": res.drn,
        "lower_bound": res.lower_bound_used,
        "upper_bound": res.upper_bound_used,
        "refuted": list(res.ks_refuted),
        "witness_source": res.witness_source,
        "witness": write_matrix(res.witness),
        "stats": {str(k): {"nodes": s.nodes, "skips": s.skips, "hall_closed": s.hall_closed,
                           "millis": round(s.millis, 3), "verdict": s.verdict}
                  for k, s in res.stats.items()},
    }


def cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    res = solve_drn(g, Budget(args.node_limit, args.time_limit_ms), max_k=args.max_k)
    if args.format == "json":
        _emit(json.dumps(_solve_payload(args.graph, res), indent=2), args.out)
    elif args.format == "csv":
        _emit(f"graph,drn\n{args.graph},{res.drn}\n", args.out)
    else:
        lines = [f"drn({args.graph}) = {res.drn}"]
        lines.append(f"  bounds used: {res.lower_bound_used} <= drn <= {res.upper_bound_used}")
        if res.ks_refuted:
            lines.append(f"  refuted widths: {', '.join(map(str, res.ks_refuted))}")
        for k, s in sorted(res.stats.items()):
            lines.append(f"  width {k}: {s.verdict} after {s.nodes} nodes, {s.skips} skipped, "
                         f"{s.hall_closed} closed ({s.millis:.1f} ms)")
        lines.append(f"  witness ({res.witness_source}):")
        lines.extend("    " + " ".join(map(str, row)) for row in res.witness.rows)
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    for sep in ("..", "-"):
        if sep in text:
            a, b = text.split(sep, 1)
            return int(a), int(b)
    v = int(text)
    return v, v


def cmd_table(args) -> int:
    budget = Budget(args.node_limit, args.time_limit_ms)  # one for the whole range
    if args.which == "bipartite":
        smax = int(args.range)
        if smax < 1:
            raise InputError(f"bipartite table needs a max s >= 1, got {args.range}")
        if 2 * smax > ORDER_CAP:
            raise InputError(f"bipartite table needs a max s <= {ORDER_CAP // 2}, got {args.range}: "
                             f"K{smax},{smax} has {2 * smax} vertices, over the solver's order cap of {ORDER_CAP}")
        entries = []
        for s in range(1, smax + 1):
            for r in range(1, s + 1):
                val = solve_drn(graph_from_spec_text(f"K{r},{s}"), budget).drn
                entries.append((r, s, val))
        if args.format == "json":
            _emit(json.dumps({"table": "bipartite",
                              "rows": [{"r": r, "s": s, "drn": v} for r, s, v in entries]},
                             indent=2), args.out)
        elif args.format == "csv":
            _emit("r,s,drn\n" + "".join(f"{r},{s},{v}\n" for r, s, v in entries), args.out)
        else:
            lines = [f"{'r':>6} {'s':>4} {'drn':>5}"]
            for s in range(1, smax + 1):
                runs = _group_runs([(r, v) for r, ss, v in entries if ss == s])
                for a, b, v in runs:
                    rlabel = str(a) if a == b else f"{a}..{b}"
                    lines.append(f"{rlabel:>6} {s:>4} {v:>5}")
            _emit("\n".join(lines), args.out)
        return EXIT_OK

    lo, hi = _parse_range(args.range)
    fam = {"cycles": "C", "paths": "P"}[args.which]
    floor = {"cycles": 3, "paths": 2}[args.which]
    if lo < floor:
        raise InputError(f"{args.which} start at {floor}")
    if hi < lo:
        raise InputError(f"empty range {args.range}: it ends before it starts")
    if hi > ORDER_CAP:
        raise InputError(f"{args.which} end at the solver's order cap of {ORDER_CAP}, got {args.range}")
    entries = [(n, solve_drn(graph_from_spec_text(f"{fam}{n}"), budget).drn)
               for n in range(lo, hi + 1)]
    if args.format == "json":
        _emit(json.dumps({"table": args.which,
                          "rows": [{"n": n, "drn": v} for n, v in entries]}, indent=2),
              args.out)
    elif args.format == "csv":
        _emit("n,drn\n" + "".join(f"{n},{v}\n" for n, v in entries), args.out)
    else:
        lines = [f"{'n':>6} {'drn':>5}"]
        for a, b, v in _group_runs(entries):
            label = str(a) if a == b else f"{a}..{b}"
            lines.append(f"{label:>6} {v:>5}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_survey(args) -> int:
    if (args.order is None) == (args.corpus is None):
        raise InputError("give a corpus file or --order, not both")
    if args.order is not None:
        if not 1 <= args.order <= MAX_ENUM_ORDER:
            raise InputError(f"--order supports 1..{MAX_ENUM_ORDER}")
        graphs = nonisomorphic_graphs(args.order)
        k = args.k if args.k is not None else args.order
    else:
        graphs = read_graph6_lines(Path(args.corpus).read_text())
        if args.k is None:
            raise InputError("--k is required with a corpus file")
        k = args.k
    res = survey(graphs, k, Budget(args.node_limit, args.time_limit_ms))
    if args.format == "json":
        _emit(json.dumps({
            "order": args.order, "width": k, "total": res.total,
            "not_representable": res.not_representable_count,
            "refuted": list(res.refuted_graph6),
        }, indent=2), args.out)
    elif args.format == "csv":
        _emit("order,width,total,not_representable\n"
              f"{args.order if args.order is not None else ''},{k},{res.total},{res.not_representable_count}\n",
              args.out)
    else:
        where = f"order {args.order}" if args.order is not None else f"{args.corpus}"
        lines = [f"{where}, width {k}: {res.not_representable_count} of {res.total} not representable"]
        lines.extend(f"  {g6}" for g6 in res.refuted_graph6)
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def _at_least(lo: int, convert=int):
    """argparse type: ``convert(text)``, refused (exit 2) unless it is >= lo."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not value >= lo:  # also refuses NaN
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text}")
        return value
    return parse


_COMMON = {
    "--format": dict(choices=("text", "csv", "json"), default="text"),
    "--out": dict(help="write the primary output to this path"),
    "--node-limit": dict(type=_at_least(0), default=DEFAULT_NODE_LIMIT,
                         help="search nodes for the whole command"),
    "--time-limit-ms": dict(type=_at_least(0, float), default=DEFAULT_TIME_LIMIT_MS,
                            help="milliseconds for the whole command"),
}


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    """Add the named options of _COMMON (all of them when none are named)."""
    for name in names or _COMMON:
        p.add_argument(name, **_COMMON[name])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="drn",
        description="Derangement representations of graphs: verify, construct, bound, solve, survey.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a certificate file against a graph")
    p.add_argument("graph", help='family grammar ("K6-K3"), "g6:...", or @file')
    p.add_argument("matrix", help="drnmat certificate path")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("construct", help="emit the best construction certificate")
    p.add_argument("graph")
    _add_common(p, "--out")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("bounds", help="lower/upper bounds with provenance")
    p.add_argument("graph")
    _add_common(p, "--format", "--out")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("solve", help="exact representation number")
    p.add_argument("graph")
    p.add_argument("--max-k", type=_at_least(1), default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("table", help="reproduce a parameter table")
    p.add_argument("which", choices=("cycles", "paths", "bipartite"))
    p.add_argument("range", help='"3..12" for cycles/paths; max s for bipartite')
    _add_common(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("survey", help="count non-representable graphs in a corpus")
    p.add_argument("corpus", nargs="?", help="graph6 lines file")
    p.add_argument("--order", type=int, help="use the built-in order-n corpus")
    p.add_argument("--k", type=_at_least(1), help="width (defaults to the order)")
    _add_common(p)
    p.set_defaults(fn=cmd_survey)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (InputError, MatrixParseError, Graph6Error, WidthCapError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ConstructionDefectError as e:
        print(f"construction defect: {e}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except BudgetExhaustedError as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
