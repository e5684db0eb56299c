"""One unit of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME [--trace] [--setup-only]

The worker imports ``drn`` from the checkout's ``src/``, builds the
workload's inputs, and prints one JSON object: the ``time.monotonic()``
reading when set-up ended, then (unless
``--setup-only``) the unit's wall time, every top-level call with its
latency and search nodes per width, the number of checked operations, the
failed checks, the peak resident memory and, with ``--trace``, the spans
and the per-layer values derived from them.

Every answer is checked.  An operation fails when it raises, returns
``"unknown"``, returns a wrong value or verdict, or returns a witness that
``matrices.verify`` rejects.  The checks run outside the
timed calls, and the unit's wall time is the sum of the calls' latencies.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import drn  # noqa: E402
from drn import constructions, graphs, matrices, solver  # noqa: E402

import spans  # noqa: E402

# The checks call verify through this reference, bound before a traced run
# wraps ``matrices.verify``, so that the benchmark's own checks stay out of
# the spans.
_verify = matrices.verify

# drn(C_n) for n = 3..16 as this solver computes it; the published table
# differs at n = 8 and n = 13..16.
CYCLE_DRN = {3: 3, 4: 4, 5: 4, 6: 4, 7: 5, 8: 4, 9: 5, 10: 5, 11: 5, 12: 5,
             13: 5, 14: 5, 15: 6, 16: 5}
# All "yes".  The P3 calls are the first, cold, decision at each width.  No
# width-7 call: the k = 7 table build alone takes 10-16 s, one sample per
# run, and its spread over ten runs on a shared 2-vCPU host (0.28) is more
# than the largest bound a metric may have.
WIDE_CALLS = (("P3", 5), ("P3", 6), ("P3", 8), ("C16", 8), ("K4,6", 8))


class Unit:
    """Latency, nodes and check outcome of every top-level call in one unit."""

    def __init__(self):
        self.ops: list[list] = []
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, label: str, call, check, nodes=lambda out: {}) -> None:
        """Time ``call()``, then ``check`` its result (None means correct)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = call()
            seconds = time.perf_counter() - start
            self.ops.append([label, seconds, nodes(out)])
            problem = check(out)
        except Exception as e:  # the run goes on and reports the failure
            problem = f"{type(e).__name__}: {e}"
        if problem:
            self.failures.append(f"{label}: {problem}")


def _witness_problem(g, m, width):
    if m is None:
        return "no witness"
    if m.k != width:
        return f"witness has width {m.k}, expected {width}"
    rep = _verify(g, m)
    return None if rep.valid else f"witness fails verify ({len(rep.violations)} violations)"


def _yes_check(g, k):
    def check(out):
        verdict, witness, _ = out
        if verdict != "yes":
            return f"verdict {verdict!r}, expected 'yes'"
        return _witness_problem(g, witness, k)
    return check


def _solve_check(g, expected_drn):
    def check(res):
        if res.drn != expected_drn:
            return f"drn {res.drn}, expected {expected_drn}"
        return _witness_problem(g, res.witness, expected_drn)
    return check


def _solve_nodes(res):
    return {k: st.nodes for k, st in res.stats.items()}


# Workloads: inputs() -> inputs; run(inputs, unit) --------------------------

def cycles_inputs():
    return [(n, graphs.graph_from_spec_text(f"C{n}")) for n in sorted(CYCLE_DRN)]


def cycles_run(inputs, unit):
    for n, g in inputs:
        unit.op(f"solve_drn C{n}", lambda: solver.solve_drn(g),
                _solve_check(g, CYCLE_DRN[n]), _solve_nodes)


def wide_inputs():
    return [(spec, k, graphs.graph_from_spec_text(spec)) for spec, k in WIDE_CALLS]


def wide_run(inputs, unit):
    for spec, k, g in inputs:
        unit.op(f"is_k_representable {spec} @{k}", lambda: solver.is_k_representable(g, k),
                _yes_check(g, k), lambda out, k=k: {k: out[2].nodes})


WORKLOADS = {
    "cycles": (cycles_inputs, cycles_run),
    "wide": (wide_inputs, wide_run),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if Path(drn.__file__).resolve().parent != ROOT / "src" / "drn":
        print(f"error: drn was imported from {drn.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    make_inputs, run = WORKLOADS[args.workload]
    inputs = make_inputs()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer(args.workload)
        tracer.install()
    unit = Unit()
    run(inputs, unit)
    out = {"ready": ready, "wall": sum(op[1] for op in unit.ops), "ops": unit.ops,
           "attempted": unit.attempted, "failures": unit.failures,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["spans"] = tracer.spans
        out["layers"] = spans.layer_metrics(tracer.spans, spans.wrapper_cost())
        out["nesting_problems"] = spans.nesting_problems(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
