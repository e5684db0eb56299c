"""Benchmark for drn: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing and imports ``drn``
from ``src/``.  Load is one closed-loop client: each unit of a workload runs
in a fresh interpreter (``perfbench/worker.py``), one call at a time, with
``workers=1``, no time limit and ``DRN_CACHE_DIR`` unset, so every unit pays
the per-width table builds as a ``drn`` command does.  Units repeat until
the next one would end after ``--seconds``; at least one always runs.  Both
workloads run fixed graphs, so every seed gives the same inputs; the seed
only names the run's record.

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``:
medians over the units, set-up time as the median of SETUP_PROBES fresh
interpreters that only import ``drn`` and build the inputs.  With
``--trace 1`` every unit is traced, and the metrics are the per-layer ones,
medians over the units; the tracing overhead among them is measured inside
each unit (see ``spans.wrapper_cost``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(commit, Python, nproc, seed, ``src/`` size, every call's latency and nodes)
goes to ``perfbench/out/``, and the spans of a traced run beside it.  The
exit code is 0 when every answer was correct, 1 when one was not, and 2
when the checkout has no ``src/drn``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOADS = ("cycles", "wide")
SETUP_PROBES = 11
RUN_LIMIT_S = 150.0  # a run must end within 180 s


class UnitError(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def spawn(argv: list[str], timeout: float) -> dict:
    """Run one worker; its ``setup`` is the time from spawn to inputs built."""
    spawned = time.monotonic()
    env = {k: v for k, v in os.environ.items() if k != "DRN_CACHE_DIR"}
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as e:
        raise UnitError(f"worker {' '.join(argv)} timed out after {e.timeout:.0f} s") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise UnitError(f"worker {' '.join(argv)} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-800:]}")
    try:
        out = json.loads(proc.stdout.splitlines()[-1])
    except json.JSONDecodeError as e:
        raise UnitError(f"worker {' '.join(argv)} printed no JSON result") from e
    out["setup"] = out["ready"] - spawned
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(units: list[dict], setups: list[float]) -> dict[str, float]:
    latencies = [op[1] for u in units for op in u["ops"]]
    return {
        "wall_s": statistics.median(u["wall"] for u in units),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(u["rss_mb"] for u in units),
        "op_p99_ms": percentile(latencies, 0.99) * 1e3,
    }


def per_layer(units: list[dict]) -> dict[str, float]:
    return {name: statistics.median(u["layers"][name] for u in units)
            for name in units[0]["layers"]}


def provenance() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "drn" / "__init__.py").is_file():
        print(f"error: no drn package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units_of = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", args.workload]
    failures: list[str] = []
    units: list[dict] = []
    setups: list[float] = []
    try:
        for _ in range(0 if args.trace else SETUP_PROBES):
            setups.append(spawn(base + ["--setup-only"],
                                deadline - time.monotonic())["setup"])
        start = time.monotonic()
        while True:
            unit = spawn(base + (["--trace"] if args.trace else []),
                         deadline - time.monotonic())
            unit["unit"] = len(units)
            units.append(unit)
            failures += unit["failures"] + unit.get("nesting_problems", [])
            spent = time.monotonic() - start
            per_unit = spent / len(units)
            if failures or spent + per_unit > args.seconds or time.monotonic() + per_unit > deadline:
                break
    except UnitError as e:
        failures.append(str(e))

    values = {}
    if not failures:
        values = per_layer(units) if args.trace else end_to_end(units, setups)
        if set(values) != set(units_of):
            failures.append(f"metrics {sorted(set(values) ^ set(units_of))} differ from BENCHMARK.json")
    # A crashed worker, unnested spans or a metric mismatch fails the run as
    # one more operation, beside the operations the workers checked.
    op_failures = sum(len(u["failures"]) for u in units)
    run_failed = int(len(failures) > op_failures)
    attempted = sum(u["attempted"] for u in units) + run_failed
    failed = op_failures + run_failed
    correct = not failures
    metrics = {name: {"value": values[name], "unit": units_of[name]}
               for name in units_of if name in values}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, **provenance(), "correct": correct,
              "attempted": attempted, "failed": failed, "failures": failures,
              "metrics": metrics, "setup_samples": setups,
              "units": [{k: u[k] for k in ("unit", "wall", "setup", "rss_mb", "attempted", "ops")}
                        for u in units]}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for u in units:
                for s in u["spans"]:
                    fh.write(json.dumps({"unit": u["unit"], **s}) + "\n")

    meta = {k: record[k] for k in ("workload", "seed", "trace", "commit", "src_sha256",
                                   "src_lines", "python", "nproc")}
    print(f"# {json.dumps(meta)}")
    print(f"# units: {len(units)}{' traced' if args.trace else ''}; record in "
          f"{(OUT / stem).relative_to(ROOT)}.json")
    for f in failures[:20]:
        print(f"# FAILED {f}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
