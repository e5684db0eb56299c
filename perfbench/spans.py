"""Span recorder for the traced benchmark run.

Spans are recorded on the benchmark's side of each layer boundary.  The
public functions listed in TRACED are replaced, in every loaded ``drn``
module that holds a reference to them, by wrappers that record one span per
call: id, name, start, end, parent span and workload, plus a few counters
read off the arguments and the result.  Nothing in ``src/`` changes, and an
untraced run installs nothing.

``perms``, ``latin`` and ``fixtures`` are not wrapped: their cost shows up
in the self time of the callers above.  Because a wrapped function that
calls another wrapped function of its own module is recorded too,
``graphs.independence_number`` owns only the complement it builds; the
clique search it runs is a child span of ``graphs.clique_number``.

The cost of tracing is measured directly: ``wrapper_cost`` times a wrapped
and a bare call of a no-op in the traced process, and the overhead is that
difference times the number of spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

TRACED = {
    "drn.solver": ("solve_drn", "is_k_representable"),
    "drn.constructions": ("bounds", "best_certificate"),
    "drn.matrices": ("verify",),
    "drn.graphs": ("clique_number", "independence_number"),
}

# No workload decides width 7, so it has no per-layer values.
WIDTHS = (3, 4, 5, 6, 8)
COLD_WIDTHS = (5, 6, 8)


def _decision_counters(args, kwargs, result) -> dict:
    k = args[1] if len(args) > 1 else kwargs["k"]
    verdict, _, stats = result
    return {"k": k, "nodes": stats.nodes, "verdict": verdict}


def _verify_counters(args, kwargs, result) -> dict:
    m = args[1] if len(args) > 1 else kwargs["m"]
    return {"pairs": m.n * (m.n - 1) // 2}


def _bounds_counters(args, kwargs, result) -> dict:
    return {"lower": result.lower, "upper": result.upper}


COUNTERS = {
    "solver.is_k_representable": _decision_counters,
    "matrices.verify": _verify_counters,
    "constructions.bounds": _bounds_counters,
}


class Tracer:
    """Collects spans in memory; ``spans`` is written out when the run ends."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "workload": self.workload, "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span.update(counters(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Route every drn reference to a traced function through its wrapper."""
        wrappers = {}
        for modname, names in TRACED.items():
            mod = importlib.import_module(modname)
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self.wrap(f"{modname.split('.', 1)[1]}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "drn" and not modname.startswith("drn."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])


def wrapper_cost(calls: int = 10000, repeats: int = 5) -> float:
    """Seconds a span wrapper adds to one call, best of ``repeats`` timings."""
    def noop():
        return None

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times) / calls

    return max(best(Tracer("calibration").wrap("noop", noop)) - best(noop), 0.0)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def nesting_problems(spans: list[dict]) -> list[str]:
    """Spans whose parent does not exist, starts later, or ends earlier."""
    problems = []
    for s in spans:
        p = s["parent"]
        if p is None:
            continue
        if not 0 <= p < s["id"]:
            problems.append(f"span {s['id']} ({s['name']}) has parent {p}")
            continue
        parent = spans[p]
        if not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            problems.append(f"span {s['id']} ({s['name']}) is not inside span {p}")
    return problems


def layer_metrics(spans: list[dict], per_span_s: float) -> dict[str, float]:
    """Per-layer values of one unit; every ``.s`` value is self time.

    ``per_span_s`` is the measured cost of one span wrapper, so the tracing
    overhead is that times the number of spans.  The first decision at each width in a process pays that width's table
    build, so it is reported as ``cold_s`` and kept out of ``search_s`` and
    ``nodes_per_s``.
    """
    m: dict[str, float] = {"solver.nodes": 0, "solver.refuted_nodes_share": 0.0}
    for k in WIDTHS:
        m[f"solver.k{k}.nodes"] = 0
        m[f"solver.k{k}.search_s"] = 0.0
        m[f"solver.k{k}.nodes_per_s"] = 0.0
    for k in COLD_WIDTHS:
        m[f"solver.k{k}.cold_s"] = 0.0
    m.update({
        "constructions.bounds.s": 0.0,
        "constructions.bound_gap": 0,
        "constructions.closed_by_construction": 0,
        "constructions.best_certificate.s": 0.0,
        "matrices.verify.s": 0.0,
        "matrices.verify.pairs": 0,
        "matrices.verify.pairs_per_s": 0.0,
        "graphs.clique_number.s": 0.0,
        "graphs.independence_number.s": 0.0,
        "trace.spans": len(spans),
        "trace.overhead_s": len(spans) * per_span_s,
    })
    refuted_nodes = 0
    warm_nodes = {k: 0 for k in WIDTHS}
    seen_widths = set()
    for s, own in zip(spans, self_times(spans)):
        name = s["name"]
        if name == "solver.is_k_representable":
            k, nodes = s["k"], s["nodes"]
            m["solver.nodes"] += nodes
            if s["verdict"] == "no":
                refuted_nodes += nodes
            cold = k not in seen_widths
            seen_widths.add(k)
            if k in WIDTHS:
                m[f"solver.k{k}.nodes"] += nodes
                if cold and k in COLD_WIDTHS:
                    m[f"solver.k{k}.cold_s"] = own
                elif not cold:
                    m[f"solver.k{k}.search_s"] += own
                    warm_nodes[k] += nodes
        elif name == "constructions.bounds":
            m["constructions.bounds.s"] += own
            m["constructions.bound_gap"] += s["upper"] - s["lower"]
            m["constructions.closed_by_construction"] += s["upper"] == s["lower"]
        elif name == "matrices.verify":
            m["matrices.verify.s"] += own
            m["matrices.verify.pairs"] += s["pairs"]
        elif f"{name}.s" in m:
            m[f"{name}.s"] += own
    if m["solver.nodes"]:
        m["solver.refuted_nodes_share"] = refuted_nodes / m["solver.nodes"]
    for k in WIDTHS:
        if m[f"solver.k{k}.search_s"] > 0:
            m[f"solver.k{k}.nodes_per_s"] = warm_nodes[k] / m[f"solver.k{k}.search_s"]
    if m["matrices.verify.s"] > 0:
        m["matrices.verify.pairs_per_s"] = m["matrices.verify.pairs"] / m["matrices.verify.s"]
    return m
