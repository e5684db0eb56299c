"""Acceptance criteria, one test (or parametrized group) per criterion.

Each criterion prints a PASS/FAIL line (run with ``pytest -s`` to see them
live).  The published cycle table is kept verbatim; where it is wrong the
true value is recorded beside it as an erratum and asserted together with the
refutation of the published value.  Its one erratum in orders 3..12 is
drn(C_8) = 4, not 5.  Four checks carry it: the solver, an inline pairwise
check of an explicit width-4 certificate, the intersecting-family lower bound
(width 3 is impossible), and networkx induced-subgraph isomorphism against
the derangement graphs of S_3 and S_4.  See the README section "Published
errata" for the analysis.
"""

import time
from itertools import combinations, permutations
import random

import pytest

from drn.constructions import (
    bounds,
    build_clique_decomposition,
    build_complete,
    build_complete_minus_clique,
    build_complete_minus_cycle,
    build_complete_minus_path,
    build_cycle,
    build_empty,
    build_nearly_complete,
    build_path,
    cycle_width,
    nearly_complete_width,
    path_width,
)
from drn.graphs import (
    Graph,
    graph6_encode,
    graph_from_spec_text,
    nonisomorphic_graphs,
)
from drn.matrices import verify
from drn.perms import all_perms
from drn.solver import is_k_representable, solve_drn, survey
import fixtures
from reference import brute_force_oracle, edge_cliques, edges, matrix, normalize, permute_columns, relabel_symbols


def G(spec):
    return graph_from_spec_text(spec)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} {detail}".rstrip())


def test_criterion_01_three_vertex_path():
    t0 = time.monotonic()
    res = solve_drn(G("P3"))
    elapsed = time.monotonic() - t0
    ok = res.drn == 4 and res.ks_refuted == (3,) and elapsed < 1.0
    report(1, ok, f"drn(P3)={res.drn} refuted={list(res.ks_refuted)} in {elapsed:.2f}s")
    assert res.drn == 4
    assert res.ks_refuted == (3,)
    assert res.lower_bound_used == 3  # widths 1, 2 excluded by the bounds
    assert elapsed < 1.0


def test_criterion_02_complete_graphs():
    t0 = time.monotonic()
    values = {n: solve_drn(G(f"K{n}")).drn for n in range(1, 7)}
    elapsed = time.monotonic() - t0
    ok = values == {n: n for n in range(1, 7)} and elapsed < 30
    report(2, ok, f"drn(K_n)={values} in {elapsed:.1f}s")
    assert values == {n: n for n in range(1, 7)}
    assert elapsed < 30


# Stated cycle table for orders 3..12, kept verbatim.  The order-8 entry is
# a published erratum; the true value is in CYCLE_ERRATA.
STATED_CYCLE_TABLE = {3: 3, 4: 4, 5: 4, 6: 4, 7: 5, 8: 5, 9: 5, 10: 5, 11: 5, 12: 5}

# True values where the stated table is wrong, each refuted below.
CYCLE_ERRATA = {8: 4}

# Width-4 certificate for C_8 (row i is vertex i of the cycle 0-1-...-7-0):
# its existence refutes the stated value 5.
C8_WIDTH4_ROWS = (
    (1, 2, 3, 4), (2, 1, 4, 3), (1, 3, 2, 4), (2, 4, 3, 1),
    (1, 2, 4, 3), (2, 1, 3, 4), (1, 4, 2, 3), (2, 3, 4, 1),
)

CYCLE_CERTIFICATES = {8: C8_WIDTH4_ROWS}


def _differ_everywhere(p, q):
    return all(a != b for a, b in zip(p, q))


def _represents(g, rows):
    """Distinct rows, and two rows disagree in every position iff adjacent."""
    if len(set(rows)) != len(rows) or len(rows) != g.n:
        return False
    return all(
        _differ_everywhere(rows[i], rows[j]) == g.has_edge(i, j)
        for i, j in combinations(range(g.n), 2)
    )


@pytest.mark.parametrize("n", sorted(STATED_CYCLE_TABLE))
def test_criterion_03_cycle_table(n):
    t0 = time.monotonic()
    got = solve_drn(G(f"C{n}")).drn
    elapsed = time.monotonic() - t0
    stated = STATED_CYCLE_TABLE[n]
    want = CYCLE_ERRATA.get(n, stated)
    note = f" (erratum, refuted by width-{want} certificate)" if n in CYCLE_ERRATA else ""
    report(3, got == want, f"drn(C_{n})={got} stated={stated}{note} in {elapsed:.1f}s")
    assert elapsed < 600
    assert got == want, f"drn(C_{n}) = {got}, expected {want} (stated {stated})"
    if n in CYCLE_ERRATA:
        # the stated value is refuted by a narrower certificate, and the
        # corrected value is exact because the lower bound meets it
        g = G(f"C{n}")
        rows = CYCLE_CERTIFICATES[n]
        assert len(rows[0]) == want < stated
        assert verify(g, matrix(rows)).valid
        assert _represents(g, rows)
        assert bounds(g).lower == want


def test_criterion_03_supplement_true_order8_value():
    # the solver's own witness for the erratum cell, re-checked from scratch
    c8 = G("C8")
    res = solve_drn(c8)
    assert res.drn == 4
    assert verify(c8, res.witness).valid
    # alpha(C_8) = 4, and a pairwise-agreeing family in S_t has at most
    # (t-1)! members, so 2! = 2 < 4 rules out t <= 3
    assert bounds(c8).lower == 4
    report(3, True, "supplement: true drn(C_8)=4 with verifying witness")


def _derangement_graph(k, nx):
    """Gamma_k: the permutations of 1..k, adjacent iff they differ everywhere."""
    perms = list(permutations(range(1, k + 1)))
    gamma = nx.Graph()
    gamma.add_nodes_from(perms)
    gamma.add_edges_from((p, q) for p, q in combinations(perms, 2) if _differ_everywhere(p, q))
    return gamma


def test_criterion_03_c8_networkx_crosscheck():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    c8 = nx.cycle_graph(8)
    found = {
        k: GraphMatcher(_derangement_graph(k, nx), c8).subgraph_is_isomorphic()
        for k in (3, 4)
    }
    report(3, found == {3: False, 4: True}, f"networkx: C_8 induced in Gamma_3/Gamma_4 = {found}")
    assert found == {3: False, 4: True}


def _networkx_mismatches(graphs, widths):
    """(graph6, k) of every case where networkx induced-subgraph isomorphism
    into Gamma_k and the solver disagree."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    mismatches = []
    for k in widths:
        gamma = _derangement_graph(k, nx)
        for g in graphs:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(edges(g))
            if GraphMatcher(gamma, h).subgraph_is_isomorphic() != (is_k_representable(g, k)[0] == "yes"):
                mismatches.append((graph6_encode(g), k))
    return mismatches


def test_networkx_crosscheck_orders_up_to_5():
    graphs = [g for n in range(1, 6) for g in nonisomorphic_graphs(n)]
    assert _networkx_mismatches(graphs, (3, 4, 5)) == []


@pytest.mark.slow
def test_networkx_crosscheck_order_6_width_4():
    assert _networkx_mismatches(nonisomorphic_graphs(6), (4,)) == []


def test_criterion_04_path_table():
    stated = {2: 2, 3: 4, 4: 4, 5: 4, 6: 4, 7: 4, 8: 4, 9: 5, 10: 5}
    t0 = time.monotonic()
    got = {n: solve_drn(G(f"P{n}")).drn for n in stated}
    elapsed = time.monotonic() - t0
    ok = got == stated and elapsed < 600
    report(4, ok, f"paths 2..10 -> {[got[n] for n in sorted(got)]} in {elapsed:.1f}s")
    assert got == stated
    assert elapsed < 600


def test_criterion_05_bipartite_table():
    stated = {(1, 1): 2, (1, 2): 4, (2, 2): 4, (1, 3): 4, (2, 3): 4, (3, 3): 5,
              (1, 4): 5, (2, 4): 5, (3, 4): 5, (4, 4): 5}
    t0 = time.monotonic()
    got = {rs: solve_drn(G(f"K{rs[0]},{rs[1]}")).drn for rs in stated}
    elapsed = time.monotonic() - t0
    ok = got == stated and elapsed < 600
    report(5, ok, f"bipartite r<=s<=4 in {elapsed:.1f}s")
    assert got == stated
    assert elapsed < 600


def test_criterion_06_survey_small_orders():
    stated_counts = {1: 0, 2: 1, 3: 2, 4: 0, 5: 0}
    stated_sizes = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    t0 = time.monotonic()
    for n in range(1, 6):
        corpus = nonisomorphic_graphs(n)
        assert len(corpus) == stated_sizes[n]
        res = survey(corpus, n)
        assert res.not_representable_count == stated_counts[n], (n, res)
    elapsed = time.monotonic() - t0
    report(6, elapsed < 900, f"Cay_not(1..5) = {list(stated_counts.values())} in {elapsed:.1f}s")
    assert elapsed < 900


def test_criterion_07_fixture_verification():
    unexplained = []
    errata = []
    for name in sorted(fixtures.FIXTURES):
        f = fixtures.get(name)
        rep = verify(f.graph(), f.matrix())
        if rep.valid:
            continue
        if f.valid or not f.note or f.corrected_rows is None:
            unexplained.append(name)
            continue
        if not verify(f.graph(), f.corrected_matrix()).valid:
            unexplained.append(name)
        else:
            errata.append(name)
    ok = not unexplained and errata == ["fork_width4", "k5_minus_k3_width5"]
    report(7, ok, f"{len(fixtures.FIXTURES)} fixtures, recorded errata: {errata}")
    assert not unexplained, unexplained
    assert errata == ["fork_width4", "k5_minus_k3_width5"]


def test_criterion_08_construction_sweep():
    t0 = time.monotonic()

    def check(res, width):
        assert res.claimed_width == width == res.matrix.k
        assert verify(res.graph, res.matrix).valid

    for n in range(1, 13):
        check(build_complete(n), n)
    for n in range(4, 13):
        check(build_complete_minus_clique(n, 2), n)
    for n in range(3, 6):
        for g in nonisomorphic_graphs(n):
            comp = g.complement()
            if comp.q >= 2:
                # the complement-edge blocks: one single-edge clique per complement edge
                check(build_clique_decomposition(g, edge_cliques(comp)), (n - 1) * comp.q)
    for n in range(1, 25):
        build_empty(n)
    for pattern, lo in (("P3", 3), ("2K2", 4), ("K3", 4), ("P4", 4), ("P3uP2", 5)):
        for n in range(lo, 13):
            check(build_nearly_complete(n, pattern), nearly_complete_width(pattern, n))
    for k in range(5, 13):
        for n in range(k, 13):
            check(build_complete_minus_path(n, k), n)
    for k in range(4, 13):
        for n in range(k, 13):
            check(build_complete_minus_cycle(n, k), n)
    for n in range(3, 41):
        check(build_cycle(n), cycle_width(n))
    for n in range(5, 41):
        check(build_path(n), path_width(n))
    for n in range(3, 13):
        for r in range(2, n):
            check(build_complete_minus_clique(n, r), max(n, 2 * r))
    # bounds never exceed any certified width
    for spec in ("K6", "E7", "C12", "P9", "K6-K3", "K8-P6", "K9-C4"):
        g = G(spec)
        assert bounds(g).lower <= bounds(g).upper
    elapsed = time.monotonic() - t0
    report(8, elapsed < 300, f"full builder sweep in {elapsed:.1f}s")
    assert elapsed < 300


def test_criterion_09_oracle_equivalence():
    t0 = time.monotonic()
    mismatches = []
    for n in range(1, 5):
        for g in nonisomorphic_graphs(n):
            for k in range(1, 5):
                search = is_k_representable(g, k)[0] == "yes"
                oracle = brute_force_oracle(g, k)
                if search != oracle:
                    mismatches.append((graph6_encode(g), k, search, oracle))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 600
    report(9, ok, f"18 graphs x widths 1..4 in {elapsed:.1f}s")
    assert not mismatches, mismatches
    assert elapsed < 600


def test_criterion_10_symmetry_invariance():
    from math import factorial
    rng = random.Random(2026)
    violations = 0
    for _ in range(1000):
        k = rng.randint(2, 6)
        n = rng.randint(2, min(6, factorial(k)))
        pool = rng.sample(all_perms(k), n)
        m = matrix(pool)
        g = Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        t = tuple(rng.sample(range(1, k + 1), k))
        base = verify(g, m).valid
        for variant in (normalize(m), permute_columns(m, t), relabel_symbols(m, t)):
            if verify(g, variant).valid != base:
                violations += 1
    report(10, violations == 0, "1000 random (graph, matrix, action) triples")
    assert violations == 0


def test_criterion_11_nearly_complete_exact_values():
    stated = {"K5-2K2": 5, "K6-2K2": 6, "K5-K3": 5, "K6-K3": 6, "K4-P4": 4, "K5-P3": 4}
    t0 = time.monotonic()
    got = {}
    for spec, want in stated.items():
        res = solve_drn(G(spec))
        got[spec] = res.drn
        # exhaustive refutation at width n-1 for the width-n families
        if want == int(spec[1]):
            assert want - 1 in res.ks_refuted or res.lower_bound_used == want
    elapsed = time.monotonic() - t0
    ok = got == stated and elapsed < 1200
    report(11, ok, f"{got} in {elapsed:.1f}s")
    assert got == stated
    assert elapsed < 1200


def test_criterion_12_conjecture_small_orders():
    exceptions = {"A?", "B?", "Bo"}  # E_2, E_3, P_3
    rows = []
    over = []
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            d = solve_drn(g).drn
            rows.append((graph6_encode(g), n, d))
            if d > n and graph6_encode(g) not in exceptions:
                over.append((graph6_encode(g), n, d))
    print("\norder<=5 drn-vs-order report (graph6, order, drn):")
    for g6, n, d in rows:
        flag = " EXCEEDS ORDER" if d > n else ""
        print(f"  {g6:<8} {n} {d}{flag}")
    report(12, not over, f"{len(rows)} graphs, exceptions limited to E2/E3/P3")
    assert not over, over


# Extended, non-gating: the stated table claims 6 for cycles 13..16; the
# computed truth is {13: 5, 14: 5, 15: 6, 16: 5}, each value carried by a
# verifier-checked witness.  Reported, not asserted against the stated table.
def test_extended_cycles_13_16_report():
    t0 = time.monotonic()
    got = {}
    for n in range(13, 17):
        g = G(f"C{n}")
        res = solve_drn(g)
        assert verify(g, res.witness).valid
        got[n] = res.drn
    elapsed = time.monotonic() - t0
    print(f"\nextended cycles 13..16: computed {got}, stated table value 6 "
          f"(diverges at 13, 14, 16), {elapsed:.0f}s")
    assert elapsed < 3600
    assert got == {13: 5, 14: 5, 15: 6, 16: 5}


def test_extended_survey_order6():
    res = survey(nonisomorphic_graphs(6), 6)
    print(f"\nCay_not(6) = {res.not_representable_count} of {res.total}")
    assert res.not_representable_count == 0
