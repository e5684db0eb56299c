import pytest

from drn.constructions import (
    bounds,
    best_certificate,
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
    graph_from_spec_text,
    greedy_clique_decomposition,
    nonisomorphic_graphs,
)
from drn.matrices import read_matrix, verify
import fixtures
from reference import edge_cliques, relabel


def G(spec):
    return graph_from_spec_text(spec)


# Every ConstructionResult re-verifies here, independently of the builders'
# own verification at build time.
def check(res, expect_width):
    assert res.claimed_width == expect_width == res.matrix.k
    assert verify(res.graph, res.matrix).valid
    return res


@pytest.mark.parametrize("n", range(1, 13))
def test_complete(n):
    check(build_complete(n), n)


@pytest.mark.parametrize("n", range(4, 13))
def test_complete_minus_k2(n):
    # complete minus one edge is K_n - K_r at r = 2
    check(build_complete_minus_clique(n, 2), n)


def edge_blocks(g):
    """The complement-edge blocks: the decomposition into single edges."""
    return build_clique_decomposition(g, edge_cliques(g.complement()))


def test_edge_blocks_examples():
    check(edge_blocks(G("E3")), 6)
    check(edge_blocks(G("C4")), 6)
    with pytest.raises(ValueError, match="two cliques"):
        edge_blocks(G("P3"))


def test_edge_blocks_small_corpus():
    for n in range(3, 6):
        for g in nonisomorphic_graphs(n):
            if g.complement().q >= 2:
                check(edge_blocks(g), (n - 1) * g.complement().q)


def test_clique_decomposition_examples():
    g = G("C4")
    d = greedy_clique_decomposition(g.complement())
    check(build_clique_decomposition(g, d), 6)
    g = G("E4")
    check(build_clique_decomposition(g, edge_cliques(g.complement())), 18)
    with pytest.raises(ValueError, match="two cliques"):
        build_clique_decomposition(G("E3"), greedy_clique_decomposition(G("K3")))


def test_clique_decomposition_small_corpus():
    for n in range(3, 6):
        for g in nonisomorphic_graphs(n):
            comp = g.complement()
            if comp.q < 2:
                continue
            d = edge_cliques(comp)
            width = len(d.cliques) * (n + 1) - 2 * len(d.cliques)
            check(build_clique_decomposition(g, d), width)


def test_clique_decomposition_dominates_edge_blocks():
    for n in range(3, 6):
        for g in nonisomorphic_graphs(n):
            comp = g.complement()
            if comp.q < 2:
                continue
            d = greedy_clique_decomposition(comp)
            if len(d.cliques) < 2 or max(len(c) for c in d.cliques) < 3:
                continue
            wd = build_clique_decomposition(g, d).claimed_width
            we = edge_blocks(g).claimed_width
            assert wd <= we


def test_empty_examples():
    res = check(build_empty(2), 3)
    assert res.matrix.rows == ((3, 1, 2), (3, 2, 1))
    assert build_empty(6).claimed_width == 4
    assert build_empty(7).claimed_width == 5


@pytest.mark.parametrize("n", range(1, 25))
def test_empty_sweep(n):
    import math
    k = 1
    while math.factorial(k) < n:
        k += 1
    check(build_empty(n), k + 1)


NEARLY = [("P3", 3), ("2K2", 4), ("K3", 4), ("P4", 4), ("P3uP2", 5)]


@pytest.mark.parametrize("pattern,lo", NEARLY)
def test_nearly_complete_sweep(pattern, lo):
    for n in range(lo, 13):
        check(build_nearly_complete(n, pattern), nearly_complete_width(pattern, n))


def test_nearly_complete_examples():
    assert build_nearly_complete(5, "P3").claimed_width == 4
    assert build_nearly_complete(6, "K3").claimed_width == 6
    assert build_nearly_complete(9, "2K2").claimed_width == 8
    with pytest.raises(ValueError):
        build_nearly_complete(4, "P3uP2")
    with pytest.raises(ValueError):
        build_nearly_complete(3, "2K2")
    with pytest.raises(ValueError):
        build_nearly_complete(3, "K3")


def test_minus_path_reproduces_reference_matrix():
    res = check(build_complete_minus_path(8, 6), 8)
    assert res.matrix.rows == fixtures.get("k8_minus_p6_width8").rows


def test_minus_path_sweep():
    for k in range(5, 13):
        for n in range(k, 13):
            check(build_complete_minus_path(n, k), n)
    with pytest.raises(ValueError):
        build_complete_minus_path(6, 4)


def test_minus_cycle_sweep():
    for k in range(4, 13):
        for n in range(k, 13):
            check(build_complete_minus_cycle(n, k), n)
    with pytest.raises(ValueError):
        build_complete_minus_cycle(5, 3)


def _fixture_rows_in_vertex_order(name, row_to_vertex):
    f = fixtures.get(name)
    rows = [None] * f.n
    for row_idx, v in enumerate(row_to_vertex):
        rows[v - 1] = f.rows[row_idx]
    return tuple(rows)


def test_cycle_reproduces_reference_matrices():
    res = check(build_cycle(10), 6)
    assert res.matrix.rows == _fixture_rows_in_vertex_order("c10_width6", fixtures.C10_ROW_TO_VERTEX)
    res = check(build_cycle(11), 7)
    assert res.matrix.rows == _fixture_rows_in_vertex_order("c11_width7", fixtures.C11_ROW_TO_VERTEX)


def test_path_reproduces_reference_matrices():
    res = check(build_path(9), 6)
    assert res.matrix.rows == _fixture_rows_in_vertex_order("p9_width6", fixtures.P9_ROW_TO_VERTEX)
    res = check(build_path(10), 6)
    assert res.matrix.rows == _fixture_rows_in_vertex_order("p10_width6", fixtures.P10_ROW_TO_VERTEX)


@pytest.mark.parametrize("n", range(3, 41))
def test_cycle_sweep(n):
    # n = 4 is the documented exception: the general bound ceil(n/2)+1 = 3 is
    # unattainable there (the width-3 relation graph is a disjoint union of
    # triangles), so the certified width is 4
    check(build_cycle(n), cycle_width(n))
    if n != 4:
        assert cycle_width(n) == (n + 1) // 2 + 1


@pytest.mark.parametrize("n", range(5, 41))
def test_path_sweep(n):
    check(build_path(n), path_width(n))
    assert path_width(n) == (n + 1) // 2 + 1


def test_path_small_certificates():
    assert check(build_path(2), 2).matrix.n == 2
    assert check(build_path(3), 4).matrix.n == 3
    assert check(build_path(4), 4).matrix.n == 4
    with pytest.raises(ValueError):
        build_path(1)


def test_minus_clique_sweep():
    for n in range(3, 13):
        for r in range(2, n):
            check(build_complete_minus_clique(n, r), max(n, 2 * r))
    assert build_complete_minus_clique(6, 3).claimed_width == 6
    assert build_complete_minus_clique(5, 4).claimed_width == 8
    assert build_complete_minus_clique(10, 2).claimed_width == 10
    with pytest.raises(ValueError):
        build_complete_minus_clique(4, 4)


def test_bounds_examples():
    b = bounds(G("E7"))
    assert (b.lower, b.upper) == (5, 5)
    assert b.lower_provenance == "intersecting-family"
    b = bounds(G("K6"))
    assert (b.lower, b.upper) == (6, 6)
    assert b.lower_provenance == "clique-number"
    b = bounds(G("C12"))
    assert (b.lower, b.upper) == (4, 7)


def test_bounds_ordering_on_corpus():
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            b = bounds(g)
            assert b.lower <= b.upper


def test_bounds_lower_never_exceeds_any_construction_width():
    # coherence of the monotone lower bound with every certificate we build
    for spec in ("K6", "E7", "C10", "P9", "K6-K3", "K8-P6", "K7-C4", "K6-2K2", "K7-K3"):
        g = G(spec)
        b = bounds(g)
        cert = best_certificate(g)
        assert b.lower <= cert.claimed_width == b.upper


def test_best_certificate_matches_graph_labeling():
    for spec in ("K6-K3", "K8-P6", "K6-2K2", "C10", "P9", "K6-P3uP2", "K8-C5", "K7-K4"):
        g = G(spec)
        cert = best_certificate(g)
        assert cert.graph == g
        assert verify(g, cert.matrix).valid


def test_best_certificate_on_relabeled_graphs():
    # detection must recover the pattern under arbitrary labelings
    import random
    rng = random.Random(17)
    cases = [(G(spec), None) for spec in
             ("C8", "P7", "K6-K3", "K6-2K2", "K7-P5", "K7-C5", "K6-P3uP2", "E5", "K5")]
    cases += [
        (G("K6-C3"), "near-complete-k3"),  # a removed triangle is a removed clique
        (G("K7-C4"), "cycle-removal"),
        (Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4)]).complement(),
         "clique-decomposition"),  # K7 minus C3 u K2 is not K7 minus P3uP2
        (Graph.from_edges(7, [(0, 1), (2, 3), (4, 5)]).complement(),
         "clique-decomposition"),  # K7 minus 3K2 is in no family
    ]
    for g, tag in cases:
        order = list(range(g.n))
        rng.shuffle(order)
        h = relabel(g, order)
        cert = best_certificate(h)
        assert verify(h, cert.matrix).valid
        assert cert.claimed_width == bounds(g).upper
        assert cert.theorem == bounds(h).upper_provenance
        if tag is not None:
            assert bounds(h).upper_provenance == bounds(g).upper_provenance == tag


def test_construction_serialization_verifies():
    res = build_cycle(10)
    text = res.to_drnmat()
    assert "construction: " in text
    m = read_matrix(text)
    assert verify(res.graph, m).valid
