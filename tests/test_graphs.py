import random
from itertools import combinations, permutations

import pytest

from drn.graphs import (
    CliqueDecomposition,
    Graph,
    Graph6Error,
    build_family,
    clique_number,
    graph6_decode,
    graph6_encode,
    graph_from_spec_text,
    greedy_clique_decomposition,
    independence_number,
    is_automorphism,
    nonisomorphic_graphs,
    pair_orbit,
    parse_family,
    tuple_orbit,
)
from drn import graphs
from reference import automorphisms, edge_cliques, edges, induced


def G(spec: str) -> Graph:
    return graph_from_spec_text(spec)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # self-loop
    with pytest.raises(ValueError):
        Graph(0, ())


def test_family_examples():
    p3 = G("P3")
    assert p3.n == 3 and sorted(edges(p3)) == [(0, 1), (1, 2)]
    assert G("K5").q == 10
    g = G("K6-K3")
    comp = g.complement()
    assert sorted(edges(comp)) == [(0, 1), (0, 2), (1, 2)]


def test_family_labelings():
    assert sorted(edges(G("K9-P4").complement())) == [(0, 1), (1, 2), (2, 3)]
    assert sorted(edges(G("K8-C5").complement())) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert sorted(edges(G("K6-2K2").complement())) == [(0, 1), (2, 3)]
    assert sorted(edges(G("K6-P3uP2").complement())) == [(0, 1), (1, 2), (3, 4)]
    assert G("K3,4").q == 12
    assert G("E6").q == 0


def test_family_errors():
    for bad in ("C2", "K3-K4", "K2-P3uP2", "nope", "K0"):
        with pytest.raises(ValueError):
            graph_from_spec_text(bad)


def test_parse_family_g6():
    spec = parse_family("g6:Bw")
    assert spec.kind == "graph6"
    assert build_family(spec).q == 3


def test_graph6_known_strings():
    # "Bw": n=3, payload 'w' = 56 = 111000 -> bits (0,1),(0,2),(1,2) all set
    k3 = graph6_decode("Bw")
    assert k3.n == 3 and k3.is_complete()
    e5 = graph6_decode("D??")
    assert e5.n == 5 and e5.is_empty()
    assert graph6_encode(k3) == "Bw"


def test_graph6_round_trip_random():
    rng = random.Random(2024)
    for n in range(1, 21):
        for _ in range(1000):
            pairs = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            g = Graph.from_edges(n, pairs)
            assert graph6_decode(graph6_encode(g)) == g


def test_graph6_errors_carry_offset():
    with pytest.raises(Graph6Error) as ei:
        graph6_decode("B" + chr(30))
    assert ei.value.offset == 1
    with pytest.raises(Graph6Error):
        graph6_decode("B")  # truncated payload
    with pytest.raises(Graph6Error):
        graph6_decode("Bw?")  # excess payload
    # nonzero padding: n=3 needs 3 bits, so low 3 bits of the payload must be 0
    with pytest.raises(Graph6Error, match="padding"):
        graph6_decode("B" + chr(63 + 1))


def test_complement():
    assert G("K5").complement().is_empty()
    assert sorted(edges(G("P3").complement())) == [(0, 2)]
    c7 = G("C7")
    assert c7.complement().complement() == c7


def test_induced_subgraph():
    assert induced(G("K5"), [0, 1, 2]).is_complete()
    assert induced(G("C6"), [0, 2, 4]).is_empty()
    # dropping two of the three pairwise non-adjacent vertices leaves a clique
    assert induced(G("K6-K3"), [2, 3, 4, 5]).is_complete()
    with pytest.raises(ValueError):
        induced(G("K5"), [])
    with pytest.raises(ValueError):
        induced(G("K5"), [0, 5])


def _clique_number_oracle(g: Graph) -> int:
    best = 1
    for r in range(2, g.n + 1):
        for vs in combinations(range(g.n), r):
            if all(g.has_edge(u, v) for u, v in combinations(vs, 2)):
                best = r
                break
    return best


def test_clique_number_examples():
    assert clique_number(G("K6")) == 6
    assert clique_number(G("C5")) == 2
    assert clique_number(G("K6-K3")) == _clique_number_oracle(G("K6-K3")) == 4


def test_clique_number_against_oracle_small_corpus():
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            assert clique_number(g) == _clique_number_oracle(g)
            assert independence_number(g) == clique_number(g.complement())


def test_decompositions():
    k3 = G("K3")
    greedy = greedy_clique_decomposition(k3)
    assert greedy.cliques == ((0, 1, 2),)
    two_k2 = G("C4").complement()
    assert len(greedy_clique_decomposition(two_k2).cliques) == 2
    with pytest.raises(ValueError):
        greedy_clique_decomposition(G("E4"))


def test_decomposition_partition_invariant_on_corpus():
    for n in range(2, 6):
        for g in nonisomorphic_graphs(n):
            if g.q == 0:
                continue
            for d in (edge_cliques(g), greedy_clique_decomposition(g)):
                d.validate(g)


def test_decomposition_validate_rejects_bad():
    with pytest.raises(ValueError):
        CliqueDecomposition(((0, 1), (0, 1))).validate(G("P3"))
    with pytest.raises(ValueError):
        CliqueDecomposition(((0, 2),)).validate(G("P3"))


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)])
def test_nonisomorphic_graph_counts(n, count):
    graphs = nonisomorphic_graphs(n)
    assert len(graphs) == count
    assert len({graph6_encode(g) for g in graphs}) == count


PETERSEN = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)])
# the smallest asymmetric graphs have 6 vertices; this is one of them
ASYMMETRIC_6 = Graph.from_edges(6, [(0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3)])


def test_cycle_edges_form_one_orbit():
    for n in range(4, 17):
        g = G(f"C{n}")
        assert pair_orbit(g, 0, 1) == frozenset(edges(g)), n


def test_path_edge_orbit_is_its_reversal():
    for n in range(5, 17):
        assert pair_orbit(G(f"P{n}"), 1, 2) == {(1, 2), (n - 3, n - 2)}, n


def test_edge_transitive_graphs():
    for g in (PETERSEN, G("K3,3")):
        u, v = edges(g)[0]
        assert pair_orbit(g, u, v) == frozenset(edges(g))
    # and the non-edges of the Petersen graph form one orbit too
    non_edges = {(u, v) for u in range(10) for v in range(u + 1, 10)} - set(edges(PETERSEN))
    assert pair_orbit(PETERSEN, 0, 2) == non_edges


def test_asymmetric_graph_has_singleton_orbits():
    assert automorphisms(ASYMMETRIC_6) == [tuple(range(6))]
    for u in range(6):
        for v in range(u + 1, 6):
            assert pair_orbit(ASYMMETRIC_6, u, v) == {(u, v)}
            assert pair_orbit(ASYMMETRIC_6, v, u) == {(u, v)}


def test_pair_orbits_match_every_relabelling():
    for n in range(2, 7):
        for g in nonisomorphic_graphs(n):
            auts = automorphisms(g)
            for u in range(n):
                for v in range(u + 1, n):
                    want = {tuple(sorted((p[u], p[v]))) for p in auts}
                    assert pair_orbit(g, u, v) == want, (graph6_encode(g), u, v)


def test_three_paths_of_cycles_and_paths():
    # the ordered 3-paths (i, i+1, i+2) of C_n form one orbit of 2n triples;
    # in P_n, (1, 2, 3) reaches only its mirror
    for n in range(5, 17):
        g = G(f"C{n}")
        want = {(i, (i + 1) % n, (i + 2) % n) for i in range(n)}
        want |= {(c, b, a) for a, b, c in want}
        assert tuple_orbit(g, (0, 1, 2)) == want and len(want) == 2 * n, n
        assert tuple_orbit(G(f"P{n}"), (1, 2, 3)) == {(1, 2, 3), (n - 2, n - 3, n - 4)}, n


def test_triple_orbits_match_every_relabelling():
    for n in range(3, 6):
        for g in nonisomorphic_graphs(n):
            auts = automorphisms(g)
            for vs in permutations(range(n), 3):
                want = {tuple(p[v] for v in vs) for p in auts}
                assert tuple_orbit(g, vs) == want, (graph6_encode(g), vs)


def test_capped_orbit_search_only_leaves_pairs_out(monkeypatch):
    # a search cut short reports part of the orbit, never a pair or triple outside it
    for g in (G("C7"), G("K3,3"), G("K2,4"), G("P7")):
        u, v = edges(g)[0]
        w = next(x for x in range(g.n) if x not in (u, v))
        auts = automorphisms(g)
        orbit = {tuple(sorted((p[u], p[v]))) for p in auts}
        triples = {(p[u], p[v], p[w]) for p in auts}
        for cap in range(0, 6):
            monkeypatch.setattr(graphs, "ORBIT_REFINEMENT_CAP", cap)
            got = pair_orbit(g, u, v)
            assert (u, v) in got and got <= orbit, (g, cap)
            got = tuple_orbit(g, (u, v, w))
            assert (u, v, w) in got and got <= triples, (g, cap)


def test_is_automorphism():
    g = G("P4")
    assert is_automorphism(g, [3, 2, 1, 0]) and is_automorphism(g, [0, 1, 2, 3])
    assert not is_automorphism(g, [1, 0, 2, 3])  # maps the edge {1, 2} to a non-edge
    assert not is_automorphism(g, [0, 0, 2, 3])  # not a bijection
