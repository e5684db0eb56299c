import random
import time
from itertools import combinations_with_replacement
from itertools import permutations as iter_permutations
from math import factorial

import pytest

from drn import solver
from drn.graphs import Graph, graph_from_spec_text, nonisomorphic_graphs
from drn.latin import distinct_representatives
from drn.matrices import verify
from drn.perms import (
    all_perms,
    cycles,
    inverse,
    rank_perm,
    unrank_perm,
)
from drn.solver import (
    Budget,
    BudgetExhaustedError,
    WidthCapError,
    _agreement,
    _class_representatives,
    _conjugator,
    _masks,
    _representative_stabiliser,
    _unbanned,
    is_k_representable,
    solve_drn,
    survey,
)
from reference import (
    brute_force_oracle,
    compose,
    disagree_everywhere,
    embeds_induced,
    induced,
    position_masks,
)


def G(spec):
    return graph_from_spec_text(spec)


def test_three_vertex_path_needs_width_four():
    assert is_k_representable(G("P3"), 3)[0] == "no"
    verdict, witness, _ = is_k_representable(G("P3"), 4)
    assert verdict == "yes" and verify(G("P3"), witness).valid


def test_complete_graph_widths():
    assert is_k_representable(G("K4"), 4)[0] == "yes"
    assert is_k_representable(G("K4"), 3)[0] == "no"


def test_injectivity_cutoff():
    # more vertices than permutations: immediately impossible
    verdict, _, stats = is_k_representable(G("E4"), 2)
    assert verdict == "no" and stats.nodes == 0


def _cayley_row_reference(perms, r):
    """Ranks of the permutations that disagree everywhere with rank r."""
    p = unrank_perm(r, len(perms[0]))
    return int("".join("1" if disagree_everywhere(q, p) else "0" for q in reversed(perms)), 2)


def _set_bits(m):
    """The positions of the set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def test_masks_partition_each_position():
    for k in range(1, 9):
        full = (1 << factorial(k)) - 1
        for row in _masks(k):
            assert len(row) == k
            assert all(m.bit_count() == factorial(k - 1) for m in row)
            union = 0
            for m in row:
                union |= m
            assert union == full


def test_masks_equal_a_scan_of_s_k():
    # blocks shifted to the wrong offset would still partition S_k (above)
    _masks.cache_clear()
    _masks(8)
    assert _masks.cache_info().currsize == 8  # built from the masks of k = 1..7
    for k in range(1, 9):
        got, want = _masks(k), position_masks(k)
        assert [len(row) for row in got] == [k] * k
        assert not [(i, v) for i in range(k) for v in range(k) if got[i][v] != want[i][v]], k


def test_agreement_masks_match_disagreement_relation():
    for k in range(1, 6):
        perms, full = all_perms(k), (1 << factorial(k)) - 1
        for r in range(factorial(k)):
            assert full ^ _agreement(k, r) == _cayley_row_reference(perms, r), (k, r)
    # k = 8: the cyclic shifts between them use every mask M[i][v]
    perms, full = all_perms(8), (1 << factorial(8)) - 1
    shifts = [tuple((i + j) % 8 + 1 for i in range(8)) for j in range(8)]
    sample = [rank_perm(p) for p in shifts] + random.Random(8).sample(range(factorial(8)), 4)
    for r in sample:
        differ = _set_bits(full ^ _agreement(8, r) ^ _cayley_row_reference(perms, r))
        assert not differ, r  # the ranks misplaced in the row of r


@pytest.mark.parametrize("spec,k,nodes", [
    ("C16", 5, 253),
    ("C16", 7, 15),
    ("C16", 8, 15),
    ("K4,6", 8, 9),
    ("C21", 6, 1535),
    ("P15", 5, 307),
])
def test_wide_decisions_and_node_counts(spec, k, nodes):
    verdict, witness, stats = is_k_representable(G(spec), k)
    assert verdict == "yes" and witness.k == k and verify(G(spec), witness).valid
    assert stats.nodes == nodes


# Cold first decisions at widths 5, 6 and 8, then C16 and K4,6 at width 8.
WIDE_CALLS = (("P3", 5), ("P3", 6), ("P3", 8), ("C16", 8), ("K4,6", 8))


def test_c15_width5_refutation_node_count():
    verdict, witness, stats = is_k_representable(G("C15"), 5)
    assert verdict == "no" and witness is None
    assert (stats.nodes, stats.skips, stats.hall_closed, stats.degree_closed) == (1863, 764, 471, 716)


def test_c17_width5_refutation_node_count():
    # the search walks C15's path prefix, but with two more unassigned
    # vertices the checks close nodes sooner than in C15
    verdict, witness, stats = is_k_representable(G("C17"), 5)
    assert verdict == "no" and witness is None
    assert (stats.nodes, stats.skips, stats.hall_closed, stats.degree_closed) == (638, 447, 208, 261)


def test_p16_width5_refutation_node_count():
    # with P15 at width 5 (above), the longest induced path of the width-5 graph has 15 vertices
    verdict, witness, stats = is_k_representable(G("P16"), 5)
    assert verdict == "no" and witness is None
    assert (stats.nodes, stats.skips, stats.hall_closed, stats.degree_closed) == (3137, 377, 1144, 1272)


def test_k7_width6_refutation_node_count():
    # v2 is adjacent to v1, so it runs through the four derangement classes
    # of S_6 and B2 grows three times: the pair-ban masks made under a
    # smaller B2 must be dropped, or the type rule bars fewer candidates
    verdict, witness, stats = is_k_representable(G("K7"), 6)
    assert verdict == "no" and witness is None
    assert (stats.nodes, stats.skips, stats.hall_closed, stats.degree_closed) == (104, 558, 51, 28)


@pytest.mark.slow
def test_c22_width6_decision_node_count():
    verdict, witness, stats = is_k_representable(G("C22"), 6)
    assert verdict == "yes" and witness.k == 6 and verify(G("C22"), witness).valid
    assert (stats.nodes, stats.skips, stats.hall_closed, stats.degree_closed) == (117154, 18, 31411, 29031)


@pytest.mark.slow
def test_p22_width6_decision_node_count():
    # every induced subpath of an induced path is one, so drn(P16..P22) = 6
    verdict, witness, stats = is_k_representable(G("P22"), 6)
    assert verdict == "yes" and witness.k == 6 and verify(G("P22"), witness).valid
    assert (stats.nodes, stats.skips, stats.hall_closed, stats.degree_closed) == (91474, 168, 41648, 17894)


def test_class_representatives_are_least_in_their_class():
    for k in range(1, 9):
        least = {}
        for p in all_perms(k):
            t = tuple(sorted(map(len, cycles(p))))
            least.setdefault(t, p)  # all_perms is in lexicographic order
        assert _class_representatives(k) == sorted(least.values()), k


def test_unbanned_ranks_are_the_other_labels():
    # s stays a candidate beside rank r iff r^-1 o s is in none of the banned classes
    def cycle_type(p):
        return sorted(map(len, cycles(p)))

    for k in range(2, 6):
        reps = _class_representatives(k)
        for banned in ((reps[1],), (reps[-1], reps[-2])):
            types = [cycle_type(rho) for rho in banned]
            for r in range(factorial(k)):
                r_inv = inverse(unrank_perm(r, k))
                want = [s for s, q in enumerate(all_perms(k)) if cycle_type(compose(r_inv, q)) not in types]
                assert _set_bits(_unbanned(k, r, banned)) == want, (k, r, banned)


def _apply(h, p):
    """The image of p under the element h = (a, a_inv, inverted) of H:
    a o p o a^-1, with p inverted first when inverted."""
    a, _, inverted = h
    q = inverse(p) if inverted else p
    return compose(a[1:], compose(q, inverse(a[1:])))


def test_representative_stabiliser_is_the_stabiliser_in_h():
    # G_2 = {h in H : h(rho) = rho}, against a scan of S_k, as (a, inverted) pairs
    for k in range(1, 6):
        for rho in _class_representatives(k):
            rho_inv = inverse(rho)
            expected = set()
            for a in all_perms(k):
                for inverted, q in ((False, rho), (True, rho_inv)):
                    if compose(a, compose(q, inverse(a))) == rho:
                        expected.add((a, inverted))
            group = _representative_stabiliser(rho)
            got = [(a[1:], inverted) for a, _, inverted in group]
            assert len(got) == len(set(got)) and set(got) == expected, rho
            # the search reads a^-1 from a_inv, 0-based
            assert all(tuple(x + 1 for x in a_inv) == inverse(a[1:]) for a, a_inv, _ in group), rho


def test_stabiliser_acts_as_automorphisms():
    # the sampled elements of G_2 preserve cellwise disagreement and its negation
    rng = random.Random(5)
    for k in (4, 5, 8):
        for rho in rng.sample(_class_representatives(k)[1:], 3):
            group = rng.sample(_representative_stabiliser(rho), 6) if k == 8 else _representative_stabiliser(rho)
            sample = [unrank_perm(r, k) for r in rng.sample(range(factorial(k)), 12)]
            images = [[_apply(h, p) for h in group] for p in sample]
            for i in range(len(sample)):
                for j in range(i + 1, len(sample)):
                    rel = disagree_everywhere(sample[i], sample[j])
                    assert all(disagree_everywhere(x, y) == rel for x, y in zip(images[i], images[j]))


def _unreduced_search(g, k):
    """Reference decision: bitset DFS over vertices 0..n-1 on the scanned
    position masks, with no pinning, no class representatives and no orbit
    pruning."""
    full, masks = (1 << factorial(k)) - 1, position_masks(k)

    def agreeing(r):
        m = 0
        for row, x in zip(masks, unrank_perm(r, k)):
            m |= row[x - 1]
        return m

    def dfs(v, cands):
        if v == g.n:
            return True
        bits = cands[v]
        while bits:
            low = bits & -bits
            bits ^= low
            non = agreeing(low.bit_length() - 1)
            row, non = full ^ non, non ^ low
            nxt = cands[:v + 1] + [c & (row if g.has_edge(v, w) else non)
                                   for w, c in enumerate(cands[v + 1:], v + 1)]
            if all(nxt[v + 1:]) and dfs(v + 1, nxt):
                return True
        return False

    return dfs(0, [full] * g.n)


def test_differential_against_unreduced_search():
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            for k in range(1, 6):
                assert (is_k_representable(g, k)[0] == "yes") == _unreduced_search(g, k), (g, k)


@pytest.mark.slow
def test_differential_order_six_width_five():
    for g in nonisomorphic_graphs(6):
        assert (is_k_representable(g, 5)[0] == "yes") == _unreduced_search(g, 5), g


def test_orbit_pruning_keeps_every_verdict_and_witness(monkeypatch):
    # the orbit rule only skips failing subtrees: against the same search with
    # trivial stabilisers, the verdict and the witness are identical
    cases = [(g, k) for n in range(1, 6) for g in nonisomorphic_graphs(n) for k in range(1, 6)]
    cases += [(G(f"C{n}"), k) for n in range(7, 15) for k in (4, 5)] + [(G("K3,3"), 4)]
    cases += [(G("C16"), 5), (G("C21"), 6), (G("P15"), 5)]
    pruned = [is_k_representable(g, k) for g, k in cases]
    monkeypatch.setattr(solver, "_representative_stabiliser",
                        lambda rho: [solver._element(list(range(len(rho) + 1)), False)])
    fewer = 0
    for (g, k), (verdict, witness, stats) in zip(cases, pruned):
        plain_verdict, plain_witness, plain_stats = is_k_representable(g, k)
        assert (verdict, witness) == (plain_verdict, plain_witness), (g, k)
        assert stats.nodes <= plain_stats.nodes
        fewer += stats.nodes < plain_stats.nodes
    assert fewer >= 10


def test_differential_symmetric_graphs():
    # graphs whose pair orbits are large, so the type rule on pairs bars the most
    for spec in [f"C{n}" for n in range(4, 10)] + ["K3,3", "K2,4"]:
        for k in (3, 4):
            assert (is_k_representable(G(spec), k)[0] == "yes") == _unreduced_search(G(spec), k), (spec, k)


def _rule_corpus():
    """Every graph of order <= 5 at widths 1..5, C7..C15 at widths 4 and 5,
    K3,3 at width 4, ELq? at width 4 and three larger "yes" searches.  On
    ELq?, removing the banned pair types from the candidate sets of other
    vertices (not only skipping them) would steer fail-first branching to
    another witness."""
    cases = [(g, k) for n in range(1, 6) for g in nonisomorphic_graphs(n) for k in range(1, 6)]
    cases += [(G(f"C{n}"), k) for n in range(7, 16) for k in (4, 5)] + [(G("K3,3"), 4), (G("g6:ELq?"), 4)]
    return cases + [(G("C16"), 5), (G("C21"), 6), (G("P15"), 5)]


@pytest.mark.slow
def test_symmetry_rules_keep_every_verdict_and_witness(monkeypatch):
    # the orbit and type rules only skip candidates of the vertex branched
    # on: against the same search with both off (G_2 trivial, O2 and O3 cut
    # down to the base tuple), every verdict and witness is identical
    cases = [(g, k) for g in nonisomorphic_graphs(6) for k in range(1, 6)] + _rule_corpus()
    reduced = [is_k_representable(g, k) for g, k in cases]
    monkeypatch.setattr(solver, "_representative_stabiliser",
                        lambda rho: [solver._element(list(range(len(rho) + 1)), False)])
    monkeypatch.setattr(solver, "pair_orbit", lambda g, u, v, found: frozenset({(min(u, v), max(u, v))}))
    monkeypatch.setattr(solver, "tuple_orbit", lambda g, vs, found: frozenset({tuple(vs)}))
    for (g, k), (verdict, witness, stats) in zip(cases, reduced):
        plain_verdict, plain_witness, plain_stats = is_k_representable(g, k)
        assert (verdict, witness) == (plain_verdict, plain_witness), (g, k)
        assert stats.nodes <= plain_stats.nodes, (g, k)
        assert plain_stats.skips == 0, (g, k)


def test_label_rule_keeps_every_verdict_and_witness(monkeypatch):
    # the type rule on pairs: against the same search with O2 cut down to
    # {v1, v2}, where it bars nothing, the verdict and the witness are
    # identical
    cases = _rule_corpus()
    banned = [is_k_representable(g, k) for g, k in cases]
    monkeypatch.setattr(solver, "pair_orbit", lambda g, u, v, found: frozenset({(min(u, v), max(u, v))}))
    for (g, k), (verdict, witness, stats) in zip(cases, banned):
        plain_verdict, plain_witness, plain_stats = is_k_representable(g, k)
        assert (verdict, witness) == (plain_verdict, plain_witness), (g, k)
        assert stats.nodes <= plain_stats.nodes
        if (g, k) == (G("C15"), 5):
            assert stats.nodes < plain_stats.nodes


def test_label_rule_is_lazy(monkeypatch):
    # searches whose first class of the second vertex succeeds compute no orbit
    def refuse(g, u, v, found):
        raise AssertionError("pair_orbit called")

    monkeypatch.setattr(solver, "pair_orbit", refuse)
    for spec, k in WIDE_CALLS:
        assert is_k_representable(G(spec), k)[0] == "yes", (spec, k)


def test_triple_rule_keeps_every_verdict_and_witness(monkeypatch):
    # the type rule on triples: against the same search with O3 cut down to
    # (v1, v2, v3), where it bars only the G_2-orbits of the refuted
    # candidates of v3 itself, the verdict and the witness are identical
    cases = _rule_corpus()
    barred = [is_k_representable(g, k) for g, k in cases]
    monkeypatch.setattr(solver, "tuple_orbit", lambda g, vs, found: frozenset({tuple(vs)}))
    for (g, k), (verdict, witness, stats) in zip(cases, barred):
        plain_verdict, plain_witness, plain_stats = is_k_representable(g, k)
        assert (verdict, witness) == (plain_verdict, plain_witness), (g, k)
        assert stats.nodes <= plain_stats.nodes
        if (g, k) == (G("C15"), 5):
            assert stats.nodes < plain_stats.nodes


# Every order <= 6 case, at widths 3..5, in which the type rule on triples
# skips a candidate that the other reductions would have tried: the one of
# order 5, one of order 6, and the rest of order 6.
TRIPLE_RULE_CASES = [("D~w", 5), ("E_??", 4)]
TRIPLE_RULE_CASES_ORDER_SIX = [
    ("EK??", 4), ("E}a?", 4), ("E~w?", 5), ("EVz?", 4), ("E~z?", 5), ("E~z_", 5),
    ("E~v_", 5), ("E~~_", 5), ("E}~o", 5), ("E~~o", 5), ("E~~w", 5),
]
# Cases in which the rule fired before the distinct-images check (the first
# two lines) or the degree-fit check (the last), which now close those nodes
# first; they stay in the verdict differential.
TRIPLE_RULE_FORMER_CASES = [
    ("E}r?", 4), ("Exr?", 4), ("E~r?", 4), ("E~z?", 4), ("E~N?", 4), ("E~~?", 4),
    ("E~v_", 4), ("E}~o", 4),
    ("D}o", 4), ("E}o?", 4), ("E}q?", 4), ("Elr?", 4), ("Efz?", 4), ("Efz_", 4), ("Ezn?", 4),
]


def _check_triple_rule_cases(cases, monkeypatch, fires=True):
    plain = {}
    with monkeypatch.context() as m:
        m.setattr(solver, "tuple_orbit", lambda g, vs, found: frozenset({tuple(vs)}))
        for g6, k in cases:
            plain[g6, k] = is_k_representable(G(f"g6:{g6}"), k)[2].nodes
    for g6, k in cases:
        g = G(f"g6:{g6}")
        verdict, _, stats = is_k_representable(g, k)
        assert (stats.nodes < plain[g6, k]) == fires, (g6, k)  # whether the rule fires here
        assert (verdict == "yes") == _unreduced_search(g, k), (g6, k)


def test_differential_triple_rule_cases(monkeypatch):
    _check_triple_rule_cases(TRIPLE_RULE_CASES, monkeypatch)


@pytest.mark.slow
def test_differential_triple_rule_cases_order_six(monkeypatch):
    _check_triple_rule_cases(TRIPLE_RULE_CASES_ORDER_SIX, monkeypatch)
    _check_triple_rule_cases(TRIPLE_RULE_FORMER_CASES, monkeypatch, fires=False)


def test_triple_rule_is_lazy(monkeypatch):
    # searches in which no refutation of the third vertex leaves candidates
    # compute no triple orbit
    def refuse(g, vs, found):
        raise AssertionError("tuple_orbit called")

    monkeypatch.setattr(solver, "tuple_orbit", refuse)
    for spec, k in WIDE_CALLS:
        assert is_k_representable(G(spec), k)[0] == "yes", (spec, k)


def test_skip_counter_repeats():
    # the orbit and type rules' skips are deterministic, and C15 at width 5 has some
    first, second = (is_k_representable(G("C15"), 5)[2] for _ in range(2))
    assert (first.nodes, first.skips) == (second.nodes, second.skips)
    assert first.skips > 0


def test_distinct_check_keeps_every_verdict_and_witness(monkeypatch):
    # the check closes only nodes without a completion and narrows no
    # candidate set: against the same search without it, the verdict and the
    # witness are identical (the degree-fit check, off on both sides, would
    # close every node that this one closes)
    cases = _rule_corpus()
    monkeypatch.setattr(solver, "_degree_closes", lambda *args: False)
    checked = [is_k_representable(g, k) for g, k in cases]
    propagate = solver._propagate

    def unchecked(*args):
        out = propagate(*args)
        return out and out[:2] + (False,) + out[3:]

    monkeypatch.setattr(solver, "_propagate", unchecked)
    for (g, k), (verdict, witness, stats) in zip(cases, checked):
        plain_verdict, plain_witness, plain_stats = is_k_representable(g, k)
        assert (verdict, witness) == (plain_verdict, plain_witness), (g, k)
        assert stats.nodes <= plain_stats.nodes
        assert plain_stats.hall_closed == 0
        if (g, k) == (G("C15"), 5):
            assert stats.nodes < plain_stats.nodes


def test_distinct_check_is_lazy(monkeypatch):
    # no class of these searches has fewer candidates than there are
    # unassigned vertices, so the check compares no class with its members
    propagate = solver._propagate

    def checked(classes, adj, row, non, n):
        out = propagate(classes, adj, row, non, n)
        if out is not None:
            assert all(cand.bit_count() >= n for _, cand in out[0]), n
        return out

    monkeypatch.setattr(solver, "_propagate", checked)
    for spec, k in WIDE_CALLS:
        assert is_k_representable(G(spec), k)[0] == "yes", (spec, k)


def test_class_test_is_hall_on_disjoint_class_sets(monkeypatch):
    # the candidate sets of different classes are pairwise disjoint, so the
    # unassigned vertices have distinct images iff no class has more members
    # than candidates: at every node that propagates without a wipe-out, the
    # class test agrees with the matcher on the sets repeated once per member
    # (and the count reported for the fail-first class, which gates the
    # degree-fit check, is the least)
    propagate = solver._propagate
    results = []

    def checked(*args):
        out = propagate(*args)
        if out is not None:
            classes, pick, closed, fewest = out
            sets = [cand for _, cand in classes]
            assert fewest == sets[pick].bit_count() == min(cand.bit_count() for cand in sets)
            assert all(not a & b for i, a in enumerate(sets) for b in sets[:i]), classes
            family = [cand for members, cand in classes for _ in range(members.bit_count())]
            results.append(closed)
            assert closed == (distinct_representatives(family) is None), classes
        return out

    monkeypatch.setattr(solver, "_propagate", checked)
    closed = 0
    for g, k in _rule_corpus():
        stats = is_k_representable(g, k)[2]
        closed += stats.hall_closed
        if (g, k) == (G("C15"), 5):
            assert stats.hall_closed == 471
    assert closed == results.count(True) > 0 and False in results


def test_hall_counter_repeats():
    first, second = (is_k_representable(G("C15"), 5)[2] for _ in range(2))
    assert (first.nodes, first.hall_closed) == (second.nodes, second.hall_closed)
    assert first.hall_closed > 0
    assert all(is_k_representable(G(spec), k)[2].hall_closed == 0 for spec, k in WIDE_CALLS)


def test_fits_is_an_injection_along_the_degree_intervals():
    # against every injection of the needed degrees into the ranks' degrees,
    # over all small ascending lists and slacks
    for m in range(1, 4):
        for need in combinations_with_replacement(range(4), m):
            for slack in range(3):
                for have in combinations_with_replacement(range(4), m + slack):
                    want = any(all(d <= have[j] <= d + slack for d, j in zip(need, js))
                               for js in iter_permutations(range(len(have)), m))
                    assert solver._fits(list(need), list(have), slack) == want, (need, have, slack)


def test_degree_closes_on_single_classes():
    # against the definition on random classes: with |M| >= 2 and at most
    # DEGREE_SLACK more candidates than members, a class closes the node iff
    # no injection sends each member v to a rank whose degree inside the
    # Cayley graph on S lies in [d_v, d_v + |S| - |M|]; other classes never do
    rng = random.Random(11)
    closed = kept = 0
    for k in (3, 4, 5):
        perms = all_perms(k)
        for _ in range(150):
            n = rng.randint(2, 6)
            adjacent = [0] * n
            for u in range(n):
                for v in range(u):
                    if rng.random() < 0.5:
                        adjacent[u] |= 1 << v
                        adjacent[v] |= 1 << u
            members = rng.sample(range(n), rng.randint(1, n))
            if len(members) > factorial(k):
                continue
            # Hall's condition holds at every class the check sees
            ranks = rng.sample(range(factorial(k)), rng.randint(len(members), min(len(members) + 3, factorial(k))))
            m, c = sum(1 << v for v in members), sum(1 << r for r in ranks)
            need = [(adjacent[v] & m).bit_count() for v in members]
            have = [sum(disagree_everywhere(perms[r], perms[q]) for q in ranks) for r in ranks]
            slack = len(ranks) - len(members)
            want = len(members) >= 2 and slack <= solver.DEGREE_SLACK and not any(
                all(d <= have[j] <= d + slack for d, j in zip(need, js))
                for js in iter_permutations(range(len(ranks)), len(members)))
            rows = {}
            got = solver._degree_closes([(m, c)], k, adjacent, {}, rows)
            assert got == want, (k, adjacent, members, ranks)
            assert all(rows[r] == _agreement(k, r) for r in rows)
            closed += got
            kept += not got and len(members) >= 2 and slack <= solver.DEGREE_SLACK
    assert closed > 20 and kept > 20


def test_degree_check_gate_admits_a_class_at_the_slack():
    # E_?? (one edge, four isolated vertices) at width 4: one closing comes
    # at a node whose one class holds all three unassigned vertices and has
    # five candidates, n + DEGREE_SLACK, so the gate must admit equality
    verdict, _, stats = is_k_representable(G("g6:E_??"), 4)
    assert verdict == "no"
    assert (stats.nodes, stats.skips, stats.hall_closed, stats.degree_closed) == (6, 18, 0, 3)


def test_degree_check_keeps_its_counts_when_the_rows_are_dropped(monkeypatch):
    # the per-search rows are a cache: dropping them whenever three are kept
    # changes no count
    monkeypatch.setattr(solver, "AGREE_MEMO_CAP", 3)
    stats = is_k_representable(G("C15"), 5)[2]
    assert (stats.nodes, stats.skips, stats.hall_closed, stats.degree_closed) == (1863, 764, 471, 716)


def _check_degree_closings(cases, monkeypatch) -> int:
    """Run ``cases`` with every degree-fit closing checked by brute force:
    some class fails the check alone, and no class that does has an
    adjacency-preserving injection of its members into its candidate set.
    Returns the number of closings."""
    closes = solver._degree_closes
    closings = []

    def checked(classes, k, adjacent, internal, rows):
        out = closes(classes, k, adjacent, internal, rows)
        if out:
            failing = [cls for cls in classes if closes([cls], k, adjacent, {}, {})]
            assert failing, classes
            for members, cand in failing:
                assert not embeds_induced(adjacent, _set_bits(members), _set_bits(cand), k), (members, cand)
            closings.append(len(failing))
        return out

    monkeypatch.setattr(solver, "_degree_closes", checked)
    for g, k in cases:
        is_k_representable(g, k)
    return len(closings)


def test_degree_closings_have_no_embedding(monkeypatch):
    # the check is sound: g[M] has no induced copy in the Cayley graph on S
    # at any class it closes a node on
    cases = [(g, k) for n in range(1, 6) for g in nonisomorphic_graphs(n) for k in range(1, 6)]
    assert _check_degree_closings(cases, monkeypatch) == 27


@pytest.mark.slow
def test_degree_closings_have_no_embedding_order_six(monkeypatch):
    cases = [(g, k) for g in nonisomorphic_graphs(6) for k in range(1, 6)]
    assert _check_degree_closings(cases, monkeypatch) == 109


def test_degree_check_keeps_every_verdict_and_witness(monkeypatch):
    # the check closes only nodes without a completion and narrows no
    # candidate set: against the same search without it, the verdict and the
    # witness are identical
    cases = _rule_corpus()
    checked = [is_k_representable(g, k) for g, k in cases]
    monkeypatch.setattr(solver, "_degree_closes", lambda *args: False)
    closed = 0
    for (g, k), (verdict, witness, stats) in zip(cases, checked):
        plain_verdict, plain_witness, plain_stats = is_k_representable(g, k)
        assert (verdict, witness) == (plain_verdict, plain_witness), (g, k)
        assert stats.nodes <= plain_stats.nodes, (g, k)
        assert plain_stats.degree_closed == 0
        closed += stats.degree_closed
        if (g, k) == (G("C15"), 5):
            assert stats.nodes < plain_stats.nodes
    assert closed > 0


def test_degree_check_is_lazy(monkeypatch):
    # no class of these searches is within DEGREE_SLACK candidates of the
    # unassigned vertices, so the check never runs
    def refuse(*args):
        raise AssertionError("_degree_closes called")

    monkeypatch.setattr(solver, "_degree_closes", refuse)
    for spec, k in WIDE_CALLS:
        verdict, _, stats = is_k_representable(G(spec), k)
        assert (verdict, stats.degree_closed) == ("yes", 0), (spec, k)


def test_conjugator_conjugates_within_a_class():
    for k in range(1, 6):
        reps = _class_representatives(k)
        for rho in reps:
            for beta in all_perms(k):
                t = _conjugator(rho, beta)
                if t is None:
                    assert sorted(map(len, cycles(beta))) != sorted(map(len, cycles(rho)))
                else:
                    assert compose(t, compose(rho, inverse(t))) == beta, (rho, beta)


def test_differential_order_six_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    slots = [(i, j) for i in range(6) for j in range(i + 1, 6)]

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(0, (1 << len(slots)) - 1), st.integers(1, 4))
    def check(mask, k):
        g = Graph.from_edges(6, [e for b, e in enumerate(slots) if mask >> b & 1])
        assert (is_k_representable(g, k)[0] == "yes") == _unreduced_search(g, k)

    check()


def test_width_cap():
    with pytest.raises(WidthCapError):
        is_k_representable(G("K2"), 9)


def test_single_vertex():
    assert is_k_representable(G("K1"), 1)[0] == "yes"
    assert solve_drn(G("K1")).drn == 1


def test_every_yes_has_verifying_witness():
    rng = random.Random(23)
    from itertools import combinations
    for _ in range(30):
        n = rng.randint(2, 6)
        g = Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        for k in (3, 4):
            verdict, witness, _ = is_k_representable(g, k)
            if verdict == "yes":
                assert verify(g, witness).valid


def test_oracle_equivalence_small():
    for n in range(1, 4):
        for g in nonisomorphic_graphs(n):
            for k in range(1, 4):
                assert (is_k_representable(g, k)[0] == "yes") == brute_force_oracle(g, k)


def test_oracle_caps():
    with pytest.raises(ValueError):
        brute_force_oracle(G("K5"), 4)
    with pytest.raises(ValueError):
        brute_force_oracle(G("K4"), 5)


def test_verdict_monotone_in_width_on_small_corpus():
    for n in range(1, 5):
        for g in nonisomorphic_graphs(n):
            verdicts = [is_k_representable(g, k)[0] == "yes" for k in range(1, 5)]
            assert verdicts == sorted(verdicts)


def test_solve_examples():
    res = solve_drn(G("P3"))
    assert res.drn == 4 and res.ks_refuted == (3,) and res.lower_bound_used == 3
    assert verify(G("P3"), res.witness).valid
    assert solve_drn(G("C7")).drn == 5
    assert solve_drn(G("K3,3")).drn == 5


def test_solve_witness_always_verifies():
    for spec in ("P5", "C9", "K3,4", "K5-2K2", "E6"):
        g = G(spec)
        res = solve_drn(g)
        assert verify(g, res.witness).valid
        assert res.lower_bound_used <= res.drn <= res.upper_bound_used
        assert all(k < res.drn for k in res.ks_refuted)


def test_induced_subgraph_monotonicity_random():
    rng = random.Random(41)
    from itertools import combinations
    seen = 0
    while seen < 100:
        n = rng.randint(2, 6)
        g = Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        m = rng.randint(1, n)
        vs = sorted(rng.sample(range(n), m))
        h = induced(g, vs)
        assert solve_drn(g).drn >= solve_drn(h).drn
        seen += 1


def test_determinism():
    g = G("C9")
    a = solve_drn(g)
    b = solve_drn(g)
    assert a.drn == b.drn and a.ks_refuted == b.ks_refuted and a.witness == b.witness
    assert {k: s.nodes for k, s in a.stats.items()} == {k: s.nodes for k, s in b.stats.items()}


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExhaustedError):
        solve_drn(G("K3,3"), Budget(node_limit=3))
    verdict, _, stats = is_k_representable(G("K3,3"), 4, Budget(node_limit=3))
    assert verdict == "unknown" and stats.nodes == 3
    verdict, witness, stats = is_k_representable(G("C16"), 8, Budget(node_limit=3))
    assert verdict == "unknown" and witness is None and stats.nodes == 3


def test_zero_time_limit_searches_nothing():
    verdict, witness, stats = is_k_representable(G("C15"), 5, Budget(time_limit_ms=0))
    assert (verdict, witness) == ("unknown", None) and stats.nodes == 0


def test_budget_is_shared_across_calls():
    # K3,3 spends 6 nodes refuting width 4 and 5 deciding width 5
    budget = Budget(node_limit=10)
    assert is_k_representable(G("K3,3"), 4, budget)[0] == "no"
    verdict, _, stats = is_k_representable(G("K3,3"), 5, budget)
    assert verdict == "unknown" and stats.nodes == 4 and budget.nodes == 10
    with pytest.raises(BudgetExhaustedError, match="at width 5 after 4 nodes"):
        solve_drn(G("K3,3"), Budget(node_limit=10))
    res = solve_drn(G("K3,3"), Budget(node_limit=11))
    assert res.drn == 5 and {k: s.nodes for k, s in res.stats.items()} == {4: 6, 5: 5}


def test_search_after_the_deadline_spends_nothing():
    budget = Budget()
    assert is_k_representable(G("C7"), 4, budget)[0] == "no"
    spent = budget.nodes
    assert spent > 0
    budget.deadline = time.monotonic()  # the deadline passes between two calls
    verdict, witness, stats = is_k_representable(G("C7"), 4, budget)
    assert (verdict, witness, stats.nodes, budget.nodes) == ("unknown", None, 0, spent)


def test_max_k_stops_early():
    with pytest.raises(BudgetExhaustedError):
        solve_drn(G("K3,3"), max_k=3)


def test_survey_examples():
    assert survey(nonisomorphic_graphs(3), 3).not_representable_count == 2
    assert survey(nonisomorphic_graphs(2), 2).not_representable_count == 1
    assert survey(nonisomorphic_graphs(4), 4).not_representable_count == 0
    # single-graph corpora
    assert survey([G("E2")], 4).not_representable_count == 0
    assert survey([G("E3")], 3).not_representable_count == 1


def test_survey_reports_refuted_graphs():
    res = survey(nonisomorphic_graphs(3), 3)
    assert res.total == 4
    assert len(res.refuted_graph6) == 2
