import random
from math import factorial

import pytest

from drn.perms import (
    all_perms,
    compose,
    conjugate,
    cycles,
    derangement_count,
    disagree_everywhere,
    enumerate_derangements,
    identity,
    inverse,
    is_derangement,
    rank_perm,
    unrank_perm,
)


def test_compose_examples():
    assert compose((2, 3, 1), (3, 1, 2)) == (1, 2, 3)
    assert compose((1, 2, 3, 4), (3, 4, 1, 2)) == (3, 4, 1, 2)
    assert compose((2, 1, 3), (2, 1, 3)) == (1, 2, 3)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        compose((1, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="degree mismatch"):
        disagree_everywhere((1, 2), (1, 2, 3))


def test_inverse_examples():
    assert inverse((2, 3, 1)) == (3, 1, 2)
    assert inverse((1, 2, 3, 4)) == (1, 2, 3, 4)
    assert inverse((2, 1, 4, 3)) == (2, 1, 4, 3)


def test_inverse_composes_to_identity():
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randint(1, 8)
        p = tuple(rng.sample(range(1, k + 1), k))
        assert compose(p, inverse(p)) == identity(k)
        assert compose(inverse(p), p) == identity(k)


def test_is_derangement():
    assert is_derangement((2, 3, 1))
    assert not is_derangement((1, 2, 3))
    assert not is_derangement((2, 1, 3))


def test_disagree_everywhere():
    assert disagree_everywhere((1, 2, 3, 4), (3, 4, 1, 2))
    assert not disagree_everywhere((1, 2, 3, 4), (1, 2, 4, 3))
    assert not disagree_everywhere((2, 1), (2, 1))


def test_disagree_matches_quotient_derangement():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.randint(1, 6)
        a = tuple(rng.sample(range(1, k + 1), k))
        b = tuple(rng.sample(range(1, k + 1), k))
        assert disagree_everywhere(a, b) == is_derangement(compose(inverse(a), b))
        assert disagree_everywhere(a, b) == disagree_everywhere(b, a)


def test_enumerate_derangements_small():
    assert list(enumerate_derangements(3)) == [(2, 3, 1), (3, 1, 2)]
    assert list(enumerate_derangements(1)) == []


def test_enumerate_derangements_k4_against_filter_oracle():
    # independent oracle: filter the full symmetric group
    oracle = [p for p in all_perms(4) if all(p[i] != i + 1 for i in range(4))]
    assert list(enumerate_derangements(4)) == oracle
    assert len(oracle) == 9


@pytest.mark.parametrize("k", range(1, 10))
def test_derangement_counts_match_recurrence(k):
    assert sum(1 for _ in enumerate_derangements(k)) == derangement_count(k)


def test_enumeration_is_lexicographic_and_capped():
    for k in (3, 4, 5):
        ds = list(enumerate_derangements(k))
        assert ds == sorted(ds)
    with pytest.raises(ValueError):
        list(enumerate_derangements(13))


def test_rank_unrank_examples():
    assert rank_perm((1, 2, 3)) == 0
    for k in (1, 2, 5):
        assert unrank_perm(factorial(k) - 1, k) == tuple(range(k, 0, -1))
    assert rank_perm(unrank_perm(5, 3)) == 5


@pytest.mark.parametrize("k", range(1, 7))
def test_rank_unrank_round_trip_all(k):
    for r, p in enumerate(all_perms(k)):
        assert rank_perm(p) == r
        assert unrank_perm(r, k) == p


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        unrank_perm(6, 3)
    with pytest.raises(ValueError):
        unrank_perm(-1, 3)


def test_derangements_closed_under_inverse_and_conjugation():
    rng = random.Random(3)
    for _ in range(200):
        k = rng.randint(2, 6)
        d = tuple(rng.choice(list(enumerate_derangements(k))))
        t = tuple(rng.sample(range(1, k + 1), k))
        assert is_derangement(inverse(d))
        assert is_derangement(conjugate(t, d))


def test_cycles_rebuild_the_permutation():
    assert cycles((2, 1, 3)) == [[1, 2], [3]]
    assert cycles((3, 1, 2, 5, 4)) == [[1, 3, 2], [4, 5]]
    for p in all_perms(5):
        cyc = cycles(p)
        assert [c[0] for c in cyc] == sorted(min(c) for c in cyc)
        rebuilt = [0] * 5
        for c in cyc:
            for i, x in enumerate(c):
                rebuilt[x - 1] = c[(i + 1) % len(c)]
        assert tuple(rebuilt) == p
