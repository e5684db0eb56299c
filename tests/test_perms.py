import random
from collections import Counter
from math import factorial, prod

import pytest

from drn.perms import (
    all_perms,
    cycles,
    identity,
    inverse,
    rank_perm,
    unrank_perm,
)
from reference import class_representatives, compose, disagree_everywhere


def _is_derangement(a):
    return all(x != i for i, x in enumerate(a, start=1))


def _derangement_count(k):
    """d(k) by the recurrence d(k) = (k-1)(d(k-1) + d(k-2)), d(0) = 1, d(1) = 0."""
    a, b = 1, 0
    for m in range(2, k + 1):
        a, b = b, (m - 1) * (a + b)
    return b


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
        assert disagree_everywhere(a, b) == _is_derangement(compose(inverse(a), b))
        assert disagree_everywhere(a, b) == disagree_everywhere(b, a)


@pytest.mark.parametrize("k", range(1, 10))
def test_derangement_counts_match_recurrence(k):
    # One representative per cycle type: the fixed-point-free classes, of
    # size k! / prod(l^m_l * m_l!), hold the d(k) derangements, and all the
    # classes together hold k! permutations.
    sizes = {}
    for rep in class_representatives(k):
        mult = Counter(len(c) for c in cycles(rep))
        sizes[rep] = factorial(k) // prod(l**m * factorial(m) for l, m in mult.items())
    assert sum(sizes.values()) == factorial(k)
    assert sum(s for rep, s in sizes.items() if _is_derangement(rep)) == _derangement_count(k)


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
        d = rng.choice([p for p in all_perms(k) if _is_derangement(p)])
        t = tuple(rng.sample(range(1, k + 1), k))
        assert _is_derangement(inverse(d))
        assert _is_derangement(compose(inverse(t), compose(d, t)))


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
