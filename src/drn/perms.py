"""Permutation arithmetic, ranking and cycles over S_k.

Permutations are plain tuples of 1-based images in one-line form: ``(2, 3, 1)``
is the map 1->2, 2->3, 3->1.  All values are immutable and all operations are
pure.

Enumeration and ranking APIs are capped at degree 12: dense rank indices are
used as bitset positions elsewhere, and 12! already exceeds any sensible
bitset budget at desk scale.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Sequence

Perm = tuple[int, ...]

MAX_ENUM_DEGREE = 12
# 0! .. MAX_ENUM_DEGREE!, the place values of the factorial number system
_FACTORIALS = tuple(factorial(i) for i in range(MAX_ENUM_DEGREE + 1))


def is_perm(images: Sequence[int]) -> bool:
    """Check that ``images`` is a bijection on [1..k].

    >>> is_perm((2, 3, 1)), is_perm((2, 2, 1)), is_perm((0, 1, 2))
    (True, False, False)
    """
    return sorted(images) == list(range(1, len(images) + 1))


def check_perm(images: Sequence[int]) -> Perm:
    """Validate and normalize to a tuple; raises ValueError if not a permutation."""
    p = tuple(images)
    if not p or not is_perm(p):
        raise ValueError(f"not a permutation of [1..{len(p)}]: {p}")
    return p


def identity(k: int) -> Perm:
    if k < 1:
        raise ValueError("degree must be >= 1")
    return tuple(range(1, k + 1))


def inverse(a: Perm) -> Perm:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x - 1] = i + 1
    return tuple(inv)


def rank_perm(a: Perm) -> int:
    """Lexicographic rank of ``a`` in S_k, in [0, k!-1], via the factorial number system.

    >>> rank_perm((1, 2, 3))
    0
    """
    k = len(a)
    if k > MAX_ENUM_DEGREE:
        raise ValueError(f"degree {k} exceeds enumeration cap {MAX_ENUM_DEGREE}")
    rank = 0
    seen = 0  # bitmask of already-placed values (1-based bits)
    for i, x in enumerate(a):
        smaller_unused = x - 1 - (seen & ((1 << x) - 1)).bit_count()
        rank += smaller_unused * _FACTORIALS[k - 1 - i]
        seen |= 1 << x
    return rank


def unrank_perm(rank: int, k: int) -> Perm:
    """Inverse of rank_perm: the rank-th permutation of S_k in lexicographic order."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    if k > MAX_ENUM_DEGREE:
        raise ValueError(f"degree {k} exceeds enumeration cap {MAX_ENUM_DEGREE}")
    if not 0 <= rank < _FACTORIALS[k]:
        raise ValueError(f"rank {rank} out of range for degree {k}")
    avail = list(range(1, k + 1))
    out = []
    for i in range(k - 1, -1, -1):
        idx, rank = divmod(rank, _FACTORIALS[i])
        out.append(avail.pop(idx))
    return tuple(out)


def all_perms(k: int) -> list[Perm]:
    """All of S_k in lexicographic (= rank) order."""
    if k > MAX_ENUM_DEGREE:
        raise ValueError(f"degree {k} exceeds enumeration cap {MAX_ENUM_DEGREE}")
    return list(itertools.permutations(range(1, k + 1)))


def cycles(a: Perm) -> list[list[int]]:
    """The cycles of ``a``, each listed from its least point, in order of that point.

    >>> cycles((2, 1, 3))
    [[1, 2], [3]]
    """
    seen = [False] * (len(a) + 1)
    out = []
    for i in range(1, len(a) + 1):
        if seen[i]:
            continue
        cyc, j = [], i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = a[j - 1]
        out.append(cyc)
    return out
