import random
from itertools import product

import pytest

from drn.latin import (
    LatinRectangle,
    LatinSquare,
    circulant,
    distinct_representatives,
    duplicate_rows,
    hall_extend,
    idempotent,
    prescribe_rows,
    rectangle,
    shift_symbols,
    square,
)
from reference import has_distinct_representatives


def test_rectangle_invariants():
    with pytest.raises(ValueError):
        rectangle([[1, 2], [1, 2]])  # column repeats
    with pytest.raises(ValueError):
        rectangle([[1, 1]])
    with pytest.raises(ValueError):
        rectangle([[1, 2], [2, 1], [1, 2]])  # more rows than columns
    with pytest.raises(ValueError):
        square([[1, 2]])


def test_circulant_examples():
    assert circulant(3).cells == ((1, 2, 3), (3, 1, 2), (2, 3, 1))
    assert circulant(1).cells == ((1,),)
    assert circulant(8).row(2) == (8, 1, 2, 3, 4, 5, 6, 7)


@pytest.mark.parametrize("n", list(range(1, 41)))
def test_circulant_is_latin(n):
    sq = circulant(n)
    assert sq.is_square and sq.row(1) == tuple(range(1, n + 1))


def test_idempotent_examples():
    assert idempotent(1).cells == ((1,),)
    assert idempotent(3).cells == ((1, 3, 2), (3, 2, 1), (2, 1, 3))
    # the order-5 block used by the 10-cycle certificate
    assert idempotent(5).cells == (
        (1, 4, 2, 5, 3), (4, 2, 5, 3, 1), (2, 5, 3, 1, 4), (5, 3, 1, 4, 2), (3, 1, 4, 2, 5))
    with pytest.raises(ValueError, match="order 2"):
        idempotent(2)


@pytest.mark.parametrize("n", [n for n in range(1, 41) if n != 2])
def test_idempotent_diagonal_and_latin(n):
    sq = idempotent(n)
    assert isinstance(sq, LatinSquare)
    assert tuple(sq.row(i)[i - 1] for i in range(1, n + 1)) == tuple(range(1, n + 1))


def test_hall_extend_examples():
    sq = hall_extend(rectangle([[1, 2, 3]]))
    assert sq.is_square and sq.row(1) == (1, 2, 3)
    sq = hall_extend(rectangle([[1, 2, 3, 4], [2, 1, 4, 3]]))
    assert sq.is_square and sq.row(1) == (1, 2, 3, 4) and sq.row(2) == (2, 1, 4, 3)
    # any integer symbols
    assert hall_extend(rectangle([[0, -1, 5]])).cells == ((0, -1, 5), (5, 0, -1), (-1, 5, 0))
    with pytest.raises(ValueError):
        hall_extend(circulant(3))  # already square
    # one missing row has a unique completion
    c = circulant(4)
    sq = hall_extend(rectangle(c.cells[:3]))
    assert sq.cells == c.cells


def _random_rectangle(rng: random.Random, n: int) -> LatinRectangle:
    # random latin square via shuffles of the circulant, then truncate rows
    base = circulant(n)
    rows = list(base.cells)
    rng.shuffle(rows)
    cols = list(range(n))
    rng.shuffle(cols)
    relabel = list(range(1, n + 1))
    rng.shuffle(relabel)
    rows = [tuple(relabel[row[c] - 1] for c in cols) for row in rows]
    r = rng.randint(1, n - 1)
    return rectangle(rows[:r])


@pytest.mark.parametrize("seed", range(8))
def test_hall_extend_random_rectangles(seed):
    rng = random.Random(seed)
    for n in (4, 7, 11, 16, 20):
        rect = _random_rectangle(rng, n)
        sq = hall_extend(rect)
        assert isinstance(sq, LatinSquare)
        assert sq.cells[: rect.r] == rect.cells


def test_hall_extend_deterministic():
    rect = rectangle([[1, 2, 3, 4, 5]])
    assert hall_extend(rect).cells == hall_extend(rect).cells


def test_prescribe_rows():
    sq = prescribe_rows([(1, 2, 3, 4, 5), (2, 1, 5, 3, 4)], 5)
    assert sq.row(1) == (1, 2, 3, 4, 5) and sq.row(2) == (2, 1, 5, 3, 4)
    assert prescribe_rows([tuple(range(1, 7))], 6).is_square
    with pytest.raises(ValueError, match="conflict"):
        prescribe_rows([(1, 2, 3), (1, 3, 2)], 3)
    with pytest.raises(ValueError, match="conflict"):
        prescribe_rows([(1, 2, 4)], 3)


def test_duplicate_rows_examples():
    d = duplicate_rows(square([[1, 2], [2, 1]]), [1, 2], 3)
    assert d.cells == ((1, 2), (1, 2), (2, 1))
    L = circulant(3)
    d = duplicate_rows(L, [2, 4], 4)
    assert d.cells == (L.row(1), L.row(2), L.row(3), L.row(2))
    d = duplicate_rows(square([[7]]), list(range(1, 5)), 4)
    assert d.cells == ((7,),) * 4


def test_duplicate_rows_dichotomy_random():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(3, 12)
        k = rng.randint(2, n - 1)
        src = circulant(n - k + 1)
        s = sorted(rng.sample(range(1, n + 1), k))
        # the constructor asserts the agree/differ dichotomy over all row pairs
        d = duplicate_rows(src, s, n)
        assert len(d.cells) == n and len(d.cells[0]) == n - k + 1


def test_duplicate_rows_errors():
    with pytest.raises(ValueError):
        duplicate_rows(circulant(3), [2], 4)
    with pytest.raises(ValueError):
        duplicate_rows(circulant(3), [1, 2], 5)  # order mismatch


def test_shift_symbols():
    sq = shift_symbols(square([[1, 2], [2, 1]]), 2)
    assert sq.cells == ((3, 4), (4, 3))
    assert shift_symbols(sq, 0).cells == sq.cells
    back = shift_symbols(circulant(4), 7)
    assert tuple(x - 7 for x in back.row(3)) == circulant(4).row(3)
    with pytest.raises(ValueError):
        shift_symbols(sq, -1)


def _check_representatives(family):
    chosen = distinct_representatives(list(family))
    assert (chosen is not None) == has_distinct_representatives(family), family
    if chosen is not None:  # one single bit from each set, no bit twice
        assert len(chosen) == len(family), family
        assert all(bit.bit_count() == 1 and bit & s for bit, s in zip(chosen, family)), family
        assert len(set(chosen)) == len(chosen), family


def test_distinct_matches_hall_oracle():
    # every family of at most 3 sets over at most 3 values, then random
    # families of up to 7 sets over 8 values
    for size in range(4):
        for family in product(range(8), repeat=size):
            _check_representatives(family)
    rng = random.Random(13)
    for _ in range(3000):
        width = rng.randint(1, 8)
        _check_representatives([rng.getrandbits(width) for _ in range(rng.randint(1, 7))])
