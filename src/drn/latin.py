"""Latin squares and rectangles, plus the operators the representation
constructions are assembled from: circulant and idempotent squares,
completion of rectangles one row at a time, each row a system of distinct
representatives of the columns' free symbols (Hall's condition always
holds; the matching is ``distinct_representatives``, the package's one
bipartite matcher, whose only use is this completion), prescribed-row
squares, symbol translation, and the row-duplication operator that turns a
latin square into an array where exactly one chosen set of rows agrees
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from drn.perms import is_perm


@dataclass(frozen=True)
class LatinRectangle:
    """r x n array: every row a permutation of the symbol set, no symbol twice in a column."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.cells:
            raise ValueError("rectangle must have at least one row")
        n = len(self.cells[0])
        symbols = frozenset(self.cells[0])
        if len(symbols) != n:
            raise ValueError("row 1 repeats a symbol")
        if len(self.cells) > n:
            raise ValueError("more rows than columns")
        for i, row in enumerate(self.cells):
            if len(row) != n:
                raise ValueError(f"row {i + 1} has wrong length")
            if frozenset(row) != symbols:
                raise ValueError(f"row {i + 1} is not a permutation of the symbol set")
        for j in range(n):
            col = [row[j] for row in self.cells]
            if len(set(col)) != len(col):
                raise ValueError(f"column {j + 1} repeats a symbol")

    @property
    def r(self) -> int:
        return len(self.cells)

    @property
    def n(self) -> int:
        return len(self.cells[0])

    @property
    def is_square(self) -> bool:
        return self.r == self.n

    def row(self, i: int) -> tuple[int, ...]:
        """1-based row access."""
        return self.cells[i - 1]


class LatinSquare(LatinRectangle):
    def __post_init__(self):
        super().__post_init__()
        if self.r != self.n:
            raise ValueError("latin square must have as many rows as columns")


def square(cells: Sequence[Sequence[int]]) -> LatinSquare:
    return LatinSquare(tuple(tuple(row) for row in cells))


def rectangle(cells: Sequence[Sequence[int]]) -> LatinRectangle:
    return LatinRectangle(tuple(tuple(row) for row in cells))


def circulant(n: int) -> LatinSquare:
    """cell(i,j) = j-i+1 if j >= i else n+1+j-i; row 1 is (1, 2, ..., n).

    >>> circulant(3).cells
    ((1, 2, 3), (3, 1, 2), (2, 3, 1))
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    return square([[(j - i) % n + 1 for j in range(n)] for i in range(n)])


def idempotent(n: int) -> LatinSquare:
    """An idempotent latin square of order n (diagonal = 1..n); exists for all n != 2.

    Odd orders use the commutative quasigroup x*y = (x+y)(n+1)/2 mod n.
    Even orders n >= 4 prolong the odd square of order n-1 along an
    off-diagonal transversal, which keeps the diagonal intact.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 2:
        raise ValueError("no idempotent latin square of order 2")
    if n % 2 == 1:
        return square(_odd_idempotent_cells(n))

    m = n - 1
    base = _odd_idempotent_cells(m)
    # transversal at (i, i+1 mod m): symbols i + c distinct mod m, never on the diagonal
    cells = [list(row) + [0] for row in base]
    cells.append([0] * n)
    for i in range(m):
        j = (i + 1) % m
        cells[i][n - 1] = cells[i][j]
        cells[m][j] = cells[i][j]
        cells[i][j] = n
    cells[m][n - 1] = n
    return square(cells)


def _odd_idempotent_cells(n: int) -> list[list[int]]:
    c = (n + 1) // 2
    return [[((i + j) * c - 1) % n + 1 for j in range(1, n + 1)] for i in range(1, n + 1)]


def shift_symbols(rect: LatinRectangle, offset: int) -> LatinRectangle:
    """Translate every symbol by a nonnegative offset."""
    if offset < 0:
        raise ValueError("offset must be >= 0")
    cells = tuple(tuple(x + offset for x in row) for row in rect.cells)
    return LatinSquare(cells) if rect.is_square else LatinRectangle(cells)


def distinct_representatives(sets: list[int]) -> list[int] | None:
    """A system of distinct representatives of the bitsets ``sets``, one bit
    from each, no bit twice: each set's chosen bit, or None when there is
    none.  Each set in turn takes a free bit if it has one, else the
    matching grows along an augmenting path, found breadth first (Kuhn).
    When a set has none, the matching is maximum (Berge) and leaves that set
    out, so the family has no such system (P. Hall, "On representatives of
    subsets", J. London Math. Soc. 1935: some j sets have fewer than j bits
    in their union)."""
    owner: dict[int, int] = {}  # each matched bit -> the index of its set
    match = [0] * len(sets)  # each set's matched bit
    used = 0
    for i, s in enumerate(sets):
        j, free = i, s & ~used
        if not free:
            parent: dict[int, int] = {}  # a bit reached -> the set it was reached from
            seen, queue = 0, [i]
            for j in queue:
                reach = sets[j] & ~seen
                free = reach & ~used
                if free:
                    break
                seen |= reach
                while reach:
                    low = reach & -reach
                    reach ^= low
                    parent[low] = j
                    queue.append(owner[low])
            else:
                return None
        bit = free & -free
        used |= bit
        while j != i:  # each set on the path takes the bit after it
            match[j], bit = bit, match[j]
            owner[match[j]] = j
            j = parent[bit]
        match[i], owner[bit] = bit, i
    return match


def _extend_rows(rows: Sequence[Sequence[int]], count: int) -> list[tuple[int, ...]]:
    """``count`` rows, each a permutation of the symbols of ``rows[0]`` that
    differs in every column from ``rows`` and from the rows before it.

    Each new row is a system of distinct representatives of the columns'
    free symbols (``distinct_representatives``), so the result is
    deterministic.  Used by hall_extend and by the constructions that extend
    improper rectangles (duplicated column symbols only shrink the free sets,
    Hall's condition still holds there).
    """
    low = min(rows[0])  # symbol s is bit s - low
    full = sum(1 << (s - low) for s in rows[0])
    free = [full & ~sum({1 << (s - low) for s in col}) for col in zip(*rows)]  # a column may repeat a symbol
    out = []
    for _ in range(count):
        bits = distinct_representatives(free)
        if bits is None:
            raise RuntimeError("internal invariant violated: no system of distinct representatives")
        out.append(tuple(bit.bit_length() - 1 + low for bit in bits))
        free = [f ^ bit for f, bit in zip(free, bits)]
    return out


def hall_extend(rect: LatinRectangle) -> LatinSquare:
    """Complete a latin rectangle to a latin square containing it as a prefix.

    >>> hall_extend(rectangle([[1, 2, 3]])).row(1)
    (1, 2, 3)
    """
    if rect.is_square:
        raise ValueError("rectangle is already square; nothing to extend")
    return LatinSquare(rect.cells + tuple(_extend_rows(rect.cells, rect.n - rect.r)))


def prescribe_rows(rows: Sequence[Sequence[int]], n: int) -> LatinSquare:
    """Latin square of order n over symbols [1..n] whose first rows are exactly ``rows``."""
    cells = tuple(tuple(r) for r in rows)
    for i, row in enumerate(cells):
        if len(row) != n or not is_perm(row):
            raise ValueError(f"prescribed rows conflict: row {i + 1} is not a permutation of [1..{n}]")
    try:
        rect = LatinRectangle(cells)
    except ValueError as e:
        raise ValueError(f"prescribed rows conflict: {e}") from e
    if rect.r == n:
        return LatinSquare(cells)
    return hall_extend(rect)


@dataclass(frozen=True)
class RowDuplicatedArray:
    """n x (n-k+1) array built from a latin square by duplicating one row into
    the positions of S: rows agree in every column iff both indices lie in S,
    and differ in every column otherwise."""

    cells: tuple[tuple[int, ...], ...]
    dup_rows: frozenset[int]  # 1-based row indices

    def __post_init__(self):
        rows = self.cells
        for (i, a), (j, b) in combinations(enumerate(rows, start=1), 2):
            in_s = i in self.dup_rows and j in self.dup_rows
            if in_s:
                if a != b:
                    raise ValueError(f"duplicated rows {i},{j} differ")
            elif any(x == y for x, y in zip(a, b)):
                raise ValueError(f"rows {i},{j} agree in some column but are not both duplicated")


def duplicate_rows(sq: LatinSquare, dup: Sequence[int], n: int) -> RowDuplicatedArray:
    """Expand an order n-k+1 latin square to n rows, writing row s_1's content
    into every position of ``dup`` = {s_1 < ... < s_k} and shifting the
    remaining source rows downward in order.
    """
    s = sorted(dup)
    k = len(s)
    if k < 2:
        raise ValueError("need at least two duplicate positions")
    if len(set(s)) != k or s[0] < 1 or s[-1] > n:
        raise ValueError("duplicate positions must be distinct indices in [1..n]")
    if sq.n != n - k + 1:
        raise ValueError(f"source order {sq.n} does not match n-k+1 = {n - k + 1}")

    rows = []
    for i in range(1, n + 1):
        if i in s[1:]:
            rows.append(sq.row(s[0]))
        else:
            shift = sum(1 for t in s[1:] if t < i)
            rows.append(sq.row(i - shift))
    return RowDuplicatedArray(tuple(rows), frozenset(s))
