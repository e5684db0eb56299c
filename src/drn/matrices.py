"""Representation matrices and the adjacency verifier.

An n x k representation matrix assigns one permutation of S_k per vertex
(row i <-> vertex v_i).  It represents a graph when two rows disagree in
every column exactly for adjacent vertex pairs, and all rows are distinct.
The verifier reports every violating pair, not just the first, so a bad
certificate localizes immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from drn.graphs import Graph, data_lines
from drn.perms import Perm, check_perm, is_perm

ADJACENT_BUT_AGREE = "adjacent-but-agree"
NONADJ_BUT_DISAGREE = "non-adjacent-but-disagree-everywhere"
DUPLICATE_ROWS = "duplicate-rows"


class MatrixParseError(ValueError):
    pass


@dataclass(frozen=True)
class RepresentationMatrix:
    """Rows are degree-k permutations; one row per vertex."""

    rows: tuple[Perm, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("matrix must have at least one row")
        k = len(self.rows[0])
        for i, row in enumerate(self.rows, start=1):
            if len(row) != k:
                raise ValueError(f"row {i} has width {len(row)}, expected {k}")
            if not is_perm(row):
                raise ValueError(f"row {i} is not a permutation")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return len(self.rows[0])


@dataclass(frozen=True)
class Violation:
    i: int  # 1-based row indices, i < j
    j: int
    kind: str
    position: int | None = None  # witness column for adjacent-but-agree

    def describe(self) -> str:
        if self.kind == DUPLICATE_ROWS:
            return f"duplicate rows {self.i},{self.j}"
        if self.kind == ADJACENT_BUT_AGREE:
            return f"rows {self.i},{self.j}: adjacent but agree at position {self.position}"
        return f"rows {self.i},{self.j}: non-adjacent but disagree everywhere"


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    violations: tuple[Violation, ...] = field(default_factory=tuple)


def verify(g: Graph, m: RepresentationMatrix) -> VerifyReport:
    """Check the defining equivalence for every vertex pair plus row distinctness."""
    if m.n != g.n:
        raise ValueError(f"row count {m.n} does not match vertex count {g.n}")
    violations = []
    for i in range(m.n):
        for j in range(i + 1, m.n):
            a, b = m.rows[i], m.rows[j]
            if a == b:
                violations.append(Violation(i + 1, j + 1, DUPLICATE_ROWS))
                continue
            agree_at = next((p for p in range(m.k) if a[p] == b[p]), None)
            if g.has_edge(i, j):
                if agree_at is not None:
                    violations.append(Violation(i + 1, j + 1, ADJACENT_BUT_AGREE, agree_at + 1))
            elif agree_at is None:
                violations.append(Violation(i + 1, j + 1, NONADJ_BUT_DISAGREE))
    return VerifyReport(not violations, tuple(violations))


# drnmat file format: "drnmat 1" / "<n> <k>" / n grid lines; '#' comments; LF.

def write_matrix(m: RepresentationMatrix, comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append("drnmat 1")
    lines.append(f"{m.n} {m.k}")
    lines.extend(" ".join(str(x) for x in row) for row in m.rows)
    return "\n".join(lines) + "\n"


def read_matrix(text: str) -> RepresentationMatrix:
    lines = data_lines(text)
    if not lines or lines[0].split() != ["drnmat", "1"]:
        raise MatrixParseError("missing 'drnmat 1' header")
    if len(lines) < 2:
        raise MatrixParseError("missing dimensions line")
    try:
        n, k = (int(t) for t in lines[1].split())
    except ValueError as e:
        raise MatrixParseError(f"bad dimensions line {lines[1]!r}") from e
    grid = lines[2:]
    if len(grid) != n:
        raise MatrixParseError(f"expected {n} rows, found {len(grid)}")
    rows = []
    for i, ln in enumerate(grid, start=1):
        try:
            entries = [int(t) for t in ln.split()]
        except ValueError as e:
            raise MatrixParseError(f"row {i} is not numeric") from e
        if len(entries) != k:
            raise MatrixParseError(f"row {i} has {len(entries)} entries, expected {k}")
        try:
            rows.append(check_perm(entries))
        except ValueError as e:
            raise MatrixParseError(f"row {i} is not a permutation") from e
    return RepresentationMatrix(tuple(rows))
