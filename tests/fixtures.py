"""Transcribed reference certificates for the named graph families.

Each fixture stores a representation matrix verbatim from its published
source together with the labeled graph it certifies (as explicit edges or as
the non-edges of a complete graph).  Two transcriptions are known errata:
they fail verification in exactly the documented way, and a one-entry
corrected variant (the unique repair given the other rows) is stored
alongside.  Fixtures are never silently "fixed": the verbatim rows stay.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from drn.graphs import Graph
from drn.matrices import RepresentationMatrix
from reference import matrix


@dataclass(frozen=True)
class Fixture:
    name: str
    rows: tuple[tuple[int, ...], ...]
    n: int
    # exactly one of edges / nonedges is set (1-based vertex pairs)
    edges: tuple[tuple[int, int], ...] | None = None
    nonedges: tuple[tuple[int, int], ...] | None = None
    valid: bool = True
    note: str = ""
    corrected_rows: tuple[tuple[int, ...], ...] | None = None

    def graph(self) -> Graph:
        if self.edges is not None:
            return Graph.from_edges(self.n, [(u - 1, v - 1) for u, v in self.edges])
        assert self.nonedges is not None
        missing = {tuple(sorted(e)) for e in self.nonedges}
        es = [(u, v) for u, v in combinations(range(1, self.n + 1), 2) if (u, v) not in missing]
        return Graph.from_edges(self.n, [(u - 1, v - 1) for u, v in es])

    def matrix(self) -> RepresentationMatrix:
        return matrix(self.rows)

    def corrected_matrix(self) -> RepresentationMatrix:
        if self.corrected_rows is None:
            raise ValueError(f"fixture {self.name} has no corrected variant")
        return matrix(self.corrected_rows)

    def best_matrix(self) -> RepresentationMatrix:
        """The verifying variant: corrected rows when the verbatim ones are known bad."""
        return self.matrix() if self.valid else self.corrected_matrix()


FIXTURES: dict[str, Fixture] = {}


def _add(f: Fixture) -> None:
    FIXTURES[f.name] = f


def get(name: str) -> Fixture:
    return FIXTURES[name]


_add(Fixture(
    name="p3_width4",
    rows=((1, 2, 3, 4), (3, 4, 1, 2), (1, 2, 4, 3)),
    n=3,
    edges=((1, 2), (2, 3)),
))

_add(Fixture(
    name="fork_width4",
    rows=((1, 2, 4, 3), (3, 1, 2, 4), (2, 4, 3, 1), (1, 4, 2, 3), (1, 2, 3, 4)),
    n=5,
    edges=((1, 2), (2, 3), (3, 4), (3, 5)),
    valid=False,
    note=(
        "known erratum: as transcribed, rows 3,4 and 3,5 agree somewhere and "
        "rows 1,3 disagree everywhere, so the induced graph is a triangle on "
        "rows 1,2,3 plus two isolated rows instead of the fork; replacing row 3 "
        "with (2,3,4,1) (a transposition of the transcribed entry) certifies the fork"
    ),
    corrected_rows=((1, 2, 4, 3), (3, 1, 2, 4), (2, 3, 4, 1), (1, 4, 2, 3), (1, 2, 3, 4)),
))

# complete minus a short path: non-edges v1-vn, v2-vn in the source labeling
_add(Fixture(
    name="k3_minus_p3_width3",
    rows=((1, 2, 3), (2, 3, 1), (1, 3, 2)),
    n=3,
    nonedges=((1, 3), (2, 3)),
))

_add(Fixture(
    name="k4_minus_p3_width4",
    rows=((1, 2, 3, 4), (4, 1, 2, 3), (3, 4, 1, 2), (1, 2, 4, 3)),
    n=4,
    nonedges=((1, 4), (2, 4)),
))

_add(Fixture(
    name="k4_minus_2k2_width4",
    rows=((1, 2, 3, 4), (1, 2, 4, 3), (3, 4, 1, 2), (4, 3, 1, 2)),
    n=4,
    nonedges=((1, 2), (3, 4)),
))

_add(Fixture(
    name="k5_minus_2k2_width5",
    rows=((5, 2, 3, 4, 1), (1, 2, 4, 5, 3), (3, 5, 1, 2, 4), (3, 4, 5, 1, 2), (4, 1, 2, 3, 5)),
    n=5,
    nonedges=((1, 2), (3, 4)),
))

_add(Fixture(
    name="k6_minus_2k2_width6",
    rows=(
        (2, 6, 4, 1, 3, 5),
        (2, 1, 4, 3, 6, 5),
        (3, 4, 5, 6, 1, 2),
        (3, 5, 1, 6, 4, 2),
        (1, 2, 3, 4, 5, 6),
        (4, 3, 6, 5, 2, 1),
    ),
    n=6,
    nonedges=((1, 2), (3, 4)),
))

# the source display mislabels this one as a 2K2 case; the rows certify K4-K3
_add(Fixture(
    name="k4_minus_k3_width4",
    rows=((1, 4, 2, 3), (1, 4, 3, 2), (1, 2, 3, 4), (2, 3, 4, 1)),
    n=4,
    nonedges=((1, 2), (1, 3), (2, 3)),
))

_add(Fixture(
    name="k5_minus_k3_width5",
    rows=((1, 2, 3, 4, 5), (1, 4, 3, 2, 5), (4, 2, 3, 1, 5), (2, 3, 5, 4, 1), (3, 1, 2, 5, 4)),
    n=5,
    nonedges=((1, 2), (1, 3), (2, 3)),
    valid=False,
    note=(
        "known erratum: as transcribed, rows 1 and 4 agree at position 4, adding "
        "a fourth non-adjacency; (2,5,4,3,1) is the unique row 4 compatible with "
        "the other four rows"
    ),
    corrected_rows=(
        (1, 2, 3, 4, 5), (1, 4, 3, 2, 5), (4, 2, 3, 1, 5), (2, 5, 4, 3, 1), (3, 1, 2, 5, 4),
    ),
))

_add(Fixture(
    name="k6_minus_k3_width6",
    rows=(
        (1, 2, 3, 4, 5, 6),
        (1, 2, 4, 3, 6, 5),
        (2, 1, 4, 3, 5, 6),
        (3, 4, 5, 6, 1, 2),
        (4, 3, 6, 5, 2, 1),
        (5, 6, 1, 2, 3, 4),
    ),
    n=6,
    nonedges=((1, 2), (1, 3), (2, 3)),
))

# complete minus P4: the removed path in the source labeling is v3-v1-v4-v2
# (order 4), v4-v2-v5-v3 (order 5), v4-v1-v2-v3 (order 6)
_add(Fixture(
    name="k4_minus_p4_width4",
    rows=((1, 2, 3, 4), (2, 1, 4, 3), (1, 4, 3, 2), (2, 3, 1, 4)),
    n=4,
    nonedges=((1, 3), (1, 4), (2, 4)),
))

_add(Fixture(
    name="k5_minus_p4_width4",
    rows=((1, 2, 3, 4), (3, 4, 2, 1), (2, 1, 4, 3), (3, 4, 1, 2), (2, 3, 4, 1)),
    n=5,
    nonedges=((2, 4), (2, 5), (3, 5)),
))

_add(Fixture(
    name="k6_minus_p4_width5",
    rows=(
        (1, 2, 3, 4, 5),
        (2, 1, 3, 5, 4),
        (2, 1, 4, 5, 3),
        (1, 3, 2, 4, 5),
        (4, 5, 1, 3, 2),
        (3, 4, 5, 2, 1),
    ),
    n=6,
    nonedges=((1, 2), (1, 4), (2, 3)),
))

# complete minus (P3 u P2): non-edges v1-v2 and v3-vn, v4-vn
_add(Fixture(
    name="k5_minus_p3p2_width4",
    rows=((1, 2, 3, 4), (2, 1, 3, 4), (3, 4, 1, 2), (4, 3, 2, 1), (3, 4, 2, 1)),
    n=5,
    nonedges=((1, 2), (3, 5), (4, 5)),
))

_add(Fixture(
    name="k6_minus_p3p2_width5",
    rows=(
        (1, 2, 3, 4, 5),
        (2, 1, 3, 4, 5),
        (4, 3, 5, 1, 2),
        (5, 4, 2, 3, 1),
        (3, 5, 1, 2, 4),
        (4, 3, 2, 5, 1),
    ),
    n=6,
    nonedges=((1, 2), (3, 6), (4, 6)),
))

_add(Fixture(
    name="k8_minus_p6_width8",
    rows=(
        (1, 2, 3, 4, 5, 6, 7, 8),
        (1, 8, 2, 3, 4, 5, 6, 7),
        (7, 8, 2, 1, 3, 4, 5, 6),
        (6, 7, 8, 1, 3, 2, 4, 5),
        (5, 6, 7, 8, 1, 2, 4, 3),
        (4, 5, 6, 7, 8, 1, 2, 3),
        (3, 4, 5, 6, 7, 8, 1, 2),
        (2, 3, 4, 5, 6, 7, 8, 1),
    ),
    n=8,
    nonedges=((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)),
))


def _cycle_edges_under(row_to_vertex: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    n = len(row_to_vertex)
    pos = {v: i + 1 for i, v in enumerate(row_to_vertex)}  # vertex -> 1-based row
    out = []
    for v in range(1, n + 1):
        w = v % n + 1
        out.append(tuple(sorted((pos[v], pos[w]))))
    return tuple(sorted(set(out)))


def _path_edges_under(row_to_vertex: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    n = len(row_to_vertex)
    pos = {v: i + 1 for i, v in enumerate(row_to_vertex)}
    return tuple(sorted(tuple(sorted((pos[v], pos[v + 1]))) for v in range(1, n)))


# cycle/path block certificates; rows are grouped odd-vertices-first as displayed
C10_ROW_TO_VERTEX = (1, 3, 5, 7, 9, 2, 4, 6, 8, 10)
_add(Fixture(
    name="c10_width6",
    rows=(
        (6, 1, 4, 2, 5, 3),
        (6, 4, 2, 5, 3, 1),
        (6, 2, 5, 3, 1, 4),
        (6, 5, 3, 1, 4, 2),
        (6, 3, 1, 4, 2, 5),
        (1, 2, 6, 3, 4, 5),
        (2, 1, 3, 6, 4, 5),
        (3, 1, 2, 4, 6, 5),
        (4, 1, 2, 3, 5, 6),
        (5, 6, 2, 3, 4, 1),
    ),
    n=10,
    edges=_cycle_edges_under(C10_ROW_TO_VERTEX),
))

C11_ROW_TO_VERTEX = (2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 11)
_add(Fixture(
    name="c11_width7",
    rows=(
        (7, 6, 1, 4, 2, 5, 3),
        (7, 6, 4, 2, 5, 3, 1),
        (7, 6, 2, 5, 3, 1, 4),
        (7, 6, 5, 3, 1, 4, 2),
        (7, 6, 3, 1, 4, 2, 5),
        (6, 1, 7, 2, 3, 4, 5),
        (1, 7, 2, 6, 3, 4, 5),
        (2, 7, 1, 3, 6, 4, 5),
        (3, 7, 1, 2, 4, 6, 5),
        (4, 7, 1, 2, 3, 5, 6),
        (3, 7, 6, 4, 5, 1, 2),
    ),
    n=11,
    edges=_cycle_edges_under(C11_ROW_TO_VERTEX),
))

P9_ROW_TO_VERTEX = (1, 3, 5, 7, 9, 2, 4, 6, 8)
_add(Fixture(
    name="p9_width6",
    rows=(
        (6, 1, 4, 2, 5, 3),
        (6, 4, 2, 5, 3, 1),
        (6, 2, 5, 3, 1, 4),
        (6, 5, 3, 1, 4, 2),
        (6, 3, 1, 4, 2, 5),
        (1, 2, 6, 3, 4, 5),
        (2, 1, 3, 6, 4, 5),
        (3, 1, 2, 4, 6, 5),
        (4, 1, 2, 3, 5, 6),
    ),
    n=9,
    edges=_path_edges_under(P9_ROW_TO_VERTEX),
))

P10_ROW_TO_VERTEX = (1, 3, 5, 7, 9, 2, 4, 6, 8, 10)
_add(Fixture(
    name="p10_width6",
    rows=(
        (6, 1, 4, 2, 5, 3),
        (6, 4, 2, 5, 3, 1),
        (6, 2, 5, 3, 1, 4),
        (6, 5, 3, 1, 4, 2),
        (6, 3, 1, 4, 2, 5),
        (1, 2, 6, 3, 4, 5),
        (2, 1, 3, 6, 4, 5),
        (3, 1, 2, 4, 6, 5),
        (4, 1, 2, 3, 5, 6),
        (5, 1, 2, 3, 4, 6),
    ),
    n=10,
    edges=_path_edges_under(P10_ROW_TO_VERTEX),
))

# the three order-6 extremal certificates
_add(Fixture(
    name="order6_minus_k3_width6_alt",
    rows=(
        (2, 1, 4, 3, 6, 5),
        (1, 2, 6, 4, 5, 3),
        (5, 6, 1, 2, 3, 4),
        (1, 2, 3, 5, 4, 6),
        (3, 4, 5, 6, 1, 2),
        (1, 2, 3, 4, 5, 6),
    ),
    n=6,
    nonedges=((2, 4), (2, 6), (4, 6)),
))

_add(Fixture(
    name="order6_minus_2k2_width6_alt",
    rows=(
        (2, 6, 4, 1, 3, 5),
        (4, 3, 6, 5, 2, 1),
        (3, 4, 5, 6, 1, 2),
        (2, 1, 4, 3, 6, 5),
        (1, 2, 3, 4, 5, 6),
        (3, 5, 1, 6, 4, 2),
    ),
    n=6,
    nonedges=((1, 4), (3, 6)),
    note=(
        "the source drawing's edge list pairs the second non-adjacency with row 5, "
        "but the permutations themselves pair rows 3 and 6; the rows certify the "
        "drawn graph class either way"
    ),
))

_add(Fixture(
    name="order6_minus_k2_width6_alt",
    rows=(
        (5, 6, 1, 2, 3, 4),
        (3, 4, 5, 6, 1, 2),
        (2, 5, 4, 1, 6, 3),
        (1, 2, 3, 4, 5, 6),
        (4, 3, 6, 5, 2, 1),
        (2, 1, 4, 3, 6, 5),
    ),
    n=6,
    nonedges=((3, 6),),
))
