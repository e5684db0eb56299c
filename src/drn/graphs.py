"""Simple-graph data model, graph6 I/O, the graph-family grammar, small
exact invariants (clique and independence number), clique decompositions
and the orbit of a vertex tuple under the automorphisms of a graph.  (The
bipartite matcher, a system of distinct representatives of a family of
bitsets, lives in ``latin``: completing latin rectangles is its only use.)

Vertices are externally 1-based (v_1..v_n, matching the usual labeling of the
constructions); internally adjacency is stored as n bitmasks over 0-based
vertex indices.  Graphs are immutable after construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from typing import Iterable


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitset adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph must have at least one vertex")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency bits out of range in row {i}")
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (self.adj[i] >> j & 1) != (self.adj[j] >> i & 1):
                    raise ValueError(f"asymmetric adjacency between {i} and {j}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v}) for order {n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, u: int) -> int:
        return bin(self.adj[u]).count("1")

    @property
    def q(self) -> int:
        """Edge count."""
        return sum(self.degree(u) for u in range(self.n)) // 2

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, tuple((full ^ self.adj[i] ^ (1 << i)) for i in range(self.n)))

    def is_complete(self) -> bool:
        return self.q == self.n * (self.n - 1) // 2

    def is_empty(self) -> bool:
        return self.q == 0


# graph6 encoding: n <= 62 single-byte size form, upper triangle column-major,
# 6 bits per character offset by 63.

def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    vals = []
    for off, ch in enumerate(s):
        c = ord(ch)
        if not 63 <= c <= 126:
            raise Graph6Error(f"character {ch!r} out of range [63,126]", off)
        vals.append(c - 63)
    n = vals[0]
    if n > 62:
        raise Graph6Error("only single-byte sizes (n <= 62) are supported", 0)
    if n == 0:
        raise Graph6Error("graph must have at least one vertex", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(vals) - 1 != need:
        raise Graph6Error(
            f"expected {need} payload characters for n={n}, got {len(vals) - 1}",
            len(s),
        )
    bits = 0
    for v in vals[1:]:
        bits = bits << 6 | v
    pad = need * 6 - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", len(s) - 1)
    bits >>= pad
    adj = [0] * n
    k = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if bits >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k -= 1
    return Graph(n, tuple(adj))


def graph6_encode(g: Graph) -> str:
    if g.n > 62:
        raise ValueError("only n <= 62 supported by the single-byte graph6 form")
    bits = 0
    nbits = g.n * (g.n - 1) // 2
    for j in range(1, g.n):
        for i in range(j):
            bits = bits << 1 | (g.adj[i] >> j & 1)
    need = (nbits + 5) // 6
    bits <<= need * 6 - nbits
    chars = [chr(g.n + 63)]
    for p in range(need - 1, -1, -1):
        chars.append(chr((bits >> (6 * p) & 63) + 63))
    return "".join(chars)


# Family grammar ---------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """Parsed graph-family description: a tag plus integer parameters.

    kinds: complete(n), path(n), cycle(n), empty(n), bipartite(r, s),
    minus_clique(n, r), minus_path(n, k), minus_cycle(n, k), minus_2k2(n),
    minus_p3p2(n), graph6(text).
    """

    kind: str
    params: tuple[int, ...] = ()
    text: str = ""


_FAMILY_RES = [
    (re.compile(r"^K(\d+)$"), lambda m: FamilySpec("complete", (int(m[1]),))),
    (re.compile(r"^P(\d+)$"), lambda m: FamilySpec("path", (int(m[1]),))),
    (re.compile(r"^C(\d+)$"), lambda m: FamilySpec("cycle", (int(m[1]),))),
    (re.compile(r"^E(\d+)$"), lambda m: FamilySpec("empty", (int(m[1]),))),
    (re.compile(r"^K(\d+),(\d+)$"), lambda m: FamilySpec("bipartite", (int(m[1]), int(m[2])))),
    (re.compile(r"^K(\d+)-K(\d+)$"), lambda m: FamilySpec("minus_clique", (int(m[1]), int(m[2])))),
    (re.compile(r"^K(\d+)-P(\d+)$"), lambda m: FamilySpec("minus_path", (int(m[1]), int(m[2])))),
    (re.compile(r"^K(\d+)-C(\d+)$"), lambda m: FamilySpec("minus_cycle", (int(m[1]), int(m[2])))),
    (re.compile(r"^K(\d+)-2K2$"), lambda m: FamilySpec("minus_2k2", (int(m[1]),))),
    (re.compile(r"^K(\d+)-P3uP2$"), lambda m: FamilySpec("minus_p3p2", (int(m[1]),))),
]


def parse_family(text: str) -> FamilySpec:
    """Parse a family-grammar string such as "K5", "K6-2K2", "K3,4" or "g6:Bw"."""
    s = text.strip()
    if s.startswith("g6:"):
        return FamilySpec("graph6", (), s[3:])
    for rx, make in _FAMILY_RES:
        m = rx.match(s)
        if m:
            return make(m)
    raise ValueError(f"cannot parse graph family {text!r}")


def _complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << i) for i in range(n)))


def _path_edges(k: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(k - 1)]


def build_family(spec: FamilySpec) -> Graph:
    """Materialize a FamilySpec with the labeling the constructions expect.

    For the complete-minus families the removed pattern sits on the first
    vertices: K(r) removes all edges inside {v_1..v_r}; P(k) removes
    v_i v_{i+1} for i in [k-1]; C(k) additionally removes v_k v_1;
    2K2 removes v_1 v_2 and v_3 v_4; P3uP2 removes v_1 v_2, v_2 v_3, v_4 v_5.
    """
    kind, p = spec.kind, spec.params
    if kind == "graph6":
        return graph6_decode(spec.text)
    if kind == "complete":
        (n,) = p
        if n < 1:
            raise ValueError("K_n needs n >= 1")
        return _complete(n)
    if kind == "empty":
        (n,) = p
        if n < 1:
            raise ValueError("E_n needs n >= 1")
        return Graph(n, (0,) * n)
    if kind == "path":
        (n,) = p
        if n < 1:
            raise ValueError("P_n needs n >= 1")
        return Graph.from_edges(n, _path_edges(n))
    if kind == "cycle":
        (n,) = p
        if n < 3:
            raise ValueError("C_n needs n >= 3")
        return Graph.from_edges(n, _path_edges(n) + [(n - 1, 0)])
    if kind == "bipartite":
        r, s = p
        if r < 1 or s < 1:
            raise ValueError("K_{r,s} needs r, s >= 1")
        return Graph.from_edges(r + s, [(i, r + j) for i in range(r) for j in range(s)])

    # complete minus a pattern
    (n, *rest) = p
    if kind == "minus_clique":
        (r,) = rest
        if not 2 <= r <= n:
            raise ValueError("K_n - K_r needs 2 <= r <= n")
        missing = [(i, j) for i in range(r) for j in range(i + 1, r)]
    elif kind == "minus_path":
        (k,) = rest
        if not 2 <= k <= n:
            raise ValueError("K_n - P_k needs 2 <= k <= n")
        missing = _path_edges(k)
    elif kind == "minus_cycle":
        (k,) = rest
        if not 3 <= k <= n:
            raise ValueError("K_n - C_k needs 3 <= k <= n")
        missing = _path_edges(k) + [(k - 1, 0)]
    elif kind == "minus_2k2":
        if n < 4:
            raise ValueError("K_n - 2K_2 needs n >= 4")
        missing = [(0, 1), (2, 3)]
    elif kind == "minus_p3p2":
        if n < 5:
            raise ValueError("K_n - (P_3 u P_2) needs n >= 5")
        missing = [(0, 1), (1, 2), (3, 4)]
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    g = _complete(n)
    adj = list(g.adj)
    for u, v in missing:
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    return Graph(n, tuple(adj))


def graph_from_spec_text(text: str) -> Graph:
    return build_family(parse_family(text))


# Exact invariants -------------------------------------------------------

MAX_EXACT_ORDER = 64


def degree_order(g: Graph) -> list[int]:
    """The vertices by descending degree, ties by ascending index."""
    return sorted(range(g.n), key=lambda v: (-g.degree(v), v))


def clique_number(g: Graph) -> int:
    """Exact maximum clique size by branch and bound with a greedy coloring bound."""
    if g.n > MAX_EXACT_ORDER:
        raise ValueError("graph too large for exact invariant")
    order = degree_order(g)
    best = 0

    def color_bound(cand: int, verts: list[int]) -> list[tuple[int, int]]:
        # greedy coloring; (vertex, color) pairs in non-decreasing color order,
        # which the branch pruning below relies on
        classes: list[int] = []
        members: list[list[int]] = []
        for v in verts:
            for ci, cmask in enumerate(classes):
                if not (g.adj[v] & cmask):
                    classes[ci] |= 1 << v
                    members[ci].append(v)
                    break
            else:
                classes.append(1 << v)
                members.append([v])
        return [(v, ci + 1) for ci, vs in enumerate(members) for v in vs]

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        verts = [v for v in order if cand >> v & 1]
        colored = color_bound(cand, verts)
        # explore highest color first: stronger pruning
        for v, c in reversed(colored):
            if size + c <= best:
                return
            expand(cand & g.adj[v], size + 1)
            cand &= ~(1 << v)

    expand((1 << g.n) - 1, 0)
    return best


def independence_number(g: Graph) -> int:
    return clique_number(g.complement())


# Automorphisms -----------------------------------------------------------

# Refinements one tuple_orbit call may spend before it leaves the tuples it
# has not reached out of the orbit.
ORBIT_REFINEMENT_CAP = 4096


def _refine(nbrs: list[list[int]], a: list[int], b: list[int]):
    """Colour refinement of two colourings of one graph in lockstep: each round
    recolours a vertex by its colour and the sorted colours of its neighbours,
    naming the colours of both by one shared table, until the number of
    colours stops growing.  Returns the stable pair, or None as soon as the
    two colourings hold a signature a different number of times (then no
    automorphism maps the one onto the other)."""
    count = len(set(a))
    while True:
        sa = [(a[v], tuple(sorted(a[w] for w in ws))) for v, ws in enumerate(nbrs)]
        sb = [(b[v], tuple(sorted(b[w] for w in ws))) for v, ws in enumerate(nbrs)]
        if sorted(sa) != sorted(sb):
            return None
        names = {s: i for i, s in enumerate(sorted(set(sa)))}
        a, b = [names[s] for s in sa], [names[s] for s in sb]
        if len(names) == count:
            return a, b
        count = len(names)


def is_automorphism(g: Graph, phi: list[int]) -> bool:
    """True iff phi (phi[v] the image of v) is a bijection of the vertices
    that maps every edge to an edge and every non-edge to a non-edge."""
    return sorted(phi) == list(range(g.n)) and all(
        g.has_edge(phi[u], phi[w]) == g.has_edge(u, w) for u in range(g.n) for w in range(u + 1, g.n))


def _automorphism(g: Graph, nbrs, a: list[int], b: list[int], steps: list[int]):
    """An automorphism mapping each vertex of colour c under a to one of colour c
    under b, by refinement and individualisation backtracking, or None when
    there is none or ``steps[0]`` refinements ran out first."""
    if steps[0] <= 0:
        return None
    steps[0] -= 1
    refined = _refine(nbrs, a, b)
    if refined is None:
        return None
    a, b = refined
    shared = [c for c in a if a.count(c) > 1]
    if not shared:
        where = {c: w for w, c in enumerate(b)}
        phi = [where[c] for c in a]
        return phi if is_automorphism(g, phi) else None
    cell = min(shared)
    u = a.index(cell)
    for w in range(g.n):
        if b[w] == cell:
            # refined colours are below n, so n is a fresh colour
            phi = _automorphism(g, nbrs, a[:u] + [g.n] + a[u + 1:], b[:w] + [g.n] + b[w + 1:], steps)
            if phi is not None:
                return phi
    return None


def tuple_orbit(g: Graph, vs: tuple[int, ...],
                automorphisms: list[list[int]] | None = None) -> frozenset[tuple[int, ...]]:
    """The orbit of the ordered tuple ``vs`` of distinct vertices under the
    automorphisms of g.

    ``automorphisms`` holds automorphisms of g found by earlier calls (each
    phi with phi[v] the image of v); the orbit is first closed under them,
    and each one this call finds is appended, so calls on one graph can share
    the list.  Candidate images are built vertex by vertex: the i-th vertex
    has the refined colour of vs[i] and is adjacent to each earlier one
    exactly when vs[i] is to its counterpart.  For each candidate not yet
    reached, the search looks for an automorphism mapping vs onto it by
    colour refinement with individualisation (McKay and Piperno, J. Symb.
    Comput. 60, 2014); each one found is checked edge by edge
    (``is_automorphism``), and the orbit is closed under all of them.  So
    every tuple returned is the image of vs under a verified automorphism.
    The search spends at most ORBIT_REFINEMENT_CAP refinements in all; a
    tuple it does not reach within them is left out, so the orbit may be
    incomplete, never too large.
    """
    n = g.n
    nbrs = [[w for w in range(n) if g.adj[x] >> w & 1] for x in range(n)]
    base, _ = _refine(nbrs, [0] * n, [0] * n)
    cells = [0] * n  # the vertices of each refined colour
    for x, c in enumerate(base):
        cells[c] |= 1 << x

    def candidates(prefix: tuple[int, ...]):
        i = len(prefix)
        if i == len(vs):
            yield prefix
            return
        allowed = cells[base[vs[i]]]
        for p, v in zip(prefix, vs):
            allowed &= (g.adj[p] if g.has_edge(vs[i], v) else ~g.adj[p]) & ~(1 << p)
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            yield from candidates(prefix + (low.bit_length() - 1,))

    orbit: set[tuple[int, ...]] = set()
    found = [] if automorphisms is None else automorphisms

    def close(frontier: list[tuple[int, ...]]):
        """Add the tuples of ``frontier`` and their images under ``found``."""
        orbit.update(frontier)
        while frontier:
            ys = frontier.pop()
            for h in found:
                image = tuple(h[y] for y in ys)
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)

    close([tuple(vs)])
    steps = [ORBIT_REFINEMENT_CAP]
    for xs in candidates(()):
        if xs in orbit:
            continue
        a, b = base[:], base[:]
        for i, (v, x) in enumerate(zip(vs, xs)):
            a[v] = b[x] = n + i
        phi = _automorphism(g, nbrs, a, b, steps)
        if phi is None:
            continue
        found.append(phi)
        close(list(orbit))
    return frozenset(orbit)


def pair_orbit(g: Graph, u: int, v: int,
               automorphisms: list[list[int]] | None = None) -> frozenset[tuple[int, int]]:
    """The orbit of the vertex pair {u, v} (u != v) under the automorphisms of
    g, as (smaller, larger) pairs: the unordered projection of the orbit of
    (u, v) (``tuple_orbit``, which shares ``automorphisms``)."""
    return frozenset((min(x, y), max(x, y)) for x, y in tuple_orbit(g, (u, v), automorphisms))


# Clique decompositions ---------------------------------------------------

@dataclass(frozen=True)
class CliqueDecomposition:
    """Edge partition of a host graph into cliques of size >= 2 (0-based vertex tuples)."""

    cliques: tuple[tuple[int, ...], ...]

    def validate(self, host: Graph) -> None:
        seen: set[tuple[int, int]] = set()
        for c in self.cliques:
            if len(c) < 2:
                raise ValueError(f"clique {c} is trivial")
            for u, v in combinations(c, 2):
                if not host.has_edge(u, v):
                    raise ValueError(f"{c} is not a clique of the host graph")
                e = (min(u, v), max(u, v))
                if e in seen:
                    raise ValueError(f"edge {e} covered twice")
                seen.add(e)
        if len(seen) != host.q:
            raise ValueError("cliques do not cover every edge")


def greedy_clique_decomposition(g: Graph) -> CliqueDecomposition:
    """Repeatedly extract a (greedily grown) maximal clique of the remaining edge set."""
    if g.q == 0:
        raise ValueError("no non-trivial decomposition exists")
    rem = list(g.adj)
    cliques = []
    while any(rem):
        u = next(v for v in range(g.n) if rem[v])
        v = (rem[u] & -rem[u]).bit_length() - 1
        clique = [u, v]
        common = rem[u] & rem[v]
        while common:
            w = (common & -common).bit_length() - 1
            clique.append(w)
            common &= rem[w]
        clique.sort()
        for a, b in combinations(clique, 2):
            rem[a] &= ~(1 << b)
            rem[b] &= ~(1 << a)
        cliques.append(tuple(clique))
    d = CliqueDecomposition(tuple(cliques))
    d.validate(g)
    return d


# Isomorphism-free enumeration of small orders ----------------------------

MAX_ENUM_ORDER = 6


def _edge_slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _mask_to_graph(n: int, mask: int, slots: list[tuple[int, int]]) -> Graph:
    return Graph.from_edges(n, [e for b, e in enumerate(slots) if mask >> b & 1])


@cache
def nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic simple graphs of order n (n <= 6), deterministic order.

    Labeled graphs are deduplicated under all n! vertex permutations; the
    representative of each class is its numerically smallest edge mask.
    Cached in memory for the life of the process.
    """
    if not 1 <= n <= MAX_ENUM_ORDER:
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_ENUM_ORDER}")
    slots = _edge_slots(n)
    slot_index = {e: b for b, e in enumerate(slots)}
    perm_maps = []
    for p in permutations(range(n)):
        perm_maps.append(tuple(slot_index[(min(p[i], p[j]), max(p[i], p[j]))] for (i, j) in slots))

    m = len(slots)
    seen = bytearray(1 << m)
    reps = []
    for mask in range(1 << m):
        if seen[mask]:
            continue
        reps.append(mask)
        for pm in perm_maps:
            img = 0
            rest = mask
            while rest:
                low = rest & -rest
                img |= 1 << pm[low.bit_length() - 1]
                rest ^= low
            seen[img] = 1
    return tuple(_mask_to_graph(n, mask, slots) for mask in reps)


def data_lines(text: str) -> list[str]:
    """The lines of ``text``, stripped, without blank lines and '#' comments."""
    return [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]


def read_graph6_lines(text: str) -> list[Graph]:
    """One graph per LF-terminated line; '#' lines and blank lines are skipped."""
    return [graph6_decode(line) for line in data_lines(text)]
