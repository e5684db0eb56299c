"""Plain reference code the tests compare the program against.

Nothing here is used by ``drn`` itself: each helper is the slow, obvious
version of a fact the tests check (permutation composition and the
adjacency test, a decision by enumeration, the position masks by a scan of
S_k, an induced subgraph, a relabelling, the automorphisms of a graph by
trying every relabelling, a representation matrix from plain rows, a
symmetry action on a matrix, Hall's condition over every subfamily, an
induced embedding of some vertices into a set of permutations by trying
every injection, one permutation of each cycle type).
"""

from itertools import combinations, permutations
from math import factorial

from drn.graphs import CliqueDecomposition, Graph
from drn.matrices import RepresentationMatrix
from drn.perms import Perm, all_perms, cycles, inverse


def compose(a: Perm, b: Perm) -> Perm:
    """(a o b)(i) = a(b(i))."""
    if len(a) != len(b):
        raise ValueError("degree mismatch")
    return tuple(a[x - 1] for x in b)


def disagree_everywhere(a: Perm, b: Perm) -> bool:
    """True iff a(i) != b(i) for all i; equivalently inverse(a) o b is a derangement."""
    if len(a) != len(b):
        raise ValueError("degree mismatch")
    return all(x != y for x, y in zip(a, b))


def brute_force_oracle(g: Graph, k: int) -> bool:
    """Ground-truth decision by enumerating all injective maps into S_k.

    No symmetry reduction and no propagation; only feasible for g.n <= 4 and
    k <= 4.
    """
    if g.n > 4 or k > 4:
        raise ValueError("oracle caps: n <= 4 and k <= 4")
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    for chosen in permutations(all_perms(k), g.n):
        if all(disagree_everywhere(chosen[i], chosen[j]) == g.has_edge(i, j) for i, j in pairs):
            return True
    return False


def cycle_type(p: Perm) -> tuple[int, ...]:
    """The lengths of p's cycles, ascending."""
    return tuple(sorted(map(len, cycles(p))))


def partitions(k: int, largest: int | None = None):
    """The partitions of k into parts of at most ``largest``, parts descending."""
    if k == 0:
        yield ()
        return
    for part in range(min(k, largest or k), 0, -1):
        for rest in partitions(k - part, part):
            yield (part,) + rest


def class_representatives(k: int) -> list[Perm]:
    """One permutation of each cycle type of S_k, in lexicographic order:
    for each partition of k, the fixed points first, then the cycles by
    ascending length, each on a block of consecutive points i -> i+1 ->
    ... -> i+l-1 -> i."""
    reps = []
    for parts in partitions(k):
        p, start = [], 1
        for length in reversed(parts):
            p.extend(range(start + 1, start + length))
            p.append(start)
            start += length
        reps.append(tuple(p))
    return sorted(reps)


def has_distinct_representatives(sets) -> bool:
    """Hall's condition on the bitsets ``sets``: every subfamily's union has
    at least as many bits as the subfamily has sets."""
    for size in range(1, len(sets) + 1):
        for family in combinations(sets, size):
            union = 0
            for s in family:
                union |= s
            if union.bit_count() < size:
                return False
    return True


def embeds_induced(adjacent, members, ranks, k: int) -> bool:
    """Whether the vertices ``members``, with ``adjacent[v]`` the bitset of
    v's neighbours, take distinct images among the ranks ``ranks`` of S_k
    such that two of them are adjacent iff their images disagree everywhere,
    by trying every injection."""
    perms = all_perms(k)
    pairs = [(i, j, bool(adjacent[u] >> v & 1)) for i, u in enumerate(members)
             for j, v in enumerate(members) if i < j]
    return any(all(disagree_everywhere(perms[image[i]], perms[image[j]]) == edge for i, j, edge in pairs)
               for image in permutations(ranks, len(members)))


def position_masks(k: int) -> tuple[tuple[int, ...], ...]:
    """M[i][v]: bitset of the lexicographic ranks q of S_k with q(i) = v + 1,
    by one pass over S_k (0-based i and v)."""
    nbytes = (factorial(k) + 7) // 8
    bufs = [[bytearray(nbytes) for _ in range(k)] for _ in range(k)]
    # itertools yields S_k in lexicographic order, so r is the rank of p
    for r, p in enumerate(permutations(range(k))):
        byte, bit = r >> 3, 1 << (r & 7)
        for row, v in zip(bufs, p):
            row[v][byte] |= bit
    return tuple(tuple(int.from_bytes(b, "little") for b in row) for row in bufs)


def edges(g: Graph):
    """The edges (u, v) of g with u < v, by u and then v."""
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)]


def edge_cliques(g: Graph) -> CliqueDecomposition:
    """Every edge as its own K_2."""
    return CliqueDecomposition(tuple(edges(g)))


def induced(g: Graph, vs) -> Graph:
    """Induced subgraph on ``vs`` (0-based), relabeled 0..len(vs)-1 in the given order."""
    if not vs:
        raise ValueError("vertex set must be nonempty")
    if len(set(vs)) != len(vs) or not all(0 <= v < g.n for v in vs):
        raise ValueError("vertex set must be a set of valid vertices")
    return Graph.from_edges(len(vs), [(i, j) for i, u in enumerate(vs)
                                      for j, v in enumerate(vs) if i < j and g.has_edge(u, v)])


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the vertex bijection old -> perm[old] (0-based)."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in edges(g)])


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex bijection p (old -> p[old]) that maps g onto itself, by
    trying all n! relabellings; only feasible for small n."""
    pairs = {frozenset(e) for e in edges(g)}
    return [p for p in permutations(range(g.n)) if {frozenset((p[u], p[v])) for u, v in pairs} == pairs]


def matrix(rows) -> RepresentationMatrix:
    """The representation matrix with the given rows (any sequences of ints)."""
    return RepresentationMatrix(tuple(tuple(r) for r in rows))


def normalize(m: RepresentationMatrix) -> RepresentationMatrix:
    """Left-translate every row by inverse(row 1); row 1 becomes the identity."""
    t = inverse(m.rows[0])
    return RepresentationMatrix(tuple(compose(t, row) for row in m.rows))


def permute_columns(m: RepresentationMatrix, t) -> RepresentationMatrix:
    """New row entry j is the old entry t(j) (one column shuffle for every row)."""
    return RepresentationMatrix(tuple(compose(row, t) for row in m.rows))


def relabel_symbols(m: RepresentationMatrix, t) -> RepresentationMatrix:
    """Replace every entry e by t(e)."""
    return RepresentationMatrix(tuple(compose(t, row) for row in m.rows))
