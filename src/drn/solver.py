"""Exact decision and optimization of derangement representability.

A graph has a width-k representation exactly when it embeds as an induced
subgraph of the graph on S_k whose edges join permutations differing in every
position (a Cayley graph with the derangements as connection set).  The
solver searches for such an embedding by backtracking over vertices with
bitset candidate propagation, under four symmetry reductions and two checks
that close nodes, the distinct-images and degree-fit checks (after them):

* left translation: composing every image on the left by a fixed permutation
  preserves cellwise disagreement, so the first processed vertex can be
  pinned to the identity.  (If pi is a solution, so is t o pi for any t; pick
  t = inverse of the first vertex's image.)
* conjugation: conjugating every image by t fixes the identity and maps
  cellwise disagreement to cellwise disagreement (positions are permuted by
  t, values by t^-1, both bijectively).  Hence once the first vertex is the
  identity, the second processed vertex may be restricted to one
  representative per conjugacy class, the lexicographically least element;
  only classes consistent with its adjacency to the first vertex apply
  (fixed-point-free classes when adjacent, classes with a fixed point, minus
  the identity itself, when not).
* orbits under the stabiliser of the images so far.  Let H be the maps
  sigma -> a o sigma o a^-1 and sigma -> a o sigma^-1 o a^-1 for a in S_k.
  Each fixes the identity and preserves cellwise disagreement: conjugation
  as above, and inversion because sigma and tau disagree everywhere iff
  sigma^-1 o tau is a derangement, while sigma^-1 and tau^-1 disagree
  everywhere iff sigma o tau^-1 is one, and sigma o tau^-1 is conjugate (by
  sigma) to tau^-1 o sigma = (sigma^-1 o tau)^-1, which has the same fixed
  points as sigma^-1 o tau.  So every h in H is an automorphism of the Cayley
  graph: it maps neighbours to neighbours, non-neighbours to non-neighbours
  and distinct images to distinct images.  With the identity on v1 and rho on
  v2, let G_2 = {h in H : h(rho) = rho}, and let G_d be the elements of
  G_d-1 that also fix the image r_d of the d-th processed vertex.  An element
  g of G_d-1 fixes every image assigned so far, so it maps the neighbours
  (and the other non-neighbours) of each assigned image onto themselves; the
  candidate set of every unassigned vertex, being an intersection of these,
  is mapped onto itself too.  Hence if the d-th vertex u admits no
  completion with u = r, it admits none with u = g(r) either: g^-1 would map
  such a completion to one with u = r, keeping the assigned images.  So when
  u = r fails (its propagation empties a candidate set, or its subtree
  returns "no"), the whole orbit {g(r) : g in G_d-1} is dropped from u's
  remaining candidates.  The rule runs from the fourth vertex on: the second
  vertex's candidates are one per class, an H-orbit each, and at the third
  the type rule on (v1, v2, v3) drops the same orbit.  G_2 is built from
  rho's cycles, and each G_d (from the nearest group built above it) only
  when a failure at that depth leaves candidates, so a search in which
  nothing fails does no group work.  Each G_d is kept as a list of indices
  into G_2, and the search memoises, for as long as rho stays, the rank of
  h(r) for each element h of G_2 and rank r it has met: the stabiliser
  filter, the orbit rule's drop and B3's G_2-orbits all read that memo.
* types on the orbits of the first pair and the first triple, a
  lex-leader-style rule over the automorphisms of g (Gent, Petrie and
  Puget, "Symmetry in constraint programming", Handbook of CP, 2006).  Let
  A be the maps sigma -> a o sigma^e o b (a, b in S_k, e = +-1): left and
  right translations (the second conjugates sigma^-1 o tau by b) and
  inversion, each an automorphism of the Cayley graph.  The type of an
  ordered vertex tuple (x_1, .., x_j) under a representation pi is the
  A-orbit of (pi(x_1), .., pi(x_j)).  The elements of A fixing the identity
  are H, and those also fixing rho are G_2.  So the type of a pair of images
  (p, p') is the class of p^-1 o p' (translate, then conjugate; inversion
  keeps the class), the same for (p', p).  A triple of images (p, p', c)
  with beta = p^-1 o p' in rho's class has the normal form
  t^-1 o p^-1 o c o t, for any t with t o rho o t^-1 = beta: A maps the
  triple to (id, rho, that form), and two such triples have the same type
  iff their normal forms lie in one G_2-orbit.  Let O2 be the orbit of
  (v1, v2) under Aut(g), taken in both orders (``graphs.pair_orbit``), and
  O3 that of (v1, v2, v3) (``graphs.tuple_orbit``); every automorphism
  behind them is checked edge by edge, and an orbit left incomplete only
  bars less.  For j = 2, 3, the j-th vertex runs through its candidates
  r_1, r_2, ... with v1 .. vj-1 assigned (v1 = id, v2 = rho), and B_j,i is
  the set of types of (v1, .., vj) with vj among r_1 .. r_i: the classes of
  r_1 .. r_i for j = 2, the G_2-orbits of r_1 .. r_i, as normal forms, for
  j = 3.  Claim: once r_1 .. r_i have all failed, no representation of g
  gives a tuple of O_j a type in B_j,i.  By induction on i: let pi give xs
  in O_j such a type; by the induction hypothesis it is the type of r_i.
  Take phi in Aut(g) with phi(v1, .., vj) = xs and the element of A that
  maps pi(xs) to the images of v1 .. vj-1 and r_i.  Composed with pi o phi
  it gives a representation of g with vj = r_i that gives each tuple of O_j
  the type pi gives its image under phi, which is in O_j, so no type in
  B_j,i-1; like every representation, it obeys the claim for pairs too.  So
  it is a completion of vj = r_i that obeys the bans in force there, and
  that branch would have found it.  Hence a candidate c of the vertex z
  being branched on is skipped, without spending a node, when some tuple xs
  with xs + (z,) in O2 or O3 is assigned and xs + (c,) has a type in B2 or
  B3 (the class test is ``_unbanned``, kept per assigned rank until B2
  grows; the normal-form test the normalisers, kept while rho stays).  The
  skips are made when z's frame opens, and at v3 again whenever B3 grows;
  for (v1, v2, v3) itself the normal form of c is c, so there the rule
  drops the G_2-orbit of each refuted candidate.  B2 lasts the whole
  search; B3 lives in the current third-vertex frame, as in the frames of
  later classes of v2 its bans are vacuous: each pair of images in it has
  rho's class, which B2 then bars on O2.  An element of
  G_d lies in A and fixes the assigned images, so it preserves types and
  the bans, and the orbit rule holds with them.  O2 is computed when the
  first class is refuted with classes left to try, and O3 when a refutation
  at v3 first leaves candidates, so a search in which nothing fails there
  does no automorphism work; O3 starts from the automorphisms found for
  O2 and searches only for tuples they do not reach.

The distinct-images check closes a node whose unassigned vertices cannot all
get different images.  Every assigned image r lies outside every candidate
set, since both the Cayley row of r and its other non-neighbours exclude r.
So a completion is a system of distinct representatives (SDR) of the
candidate sets of the unassigned vertices, one image from each set, that
also meets their mutual adjacencies; when the sets have no SDR there is no
completion, and the node is closed like a wipe-out.  By Hall's theorem (P.
Hall, "On representatives of subsets", J. London Math. Soc. 1935) an SDR
fails to exist iff some j sets have fewer than j elements in their union.
The unassigned vertices come in classes that share one candidate set
(below), and the sets of two different classes are disjoint: the classes
differ in adjacency to some assigned vertex x (each assignment splits every
class by adjacency to the vertex assigned), so one set lies inside the
Cayley row of x's image and the other inside that image's other
non-neighbours, and the row and the non-neighbours of a permutation are
disjoint.  Take the sets of any j unassigned vertices: their union is the
disjoint union of the sets of the classes those vertices belong to, so it
has as many elements as those sets together, while j is at most the number
of members of those classes.  So if every class has at least as many
candidates as members, every j sets have at least j elements in their
union and an SDR exists; if a class of j members has fewer than j
candidates, its members' sets are a violator.  The check is therefore the
test of each class alone, and it is still exact: it closes a node iff the
sets have no SDR, which is the failure test of the all-different
constraint (Regin, "A filtering algorithm for constraints of difference in
CSPs", AAAI 1994), recomputed at each node.  It runs in the pass that
narrows the classes (``_propagate``, below): a violating class of j <= n
members (n unassigned vertices) has fewer than j candidates, so only a
class with fewer than n candidates is compared with its members, and a
node whose pass meets an emptied set is a wipe-out, not a closing.  A
closed node has no completion, so the orbit and type rules, which read a
failure as "no completion", hold with it.

The degree-fit check closes a node at which some class cannot place its
members in its own candidate set with the right degrees.  Take a class of
members M, at least two, with the candidate set S.  In a completion the
members take |M| distinct images in S.  A completion carries g's adjacency
both ways, so the image of a member v has exactly d_v Cayley neighbours
among the images of M, where d_v is v's degree inside g[M], and any other
neighbour it has in S is one of the |S| - |M| ranks of S that no member
takes.  So the image of v has a degree inside Gamma_k[S], the Cayley graph
induced on S, between d_v and d_v + (|S| - |M|), and distinct members take
distinct ranks.  A node at which some class has no such injection has no
completion, and it is closed.  The intervals all have the width
|S| - |M|, so they are ordered alike by both ends; then giving each member,
in ascending order of d_v, the least unused rank of degree at least d_v
decides the injection exactly (``_fits``), and when |S| = |M| the check
says that the two degree sequences are equal.  This is the degree filter
of subgraph isomorphism (Zampelli, Deville and Solnon, Constraints 15,
2010; the LAD filter of Solnon, AI 174, 2010), bounded from above as well,
and used here only to close nodes.  It runs after the pass, when no set was
emptied and the distinct-images check did not close the node
(``_degree_closes``), on the classes with at most ``DEGREE_SLACK`` more
candidates than members: it is sound at any slack, and the limit only
saves time.  No class has fewer candidates than the fail-first one or more
members than the n unassigned vertices, so the check runs only when the
fail-first class has at most n + ``DEGREE_SLACK`` candidates.  The search
keeps each member set's degrees, and the agreement row of each rank the
check meets, until it ends.  Like the distinct-images check it narrows no
candidate set and closes only nodes without a completion, so the orbit and
type rules hold with it.

No reduction narrows another vertex's candidate set: translation and
conjugation fix v1's image and v2's candidates, the orbit and type rules
only skip candidates of the vertex being branched on, and the two checks
only close nodes.  So the candidate set of an unassigned vertex w is the
intersection, over the assigned vertices x, of the Cayley row of x's image
when w is adjacent to x and of the other non-neighbours of that image when
not: it depends only on the images assigned and on which assigned vertices
are w's neighbours.  Vertices with the same neighbours among the assigned
ones therefore share one set, and the search keeps them as one class with
one set; an assignment u = r splits each class by adjacency to u and
narrows each part with one AND.  Each skipped candidate and each closed
node has no completion: by the claims above every representation obeys the
type bans, so the orbit rule's failures, read under the bans, are failures
outright.  Candidate sets
depend only on the images assigned, so at every node that both visit, the
search with the orbit rule, the type rule and the checks off branches on the
same vertex and tries the same candidates in the same order; it spends
nodes below the dropped candidates and the closed nodes, finds nothing
there, and goes on where this search does.  Hence every node visited is one
it visits, the fail-first order is its order, and every verdict and every
witness is its verdict and witness; only node counts fall.  Refutations are
exhaustive under exactly these four reductions and the two checks.

Branching is fail-first (Haralick and Elliott, Artificial Intelligence 14,
1980).  The search relabels the vertices by ``graphs.degree_order`` once,
so the earliest member of a class in degree order is its lowest bit.  Each
assignment narrows the classes in one pass (``_propagate``), which also
runs the distinct-images check and finds the fail-first class: an emptied
set ends the branch, else the search branches next on the earliest member
of a class with the fewest candidates, the class with the earliest member
on a tie: the vertex with the fewest candidates, the earliest in degree
order on a tie (so v1 comes first in degree order, and v2 is its first
neighbour if it has one).
Children get fresh lists, so backtracking restores nothing.  No reduction
depends on this order: translation and conjugation hold for whichever
vertices come first, and the orbit rule is about completions of the images
assigned so far, not about the order in which the search meets the
remaining vertices; the type rule is about every representation of g.

One engine serves every width 1..8.  Candidate sets are bitsets over the
lexicographic ranks of S_k (``perms.rank_perm`` / ``perms.unrank_perm``).
For each position i and value v, the mask M[i][v] is the set of ranks q with
q(i) = v.  They are built blockwise from those of S_{k-1}.  With F = (k-1)!,
lexicographic order sorts on q(1) first, so the ranks aF .. aF+F-1 are the q
with q(1) = a+1; within that block it sorts on the tail q(2..k), which runs
through S_{k-1} over the remaining values relabelled in order.  So M[1][v] is
block v, and M[i][v] for i > 1 is the union over a != v of M_{k-1}[i-1][v']
shifted by aF, with v' = v - (v > a+1): O(k^3) shifts, not k! steps.
Two permutations fail to disagree everywhere exactly when they agree in some
position, so q agrees with p iff q(i) = p(i) for some i, that is iff q lies
in agree(p) = M[1][p(1)] | ... | M[k][p(k)].  Hence the Cayley neighbours of
p are ``full ^ agree(p)``, and the other non-neighbours are ``agree(p)``
without p itself.  Rows are computed on demand and kept across searches in
an LRU cache of 7! rows; no k! x k! table is built (at k = 8 it would take
about 200 MB).  Widths above 8 are out of scope.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations as iter_permutations
from itertools import product
from math import factorial

from drn.graphs import Graph, degree_order, graph6_encode, pair_orbit, tuple_orbit
from drn.matrices import RepresentationMatrix, verify
from drn.perms import Perm, cycles, identity, inverse, rank_perm, unrank_perm

WIDTH_CAP = 8
ORDER_CAP = 32  # the largest graph solve_drn takes
# At most 7! cached agreement rows, in the module cache and in each search's
# degree-fit rows: every rank for k <= 7, about 25 MB at k = 8.
AGREE_MEMO_CAP = 5040
DEFAULT_NODE_LIMIT = 10**9
DEFAULT_TIME_LIMIT_MS = 15 * 60 * 1000
# The degree-fit check tests only classes with at most this many more
# candidates than members.  It is sound at any slack, but looser classes
# seldom fail it: testing every class saves C15 at width 5 only 24 more of
# its 1,863 nodes and costs more time than it saves (BENCH_degreefit.json).
DEGREE_SLACK = 2


class BudgetExhaustedError(RuntimeError):
    """A width could not be decided within the node/time budget."""


class WidthCapError(ValueError):
    pass


@dataclass
class SearchStats:
    nodes: int = 0
    millis: float = 0.0
    verdict: str = ""
    skips: int = 0  # candidates the orbit and type rules dropped without a node
    hall_closed: int = 0  # nodes closed because the unassigned vertices have no distinct images
    degree_closed: int = 0  # nodes closed because a class's members cannot take images of matching degree


@dataclass(frozen=True)
class SolveResult:
    drn: int
    witness: RepresentationMatrix
    lower_bound_used: int
    ks_refuted: tuple[int, ...]
    stats: dict[int, SearchStats] = field(default_factory=dict)
    upper_bound_used: int = 0
    witness_source: str = ""


@dataclass(frozen=True)
class SurveyResult:
    total: int
    not_representable_count: int
    refuted_graph6: tuple[str, ...]

    def __post_init__(self):
        assert self.not_representable_count == len(self.refuted_graph6) <= self.total


@lru_cache(maxsize=None)
def _masks(k: int) -> tuple[tuple[int, ...], ...]:
    """M[i][v]: bitset of the ranks q with q(i) = v + 1 (0-based i and v).

    With F = (k-1)!, M[0][v] = ((1 << F) - 1) << vF and, for i > 0, M[i][v]
    is the OR over a != v of M_{k-1}[i-1][v - (v > a)] << aF (module
    docstring); the shifted blocks are disjoint, so the OR is a sum.
    """
    f = factorial(k - 1)
    prev = _masks(k - 1) if k > 1 else ()
    return (tuple(((1 << f) - 1) << v * f for v in range(k)),) + tuple(
        tuple(sum(row[v - (v > a)] << a * f for a in range(k) if a != v) for v in range(k))
        for row in prev)


@lru_cache(maxsize=AGREE_MEMO_CAP)
def _perm(k: int, r: int) -> Perm:
    """The permutation of rank r in S_k, cached like the agreement rows."""
    return unrank_perm(r, k)


@lru_cache(maxsize=AGREE_MEMO_CAP)
def _perm_inverse(k: int, r: int) -> Perm:
    """The inverse of the permutation of rank r in S_k, cached like it."""
    return inverse(_perm(k, r))


@lru_cache(maxsize=AGREE_MEMO_CAP)
def _rank(p: Perm) -> int:
    """The rank of p in S_k, cached like the permutations of each rank."""
    return rank_perm(p)


@lru_cache(maxsize=AGREE_MEMO_CAP)
def _agreement(k: int, r: int) -> int:
    """Bitset of the ranks that agree with rank r in some position, r included."""
    m = 0
    for row, x in zip(_masks(k), unrank_perm(r, k)):
        m |= row[x - 1]
    return m


def _partitions(k: int, largest: int | None = None):
    """The partitions of k into parts of at most ``largest``, parts descending."""
    if k == 0:
        yield ()
        return
    for part in range(min(k, largest or k), 0, -1):
        for rest in _partitions(k - part, part):
            yield (part,) + rest


@lru_cache(maxsize=None)
def _class_representatives(k: int) -> list[Perm]:
    """Lexicographically least element of every conjugacy class of S_k.

    For each cycle type: the fixed points first, then the cycles by ascending
    length, each on a block of consecutive points i -> i+1 -> ... -> i+l-1
    -> i.  This is the greedy choice of the least value at each position in
    turn: a point is fixed while fixed points remain; after that the least
    free value at the first point i of a cycle is i+1, and at each later point
    closing the cycle (value i) beats continuing it (a larger value) as soon
    as a cycle of the current length remains.
    """
    reps = []
    for parts in _partitions(k):
        p, start = [], 1
        for length in reversed(parts):
            p.extend(range(start + 1, start + length))
            p.append(start)
            start += length
        reps.append(tuple(p))
    return sorted(reps)


@lru_cache(maxsize=None)
def _class_members(k: int) -> dict[Perm, tuple[Perm, ...]]:
    """Every element of S_k, listed under its class representative."""
    def cycle_type(p):
        return tuple(sorted(map(len, cycles(p))))
    rep = {cycle_type(rho): rho for rho in _class_representatives(k)}
    members: dict[Perm, list[Perm]] = {rho: [] for rho in rep.values()}
    for p in iter_permutations(range(1, k + 1)):
        members[rep[cycle_type(p)]].append(p)
    return {rho: tuple(ps) for rho, ps in members.items()}


def _unbanned(k: int, r: int, banned: tuple[Perm, ...]) -> int:
    """Bitset of the ranks s whose label with rank r, the class of r^-1 o s,
    is none of the classes ``banned`` (given by their representatives)."""
    p = _perm(k, r)
    m = (1 << factorial(k)) - 1
    for rho in banned:
        for q in _class_members(k)[rho]:
            m ^= 1 << _rank(tuple([p[x - 1] for x in q]))
    return m


# The orbit rule -----------------------------------------------------------
#
# An element of H is stored as (a, a_inv, inverted): a as a tuple with
# a[x] = a(x) for 1-based x (a[0] unused), a_inv with a_inv[j] = a^-1(j+1) - 1,
# and whether sigma is inverted first.  It maps sigma to a o sigma o a^-1, or
# to a o sigma^-1 o a^-1 when inverted.

def _element(a: list[int], inverted: bool) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    a_inv = [0] * (len(a) - 1)
    for x in range(1, len(a)):
        a_inv[a[x] - 1] = x - 1
    return tuple(a), tuple(a_inv), inverted


@lru_cache(maxsize=None)
def _representative_stabiliser(rho: Perm) -> tuple:
    """G_2 = {h in H : h(rho) = rho}, built from rho's cycles (never by scanning S_k).

    The centraliser C(rho) maps each cycle (x_0 ... x_l-1) onto a cycle
    (y_0 ... y_l-1) of the same length by x_i -> y_i+s: it permutes the
    cycles of each length and rotates each.  The reflection a0 : x_i -> x_-i
    satisfies a0 o rho^-1 o a0^-1 = rho, so the inversion-type elements
    fixing rho are sigma -> a o sigma^-1 o a^-1 with a = c o a0, c in C(rho).
    """
    k = len(rho)
    cycs = cycles(rho)
    by_length: dict[int, list[list[int]]] = {}
    for cyc in cycs:
        by_length.setdefault(len(cyc), []).append(cyc)
    blocks = [
        [[(x[i], y[(i + s) % length]) for x, y, s in zip(same, images, shifts) for i in range(length)]
         for images in iter_permutations(same)
         for shifts in product(range(length), repeat=len(same))]
        for length, same in by_length.items()
    ]
    reflect = [0] * (k + 1)
    for cyc in cycs:
        for i, x in enumerate(cyc):
            reflect[x] = cyc[-i]
    group = []
    for pieces in product(*blocks):
        c = [0] * (k + 1)
        for piece in pieces:
            for x, y in piece:
                c[x] = y
        group.append(_element(c, False))
        group.append(_element([c[x] for x in reflect], True))
    return tuple(group)


class Budget:
    """Node and time limits for everything one command searches.

    Every search given the same budget draws on it: ``nodes`` counts the nodes
    of all of them against ``node_limit``, and the deadline is fixed when the
    budget is made.  The clock is read when each search starts and then every
    2048 nodes, so a search that starts after the deadline (or under a zero
    time limit) spends no node.
    """

    def __init__(self, node_limit: int = DEFAULT_NODE_LIMIT,
                 time_limit_ms: float = DEFAULT_TIME_LIMIT_MS):
        self.node_limit = node_limit
        self.deadline = time.monotonic() + time_limit_ms / 1000.0
        self.nodes = 0

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    def spend(self) -> bool:
        """Count one node; False, counting nothing, once the budget is gone."""
        if self.nodes >= self.node_limit:
            return False
        if self.nodes % 2048 == 0 and self.expired():
            return False
        self.nodes += 1
        return True


@lru_cache(maxsize=AGREE_MEMO_CAP)
def _conjugator(rho: Perm, beta: Perm) -> Perm | None:
    """A permutation t with t o rho o t^-1 = beta, or None when beta is not
    conjugate to rho: t maps each cycle of rho, point by point, onto a cycle
    of beta of the same length."""
    ours, theirs = sorted(cycles(rho), key=len), sorted(cycles(beta), key=len)
    if list(map(len, ours)) != list(map(len, theirs)):
        return None
    t = [0] * len(rho)
    for cyc, image in zip(ours, theirs):
        for x, y in zip(cyc, image):
            t[x - 1] = y
    return tuple(t)


def _propagate(classes: list[tuple[int, int]], adj: int, row: int, non: int, n: int):
    """Propagate an assignment u = r to the n vertices left unassigned, in one
    pass.  ``classes`` group them as (members, candidate set); ``adj`` is u's
    neighbours, ``row`` the Cayley row of r and ``non`` its other
    non-neighbours.  Each class splits by adjacency to u and each part is
    narrowed with one AND.  Returns None on a wipe-out, else the new classes,
    the index of the fail-first one (the fewest candidates, then the earliest
    member), whether the distinct-images check closes the node (some class
    has fewer candidates than members, which the classes' disjoint sets make
    exact; module docstring) and the fail-first class's number of
    candidates.  A class with n or more candidates has at least as many as
    members, so only counts below n are compared with the members."""
    new = []
    pick, fewest, first, short = 0, 1 << 16, 0, False  # every count is below 2^16 (8! < 65,536)
    for members, cand in classes:
        near = members & adj
        if near:
            part = cand & row
            if not part:
                return None
            count = part.bit_count()
            if count < n and count < near.bit_count():
                short = True
            if count <= fewest and (count < fewest or near & -near < first):
                pick, fewest, first = len(new), count, near & -near
            new.append((near, part))
            if near == members:
                continue
            members ^= near
        part = cand & non
        if not part:
            return None
        count = part.bit_count()
        if count < n and count < members.bit_count():
            short = True
        if count <= fewest and (count < fewest or members & -members < first):
            pick, fewest, first = len(new), count, members & -members
        new.append((members, part))
    return new, pick, short, fewest


def _fits(need: list[int], have: list[int], slack: int) -> bool:
    """Whether each degree d in ``need`` can take its own element h of
    ``have`` with d <= h <= d + slack (both lists ascending).  The intervals
    have equal width, so they are ordered alike by both ends, and giving each
    d in turn the least unused h >= d decides it exactly: an h skipped as
    below d is below every later d too."""
    j, end = 0, len(have)
    for d in need:
        while j < end and have[j] < d:
            j += 1
        if j == end or have[j] > d + slack:
            return False
        j += 1
    return True


def _degree_closes(classes: list[tuple[int, int]], k: int, adjacent: list[int],
                   internal: dict[int, list[int]], rows: dict[int, int]) -> bool:
    """The degree-fit check: whether some class (M, S) with at least two
    members and at most ``DEGREE_SLACK`` more candidates than members has no
    injection of M into S that sends each member v, of degree d_v inside
    g[M], to a rank whose degree inside the Cayley graph on S lies between d_v
    and d_v + |S| - |M| (module docstring).  ``adjacent`` is the adjacency of
    each position; ``internal`` keeps each member set's degrees, ascending,
    and ``rows`` the agreement row of each rank met (up to AGREE_MEMO_CAP of
    them), both for the rest of the search.  A lone member always fits, as
    its rank has at most |S| - 1 neighbours in S.  The degree of a rank r of
    S is the number of ranks of S outside r's agreement row.  A rank whose
    degree lies outside every member's range can take no member, so once
    more than |S| - |M| ranks do, the class fails before its degrees are
    sorted."""
    for members, cand in classes:
        if not members & members - 1:
            continue
        size = cand.bit_count()
        slack = size - members.bit_count()
        if slack > DEGREE_SLACK:
            continue
        need = internal.get(members)
        if need is None:
            need, rest = [], members
            while rest:
                low = rest & -rest
                rest ^= low
                need.append((adjacent[low.bit_length() - 1] & members).bit_count())
            need.sort()
            internal[members] = need
        lo, hi, spare = need[0], need[-1] + slack, slack
        have, rest = [], cand
        while rest:
            r = rest.bit_length() - 1
            rest ^= 1 << r
            row = rows.get(r)
            if row is None:
                if len(rows) >= AGREE_MEMO_CAP:
                    rows.clear()
                row = rows[r] = _agreement(k, r)
            d = size - (row & cand).bit_count()
            if lo <= d <= hi:
                have.append(d)
            elif spare:
                spare -= 1
            else:
                return True
        have.sort()
        if not _fits(need, have, slack):
            return True
    return False


def _search(g: Graph, k: int, budget: Budget, stats: SearchStats) -> tuple[str, tuple[Perm, ...] | None]:
    """DFS with rank-bitset candidates, for g.n >= 2.  Returns the verdict
    and, for "yes", the image of every vertex in vertex order; the candidates
    skipped and the nodes closed by each check are counted in ``stats``.
    The search runs on positions in ``graphs.degree_order``: vertex sets are
    bitsets of positions, so the earliest vertex of a set in degree order is
    its lowest bit."""
    full = (1 << factorial(k)) - 1
    order = degree_order(g)
    pos = [0] * g.n  # the position of each vertex in degree order
    for i, v in enumerate(order):
        pos[v] = i
    # the adjacency of each position, as a bitset of positions
    adjacent = [sum(1 << pos[w] for w in range(g.n) if g.adj[v] >> w & 1) for v in order]
    images = [0] * g.n  # the rank of each assigned position's image
    # The type rule's state: B2, the refuted classes of the second vertex (by
    # their representatives), with the candidates each assigned rank leaves
    # under them; B3, the refuted normal forms of the current third-vertex
    # frame, with the second vertex's image rho there and the normaliser of
    # each pair of image ranks; and the links: for each vertex z, each tuple
    # xs with xs + (z,) in O2 or O3, with the bitset of xs (all as
    # positions).  O2 joins the links when the first class is refuted; O3, of
    # the third vertex ``linked``, when a refutation there first leaves
    # candidates, replacing the triples of an earlier third vertex.  Both
    # orbits draw on one list of the automorphisms of g found so far.
    banned: tuple[Perm, ...] = ()
    pair_bans: dict[int, int] = {}
    refuted: set[Perm] = set()
    rho: Perm = ()
    normalisers: dict[tuple[int, int], tuple | None] = {}
    links: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(g.n)]
    linked = -1
    automorphisms: list[list[int]] = []
    # The orbit rule's state, for the current rho: G_2, built on first use,
    # and for each element h of G_2 (by index) the rank of h(r) for each rank
    # r the stabilisers and orbits have asked for.
    group2: tuple | None = None
    action: list[dict[int, int]] = []
    # The degree-fit check's member degrees and agreement rows.
    internal: dict[int, list[int]] = {}
    rows: dict[int, int] = {}

    def branch(classes: list[tuple[int, int]], u: int, r: int, n: int):
        """Propagate u = r to the n unassigned vertices, grouped in
        ``classes`` of (members, candidate set) (``_propagate``).  Returns
        None on a wipe-out or when the distinct-images or the degree-fit
        check closes the node, else the vertex with the fewest candidates
        (the earliest on a tie), its candidates, and the other classes."""
        non = _agreement(k, r)
        out = _propagate(classes, adjacent[u], full ^ non, non ^ 1 << r, n)
        if out is None:
            return None
        new, pick, closed, fewest = out
        if closed:
            stats.hall_closed += 1
            return None
        # No class has fewer candidates than the fail-first one or more than
        # n members, so when that one has more than n + DEGREE_SLACK, no class
        # is tight enough for the degree-fit check.
        if fewest <= n + DEGREE_SLACK and _degree_closes(new, k, adjacent, internal, rows):
            stats.degree_closed += 1
            return None
        members, cand = new.pop(pick)
        low = members & -members
        if members != low:
            new.append((members ^ low, cand))
        return low.bit_length() - 1, cand, new

    def images_of(r: int, group) -> list[int]:
        """The rank of h(r) for each element h of ``group`` (indices into
        G_2), in order, from the memo."""
        out = []
        for i in group:
            memo = action[i]
            s = memo.get(r)
            if s is None:
                a, a_inv, inverted = group2[i]
                q = _perm_inverse(k, r) if inverted else _perm(k, r)
                s = memo[r] = _rank(tuple(map(a.__getitem__, map(q.__getitem__, a_inv))))
            out.append(s)
        return out

    def stabiliser(group, fixed: tuple[int, ...]):
        """The elements of ``group`` that fix every rank in ``fixed``.  A
        group of None stands for G_1 = H: then fixed[0] is rho's rank, and
        the group is all of G_2."""
        nonlocal group2, action
        if group is None:
            if group2 is None:
                group2 = _representative_stabiliser(rho)
                action = [{} for _ in group2]
            group, fixed = range(len(group2)), fixed[1:]
        for r in fixed:
            if len(group) == 1:  # the identity alone
                break
            group = [i for i, s in zip(group, images_of(r, group)) if s == r]
        return group

    def normaliser(rx: int, ry: int):
        """For the images p and p' of ranks rx and ry: None when
        beta = p^-1 o p' is not in rho's class, else (lut, t0) such that the
        normal form t^-1 o p^-1 o c o t of a candidate c, with
        t o rho o t^-1 = beta, is tuple([lut[c[j]] for j in t0])."""
        p_inv = _perm_inverse(k, rx)
        t = _conjugator(rho, tuple([p_inv[v - 1] for v in _perm(k, ry)]))
        if t is None:
            return None
        t_inv = inverse(t)
        return tuple([0] + [t_inv[v - 1] for v in p_inv]), tuple([v - 1 for v in t])

    def type_rule(z: int, bits: int, done: int) -> int:
        """The type rule: the candidates in ``bits`` of the vertex z that give
        no linked tuple xs + (z,) with xs assigned (in ``done``) a refuted
        type; the others count as skips."""
        allowed, forms = bits, []
        for xs, both in links[z]:
            if done & both != both:
                continue
            if len(xs) == 1:
                rx = images[xs[0]]
                mask = pair_bans.get(rx)
                if mask is None:
                    mask = pair_bans[rx] = _unbanned(k, rx, banned)
                allowed &= mask
            elif refuted:
                key = images[xs[0]], images[xs[1]]
                nf = normalisers.get(key, False)
                if nf is False:
                    nf = normalisers[key] = normaliser(*key)
                if nf is not None:
                    forms.append(nf)
        if forms:
            rest = allowed
            while rest:
                low = rest & -rest
                rest ^= low
                c = _perm(k, low.bit_length() - 1)
                for lut, t0 in forms:
                    if tuple([lut[c[j]] for j in t0]) in refuted:
                        allowed ^= low
                        break
        stats.skips += (bits ^ allowed).bit_count()
        return allowed

    def dfs(u: int, bits: int, classes: list[tuple[int, int]], done: int,
            group, fixed: tuple[int, ...]) -> str:
        """Try every candidate rank in bits for u; ``classes`` group the other
        unassigned vertices and ``done`` is the bitset of the assigned ones.
        The stabiliser G of the images assigned so far is the set of elements
        of ``group`` that fix the ranks ``fixed`` (``stabiliser``); it is
        built only when a failure leaves candidates."""
        nonlocal banned, refuted, rho, normalisers, linked, group2
        if done == third:  # a new third-vertex frame, and a new rho: B3 starts empty
            refuted, rho = set(), _perm(k, images[v2])
            normalisers, group2 = {}, None
        n = g.n - 1 - done.bit_count()  # the vertices left once u is assigned
        if links[u]:
            bits = type_rule(u, bits, done)
        while bits:
            low = bits & -bits
            r = low.bit_length() - 1
            bits ^= low
            if not budget.spend():
                return "unknown"
            images[u] = r
            if not classes:
                return "yes"
            child = branch(classes, u, r, n)
            if child is not None:
                sub = dfs(*child, done | 1 << u, group, fixed + (r,))
                if sub != "no":
                    return sub
            if not bits:
                break
            if done == second:  # the type rule: B2 gains r's class
                if not banned:
                    for x, y in pair_orbit(g, order[0], order[u], automorphisms):
                        x, y = pos[x], pos[y]
                        links[x].append(((y,), 1 << y))
                        links[y].append(((x,), 1 << x))
                banned += (unrank_perm(r, k),)
                pair_bans.clear()
                continue
            if fixed:
                group, fixed = stabiliser(group, fixed), ()
            if done == third:  # the type rule: B3 gains the G_2-orbit of r
                if linked != u:
                    for z in range(g.n):
                        links[z] = [link for link in links[z] if len(link[0]) == 1]
                    for x, y, z in tuple_orbit(g, (order[0], order[v2], order[u]), automorphisms):
                        x, y, z = pos[x], pos[y], pos[z]
                        links[z].append(((x, y), 1 << x | 1 << y))
                    linked = u
                refuted.update(_perm(k, s) for s in images_of(r, group))
                bits = type_rule(u, bits, done)
            elif len(group) > 1:  # the orbit rule (fourth vertex on): u = h(r) fails too, for h in G
                drop = 0
                for s in images_of(r, group):
                    drop |= 1 << s
                drop &= bits
                stats.skips += drop.bit_count()
                bits ^= drop
        return "no"

    images[0] = 0  # the identity, on the first vertex in degree order
    first = branch([((1 << g.n) - 2, full)], 0, 0, g.n - 1)
    if first is None:
        return "no", None
    # Every class representative; the second vertex's candidates, once the
    # identity is pinned, already hold only the admissible ones (derangements
    # when it is adjacent to v1, else the rest minus the identity).
    rep_mask = sum(1 << rank_perm(p) for p in _class_representatives(k))
    v2, bits2, classes = first
    second, third = 1, 1 | 1 << v2  # ``done`` at v2 and v3
    verdict = dfs(v2, bits2 & rep_mask, classes, second, None, ())
    if verdict != "yes":
        return verdict, None
    return verdict, tuple(unrank_perm(images[i], k) for i in pos)


def is_k_representable(
    g: Graph, k: int, budget: Budget | None = None,
) -> tuple[str, RepresentationMatrix | None, SearchStats]:
    """Decide width-k representability: ("yes", witness), ("no", None) or
    ("unknown", None) when the budget ran out.  ``stats.nodes`` counts the
    nodes this call spent; ``None`` stands for a fresh default ``Budget``.

    A "no" is an exhaustive refutation under the four symmetry reductions and
    the distinct-images and degree-fit checks in the module docstring.  None
    of them narrows another vertex's candidate set, so a "yes" returns the
    witness of the same search with the orbit rule, the type rule and the
    checks off.  ``stats.skips`` counts the candidates the orbit and type
    rules dropped without spending a node, ``stats.hall_closed`` the nodes the
    distinct-images check closed and ``stats.degree_closed`` those the
    degree-fit check closed.
    """
    if k < 1:
        raise ValueError("width must be >= 1")
    if k > WIDTH_CAP:
        raise WidthCapError(f"width cap exceeded: k={k} > {WIDTH_CAP}")
    start = time.monotonic()
    if budget is None:
        budget = Budget()
    spent_before = budget.nodes
    stats = SearchStats()
    if g.n > factorial(k):
        verdict, rows = "no", None
    elif g.n == 1:
        verdict, rows = "yes", (identity(k),)
    elif budget.expired():
        verdict, rows = "unknown", None
    else:
        verdict, rows = _search(g, k, budget, stats)
    witness = None
    if rows is not None:
        witness = RepresentationMatrix(rows)
        rep = verify(g, witness)
        if not rep.valid:  # soundness guard; must never happen
            raise RuntimeError(f"internal error: search produced an invalid witness: {rep.violations}")
    stats.nodes, stats.verdict = budget.nodes - spent_before, verdict
    stats.millis = (time.monotonic() - start) * 1000.0
    return verdict, witness, stats


def solve_drn(g: Graph, budget: Budget | None = None, max_k: int | None = None) -> SolveResult:
    """Exact representation number: iterate widths from the lower bound up,
    stopping at the certified upper bound where a construction witness exists.
    Every width draws on one budget (``None``: a fresh default ``Budget``).
    Raises BudgetExhaustedError instead of guessing when a width cannot be
    decided within it.
    """
    from drn.constructions import best_certificate, bounds

    if g.n > ORDER_CAP:
        raise ValueError(f"order cap for the solver is {ORDER_CAP}")
    if budget is None:
        budget = Budget()
    rep = bounds(g)
    refuted: list[int] = []
    stats: dict[int, SearchStats] = {}
    for k in range(rep.lower, rep.upper):
        if max_k is not None and k > max_k:
            raise BudgetExhaustedError(
                f"drn undecided: widths {refuted} refuted, stopped at max-k {max_k}")
        if k > WIDTH_CAP:
            raise BudgetExhaustedError(
                f"drn undecided: widths {refuted} refuted, next width {k} exceeds the solver cap {WIDTH_CAP}")
        verdict, witness, st = is_k_representable(g, k, budget)
        stats[k] = st
        if verdict == "yes":
            return SolveResult(k, witness, rep.lower, tuple(refuted), stats,
                               rep.upper, "search")
        if verdict == "unknown":
            raise BudgetExhaustedError(
                f"budget exhausted at width {k} after {st.nodes} nodes "
                f"({budget.nodes} in all); widths refuted so far: {refuted}")
        refuted.append(k)
    cert = best_certificate(g)
    return SolveResult(rep.upper, cert.matrix, rep.lower, tuple(refuted), stats,
                       rep.upper, cert.theorem)


def survey(corpus, k: int, budget: Budget | None = None) -> SurveyResult:
    """Count corpus graphs that are not width-k representable.

    Every graph draws on one budget (``None``: a fresh default ``Budget``).
    Any undecided graph fails the whole run (budget error), so a returned
    count is exact.
    """
    if budget is None:
        budget = Budget()
    graphs = list(corpus)
    refuted = []
    for g in graphs:
        verdict, _, st = is_k_representable(g, k, budget)
        if verdict == "unknown":
            raise BudgetExhaustedError(
                f"survey undecided for {graph6_encode(g)} at width {k} after {st.nodes} nodes "
                f"({budget.nodes} in all)")
        if verdict == "no":
            refuted.append(graph6_encode(g))
    return SurveyResult(len(graphs), len(refuted), tuple(refuted))
