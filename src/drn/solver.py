"""Exact decision and optimization of derangement representability.

A graph has a width-k representation exactly when it embeds as an induced
subgraph of the graph on S_k whose edges join permutations differing in every
position (a Cayley graph with the derangements as connection set).  The
solver searches for such an embedding by backtracking over vertices with
bitset candidate propagation, under four symmetry reductions:

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
  remaining candidates.  Only subtrees that would have failed are skipped,
  so every verdict and every witness is the one the unpruned search finds;
  only the node counts fall.  G_2 is built from rho's cycles, and each G_d
  only when a subtree at that depth first fails, so a search in which
  nothing fails does no group work.
* labels on the orbit of the first pair, a lex-leader-style rule over the
  automorphisms of g (Gent, Petrie and Puget, "Symmetry in constraint
  programming", Handbook of CP, 2006).  The label of a vertex pair {x, y}
  under a representation pi is the cycle type of pi(x)^-1 o pi(y).  It is
  symmetric (an inverse has the same cycle type) and unchanged by left
  translation (t cancels), by conjugation (it conjugates the product) and by
  the inversion maps of H (the product becomes a o pi(x) o pi(y)^-1 o a^-1,
  conjugate to pi(y)^-1 o pi(x)).  Let E0 be the orbit of {v1, v2} under
  Aut(g) (``graphs.pair_orbit``; every automorphism behind it is checked edge
  by edge, and an orbit it leaves incomplete only bans less).  The second
  vertex runs through the class representatives c_1, c_2, ... in rank order.
  Claim: once the branches v2 = c_1 .. c_j have all returned "no", no
  representation of g gives a pair of E0 a label among c_1 .. c_j.  By
  induction on j: let pi give {x, y} in E0 the label of c_j, and take phi in
  Aut(g) with {phi(v1), phi(v2)} = {x, y}.  Then pi o phi represents g and
  gives {v1, v2} that label (labels are symmetric); translate it so that v1
  goes to the identity, then conjugate so that v2 goes to c_j.  Its label on
  a pair {a, b} is that of pi on {phi(a), phi(b)}, which is in E0 exactly
  when {a, b} is, so by the induction hypothesis it gives no pair of E0 a
  label among c_1 .. c_j-1: it is a completion of v2 = c_j that obeys the
  bans in force there, and that branch would have found it.  So the search
  keeps the set B of refuted classes.  When a class joins B, it is removed
  from the candidates of v1's partners in E0 (a vertex's label with the
  identity is its own class), and each assignment u = r removes r o C, for
  every class C in B, from the candidates of u's unassigned partners.  B is a
  union of conjugacy classes and H preserves labels, so an element of G_d
  maps the banned set of each assigned image onto itself, and the orbit rule
  holds with the bans in place.  The bans drop only candidates that no
  representation uses, so no verdict changes.  They narrow candidate sets,
  which could steer fail-first branching (below) to another first witness in
  a later class; the tests check that it does not on their corpus.  E0 is
  computed when the first class is refuted with classes left to try, so a
  search whose first class succeeds does no automorphism work.

Refutations are exhaustive under exactly these four reductions.

Branching is fail-first (Haralick and Elliott, Artificial Intelligence 14,
1980).  Each assignment narrows the candidate sets of the unassigned
vertices, kept in ``graphs.degree_order``, in one pass; an emptied set ends
the branch, else the search branches next on the vertex with the fewest
candidates, the earliest in degree order on a tie (so v1 comes first in
degree order, and v2 is its first neighbour if it has one).  Children get
fresh lists, so backtracking restores nothing.  No reduction depends on this
order: translation and conjugation hold for whichever vertices come first,
and the orbit rule is about completions of the images assigned so far, not
about the order in which the search meets the remaining vertices; the label
rule is about every representation of g.

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

from drn.graphs import Graph, degree_order, graph6_encode, pair_orbit
from drn.matrices import RepresentationMatrix, verify
from drn.perms import Perm, cycles, identity, inverse, rank_perm, unrank_perm

WIDTH_CAP = 8
# At most 7! cached agreement rows: every rank for k <= 7, about 25 MB at k = 8.
AGREE_MEMO_CAP = 5040
DEFAULT_NODE_LIMIT = 10**9
DEFAULT_TIME_LIMIT_MS = 15 * 60 * 1000


class BudgetExhaustedError(RuntimeError):
    """A width could not be decided within the node/time budget."""


class WidthCapError(ValueError):
    pass


@dataclass
class SearchStats:
    nodes: int = 0
    millis: float = 0.0
    verdict: str = ""


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
    order: int | None
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


@lru_cache(maxsize=AGREE_MEMO_CAP)
def _unbanned(k: int, r: int, banned: tuple[Perm, ...]) -> int:
    """Bitset of the ranks s whose label with rank r, the class of r^-1 o s,
    is none of the classes ``banned`` (given by their representatives)."""
    p = unrank_perm(r, k)
    m = (1 << factorial(k)) - 1
    for rho in banned:
        for q in _class_members(k)[rho]:
            m ^= 1 << rank_perm(tuple(p[x - 1] for x in q))
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


def _images(group, p: Perm):
    """The image of p under each element of the group, in order."""
    p_inv = inverse(p)
    for a, a_inv, inverted in group:
        q = p_inv if inverted else p
        yield tuple(map(a.__getitem__, map(q.__getitem__, a_inv)))


class _Stabiliser:
    """The elements of H that fix the images assigned down to one vertex,
    built on first use: G_2 from the class representative's cycles when there
    is no parent, otherwise the parent's elements that also fix this rank."""

    __slots__ = ("parent", "rank", "k", "group")

    def __init__(self, parent: _Stabiliser | None, rank: int, k: int):
        self.parent, self.rank, self.k, self.group = parent, rank, k, None

    def elements(self):
        if self.group is None:
            if self.parent is None:
                self.group = _representative_stabiliser(unrank_perm(self.rank, self.k))
            else:
                group = self.parent.elements()
                if len(group) > 1:  # more than the identity alone
                    p = unrank_perm(self.rank, self.k)
                    group = [h for h, q in zip(group, _images(group, p)) if q == p]
                self.group = group
        return self.group


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


def _search(g: Graph, k: int, budget: Budget) -> tuple[str, tuple[Perm, ...] | None]:
    """DFS with rank-bitset candidates, for g.n >= 2.  Returns the verdict and,
    for "yes", the image of every vertex in vertex order."""
    full = (1 << factorial(k)) - 1
    images: dict[int, int] = {}
    order = degree_order(g)
    # The label rule's state: the refuted classes of the second vertex (by
    # their representatives), and each vertex's partners in E0 as a bitset,
    # filled in when the first class is refuted.
    banned: tuple[Perm, ...] = ()
    partners = [0] * g.n

    def branch(rest: list[int], masks: list[int], u: int, r: int):
        """Propagate u = r to the unassigned vertices ``rest`` (in degree
        order) with candidate sets ``masks``.  Returns None on a wipe-out,
        else the vertex with the fewest candidates (the earliest on a tie),
        its candidates, and the other vertices and their candidates."""
        non = _agreement(k, r)
        row = full ^ non
        non ^= 1 << r
        adj = g.adj[u]
        new = [m & (row if adj >> w & 1 else non) for w, m in zip(rest, masks)]
        part = partners[u]
        if part:  # the label rule (partners stay empty until a class is banned)
            allowed = _unbanned(k, r, banned)
            new = [m & allowed if part >> w & 1 else m for w, m in zip(rest, new)]
        sizes = list(map(int.bit_count, new))
        least = min(sizes)
        if not least:
            return None
        i = sizes.index(least)
        return rest[i], new[i], rest[:i] + rest[i + 1:], new[:i] + new[i + 1:]

    def dfs(u: int, bits: int, rest: list[int], masks: list[int], stab: _Stabiliser | None) -> str:
        """Try every candidate rank in bits for u.  stab holds the group
        fixing every image assigned so far (None at the second vertex, whose
        candidates are one per class)."""
        nonlocal banned
        while bits:
            low = bits & -bits
            r = low.bit_length() - 1
            bits ^= low
            if not budget.spend():
                return "unknown"
            if not rest:
                images[u] = r
                return "yes"
            child = branch(rest, masks, u, r)
            if child is not None:
                sub = dfs(*child, _Stabiliser(stab, r, k))
                if sub == "yes":
                    images[u] = r
                if sub != "no":
                    return sub
            if not bits:
                break
            if stab is None:  # the label rule: no pair of E0 has r's class
                if not banned:
                    for x, y in pair_orbit(g, order[0], u):
                        partners[x] |= 1 << y
                        partners[y] |= 1 << x
                banned += (unrank_perm(r, k),)
                allowed, part = _unbanned(k, 0, banned), partners[order[0]]
                masks = [m & allowed if part >> w & 1 else m for w, m in zip(rest, masks)]
            else:  # the orbit rule: u = g(r) fails too
                group = stab.elements()
                if len(group) > 1:
                    p = unrank_perm(r, k)
                    for q in set(_images(group, p)):
                        bits &= ~(1 << rank_perm(q))
        return "no"

    images[order[0]] = 0  # the identity
    first = branch(order[1:], [full] * (g.n - 1), order[0], 0)
    if first is None:
        return "no", None
    # Every class representative; the second vertex's candidates, once the
    # identity is pinned, already hold only the admissible ones (derangements
    # when it is adjacent to v1, else the rest minus the identity).
    rep_mask = sum(1 << rank_perm(p) for p in _class_representatives(k))
    u2, bits2, rest, masks = first
    verdict = dfs(u2, bits2 & rep_mask, rest, masks, None)
    if verdict != "yes":
        return verdict, None
    return verdict, tuple(unrank_perm(images[v], k) for v in range(g.n))


def is_k_representable(
    g: Graph, k: int, budget: Budget | None = None,
) -> tuple[str, RepresentationMatrix | None, SearchStats]:
    """Decide width-k representability: ("yes", witness), ("no", None) or
    ("unknown", None) when the budget ran out.  ``stats.nodes`` counts the
    nodes this call spent; ``None`` stands for a fresh default ``Budget``.

    A "no" is an exhaustive refutation under the four symmetry reductions in
    the module docstring.
    """
    if k < 1:
        raise ValueError("width must be >= 1")
    if k > WIDTH_CAP:
        raise WidthCapError(f"width cap exceeded: k={k} > {WIDTH_CAP}")
    start = time.monotonic()
    if budget is None:
        budget = Budget()
    spent_before = budget.nodes
    if g.n > factorial(k):
        verdict, rows = "no", None
    elif g.n == 1:
        verdict, rows = "yes", (identity(k),)
    elif budget.expired():
        verdict, rows = "unknown", None
    else:
        verdict, rows = _search(g, k, budget)
    witness = None
    if rows is not None:
        witness = RepresentationMatrix(rows)
        rep = verify(g, witness)
        if not rep.valid:  # soundness guard; must never happen
            raise RuntimeError(f"internal error: search produced an invalid witness: {rep.violations}")
    stats = SearchStats(nodes=budget.nodes - spent_before,
                        millis=(time.monotonic() - start) * 1000.0, verdict=verdict)
    return verdict, witness, stats


def solve_drn(g: Graph, budget: Budget | None = None, max_k: int | None = None) -> SolveResult:
    """Exact representation number: iterate widths from the lower bound up,
    stopping at the certified upper bound where a construction witness exists.
    Every width draws on one budget (``None``: a fresh default ``Budget``).
    Raises BudgetExhaustedError instead of guessing when a width cannot be
    decided within it.
    """
    from drn.constructions import best_certificate, bounds

    if g.n > 32:
        raise ValueError("order cap for the solver is 32")
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


def survey(corpus, k: int, budget: Budget | None = None, order: int | None = None) -> SurveyResult:
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
    return SurveyResult(order, len(graphs), len(refuted), tuple(refuted))
