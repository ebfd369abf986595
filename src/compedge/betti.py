"""Graded Betti tables of squarefree monomial ideals.

Two independent engines compute the same table.  The production path
builds, for every multidegree sigma, the complex of subsets tau of sigma
whose complementary monomial lies in the ideal, whose reduced homology in
degree i - 1 gives the multigraded number at (i, sigma).  Only elements of
the lcm lattice can carry homology (Gasharov-Peeva-Welker); for the
edge-complement ideals it has at most m + n + 1 elements, so the cost is
polynomial in the graph, and the ideal builds it once, with the generators
inside each element.  The oracle path is Hochster's formula: the rank in
homological index i and degree j is the sum over all j-subsets W of the
dimension of reduced homology in degree j - i - 2 of the Stanley-Reisner
complex restricted to W.  A face W restricts to a full simplex, so only
the nonfaces, the supersets of the generators, are visited.  The two
constructions share nothing but the rank engine, so agreement is strong
evidence both are right.

Table convention: entries are the ideal's numbers, i.e. entry (i, j) here
is entry (i + 1, j) for the quotient ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .graphs import elimination_order, iter_bits, iter_triangles
from .homology import FieldSpec, homology_dims_of_facets
from .ideals import (
    IdealError,
    MonomialOrderCert,
    SqfIdeal,
    UnitIdealError,
    ZeroIdealError,
    minimal_primes,
)


@dataclass
class BettiTable:
    n: int
    field: FieldSpec
    entries: dict[tuple[int, int], int]

    @property
    def pd(self) -> int:
        return max(i for i, _ in self.entries)

    @property
    def reg(self) -> int:
        return max(j - i for i, j in self.entries)

    def rank(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def total(self, i: int) -> int:
        return sum(v for (a, _), v in self.entries.items() if a == i)

    def to_json_dict(self) -> dict:
        ordered = sorted(self.entries)
        return {
            "field": self.field.label,
            "entries": {f"{i},{j}": self.entries[(i, j)] for i, j in ordered},
            "pd": self.pd,
            "reg": self.reg,
        }

    def render_text(self) -> str:
        """Staircase layout: row r, column i shows the rank at (i, i + r)."""
        cols = range(self.pd + 1)
        rows = range(min(j - i for i, j in self.entries), self.reg + 1)
        grid = [["."] * len(cols) for _ in rows]
        for (i, j), v in self.entries.items():
            grid[j - i - rows.start][i] = str(v)
        width = max(6, *(len(c) for row in grid for c in row))
        lines = ["".join(f"{i:>{width}}" for i in cols)]
        totals = [str(self.total(i)) for i in cols]
        lines.append("".join(f"{t:>{width}}" for t in totals) + "  total")
        for r, row in zip(rows, grid):
            lines.append("".join(f"{c:>{width}}" for c in row) + f"  {r}:")
        return "\n".join(lines)


HOCHSTER_MAX_N = 14


class OracleTooLargeError(ValueError):
    """The Hochster oracle was asked for more than HOCHSTER_MAX_N
    variables."""


def check_oracle_size(n: int) -> None:
    """Raise OracleTooLargeError if the Hochster oracle refuses n variables."""
    if n > HOCHSTER_MAX_N:
        raise OracleTooLargeError(
            f"the Hochster oracle is limited to n <= {HOCHSTER_MAX_N}; got n = {n}"
        )


def _holding_none(family: list[int], sets: list[int]) -> list[int]:
    """The sets of ``family`` that hold no set of ``sets``.  For each, its
    subsets are looked up when there are no more of them than ``sets``;
    otherwise ``sets`` is scanned."""
    members = set(sets)
    out = []
    for h in family:
        if 1 << h.bit_count() <= len(sets):
            sub = h
            while sub not in members and sub:
                sub = (sub - 1) & h
            if sub in members:
                continue
        elif any(not s & ~h for s in sets):
            continue
        out.append(h)
    return out


def hochster_betti(I: SqfIdeal, field: FieldSpec) -> BettiTable:
    """Oracle: Betti table from homology of the Stanley-Reisner complex
    restricted to each nonface, a vertex set that holds a generator.

    A face restricts to a full simplex, with no homology, so the sum runs
    over the nonfaces only: 1 + n + m sets on a graph's ideal.  They form a
    tree rooted at [n], the parent of W being W | v, v the lowest vertex
    missing from W, and one depth-first walk visits each once.

    Each restriction is held by its holes, the minimal sets among P & W
    over the minimal primes P: the facets of the complex complement the
    primes, so the restriction's facets are the sets W - h.  At [n] the
    holes are the minimal primes.  The child W - v, for v below W's lowest
    missing vertex, is a face iff {v} is a hole, and then all below it are
    faces too.  Otherwise its holes are taken from W's: a hole holding v
    loses v and stays minimal, and a hole missing v stays unless it holds
    one of those shrunk holes.  Refused above HOCHSTER_MAX_N variables; at
    the limit the 14-cycle plus two chords takes 0.0025-0.0033 s and K14
    0.012-0.020 s over QQ (2-core machine, Python 3.11,
    BENCH_prime_walk.json).
    """
    if I.is_zero:
        raise ZeroIdealError("Betti table of the zero ideal is undefined")
    if 0 in I.gens:
        # the void complex has no face to prune at, so the walk would visit
        # all 2^n sets, each restricting to the void complex, and give {}
        # where the Koszul engine gives {(0, 0): 1}
        raise UnitIdealError("Hochster's formula is undefined on the unit ideal")
    check_oracle_size(I.n)
    char = field.characteristic
    entries: dict[tuple[int, int], int] = {}
    stack = [((1 << I.n) - 1, minimal_primes(I))]
    while stack:
        W, holes = stack.pop()
        wsize = W.bit_count()
        for k, dim in homology_dims_of_facets([W ^ h for h in holes], char):
            i = wsize - 2 - k
            if i >= 0:
                key = (i, wsize)
                entries[key] = entries.get(key, 0) + dim
        low = ~W & (W + 1)  # the lowest missing vertex, as a one-bit mask
        # the vertices v with W - v a face: the one-vertex holes
        singles = sum(h for h in holes if not h & (h - 1))
        for b in range(low.bit_length() - 1):
            v = 1 << b
            if singles & v:
                continue
            shrunk = [h ^ v for h in holes if h & v]
            kept = _holding_none([h for h in holes if not h & v], shrunk)
            stack.append((W ^ v, shrunk + kept))
    return BettiTable(I.n, field, entries)


def multigraded_koszul_betti(I: SqfIdeal, field: FieldSpec) -> dict[tuple[int, int], int]:
    """Multigraded ranks keyed by (homological index, multidegree mask).

    Only sigma in the lcm lattice are visited: for any other sigma, the
    union of the generators inside sigma is a proper subset, and every
    facet contains the rest of sigma, so the complex is a cone or void.
    """
    if I.is_zero:
        raise ZeroIdealError("Betti table of the zero ideal is undefined")
    gens = I.gens
    char = field.characteristic
    out: dict[tuple[int, int], int] = {}
    for sigma, inside in I.lattice.items():
        facets = tuple([sigma ^ gens[k] for k in iter_bits(inside)])
        for k, h in homology_dims_of_facets(facets, char):
            out[(k + 1, sigma)] = h
    return out


def koszul_betti(I: SqfIdeal, field: FieldSpec) -> BettiTable:
    """Production table: aggregate the multigraded ranks by degree."""
    entries: dict[tuple[int, int], int] = {}
    for (i, sigma), h in multigraded_koszul_betti(I, field).items():
        key = (i, sigma.bit_count())
        entries[key] = entries.get(key, 0) + h
    return BettiTable(I.n, field, entries)


def betti_positions_check(table: BettiTable) -> bool:
    """Nonzero entries confined to the four admissible positions for a
    degree n-2 edge-complement ideal."""
    n = table.n
    allowed = {(0, n - 2), (1, n - 1), (1, n), (2, n)}
    return all(pos in allowed for pos in table.entries)


@dataclass
class PropertyReport:
    pd: int
    reg: int
    linear_resolution: bool
    pure_resolution: bool
    unmixed: bool
    cohen_macaulay: bool
    gorenstein: bool
    level: bool
    componentwise_linear_dual: bool
    sequentially_cm: bool = dc_field(init=False)

    def __post_init__(self):
        # reported through the dual's componentwise linearity, by design
        self.sequentially_cm = self.componentwise_linear_dual

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def _has_triangle_face(adj, gens) -> bool:
    """Whether a triangle of the graph H with adjacency rows ``adj`` is
    not in ``gens``.  When H is the graph of the pairs that are not
    generators and no generator has degree above 3, these are the faces
    of size 3 of the ideal's complex."""
    return any(t not in gens for t in iter_triangles(adj))


def _shortest_path(adj, a: int, b: int, allowed: int) -> int:
    """Vertex mask of a shortest a - b path inside ``allowed``; 0 if none."""
    parent = {a: a}
    frontier = [a]
    seen = 1 << a
    while frontier and b not in parent:
        nxt = []
        for x in frontier:
            for y in iter_bits(adj[x] & allowed & ~seen):
                parent[y] = x
                seen |= 1 << y
                nxt.append(y)
        frontier = nxt
    if b not in parent:
        return 0
    path = 1 << a
    while b != a:
        path |= 1 << b
        b = parent[b]
    return path


def _elimination_walk(adj) -> MonomialOrderCert | tuple[int, int, int]:
    """Linear quotients of the ideal of the nonedges of the graph H with
    rows ``adj``, the nonedges taken in lexicographic order of their
    perfect elimination positions; at the first step that shows the order
    is not perfect, the vertices (c, a, b) of an induced path a - c - b of
    H instead.

    At the step of {a, b}, a eliminated first, with P the graph of the
    earlier nonedges and V the P-neighbours of a or b, the colon is
    generated by variables iff no edge of P lies outside V | {a, b}, and
    then V generates it.  Such an edge was placed at the turn of its
    endpoint c eliminated first, before a's turn, when the pairs {c, a}
    and {c, b} were taken too; c is not in V, so they were not nonedges,
    and c is adjacent to a and b.  So a step passes when no common
    neighbour of a and b was eliminated before a, and the walk stops at
    the first step that has one, c: c's later neighbours are no clique,
    so the order is not a perfect elimination ordering and H is not
    chordal.
    """
    elim = elimination_order(adj)
    placed = [0] * len(adj)  # rows of P
    done = 0  # the vertices eliminated before a
    order: list[int] = []
    steps: list[int] = []
    for i, a in enumerate(elim):
        for b in elim[i + 1:]:
            if adj[a] >> b & 1:
                continue
            common = adj[a] & adj[b] & done
            if common:
                return (common & -common).bit_length() - 1, a, b
            order.append(1 << a | 1 << b)
            steps.append(placed[a] | placed[b])
            placed[a] |= 1 << b
            placed[b] |= 1 << a
        done |= 1 << a
    return MonomialOrderCert(tuple(order), tuple(steps))


def _chordless_cycle(adj, c: int, a: int, b: int, field: FieldSpec) -> bool:
    """Whether the induced path a - c - b of the graph H with rows ``adj``
    closes a chordless cycle W, confirmed by H~_1(Delta_W) != 0, where
    Delta is the clique complex of H: the complex of the ideal of H's
    nonedges.

    W is c and a shortest a - b path avoiding c's other neighbours, one
    search.  W spans no triangle of H (checked), so the edges of H inside
    W are all of Delta_W above the vertices.
    """
    path = _shortest_path(adj, a, b, ~(adj[c] | 1 << c) | 1 << a | 1 << b)
    if not path:
        return False
    W = path | 1 << c
    edges = [(x, y) for x in iter_bits(W) for y in iter_bits(W & adj[x] & -(2 << x))]
    if any(adj[x] & adj[y] & W for x, y in edges):
        return False  # not chordless: edges miss faces of Delta_W
    facets = [1 << x | 1 << y for x, y in edges]
    dims = homology_dims_of_facets(facets, field.characteristic)
    return any(k >= 1 for k, _ in dims)


class NotAGraphDualError(IdealError):
    """An ideal outside the shape of a graph's dual, or a graph whose walk
    stopped at a step that closes no chordless cycle (never seen, on every
    labeled graph with n <= 7 and on random ones up to n = 62)."""


def _nonedge_ideal_is_linear(adj, field: FieldSpec) -> bool:
    """Whether the ideal of H's nonedges, H with rows ``adj``, has a linear
    resolution, iff H is chordal (Froberg 1990): the walk's certificate
    proves it, the chordless cycle from the step where it stops refutes it."""
    walk = _elimination_walk(adj)
    if isinstance(walk, MonomialOrderCert):
        return True
    if _chordless_cycle(adj, *walk, field):
        return False
    raise NotAGraphDualError("neither a chordless cycle nor an elimination certificate")


def dual_is_componentwise_linear(dual: SqfIdeal, field: FieldSpec) -> bool:
    """Whether the dual J of a graph's ideal is componentwise linear: iff
    the graph H of the pairs that are not generators of J is chordal.
    For the dual of G's ideal, H is G.

    J is generated by the nonedges and the triangles of G, so J_[1] = 0,
    and Delta(J) has no face of size 3.  That is the dimension step,
    computed on H: with generators in degrees 2 and 3 only, a face of
    size 3 is a triangle of H that is not a generator.
    For j >= 3, J_[j] has complex Delta(J) plus every set of size below
    j, so by Hochster's formula it has a linear resolution iff
    H~_k(Delta(J)_W) = 0 for all W and k >= j - 1: true in dimension 1.
    So J is componentwise linear iff its quadratic part J_[2] has a
    linear resolution, iff H is chordal (Froberg, "On Stanley-Reisner
    rings", 1990).  After the dimension step, one elimination walk
    decides it: its linear quotients are the proof for, over every field
    (Herzog-Takayama, "Resolutions by mapping cones", 2002), and the
    step where it stops names an induced path a - c - b whose shortest
    closing path makes the chordless cycle against, its H~_1 computed.
    No step sums over vertex subsets, and at most one searches for a path.
    """
    gens = set(dual.gens)
    vertices = range(dual.n)
    adj = [sum(1 << u for u in vertices if u != v and 1 << u | 1 << v not in gens)
           for v in vertices]  # rows of H
    if not dual.degrees() <= {2, 3} or _has_triangle_face(adj, gens):
        raise NotAGraphDualError("the dual has a face of size 3 or a degree outside 2..3")
    return _nonedge_ideal_is_linear(adj, field)


def is_gorenstein(table: BettiTable, height: int) -> bool:
    """Cohen-Macaulay (pd(I) + 1 equal to the height) with total rank one
    at the last resolution step."""
    return table.pd + 1 == height and table.total(table.pd) == 1


def ring_properties(table: BettiTable, dual: SqfIdeal) -> PropertyReport:
    """Resolution shape and ring-theoretic classifications of S/I, read
    off I's Betti ``table`` (over ``table.field``) and its Alexander
    ``dual``.  I's generator degree is the least shift at step 0.

    Cohen-Macaulayness is tested as pd(I) + 1 equal to the height, the
    last resolution step decides Gorenstein (total rank one) and level
    (single shift), and the dual's componentwise linearity stands in for
    sequential Cohen-Macaulayness.  ``dual`` must have the shape of a
    graph's dual (see :func:`dual_is_componentwise_linear`), or
    NotAGraphDualError is raised.
    """
    if not table.entries:
        raise ZeroIdealError("ring properties of the zero ideal are undefined")
    pd = table.pd
    reg = table.reg
    shifts_per_step: dict[int, set[int]] = {}
    for i, j in table.entries:
        shifts_per_step.setdefault(i, set()).add(j)
    d = min(shifts_per_step[0])
    linear = all(j == i + d for i, j in table.entries)
    pure = all(len(js) == 1 for js in shifts_per_step.values())
    # the dual's generators are the minimal primes
    heights = dual.degrees()
    unmixed = len(heights) == 1
    ht = min(heights)
    cm = pd + 1 == ht
    level = cm and len(shifts_per_step[pd]) == 1
    cw_dual = dual_is_componentwise_linear(dual, table.field)
    return PropertyReport(
        pd=pd,
        reg=reg,
        linear_resolution=linear,
        pure_resolution=pure,
        unmixed=unmixed,
        cohen_macaulay=cm,
        gorenstein=is_gorenstein(table, ht),
        level=level,
        componentwise_linear_dual=cw_dual,
    )
