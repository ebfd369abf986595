"""Squarefree monomial ideals over K[x_1, ..., x_n].

A squarefree monomial is stored as the bitmask of its support; an ideal is
its minimal generating set of such masks, kept as an inclusion antichain
sorted by degree and then lexicographically on the variables, so that
equal ideals compare equal structurally.  Only Berge's algorithm sorts into
that order; every other producer complements a family already in it and
reverses it (``complements``).

The central constructions here: the ideal with one degree n-2 generator
per graph edge (each generator is the product of all variables except the
edge's endpoints), minimal transversals by Berge's one-support-at-a-time
algorithm and through them minimal primes and Alexander duality, the lcm
lattice, built once per ideal with the generators inside each element,
from which the lcm graph and linear relatedness are read, and a greedy
linear quotient order that records each step's colon variables as one
mask; ``MonomialOrderCert.is_valid_for`` checks such a certificate
against the colon's definition, in time linear in each step's prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import (
    Graph,
    components_within,
    facet_holders,
    iter_bits,
    validate_standing_assumptions,
    vertices_of,
)


class IdealError(Exception):
    """Base class for ideal-level failures."""


class ZeroIdealError(IdealError):
    """Operation undefined on the zero ideal."""


class UnitIdealError(IdealError):
    """Operation undefined on the unit ideal."""


class NotEquigeneratedError(IdealError):
    """Operation requires all generators in one degree."""


_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def support_sort_key(mask: int) -> int:
    """The canonical (degree, lex) order as one integer.

    Degree comes first; within a degree, sets compare lexicographically on
    their sorted vertices.  Reversing the mask's 64 bits puts the lowest
    vertex on top, so the larger reversed mask sorts first.  Masks wider
    than 64 bits raise OverflowError rather than sort wrongly.
    """
    reversed_bits = int.from_bytes(
        mask.to_bytes(8, "little").translate(_REVERSED_BYTE), "big"
    )
    return (mask.bit_count() << 64) - reversed_bits


def monomial_str(mask: int) -> str:
    """The squarefree monomial with this support: ``x1*x3*x4``, or ``1``."""
    if mask == 0:
        return "1"
    return "*".join(f"x{v}" for v in vertices_of(mask))


@dataclass(frozen=True)
class SqfIdeal:
    """Minimal generating set of a squarefree monomial ideal in n variables,
    each generator given by its support mask."""

    n: int
    gens: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @cached_property
    def lattice(self) -> dict[int, int]:
        """``lcm_lattice(gens)``, built at most once per object (not a field)."""
        return lcm_lattice(self.gens)

    def degrees(self) -> set[int]:
        return {g.bit_count() for g in self.gens}

    def generator_strings(self) -> list[str]:
        return [monomial_str(g) for g in self.gens]


def complements(full: int, masks) -> tuple[int, ...]:
    """The complements in ``full`` of a canonically sorted family, in the
    canonical order.  Complementing reverses the degree order, and within
    one degree it reverses the lex order: the least vertex where two sets
    differ lies in the lex-smaller set and so in the other's complement."""
    return tuple(full ^ m for m in reversed(masks))


def complementary_edge_ideal(G: Graph) -> SqfIdeal:
    """One generator per edge: all variables except the edge's endpoints.
    Distinct supports of one size are already an antichain, so they are
    only ordered, not minimalized."""
    validate_standing_assumptions(G)
    edges = []
    for i in range(G.n):
        row = G.adj[i] >> (i + 1)
        for j in iter_bits(row):
            edges.append(1 << i | 1 << (i + j + 1))
    return SqfIdeal(G.n, complements(G.full_mask, edges))


def minimal_transversals(supports) -> list[int]:
    """Inclusion-minimal hitting sets of a family of vertex masks.

    Berge's algorithm: start from the empty set and take the supports one
    at a time.  For a support s, the sets that already hit s stay; every
    other set t is extended by each vertex v of s, and an extension is
    dropped only when it contains a set that already hit s.  No two
    extensions contain each other: t | v inside t' | v' forces v == v'
    (t' misses s), then t inside t', so t == t' in the antichain.

    Only the hit sets that meet s in v alone can lie inside t | v: t
    misses s, so t | v meets s in v only.  For such a set h, h lies
    inside t | v exactly when h minus v lies inside t.  So each hit set
    meeting s in one vertex is filed under that vertex with the vertex
    removed, the others are never visited, and t | v is kept unless a
    set filed under v lies inside t.  The test is the containment test
    itself, restricted to the sets it can fail on, so it is exact.

    The supports go in colex order, by their largest vertex.  Once every
    support inside [k] has been taken, the family is the set of minimal
    transversals of those supports alone.  On a graph's dual, whose
    supports are the nonedges and triangles, these are the complements in
    [k] of the maximal sets holding neither, the edges of G[k] and its
    vertices with no edge, so at most m + n sets remain after each
    vertex's batch.  Smallest first takes every nonedge before any
    triangle, leaving one set per maximal clique: on G(46, 0.8) plus a
    path, 7,127 sets against the 819 it ends with.  The antichain is
    returned in the canonical order, so it is a minimal generating set as
    it stands.
    """
    found = [0]
    for s in sorted(supports, key=int.bit_length):
        kept, miss = [], []
        for t in found:
            (kept if t & s else miss).append(t)
        if not miss:
            continue
        filed = {}
        for h in kept:
            x = h & s
            if not x & (x - 1):
                filed.setdefault(x, []).append(h ^ x)
        for t in miss:
            rest = s
            while rest:
                bit = rest & -rest
                rest ^= bit
                for c in filed.get(bit, ()):
                    if not c & ~t:
                        break
                else:
                    kept.append(t | bit)
        found = kept
    return sorted(found, key=support_sort_key)


def minimal_primes(I: SqfIdeal) -> list[int]:
    """Vertex masks T of the minimal primes (x_i : i in T), in the
    canonical order."""
    if I.is_zero:
        raise ZeroIdealError("zero ideal has no minimal primes over itself")
    return minimal_transversals(I.gens)


def height(I: SqfIdeal) -> int:
    primes = minimal_primes(I)
    return min(p.bit_count() for p in primes)


def alexander_dual(I: SqfIdeal) -> SqfIdeal:
    """Squarefree dual: generators are the minimal prime supports."""
    # minimal_transversals returns a canonically sorted antichain
    return SqfIdeal(I.n, tuple(minimal_primes(I)))


def _generator_degree(I: SqfIdeal, what: str) -> int:
    """The generators' one degree, or a typed error saying why not."""
    if I.is_zero:
        raise ZeroIdealError(f"{what} of the zero ideal is undefined")
    if len(I.degrees()) != 1:
        raise NotEquigeneratedError(f"generators span degrees {sorted(I.degrees())}")
    return I.gens[0].bit_count()


def lcm_graph(I: SqfIdeal) -> tuple[int, ...]:
    """Adjacency masks of the graph on the generators, adjacent when their
    lcm has degree d + 1; bare rows, so any number of generators fits.
    Each lattice element of degree d + 1 joins the generators inside it."""
    d = _generator_degree(I, "lcm graph")
    adj = [0] * len(I.gens)
    for sigma, inside in I.lattice.items():
        if sigma.bit_count() == d + 1:
            for k in iter_bits(inside):
                adj[k] |= inside ^ 1 << k
    return tuple(adj)


def lcm_lattice(gens) -> dict[int, int]:
    """The lcm lattice without its bottom, in increasing order, each element
    mapped to the mask of the indices of the generators inside it: those
    missing no vertex outside it.  Each element is a generator or a smaller
    element joined with one more, so closing under union suffices."""
    elements = set(gens)
    frontier = elements
    while frontier:
        frontier = {x | g for x in frontier for g in gens} - elements
        elements |= frontier
    ordered = sorted(elements)
    top = ordered[-1] if ordered else 0
    missing = facet_holders([top ^ g for g in gens])  # vertex -> generators missing it
    lattice = {}
    for sigma in ordered:
        inside = (1 << len(gens)) - 1
        for v in iter_bits(top ^ sigma):
            inside &= missing[v]
        lattice[sigma] = inside
    return lattice


def is_linearly_related(I: SqfIdeal, adj: tuple[int, ...]) -> bool:
    """First syzygies linear: every generator pair is joined by a path of
    generators dividing the pair's lcm, adjacency meaning lcm degree d + 1.
    ``adj`` is ``lcm_graph(I)``, which the caller builds once.  Equivalently,
    ``adj`` is connected on the generators inside each lattice element above
    degree d + 1 (the rest hold one generator or a clique): a pair's lcm is
    an element, and a pair inside sigma has its lcm inside sigma."""
    d = _generator_degree(I, "linear relatedness")
    high = (inside for sigma, inside in I.lattice.items() if sigma.bit_count() > d + 1)
    return all(len(components_within(adj, inside)) == 1 for inside in high)


@dataclass(frozen=True, slots=True)
class MonomialOrderCert:
    """A generator ordering plus the variables generating each step's colon.

    ``colon_steps[i]`` is the mask of the variables generating
    (u_1, ..., u_i) : u_{i+1}; the first entry is 0.  That colon is
    generated by the differences p minus u_{i+1} over the earlier p, so
    the mask is right iff each of its variables is such a difference and
    every difference meets it: then the variables are exactly the
    minimal generators.
    """

    order: tuple[int, ...]
    colon_steps: tuple[int, ...]

    def colon_variables(self) -> list[tuple[int, ...]]:
        """1-based variables per step, for display."""
        return [vertices_of(m) for m in self.colon_steps]

    def is_valid_for(self, I: SqfIdeal) -> bool:
        if sorted(self.order, key=support_sort_key) != list(I.gens):
            return False
        if len(self.colon_steps) != len(self.order):
            return False
        for i, (u, variables) in enumerate(zip(self.order, self.colon_steps)):
            diffs = {p & ~u for p in self.order[:i]}
            if any(1 << v not in diffs for v in iter_bits(variables)):
                return False
            if not all(d & variables for d in diffs):
                return False
        return True


def linear_quotient_order(I: SqfIdeal) -> MonomialOrderCert | None:
    """An order with linear quotients and its colon certificate, or None.

    Greedy: append any remaining generator u whose colon with the prefix
    is generated by variables.  That colon is generated by the differences
    p minus u over the prefix; it is generated by variables iff every
    difference meets the union of the one-vertex differences, and those
    vertices are the step's certificate.  None when no remaining generator
    qualifies.  In general None does not rule an order out, since an
    earlier choice may have led to the dead end; for the ideals of graphs
    it does (see ``classify.analyze_graph``).
    """
    order: list[int] = []
    steps: list[int] = []
    remaining = list(I.gens)
    while remaining:
        for i, u in enumerate(remaining):
            outside = ~u
            diffs = {p & outside for p in order}
            variables = 0
            for d in diffs:
                if d.bit_count() == 1:
                    variables |= d
            if all(d & variables for d in diffs):
                order.append(remaining.pop(i))
                steps.append(variables)
                break
        else:
            return None
    return MonomialOrderCert(tuple(order), tuple(steps))
