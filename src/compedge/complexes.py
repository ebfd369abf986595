"""Simplicial complexes attached to graphs and squarefree ideals.

Facets are vertex masks forming an inclusion antichain.  Two degenerate
complexes are kept distinct: the void complex (no facets, no faces) and
the irrelevant complex whose single facet is the empty set; the latter has
reduced homology in degree -1, which the homology layer relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .graphs import Graph, nonedge_masks, triangles, validate_standing_assumptions
from .ideals import (
    SqfIdeal,
    complementary_edge_ideal,
    minimal_primes,
    minimal_transversals,
    support_sort_key,
)


def maximal_supports(masks) -> tuple[int, ...]:
    """Inclusion-maximal elements of a family of masks, largest first."""
    distinct = sorted(set(masks), key=lambda m: -m.bit_count())
    kept: list[int] = []
    for m in distinct:
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    return tuple(kept)


def faces_of(facets) -> set[int]:
    """Every face mask of the complex generated by the facet masks."""
    faces = set()
    for f in facets:
        s = f
        while True:
            faces.add(s)
            if s == 0:
                break
            s = (s - 1) & f
    return faces


@dataclass(frozen=True, slots=True)
class SimplicialComplex:
    n: int
    facets: tuple[int, ...]

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def vertex_mask(self) -> int:
        m = 0
        for f in self.facets:
            m |= f
        return m

    @property
    def dimension(self):
        """Max facet dimension; -1 for the irrelevant complex, None if void."""
        if self.is_void:
            return None
        return max(f.bit_count() for f in self.facets) - 1


def gamma_complex(G: Graph) -> SimplicialComplex:
    """Facets: complements of nonedges and complements of triangles.

    This is the complex whose minimal non-faces are exactly the generators
    of the graph's degree n-2 ideal.
    """
    validate_standing_assumptions(G)
    full = G.full_mask
    # Already an antichain, so no reduction is needed: a nonedge lies in no
    # triangle, and distinct sets of one size never contain each other.
    facets = [full ^ m for m in nonedge_masks(G) + triangles(G)]
    return SimplicialComplex(G.n, tuple(sorted(facets, key=support_sort_key)))


def facet_complex(G: Graph) -> SimplicialComplex:
    """Facets are the generator supports of the graph's ideal."""
    # minimal generators, canonically sorted, are already an antichain
    return SimplicialComplex(G.n, complementary_edge_ideal(G).gens)


def stanley_reisner_ideal(cx: SimplicialComplex) -> SqfIdeal:
    """Minimal non-faces of the complex, as an ideal.

    A set is a non-face exactly when it meets the complement of every
    facet, so the minimal non-faces are the minimal transversals of the
    facet complements.
    """
    full = (1 << cx.n) - 1
    # minimal_transversals returns a canonically sorted antichain
    return SqfIdeal(cx.n, tuple(minimal_transversals(full ^ f for f in cx.facets)))


def stanley_reisner_complex(I: SqfIdeal) -> SimplicialComplex:
    """Faces are the squarefree monomials outside I; facets complement the
    minimal primes."""
    if I.is_zero:
        full_simplex = (1 << I.n) - 1
        return SimplicialComplex(I.n, (full_simplex,))
    full = (1 << I.n) - 1
    # complements of an antichain are an antichain, so they are only sorted
    facets = sorted((full ^ p for p in minimal_primes(I)), key=support_sort_key)
    return SimplicialComplex(I.n, tuple(facets))


def induced_subcollection(cx: SimplicialComplex, W: int) -> SimplicialComplex:
    """Only those whole facets lying inside W."""
    return SimplicialComplex(cx.n, tuple(f for f in cx.facets if f & ~W == 0))


def _check_cover_seq(facet_set: frozenset, cover_mask: int, seq) -> bool:
    k = len(seq)
    union = 0
    for f in seq:
        union |= f
    if cover_mask & ~union:
        return False
    # minimality: a proper covering subset would survive one removal
    for i in range(k):
        rest = 0
        for j in range(k):
            if j != i:
                rest |= seq[j]
        if not cover_mask & ~rest:
            return False
    others = facet_set.difference(seq)
    if not others:
        return True
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] | seq[i]
    for h in others:
        if not any(seq[i] & ~(h | suffix[i + 1]) == 0 for i in range(k - 1)):
            return False
    return True


def find_well_ordered_cover(cx: SimplicialComplex, k_max: int, cover_mask=None):
    """First well-ordered facet cover of length <= k_max: a minimal
    vertex-covering facet sequence F_1, ..., F_k in which every other facet
    H admits some i < k with F_i inside H union F_{i+1}, ..., F_k.  Lengths
    go up and sequences lexicographically; None if none exists.

    ``cover_mask``, by default the complex's vertices, is the vertex set the
    cover must span.  For a complex restricted to a multidegree, pass that
    multidegree: a cover certifying a nonzero Betti number there must reach
    every variable of it.
    """
    facets = cx.facets
    if k_max > len(facets):
        raise ValueError("k_max exceeds the facet count")
    facet_set = frozenset(facets)
    if cover_mask is None:
        cover_mask = cx.vertex_mask
    for k in range(1, k_max + 1):
        for idxs in permutations(range(len(facets)), k):
            seq = tuple(facets[i] for i in idxs)
            if _check_cover_seq(facet_set, cover_mask, seq):
                return seq
    return None
