"""Reduced simplicial homology dimensions over exact coefficient fields.

Dimensions come from exact ranks of boundary maps given as sparse rows
{column: entry}: a row per face, a column per face one dimension lower,
both in sorted order.  One loop reduces the rows over every field, GF(2)
included, against pivots keyed by their leading (largest) column and
scaled to lead 1, so that exact fractions appear only for a rational lead
other than +-1.  No floating point appears.

The maps are those of the complex relative to the star of one vertex a,
not of the whole complex.  The star, the faces sigma with sigma | a a
face, is a cone and has no reduced homology, so the exact sequence of the
pair gives H~_k(Delta) = H_k(Delta, st a) for every k (Munkres, "Elements
of Algebraic Topology", 1984: relative homology, cones, the exact
sequence of a pair).  The relative chains C(Delta)/C(st a) have the faces
outside the star as a basis, those sigma with sigma | a no face, and a
face's boundary is its boundary in Delta without the terms inside the
star.  The empty face lies in the star, so there is no augmentation, and
a face whose boundary lies wholly inside the star gives no row.  The apex a is the highest vertex
held by the most facets; any vertex gives the same dimensions.  On the
Stanley-Reisner complex of the 9-cycle plus two chords, where every set
of at most six vertices is a face, 13 of the 481 faces of dimension >= 1
lie outside the apex's star and 5 rows reach the kernel (246 of the 481
on the whole complex).

Each relative map is reduced in full: so few faces lie outside the star
that clearing (skipping each face that leads a reduced row of the map
above) removed no row on the benchmark inputs or in the oracle at n = 12
and 14, and so saved nothing.

Faces outside the star are generated level by level, each level sorted,
walking down from the facets that miss the apex (``_faces_outside_star``).
It stops at an empty level below which none of those facets lies, as
every lower level is then empty, and a level that is empty or lies on an
empty one gives no boundary map to reduce.
Results are memoized per (facet family, characteristic) in a
least-recently-used memo of 65,536 entries, whose hits and misses
``_dims.cache_info()`` counts.  Per pass of the perfbench workloads (seed
1), the sweep over 5-vertex graphs makes 1,524 calls on 150 distinct keys
and GF(2) ``analyze`` 271 on 98.  Rational ``betti --cross-check`` makes
402 on 203, and each of its 84 repeats that are neither void nor
irrelevant was first computed by an earlier command.
"""

from __future__ import annotations

import functools
from collections.abc import KeysView
from dataclasses import dataclass

from .graphs import facet_holders, iter_bits


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """Coefficient field: characteristic 0 means exact rationals."""

    characteristic: int

    def __post_init__(self):
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise ValueError(f"characteristic {self.characteristic} is not 0 or prime")

    @property
    def label(self) -> str:
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
QQ = FieldSpec(0)


def _pivots(rows: list[dict[int, int]], p: int) -> KeysView[int]:
    """Pivot (leading) columns over GF(p), or over the rationals when
    p == 0, of nonempty sparse rows {column: integer nonzero mod p} (the
    rows are consumed).  They are the leading columns of the row space, so
    they depend neither on the order of the rows nor on which spanning rows
    are given.

    A row whose leading column has no pivot yet is scaled to lead 1 and
    kept as that column's pivot, so eliminating that column from a later
    row takes no division.  Over the rationals a lead of +-1 keeps the
    entries integers; only another lead brings in exact fractions.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        while row:
            top = max(row)
            pivot = pivots.get(top)
            if pivot is None:
                x = row[top]
                if (x % p if p else x) != 1:
                    if p:
                        inv = pow(x, -1, p)
                    elif x == -1:
                        inv = -1
                    else:
                        # imported only here: graph ideals rarely need it
                        from fractions import Fraction

                        inv = 1 / Fraction(x)
                    row = {c: y * inv for c, y in row.items()}
                pivots[top] = row
                break
            f = row[top]
            for c, y in pivot.items():
                w = row.get(c, 0) - f * y
                if p:
                    w %= p
                if w:
                    row[c] = w
                else:
                    del row[c]
    return pivots.keys()


def _faces_outside_star(facets: tuple[int, ...]) -> list[list[int]]:
    """levels[k] lists, in increasing order, the faces with k vertices
    outside the star of the apex, the highest vertex held by the most
    facets: the faces sigma such that no facet holding sigma holds the
    apex.  levels[0] is empty, as the empty face lies in every star.

    The faces outside the star are an upper set inside the facets that
    miss the apex (a face between such a face and a facet holding it is
    held by fewer facets), and those facets lie outside the star, as the
    facets are an antichain.  So the levels are walked down from them: a
    set one vertex short of a kept face is kept when the facets holding
    all its vertices miss the apex, tested for every vertex of the face in
    one pass of running ANDs of the holders from either end.  Those facets
    are placed in their levels first; once a level comes out empty and no
    smaller one is left, every level below is empty and the walk stops.
    """
    holders = facet_holders(facets)
    star = max(reversed(holders), key=int.bit_count)
    tops = [f for i, f in enumerate(facets) if not star >> i & 1]
    levels = [[] for _ in range(max(map(int.bit_count, tops), default=0) + 1)]
    for f in tops:
        levels[f.bit_count()].append(f)
    kept: list[int] = []
    for k in range(len(levels) - 1, 0, -1):
        found = set(levels[k])
        for m in kept:
            # low[i]: the facets holding the apex and m's i lowest vertices
            vs = list(iter_bits(m))
            low = [star]
            for v in vs:
                low.append(low[-1] & holders[v])
            high = -1
            for i in range(len(vs) - 1, -1, -1):
                if not low[i] & high:
                    found.add(m ^ 1 << vs[i])
                high &= holders[vs[i]]
        kept = levels[k] = sorted(found)
        if not kept and not any(levels[:k]):
            break
    return levels


def homology_dims_of_facets(facets, char: int) -> tuple[tuple[int, int], ...]:
    """Nonzero reduced homology (degree, dimension) pairs for an antichain
    of facet masks; () for the void complex."""
    return _dims(tuple(sorted(facets)), char)


# far above the 826 keys that the sweeps at n <= 6 over every field, the
# oracle at n = 12 and 14 over GF(2) and QQ and K40's table over GF(2)
# leave together in one process
@functools.lru_cache(maxsize=1 << 16)
def _dims(facets: tuple[int, ...], char: int) -> tuple[tuple[int, int], ...]:
    if not facets:
        return ()
    if facets == (0,):
        return ((-1, 1),)
    return _compute_dims(facets, char)


def _compute_dims(facets: tuple[int, ...], char: int) -> tuple[tuple[int, int], ...]:
    levels = _faces_outside_star(facets)
    top = len(levels) - 1
    # ranks[k] = rank of the relative boundary map on the faces with k
    # vertices; a vertex's boundary, the empty face, lies in the star
    ranks = [0] * (top + 2)
    for k in range(2, top + 1):
        if not levels[k] or not levels[k - 1]:
            continue
        lower_index = {m: i for i, m in enumerate(levels[k - 1])}
        rows = []
        for m in levels[k]:
            row = {}
            sign = 1
            rest = m
            while rest:
                low = rest & -rest
                j = lower_index.get(m ^ low)
                if j is not None:
                    row[j] = sign
                sign = -sign
                rest ^= low
            if row:
                rows.append(row)
        ranks[k] = len(_pivots(rows, char))
    out = []
    for k in range(1, top + 1):
        h = len(levels[k]) - ranks[k] - ranks[k + 1]
        if h:
            out.append((k - 1, h))
    return tuple(out)
