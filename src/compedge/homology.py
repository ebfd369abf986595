"""Reduced simplicial homology dimensions over exact coefficient fields.

Dimensions come from exact ranks of the boundary matrices of the augmented
chain complex, all through ``_rank`` on sparse {column: entry} rows: over
GF(2) the rows become bitmask integers eliminated with xor; over GF(p) and
the rationals one sparse elimination pivots on unit entries (any nonzero
residue mod p, +-1 over the rationals), as exact homology codes do (Dumas,
Heckenbach, Saunders and Welker, "Computing simplicial homology based on
efficient Smith normal form algorithms", 2003).  Over the rationals, once
no +-1 entry is left, any entry is a pivot and the entries become exact
fractions.  No floating point appears anywhere.

Results are memoized per (facet family, characteristic) for the life of
the process.  Per pass of the perfbench workloads, the sweep over 5-vertex
graphs makes 1,524 calls on 150 distinct keys and GF(2) ``analyze`` 271 on
98; rational ``betti --cross-check`` makes 402 on 203, and all 84 of its
repeats that are neither void nor irrelevant come from an earlier command.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import faces_of
from .graphs import iter_bits


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


def _rank_gf2(rows: list[dict[int, int]]) -> int:
    """Rank over GF(2) of sparse rows, packed into bitmasks for xor.  The
    pivots are keyed by leading bit, so a row meets only the pivots whose
    leading bit it holds."""
    pivots: dict[int, int] = {}
    for row in rows:
        r = 0
        for c in row:
            r |= 1 << c
        while r:
            top = r.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = r
                break
            r ^= pivot
    return len(pivots)


def _rank_sparse(rows: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p), or over the rationals when p == 0, of a matrix given
    as nonempty sparse rows {column: integer nonzero mod p} (the rows are
    consumed).

    Each step pivots on a unit entry of the sparsest row that has one (over
    GF(p) every entry is a unit, over the rationals +-1) and clears its
    column from the other rows.  Over the rationals +-1 pivots make these
    invertible integer row operations; once no +-1 entry is left, the first
    entry of the sparsest row is the pivot and entries become exact
    fractions.
    """
    rank = 0
    while rows:
        pivot = col = None
        for row in rows:
            if pivot is not None and len(row) >= len(pivot):
                continue
            for c, x in row.items():
                if (x % p if p else x in (1, -1)):
                    pivot, col = row, c
                    break
        if pivot is None:
            # the rationals with no +-1 entry left; fractions is imported
            # only here, because the complexes of graph ideals rarely need it
            from fractions import Fraction

            pivot = min(rows, key=len)
            col = next(iter(pivot))
            inv = Fraction(1, pivot[col])
        else:
            inv = pow(pivot[col], -1, p) if p else pivot[col]
        remaining = []
        for row in rows:
            if row is pivot:
                continue
            y = row.get(col)
            if y is not None:
                f = y * inv
                for c, x in pivot.items():
                    w = row.get(c, 0) - f * x
                    if p:
                        w %= p
                    if w:
                        row[c] = w
                    else:
                        del row[c]
                if not row:
                    continue
            remaining.append(row)
        rows = remaining
        rank += 1
    return rank


def _rank(rows: list[dict[int, int]], p: int) -> int:
    """Exact rank over GF(p), or over the rationals when p == 0, of nonempty
    sparse rows {column: integer nonzero mod p}; the one field dispatch."""
    return _rank_gf2(rows) if p == 2 else _rank_sparse(rows, p)


def _faces_by_dim(facets: tuple[int, ...]) -> list[list[int]]:
    """levels[k + 1] lists the k-face masks (the empty face is level 0)."""
    top = max(f.bit_count() for f in facets)
    levels: list[list[int]] = [[] for _ in range(top + 1)]
    for m in faces_of(facets):
        levels[m.bit_count()].append(m)
    for level in levels:
        level.sort()
    return levels


_dims_cache: dict[tuple, tuple[tuple[int, int], ...]] = {}


def homology_dims_of_facets(facets, char: int) -> tuple[tuple[int, int], ...]:
    """Nonzero reduced homology (degree, dimension) pairs for an antichain
    of facet masks; () for the void complex."""
    key = (tuple(sorted(facets)), char)
    cached = _dims_cache.get(key)
    if cached is not None:
        return cached
    facets = key[0]
    if not facets:
        result: tuple[tuple[int, int], ...] = ()
    elif facets == (0,):
        result = ((-1, 1),)
    else:
        result = _compute_dims(facets, char)
    _dims_cache[key] = result
    return result


def _compute_dims(facets: tuple[int, ...], char: int) -> tuple[tuple[int, int], ...]:
    levels = _faces_by_dim(facets)
    top = len(levels) - 1
    counts = [len(level) for level in levels]
    # ranks[k] = rank of the boundary map from k-faces to (k-1)-faces;
    # the augmentation map from vertices to the empty face always has rank 1.
    ranks = [0] * (top + 2)
    ranks[1] = 1
    for k in range(2, top + 1):
        lower_index = {m: i for i, m in enumerate(levels[k - 1])}
        rows = []
        for m in levels[k]:
            row = {}
            sign = 1
            for v in iter_bits(m):
                row[lower_index[m ^ (1 << v)]] = sign
                sign = -sign
            rows.append(row)
        ranks[k] = _rank(rows, char)
    out = []
    for k in range(-1, top):
        h = counts[k + 1] - ranks[k + 1] - ranks[k + 2]
        if h:
            out.append((k, h))
    return tuple(out)
