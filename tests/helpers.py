"""Shared test fixtures, independent brute-force oracles, and the
library's test-only routes.

The brute-force oracles are written from first principles (string
bit-twiddling, subset filters, cofactor determinants) so that agreement
with the library is evidence, not circularity.  ``maximal_supports``
reduces a family to its maximal sets by comparing each set with every
larger one; the library has no such reduction.  The routes under "library
routes" are not independent: ``matrix_rank`` and
``is_well_ordered_facet_cover`` call library internals (the rank kernel,
the cover check), and ``from_facets``, ``stanley_reisner_complex`` (from
the library's minimal primes) and ``induced_subcomplex`` build the
library's complexes; they serve as fixtures and second constructions, not
as independent checks of those internals.  Likewise
``general_is_componentwise_linear``, the decision for any squarefree
ideal, runs the library's elimination walk and witness, greedy order and
Hochster sum; its dimension step, ``has_face_of_size``, grows faces from
the minimal nonfaces and is the reference for the library's triangle
test.
``subset_hochster_betti`` sums Hochster's formula over all 2^n vertex
sets through the homology engine, each restriction reduced by
``maximal_supports``; it is the reference for the library's oracle, which
visits the nonfaces alone and takes each restriction's facets from its
parent nonface's.  ``boundary_matrix``
filters its faces from ``faces_of``, so the whole augmented boundary
matrices it builds share no face code with the homology engine; only
their ranks go through the library's kernel.
``minimalize_supports`` builds ideals from arbitrary families, and
``reference_cert_is_valid`` checks a linear-quotient certificate by
minimalizing every colon, independently of the library's checker.
``scan_minimal_transversals`` is Berge's update with every extension
checked against every set that already hit the support; it is the
oracle for the library's narrower check past the reach of the 2^n
filter ``brute_minimal_transversals``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product

from compedge import betti, ideals
from compedge.betti import hochster_betti
from compedge.classify import (
    MODE_CORRECTED,
    SweepReport,
    _cross_field_check,
    _verify_into,
    analyze_graph,
)
from compedge.complexes import SimplicialComplex, _check_cover_seq
from compedge.graphs import Graph, connected_components, iter_bits, vertices_of
from compedge.homology import GF2, FieldSpec, _pivots, homology_dims_of_facets
from compedge.ideals import SqfIdeal, complements, minimal_primes, support_sort_key

# ---------------------------------------------------------------- graphs


def graph(n, *edges):
    return Graph.from_edges(n, list(edges))


def mask_of(vertices) -> int:
    """Bitmask of an iterable of 1-based vertices."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def path(n):
    return graph(n, *[(i, i + 1) for i in range(1, n)])


def cycle(n):
    return graph(n, *([(i, i + 1) for i in range(1, n)] + [(1, n)]))


def complete(n):
    return graph(n, *combinations(range(1, n + 1), 2))


def complement(G):
    """Every pair of distinct vertices that is not an edge of G."""
    edges = set(G.edges())
    return graph(G.n, *[e for e in combinations(range(1, G.n + 1), 2) if e not in edges])


def two_k2():
    return graph(4, (1, 2), (3, 4))


def star4():
    return graph(4, (1, 2), (1, 3), (1, 4))


def paw():
    return graph(4, (1, 2), (1, 3), (2, 3), (3, 4))


def p3_union_k2():
    return graph(5, (1, 2), (2, 3), (4, 5))


def two_tree(n, seed=1):
    """A random 2-tree: from the edge 1-2, each new vertex is joined to
    both ends of an edge chosen with ``random.Random(seed)``."""
    rng = random.Random(seed)
    edges = [(1, 2)]
    for v in range(3, n + 1):
        a, b = rng.choice(edges)
        edges += [(a, v), (b, v)]
    return graph(n, *edges)


def random_with_path(n, p=0.4, seed=1):
    """G(n, p) drawn pair by pair in lexicographic order with
    ``random.Random(seed)``, plus the path 1-2-...-n."""
    rng = random.Random(seed)
    edges = {e for e in combinations(range(1, n + 1), 2) if rng.random() < p}
    return graph(n, *sorted(edges | {(i, i + 1) for i in range(1, n)}))


def edge_list_text(G):
    """The edge-list text ``parse_graph(..., "edge-list")`` reads: the
    vertex count, then one "i j" line per edge."""
    return "\n".join([str(G.n)] + [f"{i} {j}" for i, j in G.edges()])


def graph_from_mask(n, mask):
    """Graph from an edge bitmask over lexicographic vertex pairs."""
    pairs = list(combinations(range(1, n + 1), 2))
    return Graph.from_edges(n, [pairs[t] for t in range(len(pairs)) if mask >> t & 1])


def all_graphs(n):
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield graph_from_mask(n, mask)


def iter_graphs(n):
    """All labeled graphs on [n] with minimum degree >= 1, by edge mask."""
    return (G for G in all_graphs(n) if all(G.adj))


def min_degree_one_count(n):
    """Inclusion-exclusion count of labeled graphs with no isolated vertex."""
    from math import comb

    return sum(
        (-1) ** k * comb(n, k) * 2 ** comb(n - k, 2) for k in range(n + 1)
    )


# ------------------------------------------------------- labeled sweep


def labeled_sweep(n_min, n_max, field=GF2, mode=MODE_CORRECTED, cross_field=False):
    """The sweep's report from one analysis per labeled graph, in mask
    order: the oracle for the sweep over isomorphism classes."""
    total = 0
    tallies, mismatches, disagreements = {}, [], []
    for n in range(n_min, n_max + 1):
        for G in iter_graphs(n):
            total += 1
            record = analyze_graph(G, field, mode)
            if cross_field:
                disagreements.extend(_cross_field_check(record))
            _verify_into(tallies, mismatches, record.consistency)
    mismatches.sort(key=lambda m: (m["graph6"], m["claim"], m["field"]))
    disagreements.sort(key=lambda d: (d["graph6"], d["fields"]))
    return SweepReport(
        n_min=n_min,
        n_max=n_max,
        field=field.label,
        mode=mode,
        cross_field=cross_field,
        graph_count=total,
        claim_tallies=tallies,
        mismatches=mismatches,
        field_disagreements=disagreements,
        wall_time_s=0.0,
    )


# ------------------------------------------------------- graph6 (naive)


def naive_graph6_encode(G: Graph) -> str:
    bits = ""
    for j in range(1, G.n):
        for i in range(j):
            bits += "1" if G.adj[i] >> j & 1 else "0"
    while len(bits) % 6:
        bits += "0"
    out = chr(G.n + 63)
    for pos in range(0, len(bits), 6):
        out += chr(int(bits[pos : pos + 6], 2) + 63)
    return out


def naive_graph6_decode(text: str) -> Graph:
    n = ord(text[0]) - 63
    bits = ""
    for ch in text[1:]:
        bits += format(ord(ch) - 63, "06b")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos] == "1":
                edges.append((i + 1, j + 1))
            pos += 1
    return Graph.from_edges(n, edges)


# ------------------------------------------------------ graph predicates


def is_connected(G: Graph) -> bool:
    return len(connected_components(G)) == 1


def brute_is_chordal(G: Graph) -> bool:
    """No induced cycle of length four or more, by direct subset search."""
    for size in range(4, G.n + 1):
        for subset in combinations(range(G.n), size):
            degs = []
            inside = set(subset)
            edge_count = 0
            for v in subset:
                d = sum(1 for u in subset if u != v and G.adj[v] >> u & 1)
                degs.append(d)
                edge_count += d
            edge_count //= 2
            if any(d != 2 for d in degs) or edge_count != size:
                continue
            # connected 2-regular graph on the subset = induced cycle
            seen = {subset[0]}
            frontier = [subset[0]]
            while frontier:
                v = frontier.pop()
                for u in inside:
                    if u not in seen and G.adj[v] >> u & 1:
                        seen.add(u)
                        frontier.append(u)
            if len(seen) == size:
                return False
    return True


def brute_triangles(G: Graph) -> list[int]:
    """Triangle masks by a scan of every vertex triple in lexicographic order."""
    return [
        1 << a | 1 << b | 1 << c
        for a, b, c in combinations(range(G.n), 3)
        if G.adj[a] >> b & 1 and G.adj[a] >> c & 1 and G.adj[b] >> c & 1
    ]


def brute_triangle_count(G: Graph) -> int:
    return len(brute_triangles(G))


def brute_is_forest(G: Graph) -> bool:
    """No cycle: union-find meets no edge whose endpoints are already joined."""
    parent = list(range(G.n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in G.edges():
        a, b = root(i - 1), root(j - 1)
        if a == b:
            return False
        parent[a] = b
    return True


# -------------------------------------------------- hypergraph transversals


def brute_minimal_transversals(supports, n) -> list[int]:
    """All subsets filtered for the hitting property, then antichain-reduced."""
    hitting = []
    for mask in range(1 << n):
        if all(s & mask for s in supports):
            hitting.append(mask)
    minimal = [
        m for m in hitting if not any(h != m and h & ~m == 0 for h in hitting)
    ]
    return sorted(minimal, key=brute_canonical_key)


def scan_minimal_transversals(supports) -> list[int]:
    """Berge's algorithm with a list scan: every extension is checked
    against every set that already hit the support.  The oracle at sizes
    where the 2^n filter above cannot run."""
    found = [0]
    for s in sorted(supports, key=int.bit_count):
        hit = [t for t in found if t & s]
        extended = [t | 1 << v for t in found if not t & s for v in iter_bits(s)]
        found = hit + [e for e in extended if not any(h & ~e == 0 for h in hit)]
    return sorted(found, key=support_sort_key)


def brute_canonical_key(mask):
    """The canonical order of supports: by degree, then lexicographically
    on the sorted vertices."""
    return (bin(mask).count("1"), vertices_of(mask))


def brute_lcm_lattice(gens) -> list[int]:
    """Pairwise unions repeated until nothing new appears."""
    family = set(gens)
    while True:
        bigger = family | {a | b for a in family for b in family}
        if bigger == family:
            return sorted(family)
        family = bigger


def brute_lcm_graph(I) -> tuple[int, ...]:
    """Every generator pair tried: adjacent when the lcm has degree d + 1."""
    d = I.gens[0].bit_count()
    adj = [0] * len(I.gens)
    for a, b in combinations(range(len(I.gens)), 2):
        if (I.gens[a] | I.gens[b]).bit_count() == d + 1:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return tuple(adj)


def minimalize_supports(masks) -> tuple[int, ...]:
    """Inclusion-minimal elements of any family of masks, canonically
    sorted: the minimal generating set of the ideal they generate."""
    distinct = sorted(set(masks), key=support_sort_key)
    kept: list[int] = []
    for m in distinct:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return tuple(kept)


# -------------------------------------------------------------- complexes


def maximal_supports(masks) -> tuple[int, ...]:
    """Inclusion-maximal elements of a family of masks, largest first,
    each kept set compared with every larger one."""
    distinct = sorted(set(masks), key=lambda m: -m.bit_count())
    kept: list[int] = []
    for m in distinct:
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    return tuple(kept)


def rp2_6():
    """The six-vertex real projective plane: H~_1 = GF(2) over GF(2) and
    zero over every other field, because H_1 has 2-torsion."""
    facets = ["123", "134", "145", "156", "126", "235", "245", "246", "346", "356"]
    return from_facets(6, [sum(1 << (int(v) - 1) for v in f) for f in facets])


def klein_bottle_9():
    """The Klein bottle on the 3-by-3 grid, one side glued with a twist:
    H~_1 = GF(2)^2 and H~_2 = GF(2) over GF(2), H~_1 of dimension 1 over
    every other field.  It is not orientable, so the signs of the boundary
    maps decide these numbers."""
    facets = ["145", "125", "256", "236", "346", "134", "478", "458", "589",
              "569", "679", "467", "137", "378", "238", "289", "129", "179"]
    return from_facets(9, [sum(1 << (int(v) - 1) for v in f) for f in facets])


def brute_sr_faces(gen_supports, n) -> set[int]:
    """Faces of the complex with the given minimal non-faces: all subsets
    containing no generator support."""
    return {
        mask
        for mask in range(1 << n)
        if not any(g & ~mask == 0 for g in gen_supports)
    }


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


def boundary_matrix(cx: SimplicialComplex, k: int) -> list[list[int]]:
    """Integer matrix of the boundary map from k-faces to (k-1)-faces of
    the augmented chain complex, its faces filtered from ``faces_of``.

    Faces index rows and columns in lexicographic order of their sorted
    vertex tuples; the coefficient of the face omitting the t-th smallest
    vertex is (-1)^t.  For k = -1 the target chain group is zero and the
    matrix has no rows.
    """
    if cx.is_void:
        raise ValueError("void complex has no chain groups")
    dim = cx.dimension
    if not -1 <= k <= dim + 1:
        raise ValueError(f"k={k} outside -1..{dim + 1}")
    if k == -1:
        return []
    faces = faces_of(cx.facets)

    def level(size: int) -> list[int]:
        return sorted((m for m in faces if m.bit_count() == size), key=vertices_of)

    cols = level(k + 1)
    index = {m: i for i, m in enumerate(level(k))}
    matrix = [[0] * len(cols) for _ in index]
    for c, m in enumerate(cols):
        sign = 1
        for v in iter_bits(m):
            matrix[index[m ^ (1 << v)]][c] = sign
            sign = -sign
    return matrix


def brute_find_well_ordered_cover(cx, k_max, cover_mask=None):
    """First facet sequence that ``is_well_ordered_facet_cover`` accepts:
    lengths 1..k_max, and within a length every facet-index tuple in
    lexicographic order, those with a repeated index skipped."""
    m = len(cx.facets)
    for k in range(1, k_max + 1):
        for idxs in product(range(m), repeat=k):
            if len(set(idxs)) < k:
                continue
            seq = tuple(cx.facets[i] for i in idxs)
            if is_well_ordered_facet_cover(cx, seq, cover_mask):
                return seq
    return None


# ------------------------------------------------------------ library routes


def from_facets(n: int, masks) -> SimplicialComplex:
    """The complex of a family from outside, reduced to its maximal sets."""
    facets = sorted(maximal_supports(masks), key=support_sort_key)
    return SimplicialComplex(n, tuple(facets))


def stanley_reisner_complex(I: SqfIdeal) -> SimplicialComplex:
    """Faces are the squarefree monomials outside I; facets complement the
    minimal primes."""
    full = (1 << I.n) - 1
    if I.is_zero:
        return SimplicialComplex(I.n, (full,))
    # complements of a canonically sorted antichain are one, reversed
    return SimplicialComplex(I.n, complements(full, minimal_primes(I)))


def induced_subcomplex(cx: SimplicialComplex, W: int) -> SimplicialComplex:
    """Faces of the complex contained in W (the void complex for W = 0)."""
    if W == 0:
        return SimplicialComplex(cx.n, ())
    return from_facets(cx.n, {f & W for f in cx.facets})


def subset_hochster_betti(I: SqfIdeal, field: FieldSpec) -> betti.BettiTable:
    """Hochster's formula summed over every nonempty vertex set W, faces
    included: a face restricts to a full simplex, and the homology engine
    must find it acyclic.  The reference for the library's oracle, which
    visits the nonfaces only."""
    facets = stanley_reisner_complex(I).facets
    entries: dict[tuple[int, int], int] = {}
    for W in range(1, 1 << I.n):
        restricted = maximal_supports([f & W for f in facets])
        for k, h in homology_dims_of_facets(restricted, field.characteristic):
            i = W.bit_count() - 2 - k
            if i >= 0:
                key = (i, W.bit_count())
                entries[key] = entries.get(key, 0) + h
    return betti.BettiTable(I.n, field, entries)


def is_well_ordered_facet_cover(cx: SimplicialComplex, seq, cover_mask=None) -> bool:
    """Minimal vertex-covering facet sequence with the absorption property,
    as ``find_well_ordered_cover`` accepts it, with ``cover_mask`` as there;
    a sequence holding a non-facet or a repeated facet is a ValueError."""
    seq = tuple(seq)
    facet_set = frozenset(cx.facets)
    for f in seq:
        if f not in facet_set:
            raise ValueError(f"sequence entry {f:#x} is not a facet")
    if len(set(seq)) != len(seq):
        raise ValueError("cover sequence entries must be pairwise distinct")
    if cover_mask is None:
        cover_mask = cx.vertex_mask
    return _check_cover_seq(facet_set, cover_mask, seq)


def matrix_rank(rows: list[list[int]], field: FieldSpec) -> int:
    """Exact rank of an integer matrix over the chosen field."""
    p = field.characteristic
    sparse = ({c: x for c, x in enumerate(row) if (x % p if p else x)} for row in rows)
    return len(_pivots([row for row in sparse if row], p))


# ------------------------------------------------------------ linear algebra


def _det(matrix) -> int:
    """Cofactor-expansion determinant of a small integer matrix."""
    k = len(matrix)
    if k == 0:
        return 1
    if k == 1:
        return matrix[0][0]
    total = 0
    sign = 1
    for c in range(k):
        if matrix[0][c]:
            minor = [row[:c] + row[c + 1 :] for row in matrix[1:]]
            total += sign * matrix[0][c] * _det(minor)
        sign = -sign
    return total


def brute_rank(matrix, char: int) -> int:
    """Largest k with some k-by-k minor of nonzero determinant (mod char)."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                sub = [[matrix[r][c] for c in cols] for r in rows]
                d = _det(sub)
                if (d % char if char else d) != 0:
                    return k
    return 0


def exact_rank_qq(matrix) -> int:
    """Rank over the rationals by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def exact_rank_gf2(matrix) -> int:
    """Rank over GF(2) by Gaussian elimination on lists of residues."""
    rows = [[x % 2 for x in row] for row in matrix]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# -------------------------------------------------- componentwise linearity


def has_linear_resolution(I, field) -> bool:
    """All nonzero Hochster table entries on the single strand j = i + d."""
    d = min(I.degrees())
    return all(j == i + d for i, j in hochster_betti(I, field).entries)


def degree_component(I, j):
    """The ideal generated by all degree-j squarefree monomials inside I."""
    if j < 1:
        raise ValueError("degree component needs j >= 1")
    full = (1 << I.n) - 1
    out = set()
    for g in I.gens:
        d = g.bit_count()
        if d > j:
            continue
        if d == j:
            out.add(g)
            continue
        for combo in combinations(iter_bits(full ^ g), j - d):
            out.add(g | sum(1 << b for b in combo))
    # distinct sets of one size are an antichain, so they are only sorted
    return SqfIdeal(I.n, tuple(sorted(out, key=support_sort_key)))


def brute_is_componentwise_linear(I, field) -> bool:
    """Linear resolution of every squarefree degree component, j = 1..n."""
    for j in range(1, I.n + 1):
        comp = degree_component(I, j)
        if not comp.is_zero and not has_linear_resolution(comp, field):
            return False
    return True


def has_face_of_size(I: SqfIdeal, size: int) -> bool:
    """Whether Delta(I) has a face with this many vertices: a set that
    contains no generator.

    Faces are grown one vertex at a time.  A set is a face iff it is not a
    generator and every subset one smaller is a face, since a generator
    strictly inside the set misses one of its vertices.
    """
    nonfaces = set(I.gens)
    level = {0}
    for _ in range(size):
        grown = set()
        for face in level:
            for v in range(face.bit_length(), I.n):
                f = face | 1 << v
                if f not in nonfaces and all(f ^ 1 << u in level for u in iter_bits(face)):
                    grown.add(f)
        if not grown:
            return False
        level = grown
    return True


def general_is_componentwise_linear(I, field) -> bool:
    """Every degree component I_[j] of any squarefree ideal has a linear
    resolution: the general decision, a library route through the
    dimension step, the elimination walk and its witness, the greedy order
    and the Hochster sum.
    They are looked up on their modules at each call (the dimension step,
    ``has_face_of_size``, on this one), so a test can count them;
    ``has_linear_resolution`` keeps its own ``hochster_betti``.

    Components above D, the largest generator degree, need no check.  For
    j >= D the squarefree component I_[j] has Stanley-Reisner complex
    Delta(I) together with every set of size below j.  That complex holds
    the full (j-2)-skeleton and agrees with Delta(I) from dimension j - 1
    up, so by Hochster's formula I_[j] has a linear resolution iff
    H~_k(Delta(I)_W) = 0 for every W and every k >= j - 1.  The condition
    weakens as j grows, so j = D implies every larger j.

    The components j <= D are decided in turn, and the Hochster sum runs
    only when no exact argument applies:

    - Dimension step, j = D: when Delta(I) has no face of size D its
      dimension is at most D - 2, the condition above is vacuous, and
      I_[D] is never built.
    - Walk, j = 2: I_[2] is the ideal of the nonedges of the complement
      H of the generator graph, linear iff H is chordal (Froberg 1990);
      the library's elimination walk certifies it, or the step where it
      stops gives the chordless cycle, its homology computed.
    - Certificate, any other j: a greedy order with linear quotients
      (Herzog-Takayama 2002).
    - Fallback: the linear strand of the Hochster table of I_[j].
    """
    top = max(I.degrees(), default=0)
    for j in range(1, top + 1):
        if j == top and not has_face_of_size(I, top):
            return True
        comp = degree_component(I, j)
        if comp.is_zero:
            continue
        if j == 2:
            if not betti._nonedge_ideal_is_linear(complement_rows(comp), field):
                return False
        elif ideals.linear_quotient_order(comp) is None and any(
            b != a + j for a, b in betti.hochster_betti(comp, field).entries
        ):
            return False
    return True


def complement_rows(comp):
    """Adjacency rows of the graph of the pairs that are not generators of
    a quadratic ideal."""
    full = (1 << comp.n) - 1
    adj = [full ^ 1 << v for v in range(comp.n)]
    for g in comp.gens:
        x, y = iter_bits(g)
        adj[x] &= ~(1 << y)
        adj[y] &= ~(1 << x)
    return adj


# -------------------------------------------------------- quotient orders


def brute_colon_is_linear(prefix, u) -> bool:
    """Whether (prefix) : u is generated by variables.  Its generators are
    the differences p minus u; each must be a multiple of a difference
    that is a single variable."""
    differences = [p & ~u for p in prefix]
    variables = [q for q in differences if bin(q).count("1") == 1]
    return all(any(v & q for v in variables) for q in differences)


def colon_min_gens(prefix, u) -> tuple[int, ...]:
    """Minimal generators of (prefix) : u as support masks: the
    differences p minus u, minimalized."""
    return minimalize_supports(p & ~u for p in prefix)


def reference_cert_is_valid(cert, I) -> bool:
    """``MonomialOrderCert.is_valid_for`` the long way: the order is a
    permutation of the generators, and each step's colon, recomputed and
    minimalized, is generated by exactly the recorded variables."""
    order = cert.order
    if sorted(order, key=support_sort_key) != list(I.gens):
        return False
    if len(cert.colon_steps) != len(order):
        return False
    return all(
        colon_min_gens(order[:i], order[i]) == tuple(1 << v for v in iter_bits(step))
        for i, step in enumerate(cert.colon_steps)
    )


def has_linear_quotient_order(I) -> bool:
    """Search over prefix sets.  Whether a generator may come next depends
    only on the set of earlier generators, so the reachable prefix sets
    cover every ordering: at most 2^m states for m generators."""
    masks = I.gens
    m = len(masks)
    full = (1 << m) - 1
    reach = {0}
    frontier = [0]
    while frontier:
        state = frontier.pop()
        prefix = [masks[i] for i in range(m) if state >> i & 1]
        for i in range(m):
            nxt = state | 1 << i
            if nxt == state or nxt in reach:
                continue
            if brute_colon_is_linear(prefix, masks[i]):
                if nxt == full:
                    return True
                reach.add(nxt)
                frontier.append(nxt)
    return m == 0


def brute_has_linear_quotient_order(I) -> bool:
    """Literal scan over every permutation of the generators."""
    for perm in permutations(I.gens):
        if all(brute_colon_is_linear(perm[:k], perm[k]) for k in range(len(perm))):
            return True
    return False


# ------------------------------------------------------- linear relations


def brute_is_linearly_related(I) -> bool:
    """Per pair: a path from one generator to the other through
    generators dividing the pair's lcm, each step an lcm of degree d + 1."""
    gens = list(I.gens)
    d = bin(gens[0]).count("1")

    def adjacent(a, b):
        return bin(a | b).count("1") == d + 1

    for a, b in combinations(gens, 2):
        target = a | b
        allowed = [g for g in gens if g | target == target]
        seen = {a}
        stack = [a]
        while stack:
            x = stack.pop()
            for y in allowed:
                if y not in seen and adjacent(x, y):
                    seen.add(y)
                    stack.append(y)
        if b not in seen:
            return False
    return True
