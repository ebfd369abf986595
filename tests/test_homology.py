"""Boundary matrices and exact homology ranks over GF(p) and the rationals."""

import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compedge import homology
from compedge.complexes import gamma_complex
from compedge.graphs import connected_components, iter_bits
from compedge.homology import GF2, GF3, QQ, FieldSpec, homology_dims_of_facets
from compedge.ideals import complementary_edge_ideal
from helpers import (
    boundary_matrix,
    brute_rank,
    complete,
    cycle,
    exact_rank_gf2,
    exact_rank_qq,
    faces_of,
    from_facets,
    graph,
    klein_bottle_9,
    mask_of,
    matrix_rank,
    rp2_6,
    stanley_reisner_complex,
    two_k2,
)

FIELDS = [GF2, GF3, QQ, FieldSpec(5)]


def cx(n, *facets):
    return from_facets(n, [mask_of(f) for f in facets])


def dims(complex_, field):
    return homology_dims_of_facets(complex_.facets, field.characteristic)


small_complexes = st.builds(
    lambda n, picks: from_facets(n, [p % (1 << n) for p in picks]),
    st.integers(min_value=1, max_value=5),
    st.lists(st.integers(min_value=1), min_size=1, max_size=5),
)


class TestFieldSpec:
    def test_prime_required(self):
        with pytest.raises(ValueError):
            FieldSpec(4)

    def test_labels(self):
        assert GF2.label == "GF(2)"
        assert QQ.label == "QQ"


class TestBoundaryMatrix:
    def test_single_edge(self):
        assert boundary_matrix(cx(2, (1, 2)), 1) == [[-1], [1]]

    def test_augmentation_row(self):
        assert boundary_matrix(cx(3, (1, 2), (3,)), 0) == [[1, 1, 1]]

    def test_empty_target(self):
        assert boundary_matrix(cx(2, (1, 2)), -1) == []

    def test_triangle_boundary_rank_two(self):
        circle = cx(3, (1, 2), (1, 3), (2, 3))
        for field in FIELDS:
            assert matrix_rank(boundary_matrix(circle, 1), field) == 2

    @settings(max_examples=80, deadline=None)
    @given(small_complexes)
    def test_boundary_squared_is_zero(self, complex_):
        dim = complex_.dimension
        for k in range(1, dim + 1):
            upper = boundary_matrix(complex_, k + 1)
            lower = boundary_matrix(complex_, k)
            if not upper or not upper[0]:
                continue
            rows = len(lower)
            for j in range(len(upper[0])):
                for i in range(rows):
                    entry = sum(
                        lower[i][t] * upper[t][j] for t in range(len(upper))
                    )
                    assert entry == 0


class TestRank:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([1, 1, 2, 3]),
        st.data(),
    )
    def test_matches_minor_oracle(self, nrows, ncols, scale, data):
        # scaled by 2 or 3, a matrix has no +-1 entry, so the rational rank
        # pivots on non-unit entries and eliminates with exact fractions
        matrix = [
            [
                scale * data.draw(st.integers(min_value=-4, max_value=4))
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        for field in FIELDS:
            assert matrix_rank(matrix, field) == brute_rank(
                matrix, field.characteristic
            )

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.data(),
    )
    def test_gf2_matches_list_elimination(self, nrows, ncols, data):
        # wide enough that rows meet several pivots by leading bit
        matrix = [
            [data.draw(st.integers(min_value=0, max_value=1)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        assert matrix_rank(matrix, GF2) == exact_rank_gf2(matrix)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([1, 1, 2, 3]),
        st.data(),
    )
    def test_pivot_columns_match_the_minor_oracle(self, nrows, ncols, scale, data):
        # a pivot leads with its largest column: c leads a row of the row
        # space iff the columns from c on have more rank than those after c
        matrix = [
            [
                scale * data.draw(st.integers(min_value=-3, max_value=3))
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        order = data.draw(st.permutations(range(nrows)))

        def rows(indices, p):
            sparse = (
                {c: x for c, x in enumerate(matrix[i]) if (x % p if p else x)}
                for i in indices
            )
            return [row for row in sparse if row]

        for p in (2, 3, 0):
            expected = {
                c
                for c in range(ncols)
                if brute_rank([row[c:] for row in matrix], p)
                > brute_rank([row[c + 1:] for row in matrix], p)
            }
            assert set(homology._pivots(rows(range(nrows), p), p)) == expected
            assert set(homology._pivots(rows(order, p), p)) == expected

    def test_no_unit_pivot(self):
        # determinant -12: invertible over QQ and GF(5), singular over GF(3)
        matrix = [[2, 4], [4, 2]]
        assert matrix_rank(matrix, QQ) == 2
        assert matrix_rank(matrix, FieldSpec(5)) == 2
        assert matrix_rank(matrix, GF3) == 1
        assert matrix_rank(matrix, GF2) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.builds(
            lambda n, picks: from_facets(
                n, [p % (1 << n) for p in picks]
            ),
            st.integers(min_value=1, max_value=7),
            st.lists(st.integers(min_value=1), min_size=1, max_size=8),
        )
    )
    # the 2-boundary of RP^2 has torsion: its elimination runs out of +-1 pivots
    @example(rp2_6())
    def test_boundary_ranks_match_exact_rationals(self, complex_):
        for k in range(complex_.dimension + 2):
            matrix = boundary_matrix(complex_, k)
            assert matrix_rank(matrix, QQ) == exact_rank_qq(matrix)

    def test_empty(self):
        assert matrix_rank([], GF2) == 0
        assert matrix_rank([[]], QQ) == 0

    def test_zero_rows(self):
        # a zero row is never a pivot row, even when no +-1 entry is left
        matrix = [[0, 0], [2, 4], [0, 0]]
        for field in FIELDS:
            assert matrix_rank(matrix, field) == brute_rank(matrix, field.characteristic)


class TestReducedHomology:
    def test_four_cycle_is_circle(self):
        circle = gamma_complex(two_k2())
        for field in FIELDS:
            assert dims(circle, field) == ((1, 1),)

    def test_two_disjoint_simplices(self):
        # no vertex lies in two facets, so the apex lies in a single facet
        pair = cx(4, (1, 2), (3, 4))
        triple = cx(6, (1, 2), (3, 4, 5), (6,))
        for field in FIELDS:
            assert dims(pair, field) == ((0, 1),)
            assert dims(triple, field) == ((0, 2),)

    def test_full_simplex_contractible(self):
        simplex = cx(4, (1, 2, 3, 4))
        for field in FIELDS:
            assert dims(simplex, field) == ()

    def test_irrelevant_complex(self):
        irrelevant = from_facets(3, [0])
        for field in FIELDS:
            assert dims(irrelevant, field) == ((-1, 1),)

    def test_void_complex(self):
        void = from_facets(3, [])
        assert dims(void, GF2) == ()

    def test_sphere(self):
        # boundaries of simplices, the 3-simplex's among them
        for n in range(2, 8):
            sphere = cx(n, *combinations(range(1, n + 1), n - 1))
            for field in FIELDS:
                assert dims(sphere, field) == ((n - 2, 1),)

    def test_projective_plane_torsion(self):
        rp2 = rp2_6()
        assert dims(rp2, GF2) == ((1, 1), (2, 1))
        for field in (GF3, FieldSpec(5), QQ):
            assert dims(rp2, field) == ()

    def test_klein_bottle_torsion(self):
        klein = klein_bottle_9()
        assert dims(klein, GF2) == ((1, 2), (2, 1))
        for field in (GF3, FieldSpec(5), QQ):
            assert dims(klein, field) == ((1, 1),)

    @settings(max_examples=80, deadline=None)
    @given(small_complexes)
    def test_euler_characteristic(self, complex_):
        if complex_.is_void:
            return
        by_size = {}
        for m in faces_of(complex_.facets):
            by_size[m.bit_count()] = by_size.get(m.bit_count(), 0) + 1
        chi_faces = sum((-1) ** (s - 1) * c for s, c in by_size.items())
        for field in FIELDS:
            chi_hom = sum((-1) ** k * h for k, h in dims(complex_, field))
            assert chi_faces == chi_hom

    @settings(max_examples=60, deadline=None)
    @given(small_complexes)
    def test_matches_boundary_matrix_route(self, complex_):
        """The cached engine agrees with ranks of the public matrices."""
        if complex_.is_void:
            return
        dim = complex_.dimension
        counts = {}
        for m in faces_of(complex_.facets):
            k = m.bit_count() - 1
            counts[k] = counts.get(k, 0) + 1
        for field in FIELDS[:3]:
            nonzero = dict(dims(complex_, field))
            assert all(-1 <= k <= dim for k in nonzero)
            for k in range(-1, dim + 1):
                rank_k = matrix_rank(boundary_matrix(complex_, k), field)
                rank_k1 = matrix_rank(boundary_matrix(complex_, k + 1), field)
                assert nonzero.get(k, 0) == counts.get(k, 0) - rank_k - rank_k1

    @settings(max_examples=60, deadline=None)
    @given(small_complexes, st.integers(min_value=1, max_value=5))
    @example(rp2_6(), 7)
    def test_cones_are_acyclic(self, complex_, apex):
        if complex_.is_void:
            return
        n = max(complex_.n, apex)
        coned = from_facets(
            n, [f | 1 << (apex - 1) for f in complex_.facets]
        )
        for field in FIELDS:
            assert dims(coned, field) == ()


def full_reduction_dims(complex_, field):
    """Nonzero reduced homology from the ranks of whole boundary matrices,
    every row reduced."""
    counts = {}
    for m in faces_of(complex_.facets):
        counts[m.bit_count() - 1] = counts.get(m.bit_count() - 1, 0) + 1
    dim = complex_.dimension
    ranks = [matrix_rank(boundary_matrix(complex_, k), field) for k in range(-1, dim + 2)]
    dims = {k: counts.get(k, 0) - ranks[k + 1] - ranks[k + 2] for k in range(-1, dim + 1)}
    return tuple((k, h) for k, h in dims.items() if h)


def outside_star(facets) -> list[list[int]]:
    """By size, the faces outside the star of the highest vertex held by the
    most facets: faces that miss the vertex and make no face with it.  A
    filter of ``faces_of``, each level sorted."""
    held = [sum(f >> v & 1 for f in facets) for v in range(max(facets).bit_length())]
    apex = max(v for v, c in enumerate(held) if c == max(held))
    faces = faces_of(facets)
    kept = [m for m in faces if not m >> apex & 1 and m | 1 << apex not in faces]
    levels = [[] for _ in range(max((m.bit_count() for m in kept), default=0) + 1)]
    for m in kept:
        levels[m.bit_count()].append(m)
    return [sorted(level) for level in levels]


class TestFullReduction:
    """Each relative boundary map is reduced in full: ranks and dimensions
    are those of the whole complex, and every face outside the star with a
    nonzero boundary there hands its row to the kernel."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.builds(
            lambda n, picks: from_facets(n, [p % (1 << n) for p in picks]),
            st.integers(min_value=7, max_value=9),
            st.lists(st.integers(min_value=1), min_size=1, max_size=10),
        )
    )
    def test_matches_full_reduction(self, complex_):
        for field in (GF2, GF3, QQ):
            assert dims(complex_, field) == full_reduction_dims(complex_, field)

    def test_every_relative_row_reaches_the_kernel(self, monkeypatch):
        # the Stanley-Reisner complex of the 9-cycle plus two chords: every
        # set of at most six vertices and the 25 nonedge complements
        G = graph(9, *[(i, i + 1) for i in range(1, 9)], (1, 9), (1, 4), (2, 7))
        sr = stanley_reisner_complex(complementary_edge_ideal(G))
        handed = []
        pivots = homology._pivots

        def counting(rows, p):
            handed.append(len(rows))
            return pivots(rows, p)

        monkeypatch.setattr(homology, "_pivots", counting)
        homology._dims.cache_clear()
        # rows handed to the kernel over GF(2), GF(3) and QQ.  13 faces of
        # dimension >= 1 lie outside the star of the 9-cycle complex's apex,
        # vertex 7: the 5 of dimension 6 reach the kernel, and the 8 of
        # dimension 5 have no boundary outside the star.  Of the Klein
        # bottle's 15 edges and 12 triangles outside the star, the triangles
        # and 11 edges have a boundary there.
        for complex_, count in ((sr, 5), (klein_bottle_9(), 23)):
            levels = outside_star(complex_.facets)
            # a face reaches the kernel iff its boundary outside the star
            # is not zero
            reaching = sum(
                1
                for k in range(2, len(levels))
                for m in levels[k]
                if any(m ^ 1 << v in levels[k - 1] for v in iter_bits(m))
            )
            for field in (GF2, GF3, QQ):
                expected = full_reduction_dims(complex_, field)
                handed.clear()
                assert dims(complex_, field) == expected
                assert sum(handed) == reaching == count


class TestStarExcision:
    """The engine reduces the faces outside one vertex's star, a cone, and
    gives the reduced homology of the whole complex for every choice of
    that vertex."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=10).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=8
                ),
                st.permutations(range(n)),
            ).map(lambda t: (n, *t))
        )
    )
    @example((6, list(rp2_6().facets), [5, 4, 3, 2, 1, 0]))
    @example((9, list(klein_bottle_9().facets), [8, 0, 7, 1, 6, 2, 5, 3, 4]))
    def test_matches_full_reduction_under_any_vertex_names(self, case):
        n, picks, order = case
        complex_ = from_facets(n, picks)
        renamed = from_facets(
            n, [sum(1 << order[v] for v in iter_bits(f)) for f in complex_.facets]
        )
        for field in FIELDS:
            expected = full_reduction_dims(complex_, field)
            assert dims(complex_, field) == expected
            assert dims(renamed, field) == expected

    def test_suspension(self):
        # two cone points over RP^2 shift its homology up one degree
        base = rp2_6().facets
        suspended = from_facets(8, [f | 1 << p for f in base for p in (6, 7)])
        assert dims(suspended, GF2) == ((2, 1), (3, 1))
        for field in (GF3, FieldSpec(5), QQ):
            assert dims(suspended, field) == ()

    def test_no_empty_row_reaches_the_kernel(self, monkeypatch):
        handed = []
        pivots = homology._pivots

        def recording(rows, p):
            handed.extend(map(len, rows))
            return pivots(rows, p)

        monkeypatch.setattr(homology, "_pivots", recording)
        homology._dims.cache_clear()
        G = graph(9, *[(i, i + 1) for i in range(1, 9)], (1, 9), (1, 4), (2, 7))
        complexes = [
            stanley_reisner_complex(complementary_edge_ideal(G)),
            rp2_6(),
            cx(6, (1, 2), (3, 4, 5), (6,)),
            from_facets(5, [31 ^ 1 << v for v in range(5)]),
        ]
        for complex_ in complexes:
            for field in FIELDS:
                dims(complex_, field)
        assert handed and all(handed)


def two_cycles(k):
    return graph(2 * k, *[(i + s, i % k + 1 + s) for s in (0, k) for i in range(1, k + 1)])


class TestGammaComplex:
    """The complex whose minimal nonfaces generate a graph's ideal has the
    complements of the nonedges and triangles as facets.  By Hochster's
    formula at the vertex set [n], its reduced homology is
    beta_{2,[n]} = m - n + c in degree n - 4 and beta_{1,[n]} = c - 1 in
    degree n - 3, c the number of components."""

    @pytest.mark.parametrize(
        "G, expected",
        [
            (cycle(40), ((36, 1),)),
            (two_cycles(20), ((36, 2), (37, 1))),
            (graph(44, *[(i, i + 1) for i in range(1, 44)], (1, 44), (1, 22), (2, 25)), ((40, 3),)),
        ],
        ids=["C40", "C20+C20", "C44+2chords"],
    )
    def test_closed_form_on_forty_or_more_vertices(self, G, expected):
        n, m = G.n, G.edge_count()
        c = len(connected_components(G))
        closed = tuple((k, h) for k, h in ((n - 4, m - n + c), (n - 3, c - 1)) if h)
        assert closed == expected
        gamma = gamma_complex(G)
        homology._dims.cache_clear()
        start = time.perf_counter()
        for field in (GF2, GF3, QQ):
            assert dims(gamma, field) == expected
        # about 0.05 s on a 2-core machine with Python 3.11; a facet has 38
        # or more vertices, so no generator that builds all its faces fits
        assert time.perf_counter() - start < 10


class TestMemoBound:
    def test_least_recently_used_keys_are_evicted(self):
        maxsize = homology._dims.cache_info().maxsize
        points = [1 << v for v in range(17)]
        # point sets of at least two of 17 vertices, each its own key
        keys = [
            tuple(points[v] for v in range(17) if s >> v & 1)
            for s in range(1 << 17) if s.bit_count() >= 2
        ][: maxsize + 10]
        homology._dims.cache_clear()
        try:
            first = homology_dims_of_facets(keys[0], 2)
            for key in keys[1:]:
                homology_dims_of_facets(key, 2)
            info = homology._dims.cache_info()
            assert info.currsize == maxsize and info.misses == maxsize + 10
            assert homology_dims_of_facets(keys[0], 2) == first == ((0, 1),)
            assert homology._dims.cache_info().misses == maxsize + 11
        finally:
            homology._dims.cache_clear()


class TestFaceLevels:
    """Each level of the face generator lists the faces of one size outside
    the apex's star, each once, in increasing order."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.builds(
            lambda n, picks: from_facets(n, [p % (1 << n) for p in picks]).facets,
            st.integers(min_value=1, max_value=10),
            st.lists(st.integers(min_value=1), min_size=1, max_size=8),
        # the irrelevant complex has no vertex to be the apex
        ).filter(lambda facets: facets != (0,))
    )
    # the facets that miss the apex 9 have sizes 4 and 2, and every 3-set
    # of the larger lies in the star, so level 3 is empty between levels 4
    # and 2: the walk must not stop there
    @example(cx(9, [1, 2, 3, 4], [1, 2, 3, 9], [1, 2, 4, 9], [1, 3, 4, 9],
                [2, 3, 4, 9], [5, 6], [5, 9]).facets)
    def test_levels_are_the_faces_by_size_in_order(self, facets):
        assert homology._faces_outside_star(facets) == outside_star(facets)

