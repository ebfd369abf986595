"""Complexes attached to graphs: facet recipes, restrictions, covers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compedge.classify import _graph_classes, graph_from_edge_mask
from compedge.complexes import (
    facet_complex,
    find_well_ordered_cover,
    gamma_complex,
    induced_subcollection,
    stanley_reisner_ideal,
)
from compedge.graphs import nonedge_masks, triangles, vertices_of
from compedge.homology import GF2, homology_dims_of_facets
from compedge.ideals import complementary_edge_ideal, minimal_primes, support_sort_key
from conftest import random_graphs_min_degree_one
from helpers import (
    brute_find_well_ordered_cover,
    brute_sr_faces,
    complete,
    faces_of,
    from_facets,
    graph,
    induced_subcomplex,
    is_well_ordered_facet_cover,
    mask_of,
    path,
    p3_union_k2,
    random_with_path,
    stanley_reisner_complex,
    star4,
    two_k2,
    two_tree,
)


def facet_sets(cx):
    return [vertices_of(f) for f in cx.facets]


class TestGamma:
    def test_two_k2_is_four_cycle(self):
        assert facet_sets(gamma_complex(two_k2())) == [
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
        ]

    def test_k4_is_singletons(self):
        assert facet_sets(gamma_complex(complete(4))) == [(1,), (2,), (3,), (4,)]

    def test_p4(self):
        assert facet_sets(gamma_complex(path(4))) == [(1, 3), (2, 3), (2, 4)]

    @settings(max_examples=100, deadline=None)
    @given(random_graphs_min_degree_one(4, 6))
    def test_facet_count(self, G):
        nonedges = G.n * (G.n - 1) // 2 - G.edge_count()
        expected = nonedges + len(triangles(G))
        assert len(gamma_complex(G).facets) == expected

    @settings(max_examples=80, deadline=None)
    @given(random_graphs_min_degree_one(4, 6))
    def test_triangle_free_facets_are_nonedge_complements(self, G):
        if not triangles(G):
            nonedges = G.n * (G.n - 1) // 2 - G.edge_count()
            assert len(gamma_complex(G).facets) == nonedges


def _class_representatives():
    for n in range(4, 7):
        for least, _ in _graph_classes(n):
            yield graph_from_edge_mask(n, least)


def _seeded_graphs():
    yield two_tree(62)
    for seed, n in enumerate([8, 13, 21, 34, 62]):
        yield random_with_path(n, 0.1 + seed / 10, seed)


class TestComplementedProducers:
    """The producers that complement a canonically sorted family and reverse
    it give what sorting the complements with the canonical key gives."""

    @staticmethod
    def keyed(full, masks):
        return tuple(sorted((full ^ m for m in masks), key=support_sort_key))

    @pytest.mark.parametrize(
        "graphs", [_class_representatives, _seeded_graphs], ids=["classes-4-6", "seeded"]
    )
    def test_match_the_keyed_sort(self, graphs):
        for G in graphs():
            full = G.full_mask
            I = complementary_edge_ideal(G)
            assert I.gens == self.keyed(full, map(mask_of, G.edges()))
            assert gamma_complex(G).facets == self.keyed(
                full, nonedge_masks(G) + triangles(G)
            )
            assert stanley_reisner_complex(I).facets == self.keyed(full, minimal_primes(I))


class TestStanleyReisner:
    def test_two_k2_roundtrip(self):
        I = stanley_reisner_ideal(gamma_complex(two_k2()))
        assert I.generator_strings() == ["x1*x2", "x3*x4"]

    def test_p4_roundtrip(self):
        G = path(4)
        assert stanley_reisner_ideal(gamma_complex(G)) == complementary_edge_ideal(G)

    def test_full_simplex_gives_zero_ideal(self):
        cx = from_facets(4, [0b1111])
        assert stanley_reisner_ideal(cx).is_zero

    @settings(max_examples=80, deadline=None)
    @given(random_graphs_min_degree_one(4, 6))
    def test_roundtrip_everywhere(self, G):
        assert stanley_reisner_ideal(gamma_complex(G)) == complementary_edge_ideal(G)

    @settings(max_examples=60, deadline=None)
    @given(random_graphs_min_degree_one(4, 5))
    def test_complex_of_ideal_has_right_faces(self, G):
        I = complementary_edge_ideal(G)
        cx = stanley_reisner_complex(I)
        assert faces_of(cx.facets) == brute_sr_faces(I.gens, G.n)


class TestFacetComplex:
    def test_two_k2(self):
        assert facet_sets(facet_complex(two_k2())) == [(1, 2), (3, 4)]

    def test_p3_union_k2(self):
        assert facet_sets(facet_complex(p3_union_k2())) == [
            (1, 2, 3),
            (1, 4, 5),
            (3, 4, 5),
        ]

    def test_k4_all_pairs(self):
        assert len(facet_complex(complete(4)).facets) == 6


class TestRestrictions:
    def test_induced_subcomplex(self):
        sub = induced_subcomplex(gamma_complex(two_k2()), mask_of([2, 3, 4]))
        assert facet_sets(sub) == [(2, 3), (2, 4)]

    def test_empty_restriction_is_void(self):
        assert induced_subcomplex(gamma_complex(two_k2()), 0).is_void

    def test_full_restriction_is_identity(self):
        cx = gamma_complex(two_k2())
        assert induced_subcomplex(cx, cx.vertex_mask) == cx

    def test_subcollection(self):
        sub = induced_subcollection(
            facet_complex(p3_union_k2()), mask_of([1, 3, 4, 5])
        )
        assert facet_sets(sub) == [(1, 4, 5), (3, 4, 5)]

    def test_subcollection_single(self):
        sub = induced_subcollection(facet_complex(two_k2()), mask_of([1, 2]))
        assert facet_sets(sub) == [(1, 2)]

    def test_subcollection_void(self):
        assert induced_subcollection(facet_complex(two_k2()), mask_of([1, 3])).is_void


class TestCones:
    @settings(max_examples=60, deadline=None)
    @given(random_graphs_min_degree_one(4, 6))
    def test_cones_have_no_homology(self, G):
        cx = gamma_complex(G)
        for W in [cx.vertex_mask ^ (1 << i) for i in range(G.n)]:
            sub = induced_subcomplex(cx, W)
            apex = sub.vertex_mask
            for f in sub.facets:
                apex &= f
            if apex:
                assert homology_dims_of_facets(sub.facets, GF2.characteristic) == ()


class TestWellOrderedCovers:
    def test_restricted_cover_accepted(self):
        sub = induced_subcollection(
            facet_complex(p3_union_k2()), mask_of([1, 3, 4, 5])
        )
        seq = (mask_of([1, 4, 5]), mask_of([3, 4, 5]))
        assert is_well_ordered_facet_cover(sub, seq, cover_mask=mask_of([1, 3, 4, 5]))

    def test_uncovered_vertex_rejected(self):
        lam = facet_complex(two_k2())
        assert not is_well_ordered_facet_cover(lam, (mask_of([1, 2]),))

    def test_star_all_facets_not_minimal(self):
        # any two of the three facets already cover, so all three is not minimal
        lam = facet_complex(star4())
        assert not is_well_ordered_facet_cover(lam, lam.facets)

    def test_non_facet_entry_errors(self):
        lam = facet_complex(star4())
        with pytest.raises(ValueError):
            is_well_ordered_facet_cover(lam, (mask_of([1, 2]),))

    def test_repeated_entry_errors(self):
        lam = facet_complex(two_k2())
        with pytest.raises(ValueError):
            is_well_ordered_facet_cover(lam, (lam.facets[0], lam.facets[0]))

    def test_find_on_restriction(self):
        sub = induced_subcollection(
            facet_complex(p3_union_k2()), mask_of([1, 3, 4, 5])
        )
        found = find_well_ordered_cover(sub, 2, cover_mask=mask_of([1, 3, 4, 5]))
        assert found == (mask_of([1, 4, 5]), mask_of([3, 4, 5]))

    def test_find_two_k2(self):
        lam = facet_complex(two_k2())
        assert find_well_ordered_cover(lam, 2) == (mask_of([1, 2]), mask_of([3, 4]))

    def test_find_single_facet(self):
        cx = from_facets(4, [mask_of([1, 2, 3])])
        assert find_well_ordered_cover(cx, 1) == (mask_of([1, 2, 3]),)

    def test_k_max_capped(self):
        lam = facet_complex(two_k2())
        with pytest.raises(ValueError):
            find_well_ordered_cover(lam, 3)

    def test_cover_must_span_requested_mask(self):
        # a lone facet covers itself but not the larger requested set
        lam = facet_complex(star4())
        sub = induced_subcollection(lam, mask_of([1, 2, 3]))
        assert facet_sets(sub) == [(2, 3)]
        assert find_well_ordered_cover(sub, 1, cover_mask=mask_of([1, 2, 3])) is None
        assert find_well_ordered_cover(sub, 1) == (mask_of([2, 3]),)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_find_is_the_first_accepted_sequence(self, data):
        # facets of one size d, so that several survive as an antichain,
        # plus at most one mask of any size; draws favour large cases
        n = data.draw(st.sampled_from(range(6, 1, -1)))
        d = data.draw(st.integers(min_value=1, max_value=n - 1))
        sized = [m for m in range(1, 1 << n) if m.bit_count() == d]
        count = data.draw(st.sampled_from(range(min(6, len(sized)), 0, -1)))
        masks = data.draw(
            st.lists(st.sampled_from(sized), min_size=count, max_size=count, unique=True)
        )
        extra = data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=1))
        cx = from_facets(n, masks + extra)
        k_max = data.draw(st.sampled_from(range(len(cx.facets), 0, -1)))
        W = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        cover_mask = data.draw(st.sampled_from([None, W, W & cx.vertex_mask]))
        found = find_well_ordered_cover(cx, k_max, cover_mask)
        assert found == brute_find_well_ordered_cover(cx, k_max, cover_mask)


class TestDegenerateComplexes:
    def test_void_vs_irrelevant(self):
        void = from_facets(3, [])
        irrelevant = from_facets(3, [0])
        assert void.is_void and void.facets == ()
        assert irrelevant.facets == (0,) and not irrelevant.is_void
        assert void.dimension is None
        assert irrelevant.dimension == -1

    def test_redundant_facets_dropped(self):
        cx = from_facets(3, [0b011, 0b001, 0b111])
        assert cx.facets == (0b111,)
