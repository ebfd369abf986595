"""Ideal construction, minimal primes, duality, and quotient orders."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compedge.graphs import vertices_of
from compedge.ideals import (
    MonomialOrderCert,
    NotEquigeneratedError,
    SqfIdeal,
    ZeroIdealError,
    alexander_dual,
    complementary_edge_ideal,
    complements,
    height,
    is_linearly_related,
    lcm_graph,
    lcm_lattice,
    linear_quotient_order,
    minimal_primes,
    minimal_transversals,
    monomial_str,
    support_sort_key,
)
from conftest import random_graphs_min_degree_one
from helpers import (
    brute_canonical_key,
    brute_has_linear_quotient_order,
    brute_is_linearly_related,
    brute_lcm_graph,
    brute_lcm_lattice,
    brute_minimal_transversals,
    colon_min_gens,
    complement,
    complete,
    cycle,
    degree_component,
    graph,
    has_linear_quotient_order,
    is_connected,
    mask_of,
    minimalize_supports,
    path,
    paw,
    p3_union_k2,
    random_with_path,
    reference_cert_is_valid,
    scan_minimal_transversals,
    two_k2,
    two_tree,
)


def monomials(I):
    return I.generator_strings()


class TestConstruction:
    def test_two_k2(self):
        I = complementary_edge_ideal(two_k2())
        assert monomials(I) == ["x1*x2", "x3*x4"]

    def test_p4(self):
        I = complementary_edge_ideal(path(4))
        assert monomials(I) == ["x1*x2", "x1*x4", "x3*x4"]

    def test_k4_is_full_degree_two(self):
        I = complementary_edge_ideal(complete(4))
        assert len(I.gens) == 6
        assert I.degrees() == {2}

    def test_generator_count_is_edge_count(self):
        G = p3_union_k2()
        assert len(complementary_edge_ideal(G).gens) == G.edge_count()

    def test_standing_assumptions_enforced(self):
        with pytest.raises(Exception):
            complementary_edge_ideal(graph(4, (1, 2), (2, 3)))

    def test_monomial_str(self):
        assert monomial_str(mask_of([1, 3, 4])) == "x1*x3*x4"
        assert monomial_str(0) == "1"


def _masks_below_2_62():
    """Arbitrary masks, and masks over a few bit positions spread across all
    62 bits, so that equal degrees and shared lowest vertices are common."""
    spread = st.sets(st.sampled_from([0, 1, 2, 3, 30, 31, 59, 60, 61])).map(
        lambda bits: sum(1 << b for b in bits)
    )
    return st.lists(st.one_of(st.integers(0, (1 << 62) - 1), spread))


class TestCanonicalOrder:
    def test_key_is_an_int(self):
        assert type(support_sort_key(mask_of([1, 3, 4]))) is int

    def test_masks_wider_than_64_bits_are_refused(self):
        with pytest.raises(OverflowError):
            support_sort_key(1 << 64)

    @settings(max_examples=200, deadline=None)
    @given(_masks_below_2_62())
    def test_matches_first_principles_order(self, masks):
        assert sorted(masks, key=support_sort_key) == sorted(
            masks, key=brute_canonical_key
        )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 62), _masks_below_2_62())
    def test_complements_of_a_sorted_family_are_sorted(self, n, masks):
        full = (1 << n) - 1
        family = sorted({m & full for m in masks}, key=support_sort_key)
        assert complements(full, family) == tuple(
            sorted((full ^ m for m in family), key=support_sort_key)
        )


@st.composite
def families(draw):
    """0..7 masks over 1..8 variables in any order; duplicates, nested
    supports, the empty support and the empty family all occur."""
    n = draw(st.integers(min_value=1, max_value=8))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    return n, draw(st.lists(masks, max_size=7))


@st.composite
def small_support_families(draw):
    """Up to 25 distinct supports of 1-3 vertices over at most 10 vertices:
    many small supports leave transversals of size n - 2 (about one
    derandomized draw in six) beside smaller ones."""
    n = draw(st.integers(min_value=1, max_value=10))
    vertices = st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=3)
    masks = vertices.map(lambda vs: sum(1 << v for v in vs))
    k = draw(st.integers(min_value=0, max_value=min(25, n + comb(n, 2) + comb(n, 3))))
    return n, draw(st.lists(masks, min_size=k, max_size=k, unique=True))


class TestMinimalPrimes:
    def test_two_k2(self):
        I = complementary_edge_ideal(two_k2())
        expected = brute_minimal_transversals(I.gens, 4)
        assert minimal_primes(I) == expected
        assert [vertices_of(p) for p in expected] == [
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
        ]

    def test_k4(self):
        I = complementary_edge_ideal(complete(4))
        primes = minimal_primes(I)
        assert primes == brute_minimal_transversals(I.gens, 4)
        assert [vertices_of(p) for p in primes] == [
            (1, 2, 3),
            (1, 2, 4),
            (1, 3, 4),
            (2, 3, 4),
        ]

    def test_p4(self):
        I = complementary_edge_ideal(path(4))
        assert [vertices_of(p) for p in minimal_primes(I)] == [
            (1, 3),
            (1, 4),
            (2, 4),
        ]

    def test_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdealError):
            minimal_primes(SqfIdeal(4, ()))

    @settings(max_examples=120, deadline=None)
    @given(random_graphs_min_degree_one(4, 6))
    def test_matches_brute_force(self, G):
        I = complementary_edge_ideal(G)
        assert minimal_primes(I) == brute_minimal_transversals(
            I.gens, G.n
        )

    @settings(max_examples=120, deadline=None)
    @given(random_graphs_min_degree_one(4, 6))
    def test_antichain_and_transversal(self, G):
        I = complementary_edge_ideal(G)
        primes = minimal_primes(I)
        for a in primes:
            for b in primes:
                assert a == b or a & ~b
            for s in I.gens:
                assert a & s

    def test_transversals_empty_support(self):
        assert minimal_transversals([0b0]) == []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(families())
    @example((3, []))
    @example((3, [0b011, 0b0]))
    @example((4, [0b1111, 0b0110, 0b0010, 0b0110]))
    def test_transversals_of_general_families(self, family):
        n, supports = family
        assert minimal_transversals(supports) == brute_minimal_transversals(supports, n)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_support_families())
    # a repeated support, which no set misses the second time
    @example((3, [0b011, 0b011]))
    # {2, 3, 5} after {1, 2} and {3, 4}: {1, 3} is filed under 3 and {2, 4}
    # under 2, so {1, 4} extends only by 5
    @example((5, [0b00011, 0b01100, 0b10110]))
    # the empty support after nonempty ones
    @example((3, [0b011, 0b100, 0b0]))
    def test_transversals_of_small_support_families(self, family):
        n, supports = family
        assert minimal_transversals(supports) == brute_minimal_transversals(supports, n)

    @pytest.mark.parametrize("n", range(12, 21))
    def test_transversals_of_complete_graphs_match_the_scan(self, n):
        gens = complementary_edge_ideal(complete(n)).gens
        dual = minimal_transversals(gens)
        assert dual == scan_minimal_transversals(gens)
        assert len(dual) == comb(n, 3)  # the triangles
        assert minimal_transversals(dual) == scan_minimal_transversals(dual)

    @pytest.mark.parametrize("G", [random_with_path(30), two_tree(30)], ids=["random", "two_tree"])
    def test_transversals_at_thirty_match_the_scan(self, G):
        gens = complementary_edge_ideal(G).gens
        dual = minimal_transversals(gens)
        assert dual == scan_minimal_transversals(gens)
        assert minimal_transversals(dual) == scan_minimal_transversals(dual)


class TestHeightUnmixed:
    def test_heights(self):
        assert height(complementary_edge_ideal(path(4))) == 2
        assert height(complementary_edge_ideal(complete(4))) == 3
        assert height(complementary_edge_ideal(two_k2())) == 2

    def test_unmixed(self):
        # unmixed: all minimal primes have the same height
        def heights(G):
            return {p.bit_count() for p in minimal_primes(complementary_edge_ideal(G))}

        assert heights(cycle(4)) == {2}
        assert heights(paw()) == {2, 3}
        assert heights(complete(5)) == {3}


class TestAlexanderDual:
    def test_two_k2_dual_is_complement_edge_set(self):
        G = two_k2()
        dual = alexander_dual(complementary_edge_ideal(G))
        comp_edges = [mask_of(e) for e in complement(G).edges()]
        assert sorted(dual.gens) == sorted(comp_edges)

    def test_k4_dual_is_triangles(self):
        dual = alexander_dual(complementary_edge_ideal(complete(4)))
        assert [vertices_of(s) for s in dual.gens] == [
            (1, 2, 3),
            (1, 2, 4),
            (1, 3, 4),
            (2, 3, 4),
        ]

    @settings(max_examples=120, deadline=None)
    @given(random_graphs_min_degree_one(4, 6))
    def test_involution(self, G):
        I = complementary_edge_ideal(G)
        assert alexander_dual(alexander_dual(I)) == I


@st.composite
def squarefree_ideals(draw):
    """1..10 arbitrary nonempty supports in 1..8 variables, minimalized:
    mixed degrees, shared and disjoint supports, single variables."""
    n = draw(st.integers(min_value=1, max_value=8))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=10))
    return SqfIdeal(n, minimalize_supports(masks))


class TestDegreeComponent:
    def test_paw_dual_degree_two(self):
        dual = alexander_dual(complementary_edge_ideal(paw()))
        assert monomials(degree_component(dual, 2)) == ["x1*x4", "x2*x4"]

    def test_paw_dual_degree_three_is_everything(self):
        dual = alexander_dual(complementary_edge_ideal(paw()))
        assert len(degree_component(dual, 3).gens) == 4

    def test_top_component_is_identity(self):
        I = complementary_edge_ideal(path(4))
        assert degree_component(I, 2) == I

    def test_below_generation_degree_empty(self):
        I = complementary_edge_ideal(path(4))
        assert degree_component(I, 1).is_zero

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(squarefree_ideals())
    def test_matches_brute_subsets_in_canonical_order(self, I):
        for j in range(1, I.n + 1):
            subsets = (sum(1 << v for v in c) for c in combinations(range(I.n), j))
            brute = [m for m in subsets if any(g & ~m == 0 for g in I.gens)]
            expected = tuple(sorted(brute, key=brute_canonical_key))
            assert degree_component(I, j).gens == expected


def line_graph_rows(G, I):
    """Adjacency rows of the line graph, generators standing for edges."""
    edges = [G.full_mask ^ s for s in I.gens]
    return tuple(
        sum(1 << b for b, f in enumerate(edges) if b != a and e & f)
        for a, e in enumerate(edges)
    )


@st.composite
def equigenerated_ideals(draw):
    """1..12 distinct d-subsets of 3..8 variables, 1 <= d < n, so that
    pairs of generators have lcms of several different degrees."""
    n = draw(st.integers(min_value=3, max_value=8))
    d = draw(st.integers(min_value=1, max_value=n - 1))
    subsets = [sum(1 << v for v in c) for c in combinations(range(n), d)]
    gens = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=12))
    return SqfIdeal(n, minimalize_supports(gens))


class TestLcmGraph:
    def test_p4_is_path(self):
        I = complementary_edge_ideal(path(4))
        # gens sorted: x1*x2 (edge 34), x1*x4 (edge 23), x3*x4 (edge 12)
        assert lcm_graph(I) == (0b010, 0b101, 0b010)

    def test_two_k2_no_edges(self):
        I = complementary_edge_ideal(two_k2())
        assert lcm_graph(I) == (0, 0)

    def test_matches_line_graph_of_paw(self):
        G = paw()
        I = complementary_edge_ideal(G)
        rows = lcm_graph(I)
        full = G.full_mask
        edges = [full ^ s for s in I.gens]
        for a in range(len(edges)):
            for b in range(a + 1, len(edges)):
                share = bool(edges[a] & edges[b])
                assert bool(rows[a] >> b & 1) == share

    def test_more_generators_than_graph_vertices(self):
        # 63 generators: one more than a Graph may have vertices
        G = complement(graph(12, (1, 2), (3, 4), (5, 6)))
        I = complementary_edge_ideal(G)
        assert len(I.gens) == 63
        rows = lcm_graph(I)
        assert rows == line_graph_rows(G, I)
        assert is_linearly_related(I, rows)

    def test_non_equigenerated_rejected(self):
        I = SqfIdeal(4, minimalize_supports([0b0011, 0b1110]))
        with pytest.raises(NotEquigeneratedError):
            lcm_graph(I)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(equigenerated_ideals())
    def test_matches_the_pairwise_loop(self, I):
        assert lcm_graph(I) == brute_lcm_graph(I)


def assert_lattice_lists_the_generators_inside(gens):
    """The lattice's elements are the brute closure's, and each element's
    generator mask is the brute filter {k : gens[k] inside sigma}."""
    lattice = lcm_lattice(gens)
    assert list(lattice) == brute_lcm_lattice(gens)
    for sigma, inside in lattice.items():
        assert inside == sum(1 << k for k, g in enumerate(gens) if g & ~sigma == 0)
    return lattice


class TestLcmLattice:
    def test_p4(self):
        I = complementary_edge_ideal(path(4))
        # the generators, [4] minus vertex 2 or 3, and [4]
        assert list(lcm_lattice(I.gens)) == [0b0011, 0b1001, 0b1011, 0b1100, 0b1101, 0b1111]
        # x1x2, x1x4, x3x4: [4] minus 3 holds the first two, [4] minus 2 the last two
        assert list(lcm_lattice(I.gens).values()) == [0b001, 0b010, 0b011, 0b100, 0b110, 0b111]

    def test_two_k2_joins_to_the_top(self):
        I = complementary_edge_ideal(two_k2())
        assert list(lcm_lattice(I.gens)) == [0b0011, 0b1100, 0b1111]

    def test_mixed_degrees(self):
        assert list(lcm_lattice((0b001, 0b110))) == [0b001, 0b110, 0b111]
        assert list(lcm_lattice(())) == []
        assert_lattice_lists_the_generators_inside((0b001, 0b110))
        assert_lattice_lists_the_generators_inside(())

    @settings(max_examples=60, deadline=None)
    @given(random_graphs_min_degree_one(4, 9))
    def test_matches_brute_closure_and_is_small(self, G):
        I = complementary_edge_ideal(G)
        lattice = assert_lattice_lists_the_generators_inside(I.gens)
        assert len(lattice) <= len(I.gens) + G.n + 1

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(squarefree_ideals())
    def test_general_ideals_list_the_generators_inside(self, I):
        assert_lattice_lists_the_generators_inside(I.gens)

    def test_built_once_per_ideal_and_not_compared(self):
        I = complementary_edge_ideal(path(4))
        assert I.lattice is I.lattice
        J = SqfIdeal(I.n, I.gens)
        assert J == I and hash(J) == hash(I) and "lattice" not in vars(J)


class TestLinearlyRelated:
    def test_examples(self):
        for G, related in ((path(4), True), (two_k2(), False), (cycle(5), True)):
            I = complementary_edge_ideal(G)
            assert is_linearly_related(I, lcm_graph(I)) == related

    def test_two_lcms_one_unjoined(self):
        # x1x2, x2x3 and x3x4 are joined inside x1x2x3x4, but x1x2 and
        # x4x5 meet only at x1x2x4x5, which no other generator divides
        edges = ([1, 2], [2, 3], [3, 4], [4, 5])
        I = SqfIdeal(5, minimalize_supports([mask_of(e) for e in edges]))
        assert not is_linearly_related(I, lcm_graph(I))
        J = SqfIdeal(5, minimalize_supports(I.gens[:3]))
        assert is_linearly_related(J, lcm_graph(J))

    def test_large_complete_graphs(self):
        K30 = complementary_edge_ideal(complete(30))
        assert is_linearly_related(K30, lcm_graph(K30))
        K62 = complementary_edge_ideal(complete(62))
        assert is_linearly_related(K62, lcm_graph(K62))
        two_k15 = graph(
            30,
            *combinations(range(1, 16), 2),
            *combinations(range(16, 31), 2),
        )
        I = complementary_edge_ideal(two_k15)
        assert not is_linearly_related(I, lcm_graph(I))

    @settings(max_examples=80, deadline=None)
    @given(random_graphs_min_degree_one(4, 6))
    def test_iff_connected(self, G):
        I = complementary_edge_ideal(G)
        assert is_linearly_related(I, lcm_graph(I)) == is_connected(G)

    def test_matches_the_per_pair_search(self):
        seen = set()

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(equigenerated_ideals())
        def check(I):
            related = is_linearly_related(I, lcm_graph(I))
            assert related == brute_is_linearly_related(I)
            seen.add(related)

        check()
        assert seen == {False, True}

    def test_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdealError):
            is_linearly_related(SqfIdeal(4, ()), ())

    def test_mixed_degrees_rejected(self):
        # x1x2 and x3: no lcm degree d + 1 to build the adjacency on
        I = SqfIdeal(3, minimalize_supports([0b011, 0b100]))
        with pytest.raises(NotEquigeneratedError):
            is_linearly_related(I, (0, 0))


class TestLinearQuotients:
    def test_p4_certificate(self):
        I = complementary_edge_ideal(path(4))
        cert = linear_quotient_order(I)
        assert [monomial_str(m) for m in cert.order] == ["x1*x2", "x1*x4", "x3*x4"]
        assert cert.colon_variables() == [(), (2,), (1,)]
        assert cert.is_valid_for(I)

    def test_star_certificate(self):
        I = complementary_edge_ideal(graph(4, (1, 2), (1, 3), (1, 4)))
        cert = linear_quotient_order(I)
        assert [monomial_str(m) for m in cert.order] == ["x2*x3", "x2*x4", "x3*x4"]
        assert cert.colon_variables() == [(), (3,), (2,)]

    def test_bad_order_rejected(self):
        I = complementary_edge_ideal(path(4))
        bad = (mask_of([1, 2]), mask_of([3, 4]), mask_of([1, 4]))
        # second colon is the degree-two principal ideal (x1*x2), so no
        # mask of variables certifies it
        assert colon_min_gens(bad[:1], bad[1]) == (mask_of([1, 2]),)
        last = mask_of([2, 3])
        for middle in range(1 << 4):
            assert not MonomialOrderCert(bad, (0, middle, last)).is_valid_for(I)

    def test_two_k2_no_order_at_all(self):
        I = complementary_edge_ideal(two_k2())
        assert linear_quotient_order(I) is None
        assert not has_linear_quotient_order(I)
        assert not brute_has_linear_quotient_order(I)

    def test_non_permutation_rejected(self):
        I = complementary_edge_ideal(path(4))
        cert = linear_quotient_order(I)
        assert not MonomialOrderCert(cert.order[:2], cert.colon_steps[:2]).is_valid_for(I)

    @settings(max_examples=60, deadline=None)
    @given(random_graphs_min_degree_one(4, 5))
    def test_exhaustive_search_matches_permutations(self, G):
        I = complementary_edge_ideal(G)
        if len(I.gens) > 6:
            return
        assert has_linear_quotient_order(I) == brute_has_linear_quotient_order(I)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_greedy_decides_edge_complement_families(self, data):
        # families of (n-2)-subsets: the ideals of graphs with isolated
        # vertices allowed; a greedy dead end must mean no order at all
        n = data.draw(st.integers(min_value=4, max_value=8))
        full = (1 << n) - 1
        pairs = [1 << a | 1 << b for a, b in combinations(range(n), 2)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=10))
        I = SqfIdeal(n, minimalize_supports([full ^ p for p in chosen]))
        cert = linear_quotient_order(I)
        assert (cert is not None) == has_linear_quotient_order(I)
        if cert is not None:
            assert cert.is_valid_for(I)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(squarefree_ideals())
    def test_certificates_on_general_ideals_are_valid(self, I):
        # the recorded colon variables against the colons recomputed and
        # minimalized from the definition
        cert = linear_quotient_order(I)
        if cert is not None:
            assert cert.is_valid_for(I) and reference_cert_is_valid(cert, I)

    @pytest.mark.parametrize("G", [complete(62), cycle(62)], ids=["K62", "C62"])
    def test_certificates_at_sixty_two_vertices(self, G):
        I = complementary_edge_ideal(G)
        cert = linear_quotient_order(I)
        assert len(cert.colon_steps) == len(I.gens)
        assert cert.is_valid_for(I)

    @settings(max_examples=80, deadline=None)
    @given(random_graphs_min_degree_one(4, 6))
    def test_connected_orders_verify(self, G):
        I = complementary_edge_ideal(G)
        cert = linear_quotient_order(I)
        if is_connected(G):
            assert cert.is_valid_for(I)
        else:
            assert cert is None


def single_variable_differences(prefix, u):
    """The mask of the differences p minus u that are one variable."""
    variables = 0
    for p in prefix:
        if (p & ~u).bit_count() == 1:
            variables |= p & ~u
    return variables


class TestCertificateChecker:
    """``is_valid_for`` checks each step against the colon's definition:
    every mutation of a valid certificate is rejected, as the minimalizing
    reference in helpers rejects it, and on general ideals the two agree."""

    I = complementary_edge_ideal(graph(4, (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))

    def certificate(self):
        cert = linear_quotient_order(self.I)
        assert cert.colon_variables() == [(), (2,), (2, 3), (1,), (1, 3)]
        assert cert.is_valid_for(self.I) and reference_cert_is_valid(cert, self.I)
        return cert

    def rejects(self, order, steps) -> bool:
        cert = MonomialOrderCert(tuple(order), tuple(steps))
        assert not reference_cert_is_valid(cert, self.I)
        return not cert.is_valid_for(self.I)

    def test_dropped_variable(self):
        cert = self.certificate()
        steps = list(cert.colon_steps)
        steps[2] = mask_of([2])  # the colon is (x2, x3)
        assert self.rejects(cert.order, steps)

    def test_extra_variable_that_generates_nothing(self):
        cert = self.certificate()
        steps = list(cert.colon_steps)
        steps[1] |= mask_of([4])  # x4 is no difference at this step
        assert self.rejects(cert.order, steps)

    def test_two_generators_swapped(self):
        cert = self.certificate()
        order = list(cert.order)
        order[1], order[3] = order[3], order[1]
        assert self.rejects(order, cert.colon_steps)

    def test_truncated_order(self):
        cert = self.certificate()
        assert self.rejects(cert.order[:-1], cert.colon_steps[:-1])

    def test_step_count_differs_from_the_order(self):
        cert = self.certificate()
        assert self.rejects(cert.order, cert.colon_steps[:-1])
        assert self.rejects(cert.order, cert.colon_steps + (0,))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_agrees_with_the_minimalizing_reference(self, data):
        # candidates record each step's one-variable differences, along the
        # greedy's order or any other; a mutation then breaks some of them
        I = data.draw(squarefree_ideals())
        greedy = linear_quotient_order(I)
        if greedy is not None and data.draw(st.booleans()):
            order = list(greedy.order)
        else:
            order = data.draw(st.permutations(I.gens))
        steps = [single_variable_differences(order[:i], u) for i, u in enumerate(order)]
        mutation = data.draw(st.sampled_from(["none", "flip", "swap", "truncate", "extra"]))
        if mutation == "flip":
            k = data.draw(st.integers(0, len(steps) - 1))
            steps[k] ^= 1 << data.draw(st.integers(0, I.n - 1))
        elif mutation == "swap":
            a, b = data.draw(st.lists(st.integers(0, len(order) - 1), min_size=2, max_size=2))
            order[a], order[b] = order[b], order[a]
        elif mutation == "truncate":
            order, steps = order[:-1], steps[:-1]
        elif mutation == "extra":
            steps.append(0)
        cert = MonomialOrderCert(tuple(order), tuple(steps))
        assert cert.is_valid_for(I) == reference_cert_is_valid(cert, I)
