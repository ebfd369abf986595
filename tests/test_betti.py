"""Betti tables: the two engines, fixed points, and derived properties."""

import random
from collections import Counter
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from compedge import betti, homology, ideals
from compedge.betti import (
    BettiTable,
    NotAGraphDualError,
    OracleTooLargeError,
    _chordless_cycle,
    _elimination_walk,
    betti_positions_check,
    dual_is_componentwise_linear,
    hochster_betti,
    koszul_betti,
    multigraded_koszul_betti,
    ring_properties,
)
from compedge.classify import _graph_classes, graph_from_edge_mask
from compedge.graphs import (
    Graph,
    is_chordal,
    iter_bits,
    nonedge_masks,
)
from compedge.complexes import (
    SimplicialComplex,
    stanley_reisner_ideal,
)
from compedge.homology import GF2, GF3, QQ, FieldSpec
from compedge.ideals import (
    IdealError,
    MonomialOrderCert,
    SqfIdeal,
    UnitIdealError,
    ZeroIdealError,
    alexander_dual,
    complementary_edge_ideal,
)
from conftest import random_graphs_min_degree_one
from helpers import (
    all_graphs,
    brute_is_chordal,
    brute_is_componentwise_linear,
    complete,
    cycle,
    degree_component,
    general_is_componentwise_linear,
    graph,
    has_linear_quotient_order,
    has_linear_resolution,
    is_connected,
    iter_graphs,
    mask_of,
    minimalize_supports,
    path,
    paw,
    p3_union_k2,
    rp2_6,
    stanley_reisner_complex,
    two_k2,
)

FIXED_TABLES = [
    (two_k2(), {(0, 2): 2, (1, 4): 1}, 1, 3),
    (path(4), {(0, 2): 3, (1, 3): 2}, 1, 2),
    (complete(4), {(0, 2): 6, (1, 3): 8, (2, 4): 3}, 2, 2),
    (p3_union_k2(), {(0, 3): 3, (1, 4): 1, (1, 5): 1}, 1, 4),
]


class TestFixedTables:
    @pytest.mark.parametrize("G,expected,pd,reg", FIXED_TABLES)
    def test_hochster(self, G, expected, pd, reg):
        for field in (GF2, QQ):
            table = hochster_betti(complementary_edge_ideal(G), field)
            assert table.entries == expected
            assert table.pd == pd
            assert table.reg == reg

    @pytest.mark.parametrize("G,expected,pd,reg", FIXED_TABLES)
    def test_koszul(self, G, expected, pd, reg):
        for field in (GF2, QQ):
            table = koszul_betti(complementary_edge_ideal(G), field)
            assert table.entries == expected


class TestEngineAgreement:
    def test_exhaustive_n4_both_fields(self):
        for G in all_graphs(4):
            if any(row == 0 for row in G.adj):
                continue
            I = complementary_edge_ideal(G)
            for field in (GF2, QQ):
                assert hochster_betti(I, field).entries == koszul_betti(
                    I, field
                ).entries

    @settings(max_examples=60, deadline=None)
    @given(random_graphs_min_degree_one(5, 6))
    def test_sampled_larger(self, G):
        I = complementary_edge_ideal(G)
        assert hochster_betti(I, GF2).entries == koszul_betti(I, GF2).entries

    @settings(max_examples=60, deadline=None)
    @given(random_graphs_min_degree_one(7, 10))
    def test_beyond_the_acceptance_range_gf2(self, G):
        I = complementary_edge_ideal(G)
        assert koszul_betti(I, GF2).entries == hochster_betti(I, GF2).entries

    @settings(max_examples=4, deadline=None)
    @given(random_graphs_min_degree_one(7, 8))
    def test_beyond_the_acceptance_range_qq(self, G):
        I = complementary_edge_ideal(G)
        assert koszul_betti(I, QQ).entries == hochster_betti(I, QQ).entries


class TestOracleColdMemo:
    """The Hochster oracle with the homology memo cleared first, so that it
    reads no entry another engine or test left behind."""

    def test_chorded_nine_cycle_over_every_field(self):
        G = graph(9, *[(i, i + 1) for i in range(1, 9)], (1, 9), (1, 4), (2, 7))
        I = complementary_edge_ideal(G)
        for field in (GF2, GF3, QQ):
            homology._dims.cache_clear()
            table = hochster_betti(I, field)
            assert table.entries == {(0, 7): 11, (1, 8): 13, (2, 9): 3}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(random_graphs_min_degree_one(4, 9), st.sampled_from([GF2, QQ]))
    def test_engines_agree_on_their_own_memo_entries(self, G, field):
        I = complementary_edge_ideal(G)
        homology._dims.cache_clear()
        koszul = koszul_betti(I, field).entries
        homology._dims.cache_clear()
        assert hochster_betti(I, field).entries == koszul


class TestTorsion:
    """The Stanley-Reisner ideal of the six-vertex RP^2 (its ten non-face
    triangles): H~_1(RP^2) has 2-torsion, so the table depends on the field."""

    @pytest.mark.parametrize("field", [GF2, GF3, FieldSpec(5), QQ])
    def test_engines_agree(self, field):
        I = stanley_reisner_ideal(rp2_6())
        assert len(I.gens) == 10
        assert hochster_betti(I, field).entries == koszul_betti(I, field).entries

    def test_gf2_table_has_the_torsion_entries(self):
        I = stanley_reisner_ideal(rp2_6())
        over_gf2 = koszul_betti(I, GF2).entries
        over_qq = koszul_betti(I, QQ).entries
        assert over_qq == {(0, 3): 10, (1, 4): 15, (2, 5): 6}
        assert over_gf2 == {**over_qq, (2, 6): 1, (3, 6): 1}


@st.composite
def squarefree_ideals(draw, max_n=7):
    """Ideals in 3..max_n variables with 2..5 generators of degree 1..4;
    degree 2 is drawn most often, so that both outcomes of the
    componentwise linearity test are common."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    degrees = draw(
        st.lists(st.sampled_from([1, 2, 2, 2, 3, 3, 4]), min_size=2, max_size=5)
    )
    gens = []
    for d in degrees:
        support = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=min(d, n),
                max_size=min(d, n),
                unique=True,
            )
        )
        gens.append(sum(1 << v for v in support))
    return SqfIdeal(n, minimalize_supports(gens))


def oracle_examples(test):
    """Ideals whose nonfaces are most of the vertex sets: generators of
    degree 1 and 2.  Disjoint pairs and triples give large minimal primes,
    so the walk tests its holes both by looking up their subsets and by
    scanning: five pairs give 32 primes of size 5, three triples 27 of size
    3."""
    for gens in (
        (0b1,),
        (0b1, 0b110),
        (0b11, 0b1100, 0b110000),
        (0b1, 0b10, 0b100),
        (0b11, 0b1100, 0b110000, 0b11000000, 0b1100000000),
        (0b111, 0b111000, 0b111000000),
    ):
        test = example(SqfIdeal(10, gens))(test)
    return test


class TestOracleReference:
    """The oracle visits the nonfaces alone, and takes each restriction's
    facets from its parent's; the reference sums Hochster's formula over
    all 2^n vertex sets, faces included, each restriction reduced to its
    maximal sets directly."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(squarefree_ideals(max_n=10))
    @oracle_examples
    def test_nonfaces_alone_give_the_whole_sum(self, I):
        for field in (GF2, GF3, QQ):
            expected = helpers.subset_hochster_betti(I, field).entries
            assert hochster_betti(I, field).entries == expected

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(squarefree_ideals(max_n=10))
    @oracle_examples
    def test_restrictions_are_the_maximal_sets_of_each_nonface(self, I):
        # the memo is keyed by the sorted facets, so equal multisets of keys
        # mean the same memo hits and misses as the direct restriction
        facets = stanley_reisner_complex(I).facets
        expected = Counter(
            tuple(sorted(helpers.maximal_supports([f & W for f in facets])))
            for W in range(1, 1 << I.n)
            if any(g & ~W == 0 for g in I.gens)
        )
        real = betti.homology_dims_of_facets
        with mock.patch.object(betti, "homology_dims_of_facets", side_effect=real) as spy:
            hochster_betti(I, GF2)
        handed = Counter(tuple(sorted(c.args[0])) for c in spy.call_args_list)
        assert handed == expected


class TestHoldingNone:
    """The walk's containment test against brute force."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(min_value=0, max_value=255), max_size=12),
        st.lists(st.integers(min_value=0, max_value=255), max_size=40),
    )
    # one family whose small sets are looked up and whose large ones are
    # scanned: 2^1 and 2^2 subsets against three sets, 2^8 against three
    @example([0b1, 0b11, 0b11111111, 0b10], [0b10, 0b100, 0b1000])
    def test_keeps_the_sets_that_hold_none(self, family, sets):
        expected = [h for h in family if not any(s & ~h == 0 for s in sets)]
        assert betti._holding_none(family, sets) == expected


class TestComponentwiseLinear:
    """The general decision in helpers against the brute oracle, and the
    production decision for graph duals against both."""

    @pytest.mark.parametrize(
        "gens,expected",
        [
            ((0b0011, 0b1100), False),  # x1x2, x3x4
            ((0b0001, 0b0110), True),  # x1, x2x3
            ((0b0001, 0b0110, 0b11000), False),  # x1, x2x3, x4x5
            ((0b0011, 0b1110), True),  # x1x2, x2x3x4
            ((0b00111, 0b11000), False),  # x1x2x3, x4x5
        ],
    )
    def test_examples(self, gens, expected):
        I = SqfIdeal(5, minimalize_supports(gens))
        for field in (GF2, QQ):
            assert general_is_componentwise_linear(I, field) is expected
            assert brute_is_componentwise_linear(I, field) is expected

    @settings(max_examples=150, deadline=None)
    @given(squarefree_ideals(), st.sampled_from([GF2, QQ]))
    def test_truncated_at_top_degree_matches_every_degree(self, I, field):
        assert general_is_componentwise_linear(
            I, field
        ) == brute_is_componentwise_linear(I, field)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_graph_duals_match_the_general_decision_on_every_class(self, n):
        for least, _ in _graph_classes(n):
            G = graph_from_edge_mask(n, least)
            dual = alexander_dual(complementary_edge_ideal(G))
            for field in (GF2, QQ):
                decided = dual_is_componentwise_linear(dual, field)
                assert decided == general_is_componentwise_linear(dual, field)
                assert decided == is_chordal(G)


def nonedge_ideal(G):
    """The ideal of the nonedges of G: the quadratic part of its dual."""
    return SqfIdeal(G.n, tuple(nonedge_masks(G)))


@st.composite
def chordal_graphs(draw):
    """Chordal graphs on 5..14 vertices under a random labeling, built
    three ways: a k-tree (each new vertex joined to a k-clique), an
    induced subgraph of one, and each new vertex joined to any clique of
    the graph so far, the empty one included.  Smaller graphs are all
    covered by the classes."""
    n = draw(st.integers(min_value=5, max_value=14))
    kind = draw(st.sampled_from(["k-tree", "induced", "clique"]))
    adj = [0] * n

    def join(v, clique):
        for u in iter_bits(clique):
            adj[u] |= 1 << v
            adj[v] |= 1 << u

    if kind == "clique":
        for v in range(1, n):
            seed = draw(st.integers(min_value=0, max_value=v - 1))
            flags = draw(st.lists(st.booleans(), min_size=v, max_size=v))
            keep = sum(1 << u for u, flag in enumerate(flags) if flag)
            # a clique inside the closed neighbourhood of the seed vertex
            clique = 0
            for u in iter_bits((adj[seed] | 1 << seed) & keep):
                if clique & ~adj[u] == 0:
                    clique |= 1 << u
            join(v, clique)
    else:
        k = draw(st.integers(min_value=1, max_value=4))
        cliques = [(1 << k + 1) - 1]  # the maximal cliques, k + 1 vertices each
        for v in range(k + 1):
            join(v, (1 << v) - 1)
        for v in range(k + 1, n):
            base = draw(st.sampled_from(cliques))
            drop = draw(st.sampled_from(list(iter_bits(base))))
            clique = base ^ 1 << drop
            join(v, clique)
            cliques.append(clique | 1 << v)
        if kind == "induced":
            dropped = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
            vertices = [v for v in range(n) if v not in dropped]
            adj = [
                sum(1 << i for i, u in enumerate(vertices) if adj[w] >> u & 1)
                for w in vertices
            ]
            n = len(vertices)
    relabel = draw(st.permutations(range(n)))
    rows = [0] * n
    for v in range(n):
        for u in iter_bits(adj[v]):
            rows[relabel[v]] |= 1 << relabel[u]
    return Graph(n, tuple(rows))


@st.composite
def relabeled_graphs(draw):
    """G(n, p) or a 2-tree on 4..62 vertices under a random labeling,
    which the maximum cardinality search behind the walk depends on."""
    n = draw(st.integers(min_value=4, max_value=62))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    if draw(st.booleans()):
        G = helpers.two_tree(n, seed)
    else:
        p = draw(st.sampled_from([0.05, 0.2, 0.5, 0.8, 0.95]))
        rng = random.Random(seed)
        G = graph(n, *[e for e in combinations(range(1, n + 1), 2) if rng.random() < p])
    relabel = draw(st.permutations(range(n)))
    rows = [0] * n
    for v in range(n):
        for u in iter_bits(G.adj[v]):
            rows[relabel[v]] |= 1 << relabel[u]
    return Graph(n, tuple(rows))


def check_walk(G, chordal):
    """The elimination walk on G returns a valid certificate iff G is
    ``chordal``, and otherwise an induced path a - c - b whose chordless
    cycle is confirmed."""
    adj = list(G.adj)
    walk = _elimination_walk(adj)
    if chordal:
        assert isinstance(walk, MonomialOrderCert)
        assert walk.is_valid_for(nonedge_ideal(G))
    else:
        c, a, b = walk
        assert adj[c] >> a & 1 and adj[c] >> b & 1 and not adj[a] >> b & 1
        assert _chordless_cycle(adj, c, a, b, GF2)
    return walk


class TestEliminationCertificate:
    """The elimination walk: the linear quotients of a graph's nonedges
    from its perfect elimination order, checked colon by colon against
    the definition, or the chordless cycle named by the step where the
    walk stops.  On the classes, chordality is decided by subset search."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_valid_on_every_chordal_class(self, n):
        for least, _ in _graph_classes(n):
            G = graph_from_edge_mask(n, least)
            if brute_is_chordal(G):
                check_walk(G, True)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_other_class_names_a_chordless_cycle(self, n):
        for least, _ in _graph_classes(n):
            G = graph_from_edge_mask(n, least)
            if not brute_is_chordal(G):
                check_walk(G, False)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(chordal_graphs())
    def test_valid_on_random_chordal_graphs(self, G):
        assert is_chordal(G)
        check_walk(G, True)

    def test_relabeled_random_graphs(self):
        seen = set()

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(relabeled_graphs())
        def walk(G):
            chordal = is_chordal(G)
            check_walk(G, chordal)
            seen.add((chordal, G.n > 40))

        walk()
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_two_tree_at_thirty(self):
        G = helpers.two_tree(30)
        cert = _elimination_walk(list(G.adj))
        assert len(cert.order) == 30 * 29 // 2 - G.edge_count()
        assert cert.is_valid_for(nonedge_ideal(G))

    def test_two_tree_at_sixty_two(self):
        # 1,770 nonedges: the checker is linear in each step's prefix
        G = helpers.two_tree(62)
        cert = _elimination_walk(list(G.adj))
        assert len(cert.order) == 62 * 61 // 2 - G.edge_count() == 1770
        assert cert.is_valid_for(nonedge_ideal(G))

    @pytest.mark.parametrize(
        "G,searches", [(helpers.two_tree(62), 0), (cycle(62), 1)], ids=["two_tree62", "cycle62"]
    )
    def test_a_decision_searches_for_at_most_one_path(self, monkeypatch, G, searches):
        calls = Counter()
        search = betti._shortest_path

        def counted(*args):
            calls["_shortest_path"] += 1
            return search(*args)

        monkeypatch.setattr(betti, "_shortest_path", counted)
        dual = alexander_dual(complementary_edge_ideal(G))
        assert dual_is_componentwise_linear(dual, GF2) is is_chordal(G)
        assert calls["_shortest_path"] == searches


@st.composite
def quadratic_ideals(draw):
    """Ideals generated by 1..12 distinct pairs of 4..9 variables."""
    n = draw(st.integers(min_value=4, max_value=9))
    pairs = [1 << a | 1 << b for a in range(n) for b in range(a + 1, n)]
    gens = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12))
    return SqfIdeal(n, minimalize_supports(gens))


@st.composite
def degree_two_three_ideals(draw):
    """Ideals generated in degrees 2 and 3 on 3..9 variables: the pairs
    outside a random graph H and some triangles of H, half the time all
    but at most two, so that both answers of the dimension step are
    common.  Every such ideal arises so, as a minimal cubic generator
    contains no generating pair."""
    n = draw(st.integers(min_value=3, max_value=9))
    pairs = [1 << a | 1 << b for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    gens = {pair for pair, edge in zip(pairs, edges) if not edge}
    triangles = [
        t
        for t in (pair | 1 << c for pair in pairs for c in range(pair.bit_length(), n))
        if all(t ^ 1 << v not in gens for v in iter_bits(t))
    ]
    if triangles and draw(st.booleans()):
        left_out = draw(st.sets(st.sampled_from(triangles), max_size=2))
        gens.update(t for t in triangles if t not in left_out)
    else:
        gens.update(t for t in triangles if draw(st.booleans()))
    return SqfIdeal(n, minimalize_supports(gens))


@pytest.fixture
def decisions(monkeypatch):
    """Count what each step decided.  Production: the dimension step (no
    triangle of H outside the generators, so no face of size 3), an
    elimination walk that ends in a certificate, a confirmed witness from
    the step where the walk stops.  The general decision in helpers runs
    the same walk and witness at j = 2 and adds its own dimension step
    (no face of the top degree's size, from the minimal nonfaces), the
    greedy certificate, the Hochster fallback and the degree components
    it builds; its ``has_linear_resolution`` binds its own hochster_betti,
    so those calls are not counted."""
    counts = Counter()

    def counting(module, name, decided):
        original = getattr(module, name)

        def wrapper(*args):
            out = original(*args)
            if decided(out):
                counts[name] += 1
            return out

        monkeypatch.setattr(module, name, wrapper)

    counting(betti, "_has_triangle_face", lambda found: not found)
    counting(helpers, "has_face_of_size", lambda found: not found)
    counting(betti, "_elimination_walk", lambda walk: isinstance(walk, MonomialOrderCert))
    counting(betti, "_chordless_cycle", bool)
    counting(ideals, "linear_quotient_order", lambda cert: cert is not None)
    counting(betti, "hochster_betti", lambda table: True)
    counting(helpers, "degree_component", lambda comp: True)
    return counts


class TestDecisionPaths:
    """Each step of the production decision and of the general one in
    helpers, against the Hochster oracle."""

    def test_c4_dual_is_refuted_by_a_witness(self, decisions):
        dual = alexander_dual(complementary_edge_ideal(cycle(4)))
        assert not dual_is_componentwise_linear(dual, GF2)
        assert decisions == {"_has_triangle_face": 1, "_chordless_cycle": 1}
        assert not has_linear_resolution(degree_component(dual, 2), GF2)

    def test_paw_dual_needs_a_certificate_and_the_dimension_step(self, decisions):
        # the triangle is the only degree-3 generator and Delta is the
        # graph, so no face of size 3 exists and I_[3] is never built
        dual = alexander_dual(complementary_edge_ideal(paw()))
        assert dual.degrees() == {2, 3}
        assert dual_is_componentwise_linear(dual, GF2)
        assert decisions == {"_has_triangle_face": 1, "_elimination_walk": 1}
        assert has_linear_resolution(degree_component(dual, 3), GF2)

    def test_projective_plane_dual_falls_back_to_hochster(self, decisions):
        # Eagon-Reiner: the dual has a linear resolution iff RP^2 is
        # Cohen-Macaulay over the field, which fails only in characteristic 2
        dual = alexander_dual(stanley_reisner_ideal(rp2_6()))
        assert dual.degrees() == {3} and len(dual.gens) == 10
        assert not has_linear_quotient_order(dual)
        for field, expected in ((GF2, False), (GF3, True), (QQ, True)):
            assert general_is_componentwise_linear(dual, field) is expected
            assert has_linear_resolution(dual, field) is expected
        assert decisions["hochster_betti"] == 3
        assert decisions["linear_quotient_order"] == 0

    def test_random_ideals_match_the_oracle_on_every_path(self, decisions):
        @settings(max_examples=120, deadline=None, derandomize=True)
        @given(quadratic_ideals(), st.sampled_from([GF2, GF3, QQ]))
        def quadratic(I, field):
            assert general_is_componentwise_linear(I, field) == has_linear_resolution(
                I, field
            )

        @settings(max_examples=120, deadline=None, derandomize=True)
        @given(squarefree_ideals(), st.sampled_from([GF2, QQ]))
        def mixed(I, field):
            assert general_is_componentwise_linear(
                I, field
            ) == brute_is_componentwise_linear(I, field)

        quadratic()
        mixed()
        steps = ("_elimination_walk", "_chordless_cycle", "linear_quotient_order", "hochster_betti")
        for step in steps:
            assert decisions[step] > 0, step


class TestOutsideTheGraphShape:
    """The production decision answers only for a graph's dual and raises
    a typed error otherwise; no silent answer and no Hochster sum."""

    @pytest.fixture(autouse=True)
    def _refuse_hochster(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("hochster_betti called")

        monkeypatch.setattr(betti, "hochster_betti", refuse)

    @pytest.mark.parametrize("field", [GF2, GF3, QQ])
    def test_projective_plane_dual(self, field):
        I = stanley_reisner_ideal(rp2_6())
        with pytest.raises(NotAGraphDualError):
            ring_properties(koszul_betti(I, field), alexander_dual(I))

    def test_degree_four_generator(self):
        # the maximal ideal of four variables: its dual is x1x2x3x4
        I = SqfIdeal(4, (0b0001, 0b0010, 0b0100, 0b1000))
        dual = alexander_dual(I)
        assert dual.gens == (0b1111,)
        with pytest.raises(NotAGraphDualError):
            ring_properties(koszul_betti(I, GF2), dual)

    def test_degree_one_generator(self):
        # x1, x2x3: no face of size 3, but J_[2] is not its quadratic part
        I = SqfIdeal(3, (0b001, 0b110))
        with pytest.raises(NotAGraphDualError) as refused:
            dual_is_componentwise_linear(I, GF2)
        assert isinstance(refused.value, IdealError)

    def test_one_quadric_has_faces_of_size_three(self):
        # x1x2 on four vertices: H is K4 minus an edge, chordal, and its
        # triangles {1, 3, 4} and {2, 3, 4} are faces
        J = SqfIdeal(4, (0b0011,))
        with pytest.raises(NotAGraphDualError, match="face of size 3"):
            dual_is_componentwise_linear(J, GF2)

    def test_paw_dual_without_its_triangle(self):
        # H is the paw, chordal; its triangle is a face once it is no generator
        dual = alexander_dual(complementary_edge_ideal(paw()))
        J = SqfIdeal(dual.n, tuple(g for g in dual.gens if g.bit_count() == 2))
        assert len(J.gens) == len(dual.gens) - 1
        with pytest.raises(NotAGraphDualError, match="face of size 3"):
            dual_is_componentwise_linear(J, GF2)

    def test_dimension_step_matches_the_face_search(self):
        seen = set()

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(degree_two_three_ideals())
        def agree(J):
            gens = set(J.gens)
            vertices = range(J.n)
            adj = [
                sum(1 << u for u in vertices if u != v and 1 << u | 1 << v not in gens)
                for v in vertices
            ]
            found = betti._has_triangle_face(adj, gens)
            assert found == helpers.has_face_of_size(J, 3)
            seen.add(found)

        agree()
        assert seen == {False, True}

    def test_neither_witness_nor_certificate(self, monkeypatch):
        # the paw is chordal, yet the walk is made to stop at {4, 1}: 4 - 3 - 1
        # is an induced path, and no 4 - 1 path avoids 3 and its neighbour 2
        c, a, b = 2, 3, 0
        adj = paw().adj
        assert adj[c] >> a & 1 and adj[c] >> b & 1 and not adj[a] >> b & 1
        monkeypatch.setattr(betti, "_elimination_walk", lambda adj: (c, a, b))
        dual = alexander_dual(complementary_edge_ideal(paw()))
        with pytest.raises(NotAGraphDualError, match="neither"):
            dual_is_componentwise_linear(dual, GF2)


class TestMultigraded:
    def test_degree_zero_rows_are_generators(self):
        I = complementary_edge_ideal(path(4))
        mg = multigraded_koszul_betti(I, GF2)
        zero_rows = {sigma for (i, sigma), v in mg.items() if i == 0 and v}
        assert zero_rows == set(I.gens)

    def test_two_k2_top_syzygy(self):
        I = complementary_edge_ideal(two_k2())
        mg = multigraded_koszul_betti(I, GF2)
        assert mg[(1, mask_of([1, 2, 3, 4]))] == 1


class TestPositions:
    def test_fixed_tables_allowed(self):
        for G, expected, _, _ in FIXED_TABLES:
            table = hochster_betti(complementary_edge_ideal(G), GF2)
            assert betti_positions_check(table)

    def test_forbidden_position(self):
        table = BettiTable(4, GF2, {(0, 2): 1, (2, 3): 1})
        assert not betti_positions_check(table)

    def test_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdealError):
            hochster_betti(SqfIdeal(4, ()), GF2)
        with pytest.raises(ZeroIdealError):
            koszul_betti(SqfIdeal(4, ()), GF2)

    def test_unit_ideal_refused_by_the_oracle(self):
        # the void complex's ideal: Hochster's formula needs a proper ideal,
        # while the Koszul engine gives the free module's table
        I = stanley_reisner_ideal(SimplicialComplex(4, ()))
        assert I == SqfIdeal(4, (0,))
        refuse = mock.patch.object(
            betti, "homology_dims_of_facets", side_effect=AssertionError
        )
        with refuse, pytest.raises(UnitIdealError) as info:
            hochster_betti(I, QQ)
        assert isinstance(info.value, IdealError)
        assert koszul_betti(I, QQ).entries == {(0, 0): 1}

    def test_oracle_hands_no_void_restriction_to_homology(self):
        real = betti.homology_dims_of_facets

        def dims(facets, char):
            assert facets, "void restriction"
            return real(facets, char)

        with mock.patch.object(betti, "homology_dims_of_facets", side_effect=dims) as spy:
            for I in (SqfIdeal(3, (0b001,)), SqfIdeal(4, (0b0011, 0b1100))):
                hochster_betti(I, GF2)
            for G in iter_graphs(4):
                hochster_betti(complementary_edge_ideal(G), GF2)
        assert spy.call_count > 0

    def test_oracle_refuses_more_than_fourteen_variables(self):
        I = complementary_edge_ideal(cycle(15))
        with pytest.raises(OracleTooLargeError, match="n <= 14; got n = 15"):
            hochster_betti(I, GF2)

    @pytest.mark.parametrize(
        "G, count",
        [
            # the 14-cycle plus the chords (1, 7) and (2, 10): 16 edges
            (graph(14, *cycle(14).edges(), (1, 7), (2, 10)), 31),
            (complete(14), 106),
        ],
        ids=["cycle14", "K14"],
    )
    def test_oracle_restricts_each_nonface_once_at_the_limit(self, G, count):
        # the reference sums over all 2^n sets only up to n = 10; here the
        # walk must hand homology one restriction per nonface: [n], the n
        # sets [n] - v and the m generators
        I = complementary_edge_ideal(G)
        assert count == 1 + G.n + len(G.edges())
        real = betti.homology_dims_of_facets
        with mock.patch.object(betti, "homology_dims_of_facets", side_effect=real) as spy:
            hochster_betti(I, QQ)
        assert spy.call_count == count

    @pytest.mark.parametrize(
        "G",
        [graph(14, *cycle(14).edges(), (1, 7), (2, 10)), complete(14)],
        ids=["cycle14", "K14"],
    )
    def test_restrictions_at_the_limit_are_the_maximal_sets_of_each_nonface(self, G):
        # the memo keys the sum over 2^n sets pins only up to n = 10: the
        # facets handed for each nonface are the maximal sets of its
        # restriction of the Stanley-Reisner complex
        I = complementary_edge_ideal(G)
        full = (1 << G.n) - 1
        facets = stanley_reisner_complex(I).facets
        nonfaces = [full, *(full ^ 1 << v for v in range(G.n)), *I.gens]
        expected = Counter(
            tuple(sorted(helpers.maximal_supports([f & W for f in facets])))
            for W in nonfaces
        )
        real = betti.homology_dims_of_facets
        with mock.patch.object(betti, "homology_dims_of_facets", side_effect=real) as spy:
            hochster_betti(I, QQ)
        handed = Counter(tuple(sorted(c.args[0])) for c in spy.call_args_list)
        assert handed == expected


def _ring_properties_gf2(I):
    return ring_properties(koszul_betti(I, GF2), alexander_dual(I))


class TestRingProperties:
    def test_two_k2_complete_intersection(self):
        props = _ring_properties_gf2(complementary_edge_ideal(two_k2()))
        assert props.gorenstein and props.level and props.cohen_macaulay
        assert props.pure_resolution and not props.linear_resolution
        assert props.unmixed

    def test_k4_level_not_gorenstein(self):
        props = _ring_properties_gf2(complementary_edge_ideal(complete(4)))
        assert props.cohen_macaulay and props.level
        assert not props.gorenstein

    def test_c4(self):
        props = _ring_properties_gf2(complementary_edge_ideal(cycle(4)))
        assert props.linear_resolution
        assert not props.cohen_macaulay
        assert props.unmixed
        assert not props.componentwise_linear_dual  # not chordal
        assert not props.sequentially_cm

    def test_paw_chordal_dual(self):
        props = _ring_properties_gf2(complementary_edge_ideal(paw()))
        assert props.componentwise_linear_dual
        assert not props.unmixed

    def test_empty_table_is_the_zero_ideal(self):
        dual = alexander_dual(complementary_edge_ideal(paw()))
        with pytest.raises(ZeroIdealError):
            ring_properties(BettiTable(4, GF2, {}), dual)

    def test_linear_resolution_helper(self):
        dual = alexander_dual(complementary_edge_ideal(cycle(4)))
        assert not has_linear_resolution(degree_component(dual, 2), GF2)
        assert has_linear_resolution(degree_component(dual, 3), GF2)

    @settings(max_examples=50, deadline=None)
    @given(random_graphs_min_degree_one(4, 6))
    def test_implications(self, G):
        props = _ring_properties_gf2(complementary_edge_ideal(G))
        if props.linear_resolution:
            assert props.pure_resolution
        if props.gorenstein:
            assert props.level
        if props.level:
            assert props.cohen_macaulay
        assert props.sequentially_cm == props.componentwise_linear_dual

    @settings(max_examples=50, deadline=None)
    @given(random_graphs_min_degree_one(4, 6))
    def test_connectivity_and_chordality_read_off_the_table(self, G):
        props = _ring_properties_gf2(complementary_edge_ideal(G))
        assert props.linear_resolution == is_connected(G)
        assert props.componentwise_linear_dual == is_chordal(G)

    @settings(max_examples=50, deadline=None)
    @given(random_graphs_min_degree_one(4, 6))
    def test_generator_row(self, G):
        I = complementary_edge_ideal(G)
        table = hochster_betti(I, GF2)
        assert table.rank(0, G.n - 2) == len(I.gens)


class TestRendering:
    def test_staircase_text(self):
        table = hochster_betti(complementary_edge_ideal(path(4)), GF2)
        text = table.render_text()
        assert "total" in text and "3" in text and "2" in text

    def test_json_dict(self):
        table = hochster_betti(complementary_edge_ideal(two_k2()), GF2)
        d = table.to_json_dict()
        assert d["entries"] == {"0,2": 2, "1,4": 1}
        assert d["pd"] == 1 and d["reg"] == 3
