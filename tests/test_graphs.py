"""Graph type, text formats, predicates, and their brute-force oracles."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compedge.graphs import (
    AmbientTooSmallError,
    Graph,
    GraphError,
    IsolatedVertexError,
    ParseError,
    ValidationError,
    connected_components,
    emit_graph,
    is_chordal,
    is_complete,
    is_disjoint_union_of_edges,
    parse_graph,
    triangles,
    validate_standing_assumptions,
    vertices_of,
)
from compedge.classify import classify_graph
from conftest import random_graphs, random_graphs_min_degree_one
from helpers import (
    all_graphs,
    brute_is_chordal,
    brute_is_forest,
    brute_triangle_count,
    brute_triangles,
    complement,
    complete,
    cycle,
    edge_list_text,
    graph,
    is_connected,
    mask_of,
    naive_graph6_decode,
    naive_graph6_encode,
    path,
    paw,
    p3_union_k2,
    two_k2,
)


# lines of short tokens drawn from digits, signs, a superscript digit and
# arbitrary characters, so that headers and edge lines are often well formed
_near_edge_lists = st.lists(
    st.lists(
        st.one_of(st.text("0123456789³-+", max_size=3), st.text(max_size=2)),
        max_size=3,
    ).map(" ".join),
    max_size=6,
).map("\n".join)


class TestParsing:
    def test_edge_list_basic(self):
        G = parse_graph("4\n1 2\n3 4", "edge-list")
        assert G.n == 4
        assert G.edges() == [(1, 2), (3, 4)]

    def test_edge_list_loop_rejected(self):
        with pytest.raises(ValidationError):
            parse_graph("4\n1 1", "edge-list")

    def test_edge_list_duplicate_rejected(self):
        with pytest.raises(ValidationError):
            parse_graph("4\n1 2\n1 2", "edge-list")

    def test_edge_list_out_of_order_rejected(self):
        with pytest.raises(ValidationError):
            parse_graph("4\n2 1", "edge-list")

    def test_edge_list_bad_header_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("x\n1 2", "edge-list")
        assert exc.value.offset == 0

    def test_edge_list_bad_line_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("4\n1 2 3", "edge-list")
        assert exc.value.offset == 2

    def test_edge_list_offset_counts_bytes(self):
        # the header is the Arabic-Indic digit four, two bytes in UTF-8
        with pytest.raises(ParseError) as exc:
            parse_graph("\u0664\n1 2\nx\n", "edge-list")
        assert exc.value.offset == 7
        assert str(exc.value).endswith("(byte offset 7)")

    def test_graph6_known_string(self):
        G = parse_graph("C`")
        assert G.edges() == [(1, 2), (3, 4)]
        assert emit_graph(G) == "C`"

    def test_graph6_matches_naive_codec(self):
        for g6 in ["C`", "C~", "CK", "D?{", "E?~o"]:
            assert parse_graph(g6) == naive_graph6_decode(g6)

    def test_graph6_truncated(self):
        with pytest.raises(ParseError):
            parse_graph("E")

    def test_graph6_trailing(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("C`C")
        assert exc.value.offset == 2

    @pytest.mark.parametrize("text", ["E\u00e9", "C\u00e9x"], ids=["truncated", "trailing"])
    def test_graph6_offset_counts_bytes(self, text):
        # "\u00e9" is two bytes in UTF-8; both faults sit after "E\u00e9"/"C\u00e9"
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert exc.value.offset == 3

    def test_graph6_bad_byte(self):
        with pytest.raises(ParseError):
            parse_graph("C\x1f")

    def test_graph6_large_n_unsupported(self):
        with pytest.raises(ParseError):
            parse_graph("~??")

    def test_graph6_nonzero_padding(self):
        # n=2 uses one body byte with five padding bits; force one nonzero
        with pytest.raises(ParseError):
            parse_graph("A" + chr(63 + 0b000001))

    def test_trailing_newline_tolerated(self):
        assert parse_graph("C`\n") == parse_graph("C`")

    @pytest.mark.parametrize("format", ["graph6", "edge-list"])
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=st.one_of(st.text(), _near_edge_lists))
    @example(text="³")
    def test_arbitrary_text_gives_a_graph_or_a_graph_error(self, format, text):
        # "³" passes str.isdigit() but int() rejects it
        try:
            G = parse_graph(text, format)
        except GraphError:
            return
        assert isinstance(G, Graph)

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(1, 10))
    def test_graph6_roundtrip_via_naive_codec(self, G):
        encoded = emit_graph(G)
        assert encoded == naive_graph6_encode(G)
        assert parse_graph(encoded) == G
        assert naive_graph6_decode(encoded) == G

    @settings(max_examples=100, deadline=None)
    @given(random_graphs(2, 8))
    def test_edge_list_roundtrip(self, G):
        assert parse_graph(edge_list_text(G), "edge-list") == G


class TestConstruction:
    def test_loop_rejected(self):
        with pytest.raises(ValidationError):
            Graph.from_edges(4, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            Graph.from_edges(4, [(1, 5)])

    def test_cap_enforced(self):
        with pytest.raises(ValidationError):
            Graph(63, tuple([0] * 63))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            Graph(2, (0b10, 0b00))


class TestStandingAssumptions:
    def test_k4_passes(self):
        validate_standing_assumptions(complete(4))

    def test_triangle_too_small(self):
        with pytest.raises(AmbientTooSmallError):
            validate_standing_assumptions(cycle(3))

    def test_isolated_vertex_reported(self):
        with pytest.raises(IsolatedVertexError) as exc:
            validate_standing_assumptions(graph(4, (1, 2), (2, 3)))
        assert exc.value.vertex == 4


class TestComponentsAndPredicates:
    def test_components_two_k2(self):
        assert connected_components(two_k2()) == [mask_of([1, 2]), mask_of([3, 4])]

    def test_components_path(self):
        assert connected_components(path(4)) == [mask_of([1, 2, 3, 4])]

    def test_components_mixed(self):
        assert connected_components(p3_union_k2()) == [
            mask_of([1, 2, 3]),
            mask_of([4, 5]),
        ]

    def test_complete(self):
        assert is_complete(complete(5))
        assert not is_complete(cycle(5))

    def test_matching_predicate(self):
        assert is_disjoint_union_of_edges(two_k2())
        assert not is_disjoint_union_of_edges(path(4))

    def test_tree_and_forest(self):
        assert classify_graph(path(4)).tree
        assert classify_graph(two_k2()).forest and not classify_graph(two_k2()).tree
        assert not classify_graph(cycle(4)).forest

    def test_triangle_free(self):
        assert classify_graph(cycle(4)).triangle_free
        assert not classify_graph(paw()).triangle_free

    @settings(max_examples=200, deadline=None)
    @given(random_graphs_min_degree_one(4, 7))
    def test_forest_iff_edge_count(self, G):
        # the classification counts edges against components; the oracle
        # looks for a cycle edge by edge
        report = classify_graph(G)
        assert report.forest == brute_is_forest(G)
        assert report.triangle_free == (brute_triangle_count(G) == 0)

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(1, 7))
    def test_components_partition(self, G):
        comps = connected_components(G)
        union = 0
        for c in comps:
            assert union & c == 0
            union |= c
        assert union == G.full_mask


class TestTriangles:
    def test_k4(self):
        assert [vertices_of(t) for t in triangles(complete(4))] == [
            (1, 2, 3),
            (1, 2, 4),
            (1, 3, 4),
            (2, 3, 4),
        ]

    def test_c4(self):
        assert triangles(cycle(4)) == []

    def test_paw(self):
        assert [vertices_of(t) for t in triangles(paw())] == [(1, 2, 3)]

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(3, 10))
    def test_count_matches_brute_force(self, G):
        # the same masks in the same lexicographic order
        assert triangles(G) == brute_triangles(G)


class TestComplement:
    """The complement fixture in helpers, which other tests build on."""

    def test_complement_k4_edgeless(self):
        assert complement(complete(4)).edge_count() == 0

    def test_complement_two_k2_is_c4(self):
        assert complement(two_k2()).edges() == [(1, 3), (1, 4), (2, 3), (2, 4)]

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(1, 8))
    def test_involution(self, G):
        assert complement(complement(G)) == G


class TestChordal:
    def test_c4_not_chordal(self):
        assert not is_chordal(cycle(4))

    def test_forests_chordal(self):
        assert is_chordal(path(6))
        assert is_chordal(two_k2())

    def test_complete_chordal(self):
        assert is_chordal(complete(6))

    def test_long_cycles(self):
        for n in range(4, 9):
            assert not is_chordal(cycle(n))

    def test_exhaustive_small(self):
        for n in range(1, 6):
            for G in all_graphs(n):
                assert is_chordal(G) == brute_is_chordal(G), G.edges()

    @settings(max_examples=250, deadline=None)
    @given(random_graphs(6, 8))
    def test_matches_brute_force_sampled(self, G):
        assert is_chordal(G) == brute_is_chordal(G)


class TestConnectivity:
    @settings(max_examples=150, deadline=None)
    @given(random_graphs(1, 7))
    def test_connected_iff_one_component(self, G):
        assert is_connected(G) == (len(connected_components(G)) == 1)
