"""Predictions, per-graph verification, sweep engine, and the census."""

import hashlib
import json
from functools import cache
from itertools import combinations, permutations

import pytest

from compedge import betti, classify, complexes, ideals
from compedge.classify import (
    MODE_CORRECTED,
    MODE_PAPER_LITERAL,
    analyze_graph,
    classify_graph,
    edge_mask_orbits,
    gorenstein_census,
    graph_from_edge_mask,
    sweep,
)
from compedge.graphs import emit_graph, parse_graph
from compedge.homology import GF2, GF3, QQ
from helpers import (
    all_graphs,
    complete,
    cycle,
    graph,
    graph_from_mask,
    iter_graphs,
    labeled_sweep,
    min_degree_one_count,
    path,
    paw,
    p3_union_k2,
    two_k2,
    two_tree,
)


class TestClassify:
    def test_p4(self):
        cls = classify_graph(path(4))
        assert cls.cohen_macaulay and cls.level and cls.linear_resolution
        assert not cls.gorenstein
        assert (cls.pd, cls.reg) == (1, 2)

    def test_p3_union_k2(self):
        cls = classify_graph(p3_union_k2())
        assert cls.cohen_macaulay
        assert not cls.level and not cls.pure_resolution
        assert (cls.pd, cls.reg) == (1, 4)

    def test_c4(self):
        cls = classify_graph(cycle(4))
        assert not cls.cohen_macaulay
        assert cls.linear_resolution and cls.pure_resolution and cls.unmixed
        assert not cls.sequentially_cm
        assert (cls.pd, cls.reg) == (2, 2)

    def test_complete_modes(self):
        assert classify_graph(complete(5), MODE_CORRECTED).pd == 2
        assert classify_graph(complete(5), MODE_PAPER_LITERAL).pd == 1

    def test_two_k2_gorenstein_prediction(self):
        assert classify_graph(two_k2()).gorenstein
        assert not classify_graph(p3_union_k2()).gorenstein

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            classify_graph(path(4), "wrong")


class TestVerify:
    def test_two_k2_all_match(self):
        result = analyze_graph(two_k2(), GF2).consistency
        assert result.all_match(), result.mismatches

    def test_k4_corrected_matches(self):
        assert analyze_graph(complete(4), GF2, MODE_CORRECTED).consistency.all_match()

    def test_k4_literal_flags_pd_reg_only(self):
        result = analyze_graph(complete(4), GF2, MODE_PAPER_LITERAL).consistency
        assert [name for name, _, _ in result.mismatches] == ["pd_reg"]
        claim = result.claims["pd_reg"]
        assert claim["predicted"] == [1, 2]
        assert claim["computed"] == [2, 2]

    def test_paw_unmixed_prediction_matches(self):
        result = analyze_graph(paw(), GF2).consistency
        assert result.claims["unmixed"]["match"]
        assert result.claims["unmixed"]["computed"] is False

    def test_forest_claim_recorded_only_for_disconnected_forests(self):
        claims = analyze_graph(two_k2(), GF2).consistency.claims
        assert "disconnected_forest_betti" in claims
        claims = analyze_graph(path(4), GF2).consistency.claims
        assert "disconnected_forest_betti" not in claims

    def test_fields_other_than_gf2(self):
        for field in (GF3, QQ):
            assert analyze_graph(p3_union_k2(), field).consistency.all_match()

    def test_k5_union_k3_computes_that_no_order_exists(self):
        # 13 generators; the greedy order decides without a generator cap
        G = graph(8, *combinations(range(1, 6), 2), (6, 7), (6, 8), (7, 8))
        record = analyze_graph(G)
        assert len(record.ideal.gens) == 13
        assert record.consistency.all_match(), record.consistency.mismatches
        claim = record.consistency.claims["linear_quotients_iff_connected"]
        assert claim["computed"] is False

    def test_record_holds_what_the_claims_were_computed_from(self):
        record = analyze_graph(paw(), GF3)
        assert record.consistency == analyze_graph(paw(), GF3).consistency
        assert record.table.field == GF3
        assert record.classification.chordal == record.properties.componentwise_linear_dual


class TestEachClaimFailsOnItsOwnObject:
    """The Stanley-Reisner round trip reuses the second dual only when
    Gamma's facet complements are the dual's generators, so a wrong complex
    or a wrong second dual shows in its own claim."""

    G = graph(6, (1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 4))

    def test_a_complex_missing_a_facet_fails_the_round_trip(self, monkeypatch):
        real = classify.gamma_complex

        def missing_a_facet(G):
            cx = real(G)
            return complexes.SimplicialComplex(cx.n, cx.facets[1:])

        monkeypatch.setattr(classify, "gamma_complex", missing_a_facet)
        result = analyze_graph(self.G).consistency
        assert [name for name, _, _ in result.mismatches] == ["stanley_reisner_roundtrip"]

    def test_a_wrong_second_dual_fails_the_involution(self, monkeypatch):
        I = ideals.complementary_edge_ideal(self.G)
        real = ideals.alexander_dual

        def wrong_on_the_dual(J):
            dual = real(J)
            return dual if J == I else ideals.SqfIdeal(J.n, dual.gens[1:])

        monkeypatch.setattr(ideals, "alexander_dual", wrong_on_the_dual)
        claims = analyze_graph(self.G).consistency.claims
        assert claims["minimal_primes"]["match"]
        assert not claims["dual_involution"]["match"]


class TestLineGraphCheck:
    """The lcm graph's rows come from generator unions, the prediction from
    edge incidences; one pair out of place on either side is caught."""

    @pytest.mark.parametrize("G", [paw(), cycle(6), complete(5)], ids=["paw", "C6", "K5"])
    def test_every_flipped_pair_fails(self, G):
        I = ideals.complementary_edge_ideal(G)
        rows = ideals.lcm_graph(I)
        assert classify._lcm_graph_matches_line_graph(I, rows)
        flips = set()
        for a, b in combinations(range(len(rows)), 2):
            flips.add(rows[a] >> b & 1)
            flipped = list(rows)
            flipped[a] ^= 1 << b
            flipped[b] ^= 1 << a
            assert not classify._lcm_graph_matches_line_graph(I, tuple(flipped))
        assert flips == {0, 1}  # pairs both removed and added


class TestLatticeBuiltOncePerIdeal:
    def test_one_closure_per_analysis(self, monkeypatch):
        # the Koszul tables in every field, the lcm graph and linear
        # relatedness all read the one lattice of the graph's ideal
        calls = []
        real = ideals.lcm_lattice

        def counted(gens):
            calls.append(gens)
            return real(gens)

        monkeypatch.setattr(ideals, "lcm_lattice", counted)
        graphs = [paw(), cycle(6), complete(5), two_k2()]
        for G in graphs:
            classify._cross_field_check(analyze_graph(G, GF2))
        assert len(calls) == len(graphs)


class TestAnalyzeRunsNoHochsterSum:
    """The dual's componentwise linearity is decided without the Hochster
    sum: each call to it fails here.  The library has no pairwise
    maximal-set reduction, so every antichain comes from its producer."""

    @pytest.fixture(autouse=True)
    def _refuse_hochster(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("hochster_betti called")

        monkeypatch.setattr(betti, "hochster_betti", refuse)

    def test_every_graph_on_five_vertices(self):
        count = 0
        for G in all_graphs(5):
            if all(G.adj):
                result = analyze_graph(G).consistency
                assert result.all_match(), (result.graph6, result.mismatches)
                count += 1
        assert count == min_degree_one_count(5)

    def test_sixteen_cycle_with_two_chords(self):
        G = graph(16, (1, 8), (2, 11), (1, 16), *[(i, i + 1) for i in range(1, 16)])
        record = analyze_graph(G)
        assert record.consistency.all_match(), record.consistency.mismatches
        assert not record.properties.componentwise_linear_dual

    def test_two_tree_at_forty_five(self):
        # chordal: the dual's linearity needs the elimination certificate
        G = two_tree(45)
        record = analyze_graph(G)
        assert record.consistency.all_match(), record.consistency.mismatches
        assert record.properties.componentwise_linear_dual

    def test_sixty_two_cycle_with_two_chords(self):
        # minimal primes and the second dual, which is also the
        # Stanley-Reisner ideal, need the minimal transversals of 62-vertex
        # families
        G = graph(62, (1, 31), (2, 34), (1, 62), *[(i, i + 1) for i in range(1, 62)])
        record = analyze_graph(G)
        assert record.consistency.all_match(), record.consistency.mismatches
        assert len(record.dual.gens) == 1827  # the nonedges; no triangles

    def test_complete_graph_at_forty(self):
        # the dual's generators are the triangles, and the second dual needs
        # their transversals, the 38-sets
        record = analyze_graph(complete(40))
        assert record.consistency.all_match(), record.consistency.mismatches
        assert len(record.dual.gens) == 9880  # C(40, 3) triangles


def canonical_digest(report) -> str:
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class _SerialPool:
    """Stands in for multiprocessing.Pool: records its size, maps in-process."""

    sizes: list[int] = []

    def __init__(self, size):
        self.sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return [fn(job) for job in jobs]


class TestSweep:
    def test_n4_corrected_clean(self):
        report = sweep(4, 4)
        assert report.graph_count == min_degree_one_count(4) == 41
        assert report.mismatch_count == 0
        assert all(bad == 0 for _, bad in report.claim_tallies.values())

    def test_n4_paper_literal_flags_complete_only(self):
        report = sweep(4, 4, mode=MODE_PAPER_LITERAL)
        assert [m["graph6"] for m in report.mismatches] == ["C~"]
        assert [m["claim"] for m in report.mismatches] == ["pd_reg"]
        assert report.mismatches[0]["computed"] == [2, 2]

    def test_range_validation(self):
        with pytest.raises(ValueError):
            sweep(3, 4)
        with pytest.raises(ValueError):
            sweep(4, 8)

    def test_cross_field_no_disagreements(self):
        report = sweep(4, 4, cross_field=True)
        assert report.field_disagreements == []

    def test_workers_do_not_change_the_report(self):
        serial = json.dumps(sweep(4, 4).to_json_dict(), sort_keys=True)
        parallel = json.dumps(sweep(4, 4, workers=2).to_json_dict(), sort_keys=True)
        assert serial == parallel

    @pytest.mark.parametrize(
        "field, cross_field, digest",
        [
            (GF2, False, "05048de67c146080528869d98aad2adbc0b580e8aa128dcb2f12c6b1e00e0ad2"),
            (GF3, False, "6d14146b74a04b037d917da243a1d0c39cd0c51c7aacde343182e7dbe29c16ad"),
            (QQ, False, "b599d3fcf0233e94f1be98c99d4063273a6041c69fb834e8201256e34af35808"),
            (GF2, True, "5fc7e34a1645b2ad05ae9da5fec5851a5f8897f3d16cff94b41b83fdfa32ed0c"),
        ],
    )
    def test_n4_report_bytes_are_pinned(self, field, cross_field, digest):
        assert canonical_digest(sweep(4, 4, field, cross_field=cross_field)) == digest

    def test_nonpositive_workers_rejected(self):
        for workers in (0, -1):
            with pytest.raises(ValueError):
                sweep(4, 4, workers=workers)

    @pytest.mark.parametrize("cpus, expected", [(3, [3]), (None, []), (1, [])])
    def test_pool_size_clamped_to_cpus(self, monkeypatch, cpus, expected):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        monkeypatch.setattr("multiprocessing.Pool", _SerialPool)
        monkeypatch.setattr(_SerialPool, "sizes", [])
        report = sweep(4, 4, workers=10**6)
        assert _SerialPool.sizes == expected
        assert canonical_digest(report) == canonical_digest(sweep(4, 4, workers=1))

    def test_enumeration_skips_isolated(self):
        masks = sum(1 for _ in iter_graphs(4))
        assert masks == 41
        assert graph_from_edge_mask(4, 0) is None


class TestEdgeMaskOrbits:
    @pytest.mark.parametrize(
        "n, orbits, classes, masks, graphs",
        [(4, 11, 7, 64, 41), (5, 34, 23, 1024, 768), (6, 156, 122, 32768, 27449)],
    )
    def test_counts(self, n, orbits, classes, masks, graphs):
        found = list(edge_mask_orbits(n))
        no_isolated = [
            (least, members) for least, members in found
            if graph_from_edge_mask(n, least) is not None
        ]
        assert len(found) == orbits
        assert len(no_isolated) == classes
        assert sum(len(members) for _, members in found) == masks
        assert sum(len(members) for _, members in no_isolated) == graphs
        assert graphs == min_degree_one_count(n)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_orbits_partition_the_masks(self, n):
        found = list(edge_mask_orbits(n))
        union = [m for _, members in found for m in members]
        assert sorted(union) == list(range(1 << (n * (n - 1) // 2)))
        for least, members in found:
            assert members == sorted(set(members))
            assert members[0] == least
        assert [least for least, _ in found] == sorted(least for least, _ in found)

    @pytest.mark.parametrize("n", [4, 5])
    def test_members_are_the_relabelings_of_the_least_mask(self, n):
        for least, members in edge_mask_orbits(n):
            edges = graph_from_mask(n, least).edges()
            relabeled = {
                frozenset(tuple(sorted((p[i - 1] + 1, p[j - 1] + 1))) for i, j in edges)
                for p in permutations(range(n))
            }
            assert {frozenset(graph_from_mask(n, m).edges()) for m in members} == relabeled


@cache
def oracle_json(field, mode, cross_field):
    return json.dumps(
        labeled_sweep(4, 5, field, mode, cross_field).to_json_dict(), sort_keys=True
    )


def count_analyses(monkeypatch) -> list[int]:
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return analyze_graph(*args, **kwargs)

    monkeypatch.setattr(classify, "analyze_graph", counting)
    return calls


class TestClassSweepAgainstLabeledOracle:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "field, mode, cross_field",
        [
            (GF2, MODE_CORRECTED, False),
            (GF3, MODE_CORRECTED, False),
            (QQ, MODE_CORRECTED, False),
            (GF2, MODE_CORRECTED, True),
            (GF2, MODE_PAPER_LITERAL, False),
        ],
        ids=["GF2", "GF3", "QQ", "cross-field", "paper-literal"],
    )
    def test_report_bytes_equal_the_oracle(self, field, mode, cross_field, workers):
        report = sweep(4, 5, field, mode, cross_field, workers=workers)
        assert json.dumps(report.to_json_dict(), sort_keys=True) == oracle_json(
            field, mode, cross_field
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n, classes", [(4, 7), (5, 23), (6, 122)])
    def test_one_analysis_per_class(self, monkeypatch, n, classes, workers):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setattr("multiprocessing.Pool", _SerialPool)
        calls = count_analyses(monkeypatch)
        sweep(n, n, workers=workers)
        assert calls[0] == classes

    def test_paper_literal_expands_only_the_complete_graph(self, monkeypatch):
        calls = count_analyses(monkeypatch)
        sweep(5, 5, mode=MODE_PAPER_LITERAL)
        assert calls[0] == 24

    def test_a_failing_class_lists_every_labeled_member(self, monkeypatch):
        def is_p4(G):
            return G.n == 4 and sorted(a.bit_count() for a in G.adj) == [1, 1, 2, 2]

        def level_wrong_for_paths(G, mode=MODE_CORRECTED):
            cls = classify_graph(G, mode)
            if is_p4(G):
                cls.level = not cls.level
            return cls

        monkeypatch.setattr(classify, "classify_graph", level_wrong_for_paths)
        calls = count_analyses(monkeypatch)
        report = sweep(4, 4)
        assert calls[0] == 7 + 12
        assert [m["claim"] for m in report.mismatches] == ["level"] * 12
        paths = {emit_graph(G) for G in iter_graphs(4) if is_p4(G)}
        assert len(paths) == 12
        assert {m["graph6"] for m in report.mismatches} == paths
        assert report.claim_tallies["level"] == [41 - 12, 12]
        assert json.dumps(report.to_json_dict(), sort_keys=True) == json.dumps(
            labeled_sweep(4, 4).to_json_dict(), sort_keys=True
        )


class TestCensus:
    def test_n4_is_the_three_matchings(self):
        found = gorenstein_census(4)
        assert len(found) == 3
        edge_sets = {tuple(parse_graph(s).edges()) for s in found}
        assert edge_sets == {
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        }

    def test_n5_empty(self):
        assert gorenstein_census(5) == []

    @pytest.mark.parametrize("n", [3, 7, 8])
    def test_out_of_range_raises_before_enumerating(self, monkeypatch, n):
        def enumerate_nothing(n):
            raise AssertionError("enumerated graphs")

        monkeypatch.setattr("compedge.classify.edge_mask_orbits", enumerate_nothing)
        with pytest.raises(ValueError, match="4 <= n_min <= n_max <= 6"):
            gorenstein_census(n)
