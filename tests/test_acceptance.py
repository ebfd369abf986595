"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  The heavyweight exhaustive sweep runs once per session
and several criteria read from it.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compedge
from compedge.betti import hochster_betti, koszul_betti, multigraded_koszul_betti
from compedge.classify import MODE_PAPER_LITERAL, analyze_graph, sweep
from compedge.complexes import (
    facet_complex,
    find_well_ordered_cover,
    induced_subcollection,
)
from compedge.homology import GF2, GF3, QQ
from compedge.ideals import complementary_edge_ideal, linear_quotient_order
from helpers import (
    complete,
    has_linear_quotient_order,
    is_connected,
    iter_graphs,
    min_degree_one_count,
    path,
    p3_union_k2,
    two_k2,
)

# every claim name that analyze_graph reports, grouped by the statement
# it checks; criterion 1 requires a zero failure count for each
SWEEP_CLAIMS = {
    "minimal prime description": ["minimal_primes", "height"],
    "unmixedness": ["unmixed"],
    "dual decomposition": ["alexander_dual", "dual_involution"],
    "componentwise linear dual": ["dual_componentwise_linear_iff_chordal"],
    "cohen-macaulay": ["cohen_macaulay"],
    "gorenstein": ["gorenstein"],
    "linear resolution equivalences": [
        "linear_resolution_iff_connected",
        "linearly_related_iff_connected",
        "linear_quotients_iff_connected",
    ],
    "betti positions": ["betti_positions"],
    "disconnected forest betti numbers": [
        "generator_count",
        "disconnected_forest_betti",
    ],
    "pure resolution": ["pure_resolution"],
    "level": ["level"],
    "pd and reg bounds": ["pd_reg_bounds"],
    "pd reg classification": ["pd_reg"],
    "structural identities": [
        "stanley_reisner_roundtrip",
        "lcm_graph_is_line_graph",
    ],
}


def report(num, name, ok):
    # write to the real stdout so the line survives pytest's capture
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}",
          file=sys.__stdout__)
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="session")
def full_sweep():
    start = time.perf_counter()
    rep = sweep(4, 6, GF2)
    rep_elapsed = time.perf_counter() - start
    print(f"\n[sweep 4..6 GF(2) corrected: {rep.graph_count} graphs, "
          f"{rep_elapsed:.1f}s]")
    return rep


def test_criterion_1_exhaustive_theorem_verification(full_sweep):
    rep = full_sweep
    expected_count = sum(min_degree_one_count(n) for n in (4, 5, 6))
    ok = rep.graph_count == expected_count
    ok = ok and rep.mismatch_count == 0
    for group, claims in SWEEP_CLAIMS.items():
        for claim in claims:
            passes, fails = rep.claim_tallies[claim]
            ok = ok and fails == 0 and passes > 0
    ok = ok and rep.wall_time_s < 300
    print(f"[criterion 1 wall time {rep.wall_time_s:.1f}s, "
          f"{rep.graph_count} graphs]")
    report(1, "exhaustive sweep n=4..6", ok)


def test_criterion_2_oracle_equality():
    start = time.perf_counter()
    ok = True
    for n in (4, 5):
        for G in iter_graphs(n):
            I = complementary_edge_ideal(G)
            for field in (GF2, QQ):
                if hochster_betti(I, field).entries != koszul_betti(I, field).entries:
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    print(f"[criterion 2 wall time {elapsed:.1f}s]")
    report(2, "hochster equals koszul, n=4..5, GF(2) and QQ", ok)


def test_criterion_3_fixed_point_tables():
    cases = [
        (two_k2(), {(0, 2): 2, (1, 4): 1}),
        (path(4), {(0, 2): 3, (1, 3): 2}),
        (complete(4), {(0, 2): 6, (1, 3): 8, (2, 4): 3}),
        (p3_union_k2(), {(0, 3): 3, (1, 4): 1, (1, 5): 1}),
    ]
    ok = True
    for G, expected in cases:
        I = complementary_edge_ideal(G)
        ok = ok and hochster_betti(I, GF2).entries == expected
        ok = ok and koszul_betti(I, GF2).entries == expected
    report(3, "fixed-point tables", ok)


def test_criterion_4_paper_literal_discrepancy():
    rep = sweep(4, 5, GF2, mode=MODE_PAPER_LITERAL)
    complete_g6 = {"C~", "D~{"}  # the labeled complete graphs on 4 and 5
    ok = {m["graph6"] for m in rep.mismatches} == complete_g6
    ok = ok and all(m["claim"] == "pd_reg" for m in rep.mismatches)
    ok = ok and all(
        m["computed"] == [2, m["computed"][1]]
        and m["computed"][1] == m["predicted"][1]
        for m in rep.mismatches
    )
    # and directly at n=6, without a third full sweep
    res = analyze_graph(complete(6), GF2, MODE_PAPER_LITERAL).consistency
    bad = res.mismatches
    ok = ok and [name for name, _, _ in bad] == ["pd_reg"]
    ok = ok and res.claims["pd_reg"]["computed"] == [2, 4]
    report(4, "paper-literal mode flags exactly the complete graphs", ok)


def test_criterion_5_certificates(full_sweep):
    # the full sweep decided linear quotients by the greedy order for
    # every graph with 4 <= n <= 6; its certificates are checked here
    passes, fails = full_sweep.claim_tallies["linear_quotients_iff_connected"]
    ok = fails == 0 and passes == full_sweep.graph_count
    # a valid certificate for every connected graph; for every disconnected
    # one no order from the greedy and none from the prefix-set search
    for n in (4, 5, 6):
        for G in iter_graphs(n):
            I = complementary_edge_ideal(G)
            cert = linear_quotient_order(I)
            if is_connected(G):
                ok = ok and cert is not None and cert.is_valid_for(I)
            else:
                ok = ok and cert is None and not has_linear_quotient_order(I)
    report(5, "quotient order certificates", ok)


def test_criterion_6_facet_cover_sufficiency():
    start = time.perf_counter()
    ok = True
    certified = 0
    for n in (4, 5, 6):
        for G in iter_graphs(n):
            I = complementary_edge_ideal(G)
            mg = multigraded_koszul_betti(I, GF2)
            lam = facet_complex(G)
            for sigma in range(1, 1 << n):
                sub = induced_subcollection(lam, sigma)
                if sub.is_void:
                    continue
                cover = find_well_ordered_cover(
                    sub, min(3, len(sub.facets)), cover_mask=sigma
                )
                if cover is not None:
                    certified += 1
                    if mg.get((len(cover) - 1, sigma), 0) == 0:
                        ok = False
    print(f"[criterion 6: {certified} certified positions, "
          f"{time.perf_counter() - start:.1f}s]")
    report(6, "well-ordered covers certify nonzero betti numbers", ok)


def test_criterion_7_field_robustness():
    ok = True
    for field in (GF2, GF3, QQ):
        rep = sweep(4, 5, field)
        ok = ok and rep.mismatch_count == 0
    cross = sweep(4, 5, GF2, cross_field=True)
    ok = ok and cross.field_disagreements == []
    report(7, "per-field suites and cross-field table comparison", ok)


def test_criterion_8_determinism(tmp_path):
    # the CLI subprocess imports the same compedge as this test, installed or not
    pythonpath = [str(Path(compedge.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    files = {}
    for workers in (1, 8):
        out = tmp_path / f"report_w{workers}.json"
        cmd = [
            sys.executable,
            "-m",
            "compedge.cli",
            "sweep",
            "--n",
            "4..5",
            "--workers",
            str(workers),
            "--out",
            str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        files[workers] = out.read_bytes()
    ok = files[1] == files[8] and len(files[1]) > 0
    ok = ok and json.loads(files[1])["graph_count"] == sum(
        min_degree_one_count(n) for n in (4, 5)
    )
    report(8, "byte-identical reports for 1 and 8 workers", ok)
