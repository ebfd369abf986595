"""End-to-end command-line behavior: formats, exit codes, round trips."""

import dataclasses
import enum
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import compedge
from compedge import homology
from compedge.cli import INPUT_MAX_CHARS, _dumps, build_parser, run
from compedge.graphs import parse_graph
from compedge.ideals import MonomialOrderCert, complementary_edge_ideal
from helpers import complete, edge_list_text, mask_of, random_with_path, two_tree


def capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


def cycle_with_two_chords(n):
    """Edge-list text of the cycle 1..n plus the chords (1, n/2) and
    (2, n/2 + 3)."""
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n), (1, n // 2), (2, n // 2 + 3)]
    return f"{n}\n" + "\n".join(f"{i} {j}" for i, j in edges)


class TestAnalyze:
    def test_json_roundtrip(self, capsys):
        assert run(["analyze", "C`", "--json"]) == 0
        out, _ = capture(capsys)
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc
        assert doc["input"]["graph6"] == "C`"
        assert doc["betti"]["entries"] == {"0,2": 2, "1,4": 1}
        assert doc["properties"]["gorenstein"] is True

    def test_edge_list_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("4\n1 2\n2 3\n3 4"))
        assert run(["analyze", "-", "--format", "edge-list"]) == 0
        out, _ = capture(capsys)
        assert "linear_resolution=True" in out
        assert "pd=1" in out

    def test_endless_stdin_exits_two(self, capsys, monkeypatch):
        class Endless:
            def read(self, size=-1):
                if size is None or size < 0:
                    raise AssertionError("read to EOF from an endless stream")
                return "y" * size

        monkeypatch.setattr("sys.stdin", Endless())
        assert run(["analyze", "-", "--format", "edge-list"]) == 2
        out, err = capture(capsys)
        assert out == "" and f"input exceeds {INPUT_MAX_CHARS} characters" in err

    @pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)], ids=["at-cap", "one-over"])
    def test_stdin_cap(self, capsys, monkeypatch, extra, code):
        # blank lines are skipped, so the padding changes only the length
        text = "4\n1 2\n2 3\n3 4"
        text += "\n" * (INPUT_MAX_CHARS + extra - len(text))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(["analyze", "-", "--format", "edge-list"]) == code

    def test_stdin_cap_offset_counts_bytes(self, capsys, monkeypatch):
        # "é" is two bytes in UTF-8: the cap falls after 2 * INPUT_MAX_CHARS bytes
        monkeypatch.setattr("sys.stdin", io.StringIO("é" * (INPUT_MAX_CHARS + 1)))
        assert run(["analyze", "-", "--format", "edge-list"]) == 2
        assert f"(byte offset {2 * INPUT_MAX_CHARS})" in capture(capsys)[1]

    def test_n62_two_tree_analyze(self, capsys, monkeypatch):
        # chordal at the size limit: the dual's linearity is decided by an
        # elimination certificate, not by a greedy order or a 2^n sum
        monkeypatch.setattr("sys.stdin", io.StringIO(edge_list_text(two_tree(62))))
        code = run(["analyze", "-", "--format", "edge-list", "--json"])
        doc = json.loads(capture(capsys)[0])
        assert code == 0
        assert all(c["match"] for c in doc["consistency"]["claims"].values())
        assert doc["properties"]["componentwise_linear_dual"] is True

    def test_n46_dense_analyze(self, capsys, monkeypatch):
        # G(46, 0.8) plus the path, 819 edges: with the smallest supports
        # first, Berge's update on the dual peaked at 7,127 sets, one per
        # maximal clique, and analyze took about 11 s; in colex order the
        # peak is 819 and analyze about 1 s (2-core machine, Python 3.11)
        text = edge_list_text(random_with_path(46, 0.8))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "d8c0c380e039067e"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        start = time.perf_counter()
        code = run(["analyze", "-", "--format", "edge-list", "--json"])
        elapsed = time.perf_counter() - start
        doc = json.loads(capture(capsys)[0])
        assert code == 0
        assert all(c["match"] for c in doc["consistency"]["claims"].values())
        assert elapsed < 5

    def test_cross_check(self, capsys):
        assert run(["analyze", "C`", "--json", "--cross-check"]) == 0
        out, _ = capture(capsys)
        doc = json.loads(out)
        assert doc["oracle_matches"] is True

    def test_cross_check_text(self, capsys):
        assert run(["analyze", "C`", "--text", "--cross-check"]) == 0
        out, _ = capture(capsys)
        assert out.splitlines()[-1] == "oracle matches: True"

    def test_mismatched_claim_exit_three_text(self, capsys):
        # paper-literal mode groups K4 with trees at projective dimension 1
        assert run(["analyze", "C~", "--mode", "paper-literal"]) == 3
        out, _ = capture(capsys)
        assert "MISMATCHED CLAIMS: pd_reg" in out.splitlines()

    def test_mismatched_claim_exit_three_json(self, capsys):
        assert run(["analyze", "C~", "--mode", "paper-literal", "--json"]) == 3
        claims = json.loads(capture(capsys)[0])["consistency"]["claims"]
        assert [name for name, c in claims.items() if not c["match"]] == ["pd_reg"]

    @pytest.mark.parametrize("command", ["analyze", "betti"])
    @pytest.mark.parametrize("output", ["--text", "--json"])
    def test_oracle_disagreement_exit_three(self, capsys, monkeypatch, command, output):
        real = compedge.cli.hochster_betti

        def skewed(I, field):
            table = real(I, field)
            return dataclasses.replace(table, entries={**table.entries, (0, 2): 99})

        monkeypatch.setattr("compedge.cli.hochster_betti", skewed)
        assert run([command, "C`", output, "--cross-check"]) == 3
        out, _ = capture(capsys)
        if output == "--json":
            assert json.loads(out)["oracle_matches"] is False
        else:
            assert out.splitlines()[-1] == "oracle matches: False"

    def test_invalid_graph_exit_two(self, capsys):
        assert run(["analyze", "C"]) == 2

    def test_too_small_graph_exit_two(self, capsys):
        # triangle: standing assumptions fail
        assert run(["analyze", "Bw"]) == 2

    def test_unwritable_out_exit_two(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "x.json"
        assert run(["analyze", "C~", "--out", str(out_file)]) == 2
        _, err = capture(capsys)
        assert err.startswith("error: ") and str(out_file) in err


class TestBetti:
    def test_text(self, capsys):
        assert run(["betti", "C`"]) == 0
        out, _ = capture(capsys)
        assert "total" in out

    def test_cross_check_json(self, capsys):
        assert run(["betti", "C~", "--json", "--cross-check", "--field", "q"]) == 0
        out, _ = capture(capsys)
        doc = json.loads(out)
        assert doc["betti"]["entries"] == {"0,2": 6, "1,3": 8, "2,4": 3}
        assert doc["oracle_matches"] is True

    def test_cross_check_text(self, capsys):
        assert run(["betti", "C~", "--text", "--cross-check", "--field", "q"]) == 0
        out, _ = capture(capsys)
        assert out.splitlines()[-1] == "oracle matches: True"

    def test_n62_cycle_with_two_chords(self, capsys, monkeypatch):
        # the lcm lattice has 64 + 62 + 1 elements: polynomial, not 2^62
        edges = [(i, i + 1) for i in range(1, 62)] + [(1, 62), (1, 31), (2, 40)]
        text = "62\n" + "\n".join(f"{i} {j}" for i, j in edges)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        start = time.perf_counter()
        code = run(["betti", "-", "--format", "edge-list", "--json"])
        elapsed = time.perf_counter() - start
        assert code == 0
        doc = json.loads(capture(capsys)[0])
        assert doc["betti"]["entries"] == {"0,60": 64, "1,61": 66, "2,62": 3}
        assert elapsed < 10

    def test_n62_complete_graph(self, capsys, monkeypatch):
        # 1,954 lattice elements: the 1,891 generators, the [n] - v and [n]
        monkeypatch.setattr("sys.stdin", io.StringIO(edge_list_text(complete(62))))
        code = run(["betti", "-", "--format", "edge-list", "--json"])
        assert code == 0
        doc = json.loads(capture(capsys)[0])
        assert doc["betti"]["entries"] == {"0,60": 1891, "1,61": 3720, "2,62": 1830}

    @pytest.mark.parametrize("command, seconds", [("betti", 1), ("analyze", 10)])
    def test_cross_check_above_the_oracle_limit_exits_two(
        self, capsys, monkeypatch, command, seconds
    ):
        # the oracle refuses n > 14 at once, before any table
        monkeypatch.setattr("sys.stdin", io.StringIO(cycle_with_two_chords(62)))
        start = time.perf_counter()
        code = run([command, "-", "--format", "edge-list", "--json", "--cross-check"])
        elapsed = time.perf_counter() - start
        out, err = capture(capsys)
        assert code == 2 and out == ""
        assert "n <= 14" in err and "n = 62" in err
        assert elapsed < seconds

    @pytest.mark.parametrize(
        "text, field",
        [
            (cycle_with_two_chords(14), "2"),
            # the heaviest graph at the limit: 106 nonfaces, 364 facets
            (edge_list_text(complete(14)), "q"),
        ],
        ids=["cycle14-gf2", "K14-qq"],
    )
    def test_cross_check_at_the_oracle_limit(self, capsys, monkeypatch, text, field):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = run(
            ["betti", "-", "--format", "edge-list", "--field", field, "--json", "--cross-check"]
        )
        assert code == 0
        assert json.loads(capture(capsys)[0])["oracle_matches"] is True

    def test_analyze_refuses_the_oracle_before_analyzing(self, capsys, monkeypatch):
        def analyze_graph(*args):
            raise AssertionError("analyzed a graph the oracle refuses")

        monkeypatch.setattr("compedge.classify.analyze_graph", analyze_graph)
        monkeypatch.setattr("sys.stdin", io.StringIO(cycle_with_two_chords(62)))
        code = run(["analyze", "-", "--format", "edge-list", "--cross-check"])
        out, err = capture(capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "n <= 14" in err and "n = 62" in err

    def test_betti_refuses_the_oracle_before_the_table(self, capsys, monkeypatch):
        def koszul_betti(*args):
            raise AssertionError("computed a table the oracle refuses")

        monkeypatch.setattr("compedge.cli.koszul_betti", koszul_betti)
        monkeypatch.setattr("sys.stdin", io.StringIO(cycle_with_two_chords(15)))
        code = run(["betti", "-", "--format", "edge-list", "--cross-check"])
        out, err = capture(capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "n <= 14" in err and "n = 15" in err

    def test_rational_oracle_at_the_limit(self, capsys, monkeypatch):
        # the bound separates the full reduction of the faces outside one
        # vertex's star (about 0.04 s on a 2-core machine) from one that
        # pivots every row of the whole complex (11-13 s there)
        homology._dims.cache_clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(cycle_with_two_chords(14)))
        start = time.perf_counter()
        code = run(
            ["betti", "-", "--format", "edge-list", "--field", "q", "--json", "--cross-check"]
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert json.loads(capture(capsys)[0])["oracle_matches"] is True
        assert elapsed < 5


class TestDual:
    def test_split(self, capsys):
        assert run(["dual", "C~", "--json"]) == 0
        out, _ = capture(capsys)
        doc = json.loads(out)
        assert doc["from_nonedges"] == []
        assert len(doc["from_triangles"]) == 4

    def test_analyze_lists_the_dual_in_the_same_order(self, capsys):
        assert run(["dual", "Dto", "--json"]) == 0
        dual = json.loads(capture(capsys)[0])
        assert run(["analyze", "Dto", "--json"]) == 0
        block = json.loads(capture(capsys)[0])["alexander_dual"]
        assert dual["from_triangles"] == ["x1*x2*x5", "x1*x3*x4"]
        for key in ("generators", "from_nonedges", "from_triangles"):
            assert block[key] == dual[key]


class TestOrder:
    def test_connected(self, capsys):
        assert run(["order", "C^", "--json"]) == 0  # connected: K4 minus one edge
        doc = json.loads(capture(capsys)[0])

        def mask(variables):
            return mask_of(int(x[1:]) for x in variables)

        cert = MonomialOrderCert(
            tuple(mask(monomial.split("*")) for monomial in doc["order"]),
            tuple(map(mask, doc["colon_steps"])),
        )
        assert cert.is_valid_for(complementary_edge_ideal(parse_graph("C^")))

    def test_disconnected_witness(self, capsys):
        assert run(["order", "C`"]) == 0
        out, _ = capture(capsys)
        assert "NoOrderExists" in out
        assert "{1,2}" in out and "{3,4}" in out

    def test_json_disconnected(self, capsys):
        assert run(["order", "C`", "--json"]) == 0
        out, _ = capture(capsys)
        doc = json.loads(out)
        assert doc["order"] is None
        assert doc["components"] == [[1, 2], [3, 4]]


class TestSweepCommand:
    def test_corrected_exit_zero(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        assert run(["sweep", "--n", "4..4", "--out", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["graph_count"] == 41
        assert doc["mismatches"] == []
        assert "wall" not in json.dumps(doc)

    def test_paper_literal_exit_three(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code = run(
            [
                "sweep",
                "--n",
                "4..4",
                "--mode",
                "paper-literal",
                "--out",
                str(out_file),
            ]
        )
        assert code == 3
        doc = json.loads(out_file.read_text())
        assert [m["graph6"] for m in doc["mismatches"]] == ["C~"]

    def test_bad_range_exit_two(self, capsys):
        assert run(["sweep", "--n", "3..4"]) == 2

    def test_n7_exit_two(self, capsys):
        assert run(["sweep", "--n", "6..7"]) == 2
        _, err = capture(capsys)
        assert "4 <= n_min <= n_max <= 6" in err

    def test_unwritable_out_exit_two(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "x.json"
        assert run(["sweep", "--n", "4..4", "--out", str(out_file)]) == 2
        _, err = capture(capsys)
        assert "error: " in err and str(out_file) in err

    def test_unparsable_range_is_a_usage_error(self, capsys):
        assert run(["sweep", "--n", "four"]) == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_is_a_usage_error(self, capsys, workers):
        assert run(["sweep", "--n", "4..4", "--workers", workers]) == 1
        _, err = capture(capsys)
        assert "--workers must be at least 1" in err


class TestCensusCommand:
    def test_n4(self, capsys):
        assert run(["census", "--n", "4", "--json"]) == 0
        out, _ = capture(capsys)
        assert len(json.loads(out)) == 3

    def test_n8_is_rejected_at_once(self, capsys):
        assert run(["census", "--n", "8"]) == 2
        _, err = capture(capsys)
        assert "4 <= n_min <= n_max <= 6" in err

    def test_n7_is_rejected_at_once(self, monkeypatch, capsys):
        def enumerate_nothing(n):
            raise AssertionError("enumerated graphs")

        monkeypatch.setattr("compedge.classify.edge_mask_orbits", enumerate_nothing)
        assert run(["census", "--n", "7"]) == 2
        _, err = capture(capsys)
        assert "4 <= n_min <= n_max <= 6" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert run(["analyze", "C`", "--wat"]) == 1

    def test_missing_subcommand(self, capsys):
        assert run([]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["betti", "C~", "--mode", "corrected"],
            ["dual", "C~", "--field", "3"],
            ["dual", "C~", "--mode", "corrected"],
            ["dual", "C~", "--cross-check"],
            ["order", "C^", "--field", "3"],
            ["order", "C^", "--mode", "corrected"],
            ["order", "C^", "--cross-check"],
            ["census", "--n", "4", "--mode", "corrected"],
            ["census", "--n", "4", "--cross-check"],
            ["sweep", "--n", "4..4", "--json"],
            ["sweep", "--n", "4..4", "--text"],
        ],
    )
    def test_options_a_command_does_not_read_are_rejected(self, capsys, argv):
        assert run(argv) == 1


# sha256 of stdout; the graphs are two triangles joined by an edge, the
# 5-cycle, and the path P4 plus a disjoint edge
PINNED_OUTPUTS = {
    "ExCW": (
        "9c5cc5519229212bc7a572d0b5a31d40001520b32719e90df537b84386757870",
        "c05f607d57301976564e56b011cf7c9a68e11ee16221609c9763b2f56012cf62",
        "c09dc87990fff21027be53ceb17a4ac0152a402a1e134bbfa9bb0f6fdbd52876",
        "ea0ba22773f8d8885570642f99e5e1bfec3673dce24b6adba1ce6d7409c2bf1b",
    ),
    "Dhc": (
        "1cafd517613a95533cab6fc8c551e5d73dab475110fda30ef1cba47ae2450e47",
        "795718b626a318eb286742be18e8bd491459f2a474cbec82c411cec93bc3c2b2",
        "c12a17d06a96545543ef50f7c05fd231cba38a31efeaf547e486f8a15d5a5b8a",
        "efb13f6bb9a5a926dc1362963dfafc38ee442cc706f408710fb0c133c5854d92",
    ),
    "Eh?G": (
        "a69b2c1f13cbd267dd0cbf19c82fc26c8505db75ae4e4ccd0b328a9d129e189b",
        "9b2bfbb848190a53c693df526c5ff84d9792deb1e2c11629a2a366414ae80e52",
        "10e0abe7d43e57ba97a0e5a5615325003f792f115b410e24a0ddf6d2279bdf4d",
        "f38429898f7d25cbb52a7fa671712c70c12ac360eb166458eb69107825243d10",
    ),
}
PINNED_COMMANDS = (
    ["analyze", "--json"],
    ["analyze", "--text", "--cross-check"],
    ["betti", "--field", "q", "--cross-check", "--json"],
    ["dual", "--json"],
)


# sha256 of stdout for the commands whose JSON has no indent: a connected
# graph (K4 minus an edge), a disconnected one, and the 10-cycle plus the
# chords (1, 5) and (2, 8); then the Gorenstein census
PINNED_COMPACT_OUTPUTS = {
    ("order", "C^", "--json"):
        "db319d9f61159db1984dc6bedbea3cc2a5d115e19458f508331726385431895e",
    ("order", "C^", "--text"):
        "8fef3f00e093555bba3bf93cf9104b6c305b6d7357c20dd2e130a097e3283f06",
    ("order", "C`", "--json"):
        "421bae9da37a7fc49114dd2153f375603c68f85579ae640e088094db0b459e2d",
    ("order", "C`", "--text"):
        "6b586c85adf044b14a3b479cbd58890d32700a53c1986185b0a636ff736b4909",
    ("order", "IhcGIC@_G", "--json"):
        "1316472e418718c7b85702c4eabcc772579abafb2e285c8e51067d5849fbbe2e",
    ("order", "IhcGIC@_G", "--text"):
        "e4bfef88a05a5654d120b769acff080bb5ee548b031901ffc39785080a743336",
    ("census", "--n", "4", "--json"):
        "d56f8faf442d63fb947ea6fb23731d0d16bc6c9aaa1360b4c1889624025f060d",
    ("census", "--n", "4", "--text"):
        "71d351f1a54f44bff1f01db58cc3ff9a2200f5192021893044c35a5cdab99ba3",
    ("census", "--n", "5", "--json"):
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    ("census", "--n", "5", "--text"):
        "5dfecbf35de344dc6dc4b8a79c4e5327122b2737250403b04abf2060fbc3927f",
}


@pytest.mark.parametrize(
    "argv,digest",
    [
        ([command[0], g6, *command[1:]], digest)
        for g6, digests in PINNED_OUTPUTS.items()
        for command, digest in zip(PINNED_COMMANDS, digests)
    ]
    + [(list(argv), digest) for argv, digest in PINNED_COMPACT_OUTPUTS.items()],
)
def test_output_bytes_are_pinned(capsys, argv, digest):
    assert run(argv) == 0
    out, _ = capture(capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the indented routes the digests above leave out: the oracle
# fields over GF(3), a mismatched claim, betti without the oracle, and the
# sweep reports written with --out (the paper-literal one holds mismatches)
PINNED_INDENTED_OUTPUTS = {
    ("analyze", "ExCW", "--json", "--cross-check", "--field", "3"):
        (0, "a271819c07839438351cade9e0e9ad2bf62bac15ea689acb86e2c7217340f48e"),
    ("analyze", "Dhc", "--json", "--cross-check", "--field", "3"):
        (0, "e02bad1e9c6432b7977de1b12a62c39654fcb847a8ccd4340a3b17cf83716e4f"),
    ("analyze", "C~", "--json", "--mode", "paper-literal"):
        (3, "17d18293f4d687ddb3b9d9e1fe5861dfc98702ff89fbe2a6f18154530e41dadb"),
    ("betti", "ExCW", "--json"):
        (0, "5ba3b7eceb6a1716d3962716ed30f0bef60ad78d78cfa76f7f398f498a9e11e7"),
    ("betti", "Eh?G", "--json"):
        (0, "8bf44b7f2bff83a54ba64b025c2993bfc71424e2efabbc9824c45564ced355fc"),
}
# sha256 of stdout on 62- and 30-vertex inputs, whose minimal transversals
# Berge's update builds from thousands of intermediate sets: the 62-cycle
# with the chords (1, 31) and (2, 34), and K30
K30_GRAPH6 = "]" + "~" * 72 + "w"
CYCLE62_GRAPH6 = (
    "}hCGGC@?G?_@?@??_?G?@??C??G??G??C??@???G???_??@???@????_???G???@????C????K????"
    "G????C????@O????G?????_????@?????@??????_?????G?????@??????C??????G??????G????"
    "??C??????@???????G???????_??????@???????@????????_???????G???????@????????C???"
    "?????G????????G????????C????????@?????????G?????????_????????@?????????@_?????"
    "????_"
)
PINNED_LARGE_OUTPUTS = {
    ("dual", K30_GRAPH6, "--json"):
        "eded97bbd6dc7b78c376a83c76e207346a35d0432ff3e3a6fb78d6373e5506c2",
    ("analyze", CYCLE62_GRAPH6, "--json"):
        "ae373b8acefde94fd4ff6ca3fd0d52248484bf6006fb47a52c74fcbd5f0671c7",
}
PINNED_SWEEP_FILES = {
    "corrected":
        (0, "b261063830f149c05128a8ed9f0a7c5bc50c9d6bcffa12133fbc73b6886f645a"),
    "paper-literal":
        (3, "a0ad4cd53c9e61c671effe975bec7718c1acadc14ce7f6da85c13e32fbcf7607"),
}


@pytest.mark.parametrize("argv,expected", PINNED_INDENTED_OUTPUTS.items())
def test_indented_output_bytes_are_pinned(capsys, argv, expected):
    code = run(list(argv))
    out, _ = capture(capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == expected


@pytest.mark.parametrize(
    "argv,digest", PINNED_LARGE_OUTPUTS.items(), ids=["dual-K30", "analyze-cycle62"]
)
def test_large_output_bytes_are_pinned(capsys, argv, digest):
    assert run(list(argv)) == 0
    out, _ = capture(capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("mode,expected", PINNED_SWEEP_FILES.items())
def test_sweep_report_file_bytes_are_pinned(capsys, tmp_path, mode, expected):
    out_file = tmp_path / "report.json"
    code = run(["sweep", "--n", "4..5", "--mode", mode, "--out", str(out_file)])
    assert (code, hashlib.sha256(out_file.read_bytes()).hexdigest()) == expected


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 1 << 70


_STRINGS = st.text() | st.sampled_from(
    ["", '"', "\\", '\\"\n\t\r\x00\x1f\x7f', "\u00e9", "\u2028", "\U0001f600"]
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(1 << 80), max_value=1 << 80)
    | _STRINGS
)
# values json.dumps must lay out itself: floats (nan and inf included),
# keys that are not str, and an int subclass
_FALLBACK = st.floats() | st.sampled_from(_Level)
_LEAVES = _SCALARS | _FALLBACK
_NON_STR_KEYS = (
    st.integers() | st.sampled_from(_Level), st.booleans(), st.none()
)


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_STRINGS, children, max_size=4)
        | st.one_of(
            [st.dictionaries(keys, children, max_size=3) for keys in _NON_STR_KEYS]
        )
    )


@st.composite
def _documents(draw):
    """A recursive document, wrapped in four more containers."""
    doc = draw(st.recursive(_LEAVES, _containers, max_leaves=12))
    for _ in range(4):
        kind = draw(st.sampled_from([list, tuple, dict]))
        siblings = draw(st.lists(_LEAVES, max_size=2))
        if kind is dict:
            keys = draw(st.lists(_STRINGS, min_size=len(siblings) + 1, unique=True))
            doc = dict(zip(keys, [doc, *siblings]))
        else:
            doc = kind([*siblings, doc])
    return doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_documents())
@example(doc=[[], (), {}, [[()]], {"": {}}])
@example(doc={"a": {"b": [{"c": {1: [1.5, float("nan")], 2: {}}}]}})
@example(doc={"x": [{True: [float("inf")], False: None}, {None: -0.0}]})
@example(doc=(_Level.HIGH, {"k": [_Level.LOW, -(1 << 65)]}))
def test_dumps_writes_the_bytes_of_indented_json_dumps(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


class TestSharedParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_runs_after_errors_give_what_they_give_alone(self, capsys):
        argvs = [
            ["analyze", "ExCW", "--field", "5"],
            ["analyze", "E", "--json"],
            ["analyze", "ExCW", "--json"],
        ]
        alone = []
        for argv in argvs:
            build_parser.cache_clear()
            alone.append((run(argv), *capture(capsys)))
        build_parser.cache_clear()
        in_turn = [(run(argv), *capture(capsys)) for argv in argvs]
        assert in_turn == alone
        assert [code for code, _, _ in in_turn] == [1, 2, 0]


def test_package_exports_what_the_entry_points_use():
    # what the CLI, analyze_graph, sweep, gorenstein_census and the
    # acceptance criteria use; test-only routes live in tests/helpers.py
    exports = {
        "BettiTable", "ClassificationReport", "ConsistencyResult", "FieldSpec",
        "GF2", "GF3", "Graph", "GraphAnalysis", "MonomialOrderCert",
        "PropertyReport", "QQ", "SimplicialComplex", "SqfIdeal", "SweepReport",
        "alexander_dual", "analyze_graph", "betti_positions_check",
        "classify_graph", "complementary_edge_ideal", "connected_components",
        "emit_graph", "facet_complex",
        "find_well_ordered_cover", "gamma_complex", "gorenstein_census",
        "height", "hochster_betti", "induced_subcollection", "is_chordal",
        "is_linearly_related", "koszul_betti", "lcm_graph",
        "linear_quotient_order", "minimal_primes", "multigraded_koszul_betti",
        "parse_graph", "ring_properties", "stanley_reisner_ideal", "sweep",
        "triangles",
        "validate_standing_assumptions",
    }
    public = {
        name for name, value in vars(compedge).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == exports


def test_import_loads_neither_fractions_nor_multiprocessing():
    # both are imported where they are needed: fractions by a rational
    # pivot that leads with neither 1 nor -1, multiprocessing by a sweep
    # with workers
    src = Path(compedge.__file__).resolve().parents[1]
    code = (
        "import sys, compedge, compedge.cli; "
        "print([m for m in ('fractions', 'multiprocessing') if m in sys.modules])"
    )
    # -B: the child writes no bytecode into the checkout, as its env holds
    # no PYTHONDONTWRITEBYTECODE
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(src)},
    )
    assert proc.stdout.strip() == "[]"


class TestArgvFuzz:
    """No argv ends in an uncaught exception or an exit code outside 0-3.

    Most options come from the command's own set with valid or malformed
    values, the rest from every command's set.  ``sweep`` and ``census``
    always get a last ``--n`` that is 4 or invalid, so no call enumerates
    more than the 41 graphs on 4 vertices; ``--workers`` asks for at most
    2 processes.  ``--help`` is left out: argparse answers it with
    ``SystemExit(0)``.
    """

    VALUES = {
        "--format": ["graph6", "edge-list", "bogus", ""],
        "--field": ["2", "3", "q", "5", ""],
        "--mode": ["corrected", "paper-literal", "x"],
        "--workers": ["1", "2", "0", "-1", "x"],
        "--out": ["<file>", "<missing>", "<dir>"],
        "--n": ["4", "x"],
    }
    READS = {
        "analyze": ["--format", "--field", "--mode", "--cross-check", "--json", "--text"],
        "betti": ["--format", "--field", "--cross-check", "--json", "--text"],
        "dual": ["--format", "--json", "--text"],
        "order": ["--format", "--json", "--text"],
        "sweep": ["--workers", "--field", "--mode", "--cross-check"],
        "census": ["--field", "--json", "--text"],
    }
    ALL_FLAGS = sorted({f for flags in READS.values() for f in flags} | set(VALUES)) + [
        "--wat", "-"
    ]
    GRAPHS = ["C`", "C~", "C^", "Dto", "Bw", "C", "?", "~", "A_", "-", "",
              "4\n1 2\n2 3\n3 4", "63\n1 2", "\u00e9"]
    N_VALUES = ["4", "4..4", "3", "7", "4..7", "5..4", "x", "", "-4", "4.."]
    STDIN = ["4\n1 2\n2 3\n3 4", "C~", "", "4\n1 9", "x y"]

    @staticmethod
    @st.composite
    def argvs(draw):
        T = TestArgvFuzz
        command = draw(st.sampled_from([*T.READS, "frobnicate", None]))
        argv = [] if command is None else [command]
        if command in ("analyze", "betti", "dual", "order") and draw(st.integers(0, 9)):
            argv.append(draw(st.sampled_from(T.GRAPHS)))
        own = T.READS.get(command, []) + ["--out"]
        for _ in range(draw(st.integers(0, 4))):
            flag = draw(st.sampled_from(own if draw(st.integers(0, 5)) else T.ALL_FLAGS))
            argv.append(flag)
            if flag in T.VALUES and draw(st.integers(0, 9)):
                argv.append(draw(st.sampled_from(T.VALUES[flag])))
            elif not draw(st.integers(0, 9)):
                argv.append(draw(st.sampled_from(T.GRAPHS)))
        if command in ("sweep", "census"):
            argv += ["--n", draw(st.sampled_from(T.N_VALUES))]
        return argv

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(argv=argvs(), stdin=st.sampled_from(STDIN))
    def test_every_argv_exits_0_to_3(self, tmp_path_factory, argv, stdin):
        base = tmp_path_factory.getbasetemp() / "argv-fuzz"
        base.mkdir(exist_ok=True)
        paths = {
            "<file>": str(base / "out.txt"),
            "<missing>": str(base / "missing" / "out.txt"),
            "<dir>": str(base),
        }
        argv = [paths.get(token, token) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        # an --out that takes a graph or "-" as its file stays under base too
        cwd = os.getcwd()
        os.chdir(base)
        try:
            with mock.patch("sys.stdin", io.StringIO(stdin)), \
                    mock.patch("sys.stdout", out), mock.patch("sys.stderr", err):
                code = run(argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2, 3), (argv, code)
