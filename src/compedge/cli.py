"""Command-line front end: single-graph analysis, duals, Betti tables,
quotient-order certificates, exhaustive sweeps, and the Gorenstein census.

Exit codes: 0 success (and no mismatches), 1 usage error, 2 invalid or
malformed input, 3 mismatches found (a claim or the --cross-check oracle).
"""

from __future__ import annotations

import argparse
import functools
import json
import json.encoder
import sys

from . import classify as cf
from . import ideals as idl
from .betti import check_oracle_size, hochster_betti, koszul_betti
from .graphs import GraphError, ParseError, connected_components, emit_graph, parse_graph
from .graphs import vertices_of
from .homology import GF2, GF3, QQ, FieldSpec

ANALYSIS_SCHEMA = "compedge/analysis/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_MISMATCH = 3
INPUT_MAX_CHARS = 1 << 20  # 100 times K62's edge list: an endless stdin stops here


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _field_from_flag(value: str) -> FieldSpec:
    return {"2": GF2, "3": GF3, "q": QQ}[value]


@functools.cache
def build_parser() -> _Parser:
    """Each subcommand accepts only the options its handler reads.  Built
    once per process: parsing leaves the parser as it was."""
    parser = _Parser(prog="compedge", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    names = ("analyze", "betti", "dual", "order", "sweep", "census")
    cmd = {name: subs.add_parser(name) for name in names}
    for name in ("analyze", "betti", "dual", "order"):
        cmd[name].add_argument("graph", help="graph text, or - to read stdin")
        cmd[name].add_argument(
            "--format",
            choices=["graph6", "edge-list"],
            default="graph6",
            help="input format (default graph6)",
        )
    cmd["sweep"].add_argument("--n", default="4..6", help="vertex range, e.g. 4..6")
    cmd["sweep"].add_argument("--workers", type=int, default=1)
    cmd["census"].add_argument("--n", type=int, required=True)
    for name in ("analyze", "betti", "sweep", "census"):
        cmd[name].add_argument("--field", choices=["2", "3", "q"], default="2")
    for name in ("analyze", "sweep"):
        cmd[name].add_argument("--mode", choices=cf.MODES, default=cf.MODE_CORRECTED)
    for name in ("analyze", "betti", "sweep"):
        cmd[name].add_argument("--cross-check", action="store_true")
    for name in ("analyze", "betti", "dual", "order", "census"):
        fmt = cmd[name].add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="as_json", action="store_true")
        fmt.add_argument("--text", dest="as_json", action="store_false")
        cmd[name].set_defaults(as_json=False)
    for sub in cmd.values():
        sub.add_argument("--out", default=None, help="write output to a file")
    return parser


def _load_graph(args):
    text = sys.stdin.read(INPUT_MAX_CHARS + 1) if args.graph == "-" else args.graph
    if len(text) > INPUT_MAX_CHARS:
        kept = text[:INPUT_MAX_CHARS]
        raise ParseError(f"input exceeds {INPUT_MAX_CHARS} characters", kept)
    return parse_graph(text, args.format)


def _dual_block(dual: idl.SqfIdeal) -> dict:
    """The dual's generators, all of them and split by origin, each list in
    the canonical (degree, lex) order: degree 2 from nonedges, 3 from
    triangles."""
    strings = dual.generator_strings()
    return {
        "generators": strings,
        "from_nonedges": [s for g, s in zip(dual.gens, strings) if g.bit_count() == 2],
        "from_triangles": [s for g, s in zip(dual.gens, strings) if g.bit_count() == 3],
    }


def _cross_check(payload: dict, I: idl.SqfIdeal, table) -> bool:
    """Add the Hochster oracle's table and whether it matches; return that."""
    oracle = hochster_betti(I, table.field)
    payload["betti_oracle"] = oracle.to_json_dict()
    payload["oracle_matches"] = oracle.entries == table.entries
    return payload["oracle_matches"]


def build_analysis_document(record: cf.GraphAnalysis, cross_check) -> dict:
    G = record.graph
    table = record.table
    dual_block = _dual_block(record.dual)
    doc = {
        "schema": ANALYSIS_SCHEMA,
        "input": {
            "graph6": record.consistency.graph6,
            "n": G.n,
            "edges": [list(e) for e in G.edges()],
        },
        "ideal": {"generators": record.ideal.generator_strings()},
        "minimal_primes": dual_block["generators"],
        "alexander_dual": dual_block,
        "betti": table.to_json_dict(),
        "properties": record.properties.to_json_dict(),
        "classification": record.classification.to_json_dict(),
        "consistency": record.consistency.to_json_dict(),
    }
    if cross_check:
        _cross_check(doc, record.ideal, table)
    return doc


def _render_analysis_text(doc, table_text) -> str:
    lines = [
        f"graph6: {doc['input']['graph6']}   n={doc['input']['n']}   "
        f"edges: {doc['input']['edges']}",
        "generators: " + ", ".join(doc["ideal"]["generators"]),
        "minimal primes: " + ", ".join(doc["minimal_primes"]),
        "dual (nonedges): " + ", ".join(doc["alexander_dual"]["from_nonedges"]),
        "dual (triangles): " + ", ".join(doc["alexander_dual"]["from_triangles"]),
        "",
        f"betti table over {doc['betti']['field']}:",
        table_text,
        "",
        "properties: "
        + ", ".join(f"{k}={v}" for k, v in doc["properties"].items()),
        "classification: "
        + ", ".join(f"{k}={v}" for k, v in doc["classification"].items()),
    ]
    bad = [
        name for name, c in doc["consistency"]["claims"].items() if not c["match"]
    ]
    if bad:
        lines.append("MISMATCHED CLAIMS: " + ", ".join(bad))
    else:
        lines.append("all claims match")
    if "oracle_matches" in doc:
        lines.append(f"oracle matches: {doc['oracle_matches']}")
    return "\n".join(lines)


_escape = json.encoder.encode_basestring_ascii


def _dumps(o, newline: str = "\n") -> str:
    """The bytes of ``json.dumps(o, indent=2, sort_keys=True)``.

    CPython's C encoder runs only without ``indent``, so indented output
    would go through the pure-Python one.  Here str, exact int, bool, None,
    list, tuple and str-keyed dict are laid out directly, with strings
    escaped by the C escaper ``json`` uses under ``ensure_ascii``; each
    container joins its items' texts.  Anything else (floats, other keys,
    int subclasses) is left to ``json.dumps``, re-indented to its depth.
    """
    kind = type(o)
    if kind is str:
        return _escape(o)
    if kind is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    inner = newline + "  "
    if kind is list or kind is tuple:
        if not o:
            return "[]"
        items = [_dumps(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict and all(type(k) is str for k in o):
        if not o:
            return "{}"
        items = [_escape(k) + ": " + _dumps(o[k], inner) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", newline)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _cmd_analyze(args) -> int:
    G = _load_graph(args)
    if args.cross_check:
        check_oracle_size(G.n)  # before an analysis that can take minutes
    record = cf.analyze_graph(G, _field_from_flag(args.field), args.mode)
    doc = build_analysis_document(record, args.cross_check)
    if args.as_json:
        _emit(args, _dumps(doc))
    else:
        _emit(args, _render_analysis_text(doc, record.table.render_text()))
    ok = record.consistency.all_match() and doc.get("oracle_matches", True)
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_betti(args) -> int:
    G = _load_graph(args)
    field = _field_from_flag(args.field)
    if args.cross_check:
        check_oracle_size(G.n)  # before the table: the command takes 0.3-0.5 s on K62
    I = idl.complementary_edge_ideal(G)
    table = koszul_betti(I, field)
    payload = {"graph6": emit_graph(G), "betti": table.to_json_dict()}
    matches = _cross_check(payload, I, table) if args.cross_check else True
    if args.as_json:
        _emit(args, _dumps(payload))
    else:
        text = table.render_text()
        if args.cross_check:
            text += f"\noracle matches: {matches}"
        _emit(args, text)
    return EXIT_OK if matches else EXIT_MISMATCH


def _cmd_dual(args) -> int:
    G = _load_graph(args)
    dual = idl.alexander_dual(idl.complementary_edge_ideal(G))
    payload = {"graph6": emit_graph(G), **_dual_block(dual)}
    if args.as_json:
        _emit(args, _dumps(payload))
    else:
        _emit(
            args,
            "dual generators: " + ", ".join(payload["generators"])
            + "\nfrom nonedges: " + ", ".join(payload["from_nonedges"])
            + "\nfrom triangles: " + ", ".join(payload["from_triangles"]),
        )
    return EXIT_OK


def _cmd_order(args) -> int:
    G = _load_graph(args)
    cert = idl.linear_quotient_order(idl.complementary_edge_ideal(G))
    if cert is None:
        # the greedy's None proves that no order exists for a graph's ideal
        components = [list(vertices_of(c)) for c in connected_components(G)]
        payload = {"graph6": emit_graph(G), "order": None, "components": components}
        parts = ", ".join("{" + ",".join(map(str, c)) + "}" for c in components)
        text = f"NoOrderExists: components {parts}"
    else:
        order = [idl.monomial_str(m) for m in cert.order]
        steps = [[f"x{v}" for v in step] for step in cert.colon_variables()]
        payload = {"graph6": emit_graph(G), "order": order, "colon_steps": steps}
        rendered = ["-" if not s else "(" + ",".join(s) + ")" for s in steps]
        text = "order: " + ", ".join(order) + "\ncolon steps: " + " ".join(rendered)
    _emit(args, json.dumps(payload, sort_keys=True) if args.as_json else text)
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
    else:
        lo = hi = text
    try:
        return int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"bad range {text!r}")


def _cmd_sweep(args) -> int:
    n_min, n_max = _parse_range(args.n)
    if args.workers < 1:
        raise _UsageError(f"--workers must be at least 1, got {args.workers}")
    field = _field_from_flag(args.field)
    report = cf.sweep(
        n_min,
        n_max,
        field,
        mode=args.mode,
        cross_field=args.cross_check,
        workers=args.workers,
        progress=lambda line: print(line, file=sys.stderr),
    )
    _emit(args, _dumps(report.to_json_dict()))
    print(
        f"{report.graph_count} graphs, {report.mismatch_count} mismatches, "
        f"{report.wall_time_s:.1f}s",
        file=sys.stderr,
    )
    return EXIT_MISMATCH if report.mismatches else EXIT_OK


def _cmd_census(args) -> int:
    field = _field_from_flag(args.field)
    result = cf.gorenstein_census(args.n, field)
    if args.as_json:
        _emit(args, json.dumps(result))
    else:
        _emit(args, "\n".join(result) if result else "(none)")
    return EXIT_OK


_HANDLERS = {
    "analyze": _cmd_analyze,
    "betti": _cmd_betti,
    "dual": _cmd_dual,
    "order": _cmd_order,
    "sweep": _cmd_sweep,
    "census": _cmd_census,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (GraphError, idl.IdealError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
