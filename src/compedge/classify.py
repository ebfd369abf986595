"""Graph classification predictions, per-graph verification, and sweeps.

``classify_graph`` predicts every algebraic property from graph structure
alone; ``analyze_graph`` computes the same properties from scratch through
the ideal, complex, homology and Betti layers, keeping every object it
built, and reports each claim as match or mismatch in its
``consistency`` field.  ``sweep`` runs the verification over every
labeled graph without isolated vertices in a vertex range, one analysis
per isomorphism class: ``edge_mask_orbits`` groups the edge masks into
S_n orbits, every claim is invariant under relabeling, and only a class
that fails is expanded to its labeled members.

Two prediction modes exist for the projective dimension and regularity
pair.  The literal reading places complete graphs at (1, n-2); the
corrected mode places them at (2, n-2), which is what the computed tables
give (complete graphs have height 3, so their quotients are
Cohen-Macaulay with pd(S/I) = 3).  Corrected is the default; the literal
mode is kept so the discrepancy stays visible.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from itertools import combinations, permutations

from . import graphs as g
from . import ideals as idl
from .betti import (
    BettiTable,
    PropertyReport,
    betti_positions_check,
    is_gorenstein,
    koszul_betti,
    ring_properties,
)
from .complexes import gamma_complex, stanley_reisner_ideal
from .graphs import Graph, emit_graph, facet_holders, iter_bits, vertices_of
from .homology import GF2, GF3, QQ, FieldSpec

MODE_CORRECTED = "corrected"
MODE_PAPER_LITERAL = "paper-literal"
MODES = (MODE_CORRECTED, MODE_PAPER_LITERAL)


@dataclass
class ClassificationReport:
    n: int
    mode: str
    connected: bool
    complete: bool
    forest: bool
    tree: bool
    chordal: bool
    triangle_free: bool
    disjoint_union_of_edges: bool
    component_count: int
    has_cycle: bool
    unmixed: bool
    sequentially_cm: bool
    cohen_macaulay: bool
    gorenstein: bool
    linear_resolution: bool
    pure_resolution: bool
    level: bool
    pd: int
    reg: int

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def classify_graph(G: Graph, mode: str = MODE_CORRECTED) -> ClassificationReport:
    """Predict every property of the graph's ideal from graph shape alone."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    g.validate_standing_assumptions(G)
    n = G.n
    comps = g.connected_components(G)
    connected = len(comps) == 1
    complete = g.is_complete(G)
    forest = G.edge_count() == n - len(comps)
    tree = connected and forest
    chordal = g.is_chordal(G)
    triangle_free = next(g.iter_triangles(G.adj), None) is None
    duoe = g.is_disjoint_union_of_edges(G)
    if tree or (complete and mode == MODE_PAPER_LITERAL):
        pd, reg = 1, n - 2
    elif complete:
        pd, reg = 2, n - 2
    elif forest:
        pd, reg = 1, n - 1
    elif connected:
        pd, reg = 2, n - 2
    else:
        pd, reg = 2, n - 1
    return ClassificationReport(
        n=n,
        mode=mode,
        connected=connected,
        complete=complete,
        forest=forest,
        tree=tree,
        chordal=chordal,
        triangle_free=triangle_free,
        disjoint_union_of_edges=duoe,
        component_count=len(comps),
        has_cycle=not forest,
        unmixed=complete or triangle_free,
        sequentially_cm=chordal,
        cohen_macaulay=complete or forest,
        gorenstein=duoe and len(comps) == 2,
        linear_resolution=connected,
        pure_resolution=connected or duoe,
        level=complete or tree or duoe,
        pd=pd,
        reg=reg,
    )


def _masks_json(masks) -> list[list[int]]:
    return [list(vertices_of(m)) for m in masks]


@dataclass
class ConsistencyResult:
    graph6: str
    field: str
    mode: str
    claims: dict[str, dict]

    @property
    def mismatches(self) -> list[tuple[str, object, object]]:
        return [
            (name, c["predicted"], c["computed"])
            for name, c in self.claims.items()
            if not c["match"]
        ]

    def all_match(self) -> bool:
        return all(c["match"] for c in self.claims.values())

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def _lcm_graph_matches_line_graph(I: idl.SqfIdeal, adj: tuple[int, ...]) -> bool:
    """Whether ``adj`` holds the line graph's rows: generator k is adjacent
    to the generators whose edges (the complements) meet edge k."""
    full = (1 << I.n) - 1
    edges = [full ^ s for s in I.gens]
    holders = facet_holders(edges)  # each vertex's incident edges
    predicted = []
    for k, e in enumerate(edges):
        u, v = vertices_of(e)
        predicted.append((holders[u - 1] | holders[v - 1]) ^ 1 << k)
    return tuple(predicted) == adj


def _forest_betti_shape(table: BettiTable, n: int, c: int, duoe: bool) -> tuple[dict, dict]:
    predicted = {
        "rank_0": n - c,
        "top_shift_nonzero": True,
        "middle_shift_nonzero": not duoe,
        "other_positions": [],
    }
    allowed = {(0, n - 2), (1, n - 1), (1, n)}
    computed = {
        "rank_0": table.rank(0, n - 2),
        "top_shift_nonzero": table.rank(1, n) != 0,
        "middle_shift_nonzero": table.rank(1, n - 1) != 0,
        "other_positions": sorted(set(table.entries) - allowed),
    }
    return predicted, computed


@dataclass
class GraphAnalysis:
    """Every object computed for one graph, each built exactly once."""

    graph: Graph
    ideal: idl.SqfIdeal
    dual: idl.SqfIdeal
    table: BettiTable
    properties: PropertyReport
    classification: ClassificationReport
    consistency: ConsistencyResult


def analyze_graph(
    G: Graph,
    field: FieldSpec = GF2,
    mode: str = MODE_CORRECTED,
) -> GraphAnalysis:
    """Compute everything honestly and compare with the predictions."""
    cls = classify_graph(G, mode)
    I = idl.complementary_edge_ideal(G)
    dual = idl.alexander_dual(I)
    table = koszul_betti(I, field)
    props = ring_properties(table, dual)
    n = G.n

    claims: dict[str, dict] = {}

    def add(name: str, predicted, computed) -> None:
        claims[name] = {
            "predicted": predicted,
            "computed": computed,
            "match": predicted == computed,
        }

    predicted_primes = g.nonedge_masks(G) + g.triangles(G)  # the canonical order
    add("minimal_primes", _masks_json(predicted_primes), _masks_json(dual.gens))
    add("height", 3 if cls.complete else 2, min(p.bit_count() for p in dual.gens))
    add("unmixed", cls.unmixed, props.unmixed)
    # the dual's generators are the minimal primes: one comparison, two names
    claims["alexander_dual"] = claims["minimal_primes"]
    involution = idl.alexander_dual(dual)
    add("dual_involution", True, involution == I)
    # I_Gamma is the transversal ideal of Gamma's facet complements: the
    # involution already built when those are the dual's generators
    gamma = gamma_complex(G)
    same = idl.complements(G.full_mask, gamma.facets) == dual.gens
    sr = involution if same else stanley_reisner_ideal(gamma)
    add("stanley_reisner_roundtrip", True, sr == I)
    lcm_rows = idl.lcm_graph(I)
    add("lcm_graph_is_line_graph", True, _lcm_graph_matches_line_graph(I, lcm_rows))

    add("linear_resolution_iff_connected", cls.connected, props.linear_resolution)
    add(
        "linearly_related_iff_connected",
        cls.connected,
        idl.is_linearly_related(I, lcm_rows),
    )
    # u_f = [n] \ f appended to a nonempty prefix has colon generators
    # f \ e: all of f when e misses f, one variable of f when e meets f.
    # So u_f qualifies iff some earlier pair meets f, an order exists iff
    # the "meets" relation on the pairs is connected, and then the greedy
    # never gets stuck: its None proves that no order exists.
    add(
        "linear_quotients_iff_connected",
        cls.connected,
        idl.linear_quotient_order(I) is not None,
    )

    add("betti_positions", True, betti_positions_check(table))
    add(
        "pd_reg_bounds",
        True,
        1 <= table.pd <= 2 and n - 2 <= table.reg <= n - 1,
    )
    add("generator_count", G.edge_count(), table.rank(0, n - 2))
    if cls.forest and not cls.connected:
        predicted, computed = _forest_betti_shape(
            table, n, cls.component_count, cls.disjoint_union_of_edges
        )
        add("disconnected_forest_betti", predicted, computed)

    add("cohen_macaulay", cls.cohen_macaulay, props.cohen_macaulay)
    add("gorenstein", cls.gorenstein, props.gorenstein)
    add("level", cls.level, props.level)
    add("pure_resolution", cls.pure_resolution, props.pure_resolution)
    add(
        "dual_componentwise_linear_iff_chordal",
        cls.chordal,
        props.componentwise_linear_dual,
    )
    add("pd_reg", [cls.pd, cls.reg], [table.pd, table.reg])

    consistency = ConsistencyResult(
        graph6=emit_graph(G),
        field=field.label,
        mode=mode,
        claims=claims,
    )
    return GraphAnalysis(G, I, dual, table, props, cls, consistency)


@functools.cache
def edge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """0-based vertex pairs indexing the bits of an edge mask."""
    return tuple(combinations(range(n), 2))


def graph_from_edge_mask(n: int, mask: int) -> Graph | None:
    """Graph for an edge bitmask, or None if some vertex ends up isolated."""
    pairs = edge_pairs(n)
    adj = [0] * n
    for t in iter_bits(mask):
        i, j = pairs[t]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    if any(a == 0 for a in adj):
        return None
    return Graph(n, tuple(adj))


def edge_mask_orbits(n: int):
    """The orbits of S_n on the edge masks of [n], as (least mask, sorted
    members), in increasing order of the least mask.

    Each permutation of [n] becomes a table from edge bit to image bit;
    each mask not yet met has its orbit taken by applying every table.
    Exact by construction: no canonical form and no invariant hashing.
    """
    pairs = edge_pairs(n)
    index = {pair: t for t, pair in enumerate(pairs)}
    tables = [
        [1 << index[min(s[i], s[j]), max(s[i], s[j])] for i, j in pairs]
        for s in permutations(range(n))
    ]
    seen = bytearray(1 << len(pairs))
    for mask in range(len(seen)):
        if seen[mask]:
            continue
        bits = list(iter_bits(mask))
        members = sorted({sum(map(table.__getitem__, bits)) for table in tables})
        for m in members:
            seen[m] = 1
        yield mask, members


@functools.cache
def _graph_classes(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The orbits of graphs on [n] with no isolated vertex, computed once
    per process and shared, so they are immutable."""
    return tuple(
        (least, tuple(members)) for least, members in edge_mask_orbits(n)
        if graph_from_edge_mask(n, least) is not None
    )


@dataclass
class SweepReport:
    n_min: int
    n_max: int
    field: str
    mode: str
    cross_field: bool
    graph_count: int
    claim_tallies: dict[str, list[int]]
    mismatches: list[dict]
    field_disagreements: list[dict]
    wall_time_s: float

    @property
    def mismatch_count(self) -> int:
        return len(self.mismatches)

    def to_json_dict(self) -> dict:
        """Canonical report content; timing is deliberately left out so
        reruns and different worker counts serialize identically."""
        return {
            "schema": "compedge/sweep/1",
            "n_min": self.n_min,
            "n_max": self.n_max,
            "field": self.field,
            "mode": self.mode,
            "cross_field": self.cross_field,
            "graph_count": self.graph_count,
            "claim_tallies": {k: list(v) for k, v in sorted(self.claim_tallies.items())},
            "mismatches": self.mismatches,
            "field_disagreements": self.field_disagreements,
        }


_CROSS_FIELDS = (GF2, GF3, QQ)


def _verify_into(acc_tallies, acc_mismatches, result: ConsistencyResult) -> None:
    for name, claim in result.claims.items():
        tally = acc_tallies.setdefault(name, [0, 0])
        if claim["match"]:
            tally[0] += 1
        else:
            tally[1] += 1
            acc_mismatches.append(
                {
                    "graph6": result.graph6,
                    "field": result.field,
                    "claim": name,
                    "predicted": claim["predicted"],
                    "computed": claim["computed"],
                }
            )


def _cross_field_check(record: GraphAnalysis) -> list[dict]:
    own = record.table
    tables = {
        f.label: own if f == own.field else koszul_betti(record.ideal, f)
        for f in _CROSS_FIELDS
    }
    base = tables[GF2.label]
    out = []
    for label, table in tables.items():
        if table.entries != base.entries:
            out.append(
                {
                    "graph6": record.consistency.graph6,
                    "fields": [GF2.label, label],
                    "tables": [base.to_json_dict(), table.to_json_dict()],
                }
            )
    return out


def _sweep_chunk(args) -> tuple[int, dict, list, list]:
    """Verify a list of classes.  Every claim's match bit is invariant under
    relabeling, so a class whose least mask matches throughout (and, with
    ``cross_field``, agrees across fields) tallies all its members at once;
    any other class is verified member by member, so its mismatches and
    disagreements carry their labeled graph6 strings."""
    n, classes, char, mode, cross_field = args
    field = FieldSpec(char)
    count = 0
    tallies: dict[str, list[int]] = {}
    mismatches: list[dict] = []
    disagreements: list[dict] = []
    for least, members in classes:
        count += len(members)
        record = analyze_graph(graph_from_edge_mask(n, least), field, mode)
        if record.consistency.all_match() and not (
            cross_field and _cross_field_check(record)
        ):
            for name in record.consistency.claims:
                tallies.setdefault(name, [0, 0])[0] += len(members)
            continue
        for mask in members:
            record = analyze_graph(graph_from_edge_mask(n, mask), field, mode)
            if cross_field:
                disagreements.extend(_cross_field_check(record))
            _verify_into(tallies, mismatches, record.consistency)
    return count, tallies, mismatches, disagreements


def _check_vertex_range(n_min: int, n_max: int) -> None:
    """Exhaustive runs take the S_n orbits of all 2^(n(n-1)/2) edge masks:
    cap n at 6 until n = 7 (2^21 masks, 5,040 tables per orbit) has a
    measured budget."""
    if not 4 <= n_min <= n_max <= 6:
        raise ValueError(
            f"vertex range must satisfy 4 <= n_min <= n_max <= 6, got {n_min}..{n_max}"
        )


def sweep(
    n_min: int,
    n_max: int,
    field: FieldSpec = GF2,
    mode: str = MODE_CORRECTED,
    cross_field: bool = False,
    workers: int = 1,
    progress=None,
) -> SweepReport:
    """Verify every labeled graph with min degree >= 1 for each n in range,
    one analysis per isomorphism class (see :func:`_sweep_chunk`).

    The classes of each n are dealt into jobs; tallies add up and the
    mismatches and disagreements are sorted, so the report does not depend
    on the worker count.  At most one worker process per CPU and per job
    is started.  ``progress``, if given, receives one line per finished n.
    """
    _check_vertex_range(n_min, n_max)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    start = time.perf_counter()
    total = 0
    tallies: dict[str, list[int]] = {}
    mismatches: list[dict] = []
    disagreements: list[dict] = []
    for n in range(n_min, n_max + 1):
        classes = _graph_classes(n)
        njobs = min(len(classes), workers * 4)
        jobs = [
            (n, classes[i::njobs], field.characteristic, mode, cross_field)
            for i in range(njobs)
        ]
        pool_size = min(workers, len(jobs))
        if pool_size > 1:
            import multiprocessing

            with multiprocessing.Pool(pool_size) as pool:
                results = pool.map(_sweep_chunk, jobs)
        else:
            results = [_sweep_chunk(job) for job in jobs]
        for count, t, m, d in results:
            total += count
            for name, (ok, bad) in t.items():
                tally = tallies.setdefault(name, [0, 0])
                tally[0] += ok
                tally[1] += bad
            mismatches.extend(m)
            disagreements.extend(d)
        if progress is not None:
            progress(f"n={n}: done ({total} graphs so far)")
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
        wall_time_s=time.perf_counter() - start,
    )


def gorenstein_census(n: int, field: FieldSpec = GF2) -> list[str]:
    """graph6 strings of all graphs whose quotient ring is Gorenstein,
    decided once per isomorphism class."""
    _check_vertex_range(n, n)
    out = []
    for least, members in _graph_classes(n):
        I = idl.complementary_edge_ideal(graph_from_edge_mask(n, least))
        if is_gorenstein(koszul_betti(I, field), idl.height(I)):
            out.extend(emit_graph(graph_from_edge_mask(n, m)) for m in members)
    return sorted(out)
