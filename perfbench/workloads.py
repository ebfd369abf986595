"""The benchmark's workloads: seeded inputs and the calls that run them.

Inputs are built here without the library, so the program only ever
receives graph6 strings and API arguments.  Graphs are adjacency lists of
bitmasks on vertices 0..n-1.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("sweep-n5", "analyze-gf2", "betti-qq")

GOLDEN_PATH = Path(__file__).with_name("golden.json")


# ---------------------------------------------------------------- inputs


def graph6(adj: list[int]) -> str:
    """graph6 text for n <= 62: upper triangle by columns, six bits a byte."""
    n = len(adj)
    bits = [adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
        for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def _add_edge(adj: list[int], a: int, b: int) -> None:
    adj[a] |= 1 << b
    adj[b] |= 1 << a


def is_chordal(adj: list[int]) -> bool:
    """Maximum cardinality search, then a perfect elimination check."""
    n = len(adj)
    weight = [0] * n
    order = []
    done = 0
    for _ in range(n):
        v = max((u for u in range(n) if not done >> u & 1), key=lambda u: weight[u])
        order.append(v)
        done |= 1 << v
        for u in range(n):
            if adj[v] >> u & 1:
                weight[u] += 1
    position = {v: k for k, v in enumerate(order)}
    for v in order:
        earlier = [u for u in range(n) if adj[v] >> u & 1 and position[u] < position[v]]
        if earlier:
            parent = max(earlier, key=position.__getitem__)
            rest = sum(1 << u for u in earlier if u != parent)
            if rest & ~adj[parent]:
                return False
    return True


def gnm(rng: random.Random, n: int, m: int, chordal_ok: bool = True) -> list[int]:
    """Uniform graph with m edges and no isolated vertex; with
    ``chordal_ok`` false, also conditioned on not being chordal.

    The edge count is fixed so that a family's cost varies with structure,
    not with how many edges a draw happened to get.  Chordality decides
    the cost of the dual's componentwise-linearity test (a chordal graph
    checks every degree component, any other stops at the first failing
    one), so in ``analyze-gf2`` the random graphs stay on the fast side and
    the trees and forests carry the slow side in a fixed count.
    """
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    while True:
        adj = [0] * n
        for i, j in rng.sample(pairs, m):
            _add_edge(adj, i, j)
        if all(adj) and (chordal_ok or not is_chordal(adj)):
            return adj


def _random_tree_on(rng: random.Random, adj: list[int], vertices: list[int]) -> None:
    rng.shuffle(vertices)
    for k in range(1, len(vertices)):
        _add_edge(adj, vertices[k], vertices[rng.randrange(k)])


def random_tree(rng: random.Random, n: int) -> list[int]:
    adj = [0] * n
    _random_tree_on(rng, adj, list(range(n)))
    return adj


def random_forest2(rng: random.Random, n: int) -> list[int]:
    """Two trees, each with at least two vertices, on a random split."""
    vertices = list(range(n))
    rng.shuffle(vertices)
    k = rng.randint(2, n - 2)
    adj = [0] * n
    _random_tree_on(rng, adj, vertices[:k])
    _random_tree_on(rng, adj, vertices[k:])
    return adj


def cycle_two_chords(rng: random.Random, n: int) -> list[int]:
    """A Hamiltonian cycle in random vertex order plus two distinct chords."""
    order = list(range(n))
    rng.shuffle(order)
    adj = [0] * n
    for k in range(n):
        _add_edge(adj, order[k], order[(k + 1) % n])
    chords = 0
    while chords < 2:
        a, b = rng.sample(range(n), 2)
        if not adj[a] >> b & 1:
            _add_edge(adj, a, b)
            chords += 1
    return adj


def _edges(n: int, density: float) -> int:
    return round(density * n * (n - 1) / 2)


def analyze_graphs(rng: random.Random, reduced: bool) -> list[str]:
    """Two cheap graphs at n, seven mid-cost ones at n + 1 and a tree at
    each size on top, so the median command sits mid-cluster."""
    n = 7 if reduced else 10
    big = n + 1
    out = [graph6(gnm(rng, n, n + 1, chordal_ok=False)),
           graph6(random_tree(rng, n)), graph6(random_forest2(rng, n))]
    for _ in range(2):
        for m in (big + 1, _edges(big, 0.3), _edges(big, 0.6)):
            out.append(graph6(gnm(rng, big, m, chordal_ok=False)))
    out += [graph6(random_tree(rng, big)), graph6(random_forest2(rng, big))]
    return out


def betti_graphs(rng: random.Random, reduced: bool) -> list[str]:
    """Eight small graphs and one large reference graph on top."""
    small, large = (5, 6) if reduced else (9, 10)
    out = []
    for _ in range(2):
        out += [graph6(gnm(rng, small, _edges(small, d))) for d in (0.3, 0.6)]
        out += [graph6(random_tree(rng, small)), graph6(cycle_two_chords(rng, small))]
    out.append(graph6(cycle_two_chords(rng, large)))
    return out


# ---------------------------------------------------------------- calls


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class SweepCall:
    """One ``compedge.sweep`` call; its report must match the golden digest."""

    def __init__(self, compedge, n: int, field_name: str, cross_field: bool):
        self.compedge = compedge
        self.n = n
        self.field = getattr(compedge, field_name)
        self.cross_field = cross_field
        self.label = f"sweep n={n} {field_name}" + (" cross-field" if cross_field else "")
        self.expected_count = {4: 41, 5: 768}[n]

    def run(self, tmpdir: Path):
        return self.compedge.sweep(self.n, self.n, self.field, cross_field=self.cross_field)

    def check(self, report) -> tuple[str, list[str], int]:
        """Output digest, failures, and graphs verified."""
        text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
        digest = sha256_text(text)
        problems = []
        if report.graph_count != self.expected_count:
            problems.append(f"graph_count {report.graph_count} != {self.expected_count}")
        if report.mismatches:
            problems.append(f"{len(report.mismatches)} mismatches")
        if report.field_disagreements:
            problems.append(f"{len(report.field_disagreements)} field disagreements")
        golden = json.loads(GOLDEN_PATH.read_text()).get(self.label)
        if digest != golden:
            problems.append(f"digest {digest} != golden {golden}")
        return digest, problems, report.graph_count


class CliCall:
    """One ``compedge.cli.run`` command writing JSON to a file."""

    def __init__(self, cli, argv: list[str]):
        self.cli = cli
        self.argv = argv
        self.label = " ".join(argv)

    def run(self, tmpdir: Path):
        out = tmpdir / "out.json"
        code = self.cli.run(self.argv + ["--json", "--out", str(out)])
        return code, out

    def check(self, result) -> tuple[str, list[str], int]:
        code, out = result
        if code != 0:
            return "", [f"exit code {code}"], 1
        text = out.read_text()
        out.unlink()
        doc = json.loads(text)
        problems = []
        if self.argv[0] == "analyze":
            bad = [k for k, c in doc["consistency"]["claims"].items() if not c["match"]]
            if bad:
                problems.append("mismatched claims: " + ", ".join(bad))
        if "--cross-check" in self.argv and doc.get("oracle_matches") is not True:
            problems.append("Koszul oracle disagrees")
        return sha256_text(text), problems, 1


def build_calls(workload: str, seed: int, reduced: bool = False) -> list:
    """Import the library and build the workload's calls for this seed."""
    import compedge
    from compedge import cli

    rng = random.Random(seed)
    if workload == "sweep-n5":
        n = 4 if reduced else 5
        return [
            SweepCall(compedge, n, "GF2", False),
            SweepCall(compedge, n, "GF3", False),
            SweepCall(compedge, n, "QQ", False),
            SweepCall(compedge, n, "GF2", True),
        ]
    if workload == "analyze-gf2":
        return [CliCall(cli, ["analyze", g6]) for g6 in analyze_graphs(rng, reduced)]
    if workload == "betti-qq":
        return [
            CliCall(cli, ["betti", g6, "--field", "q", "--cross-check"])
            for g6 in betti_graphs(rng, reduced)
        ]
    raise ValueError(f"unknown workload {workload!r}")
