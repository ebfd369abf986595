"""Simple labeled graphs on {1, ..., n} backed by vertex bitmasks.

Vertices are 1-based in every public interface.  Internally a set of
vertices is a plain ``int`` whose bit ``i - 1`` is set exactly when vertex
``i`` belongs to the set; this keeps subset tests, intersections and
complements down to single machine operations for the graph sizes we care
about (``n <= 62``, the single-byte graph6 range).
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_VERTICES = 62


class GraphError(Exception):
    """Base class for graph construction and parsing failures."""


class ParseError(GraphError):
    """Malformed textual input; ``offset`` is the UTF-8 byte position of the fault."""

    def __init__(self, message: str, before: str):
        self.offset = len(before.encode("utf-8", "replace"))  # an undecoded byte is one
        super().__init__(f"{message} (byte offset {self.offset})")


class ValidationError(GraphError):
    """Structurally invalid graph data (loops, duplicates, range errors)."""


class AmbientTooSmallError(ValidationError):
    """Fewer than four vertices; too small for the ideal constructions."""

    def __init__(self, n: int):
        super().__init__(f"need at least 4 vertices, got n={n}")
        self.n = n


class IsolatedVertexError(ValidationError):
    """Some vertex has no incident edge."""

    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex} is isolated")
        self.vertex = vertex


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of 1-based vertices in a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def iter_bits(mask: int):
    """Yield 0-based set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def facet_holders(facets) -> list[int]:
    """holders[v] is the mask of the indices of the facets holding vertex v."""
    holders = [0] * max(facets, default=0).bit_length()
    for i, f in enumerate(facets):
        while f:
            low = f & -f
            holders[low.bit_length() - 1] |= 1 << i
            f ^= low
    return holders


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable simple graph; ``adj[i]`` is the neighbor mask of vertex i+1.

    Isolated vertices and n < 4 are allowed here (complements and derived
    index graphs need them); the ideal layer enforces its own standing
    assumptions via :func:`validate_standing_assumptions`.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValidationError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValidationError("adjacency table length differs from n")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise ValidationError(f"adjacency of vertex {i + 1} leaves 1..n")
            if row >> i & 1:
                raise ValidationError(f"loop at vertex {i + 1}")
        for i in range(self.n):
            for j in iter_bits(self.adj[i]):
                if not self.adj[j] >> i & 1:
                    raise ValidationError(f"asymmetric edge {i + 1},{j + 1}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from 1-based vertex pairs; rejects loops and repeats."""
        adj = [0] * n
        seen = set()
        for i, j in edges:
            if i == j:
                raise ValidationError(f"loop at vertex {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValidationError(f"edge {i},{j} outside 1..{n}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValidationError(f"duplicate edge {key[0]},{key[1]}")
            seen.add(key)
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
        return cls(n, tuple(adj))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of edges as 1-based pairs (i, j) with i < j."""
        out = []
        for i in range(self.n):
            row = self.adj[i] >> (i + 1)
            for j in iter_bits(row):
                out.append((i + 1, i + j + 2))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def parse_graph(text: str, format: str = "graph6") -> Graph:
    """Decode a graph from ``graph6`` or ``edge-list`` text."""
    if format == "graph6":
        return _decode_graph6(text)
    if format == "edge-list":
        return _decode_edge_list(text)
    raise ValueError(f"unknown graph format {format!r}")


def _column_pairs(n: int) -> list[tuple[int, int]]:
    # graph6 bit order: upper triangle by columns, x(0,1), x(0,2), x(1,2), ...
    return [(i, j) for j in range(1, n) for i in range(j)]


def _decode_graph6(text: str) -> Graph:
    data = text.rstrip("\r\n")
    if not data:
        raise ParseError("empty graph6 input", "")
    head = ord(data[0])
    if head == 126:
        raise ParseError("multi-byte graph6 sizes (n > 62) are unsupported", "")
    if not 63 <= head <= 125:
        raise ParseError(f"invalid graph6 size byte {data[0]!r}", "")
    n = head - 63
    if n == 0:
        raise ParseError("graph6 encodes zero vertices", "")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) < 1 + nbytes:
        raise ParseError("truncated graph6 body", data)
    if len(data) > 1 + nbytes:
        raise ParseError("trailing bytes after graph6 body", data[: 1 + nbytes])
    pairs = _column_pairs(n)
    adj = [0] * n
    bitpos = 0
    for idx in range(nbytes):
        byte = ord(data[1 + idx])
        if not 63 <= byte <= 126:
            raise ParseError(f"invalid graph6 data byte {data[1 + idx]!r}", data[: 1 + idx])
        val = byte - 63
        for shift in range(5, -1, -1):
            bit = val >> shift & 1
            if bitpos >= nbits:
                if bit:
                    raise ParseError("nonzero padding bits", data[: 1 + idx])
            elif bit:
                i, j = pairs[bitpos]
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            bitpos += 1
    return Graph(n, tuple(adj))


def emit_graph(G: Graph) -> str:
    """Encode a graph as ``graph6`` text."""
    out = [chr(G.n + 63)]
    val = 0
    count = 0
    for i, j in _column_pairs(G.n):
        val = val << 1 | (G.adj[i] >> j & 1)
        count += 1
        if count == 6:
            out.append(chr(val + 63))
            val = 0
            count = 0
    if count:
        out.append(chr((val << (6 - count)) + 63))
    return "".join(out)


def _decode_edge_list(text: str) -> Graph:
    at = 0  # characters before the line
    n = None
    edges = []
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped:
            tokens = stripped.split()
            if n is None:
                if len(tokens) != 1 or not tokens[0].isdigit():
                    raise ParseError("header line must be a single vertex count", text[:at])
                try:
                    n = int(tokens[0])
                except ValueError:  # a digit int() rejects, such as "³"
                    raise ParseError("header vertex count is not a number", text[:at])
                if not 1 <= n <= MAX_VERTICES:
                    raise ValidationError(f"vertex count {n} outside 1..{MAX_VERTICES}")
            else:
                if len(tokens) != 2:
                    raise ParseError("edge line must be two vertex numbers", text[:at])
                try:
                    i, j = int(tokens[0]), int(tokens[1])
                except ValueError:
                    raise ParseError("edge line must be two vertex numbers", text[:at])
                if i == j:
                    raise ValidationError(f"loop at vertex {i}")
                if not (1 <= i < j <= n):
                    raise ValidationError(f"edge {i} {j} must satisfy 1 <= i < j <= {n}")
                edges.append((i, j))
        at += len(line)
    if n is None:
        raise ParseError("missing header line", "")
    return Graph.from_edges(n, edges)


def validate_standing_assumptions(G: Graph) -> None:
    """Require n >= 4 and minimum degree >= 1; the ideal layer's entry gate."""
    if G.n < 4:
        raise AmbientTooSmallError(G.n)
    for i, row in enumerate(G.adj):
        if row == 0:
            raise IsolatedVertexError(i + 1)


def components_within(adj, within: int) -> list[int]:
    """Vertex masks of the connected components of the subgraph that the
    bitset rows ``adj`` induce on the vertex mask ``within``, by
    increasing least vertex."""
    comps = []
    while within:
        comp = frontier = within & -within
        while frontier:
            nxt = 0
            for i in iter_bits(frontier):
                nxt |= adj[i]
            frontier = nxt & within & ~comp
            comp |= frontier
        comps.append(comp)
        within &= ~comp
    return comps


def connected_components(G: Graph) -> list[int]:
    """Vertex masks of the connected components, by increasing minimum element."""
    return components_within(G.adj, G.full_mask)


def is_complete(G: Graph) -> bool:
    full = G.full_mask
    return all(G.adj[i] == full ^ (1 << i) for i in range(G.n))


def is_disjoint_union_of_edges(G: Graph) -> bool:
    return all(row.bit_count() == 1 for row in G.adj)


def nonedge_masks(G: Graph) -> list[int]:
    """Vertex masks of all nonedges, in lexicographic (i, j) order."""
    out = []
    for i in range(G.n):
        for j in range(i + 1, G.n):
            if not G.adj[i] >> j & 1:
                out.append(1 << i | 1 << j)
    return out


def iter_triangles(adj):
    """Yield the vertex masks of the triangles of the graph with these
    adjacency rows, in lexicographic (i, j, k) order: j from row i above
    i, then k from row i & row j above j."""
    for i, row in enumerate(adj):
        for j in iter_bits(row & -(2 << i)):
            later = row & adj[j] & -(2 << j)
            while later:
                k = later & -later
                yield 1 << i | 1 << j | k
                later ^= k


def triangles(G: Graph) -> list[int]:
    """Vertex masks of all triangles, in lexicographic (i, j, k) order."""
    return list(iter_triangles(G.adj))


def elimination_order(adj) -> list[int]:
    """Reversed maximum cardinality search on the graph with these
    adjacency rows: a perfect elimination ordering, each vertex's later
    neighbours a clique, exactly when the graph is chordal
    (Tarjan-Yannakakis 1984).

    MCS visits vertices by decreasing count of visited neighbors (smallest
    index breaks ties).
    """
    n = len(adj)
    weight = [0] * n
    unvisited = (1 << n) - 1
    visit = []
    for _ in range(n):
        best = max(iter_bits(unvisited), key=weight.__getitem__)  # first of the ties
        visit.append(best)
        unvisited ^= 1 << best
        for i in iter_bits(adj[best] & unvisited):
            weight[i] += 1
    return visit[::-1]


def is_chordal(G: Graph) -> bool:
    """Whether :func:`elimination_order` is a perfect elimination
    ordering, checked directly."""
    elim = elimination_order(G.adj)
    pos = [0] * G.n
    for p, v in enumerate(elim):
        pos[v] = p
    remaining = G.full_mask
    for v in elim:
        remaining ^= 1 << v
        later = G.adj[v] & remaining
        if later:
            u = min(iter_bits(later), key=lambda w: pos[w])
            if (later ^ (1 << u)) & ~G.adj[u]:
                return False
    return True
