"""Core graph type plus the corpus file formats (edge list, graph6).

Graphs are finite, simple and undirected, with 0-indexed vertices and sorted
neighbor lists.  Parsers are strict: duplicate edges and loops are hard
errors rather than silently merged, since corpus hygiene feeds directly into
scan results.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from circulant_lab import _kernels as kern
from circulant_lab._bfs import reach
from circulant_lab.errors import (
    BadCharacter,
    DuplicateEdge,
    LoopEdge,
    MalformedHeader,
    TruncatedBits,
    VertexOutOfRange,
)

GRAPH6_HEADER = ">>graph6<<"

# Largest vertex count an edge-list header may declare.  from_edges still
# stores one reference per declared vertex, so a short file must not ask for
# more.  graph6 needs no limit: its body length grows with n^2 and is
# checked first.
MAX_ORDER = 2 ** 20


@dataclass(frozen=True)
class Graph:
    """Adjacency by sorted per-vertex neighbor tuples.

    The graph's CSR arrays (``csr``), its edge index (``edge_index``), its
    breadth-first walk from vertex 0 (``walk_from_0``) and its degree test
    (``cubic``) are computed on first use and kept with it, so every
    search, automorphism check, connectivity and degree test on one Graph
    object shares one copy of each.  They are not fields: equality and
    hashing read the adjacency alone.  The edge index holds a frozenset per
    vertex and two gathers over the edges, about 0.3 MB at n = 1350 with
    degree 3, and is built only once something checks an automorphism.
    """

    adjacency: tuple[tuple[int, ...], ...]

    @cached_property
    def csr(self) -> tuple[list[int], list[int]]:
        """(ptr, flat) from _kernels.build_csr; read-only by convention."""
        return kern.build_csr(self.adjacency)

    @cached_property
    def edge_index(self) -> tuple:
        """The index _kernels.preserves_edges reads, from
        _kernels.build_edge_index; read-only by convention."""
        return kern.build_edge_index(self.adjacency)

    @cached_property
    def walk_from_0(self) -> list[int]:
        """Vertex 0's component in FIFO order from 0 (_bfs.reach), empty
        for the null graph; read-only by convention.  is_connected and the
        search's vertex order (aut.bfs_order) both read it."""
        return reach(0, self.adjacency.__getitem__) if self.adjacency else []

    @cached_property
    def cubic(self) -> bool:
        """True iff every vertex has degree 3; is_cubic reads it."""
        return all(len(nbrs) == 3 for nbrs in self.adjacency)

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (u, v) with u < v, in lexicographic order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """All ordered pairs of adjacent vertices."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                yield (u, v)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph, validating simplicity.

    Neighbour sets exist only for vertices that occur in an edge; isolated
    vertices share the empty tuple, so memory follows the edges, not n.
    """
    adj: list[set[int] | None] = [None] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        nbrs = adj[u]
        if nbrs is None:
            nbrs = adj[u] = set()
        elif v in nbrs:
            raise DuplicateEdge(f"duplicate edge ({u}, {v})")
        nbrs.add(v)
        if adj[v] is None:
            adj[v] = {u}
        else:
            adj[v].add(u)
    return Graph(tuple(() if s is None else tuple(sorted(s)) for s in adj))


# The only characters that separate tokens or pad a line, in both formats:
# str.split() and str.strip() would also take Unicode and ASCII control
# separators, so "2 1\u20280 1" would read as two lines.
BLANKS = " \t"
_NUMBER_LINE = BLANKS + "0123456789"


def text_lines(text: str) -> list[str]:
    """The lines of a file's text: each ends at "\n", and one "\r" before it
    is dropped with it.  No other character ends a line (str.splitlines()
    would also end one at "\x0b", "\x1c", "\u2028" and others)."""
    return text.replace("\r\n", "\n").split("\n")


def _number_pair(line: str, form: str) -> tuple[int, int]:
    """The two numbers of a header or edge line, which may hold ASCII
    decimal digits and BLANKS alone: int() would also take signs,
    underscores and non-ASCII digits, so "3 1_0" would promise 10 edges,
    and str.split() would also split at other separators."""
    parts = line.split()
    if len(parts) == 2 and not line.strip(_NUMBER_LINE):
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:  # more digits than int() converts
            pass
    raise MalformedHeader(f"expected {form!r}, got {line!r}")


def parse_edgelist(text: str) -> Graph:
    """Parse the exact edge-list format: header "n m", then m lines "u v".
    Lines are text_lines; a line of BLANKS alone is skipped."""
    lines = [ln for ln in text_lines(text) if ln.strip(BLANKS)]
    if not lines:
        raise MalformedHeader("empty input")
    n, m = _number_pair(lines[0], "n m")
    if n > MAX_ORDER:
        raise MalformedHeader(f"n = {n} exceeds the vertex limit {MAX_ORDER}")
    if len(lines) - 1 != m:
        raise MalformedHeader(f"header promises {m} edges, got {len(lines) - 1} lines")
    return from_edges(n, [_number_pair(ln, "u v") for ln in lines[1:]])


def to_edgelist_text(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def _graph6_decode_n(line: str) -> tuple[int, int]:
    """Return (n, index of first adjacency char)."""
    vals = [ord(ch) - 63 for ch in line]
    for i, v in enumerate(vals):
        if not 0 <= v <= 63:
            raise BadCharacter(f"byte {ord(line[i])} at position {i}")
    if not vals:
        raise TruncatedBits("empty graph6 string")
    if vals[0] != 63:
        return vals[0], 1
    if len(vals) < 4:
        raise TruncatedBits("truncated long-form vertex count")
    if vals[1] != 63:
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        return n, 4
    if len(vals) < 8:
        raise TruncatedBits("truncated long-long-form vertex count")
    n = 0
    for v in vals[2:8]:
        n = (n << 6) | v
    return n, 8


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (optional '>>graph6<<' header tolerated),
    padded by BLANKS and ended by its line ending at most."""
    s = line.strip(BLANKS + "\r\n")
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    n, start = _graph6_decode_n(s)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = s[start:]
    if len(body) < nchars:
        raise TruncatedBits(f"need {nchars} adjacency chars, got {len(body)}")
    if len(body) > nchars:
        raise BadCharacter(f"{len(body) - nchars} trailing chars after adjacency bits")
    # _graph6_decode_n has checked every character; six bits per character,
    # most significant first, and zip drops the padding
    bits = ((ord(ch) - 63) >> shift & 1 for ch in body for shift in range(5, -1, -1))
    # upper triangle, column-major: (0,1), (0,2), (1,2), (0,3), ...
    pairs = ((row, col) for col in range(1, n) for row in range(col))
    return from_edges(n, [pair for pair, bit in zip(pairs, bits) if bit])


def _graph6_encode_n(n: int) -> str:
    """The vertex count in the short (n <= 62), long (18 bits) or long-long
    (36 bits) form that _graph6_decode_n reads.  The long form stops at
    258047, where its first character would be the long-long marker."""
    if n <= 62:
        return chr(n + 63)
    prefix, width = ("~", 18) if n <= 258047 else ("~~", 36)
    return prefix + "".join(chr((n >> s & 63) + 63) for s in range(width - 6, -1, -6))


def to_graph6_line(graph: Graph) -> str:
    """Encode as graph6 (no header)."""
    n = graph.n
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    # upper triangle, column-major: (0,1), (0,2), (1,2), (0,3), ...; six
    # bits per character, most significant first
    for row, col in graph.edges():
        bit = col * (col - 1) // 2 + row
        body[bit // 6] |= 32 >> bit % 6
    return _graph6_encode_n(n) + "".join(chr(val + 63) for val in body)


def serialize(graph: Graph, fmt: str) -> str:
    if fmt == "edgelist":
        return to_edgelist_text(graph)
    if fmt == "graph6":
        return to_graph6_line(graph)
    raise ValueError(f"unknown format {fmt!r}")


def is_connected(graph: Graph) -> bool:
    return len(graph.walk_from_0) == graph.n


def is_cubic(graph: Graph) -> bool:
    return graph.cubic


def girth(graph: Graph) -> int | None:
    """Length of a shortest cycle, or None for a forest."""
    best: int | None = None
    for root in range(graph.n):
        dist = {root: 0}
        parent = {root: -1}
        order = [root]
        for v in order:  # order grows while it is walked: it is the FIFO queue
            if best is not None and dist[v] * 2 >= best:
                continue
            for u in graph.adjacency[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    parent[u] = v
                    order.append(u)
                elif u != parent[v]:
                    cyc = dist[v] + dist[u] + 1
                    if best is None or cyc < best:
                        best = cyc
    return best
