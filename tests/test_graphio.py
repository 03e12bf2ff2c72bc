"""Graph type, edge-list and graph6 codecs, fixture corpus hygiene."""
import random
import time
import tracemalloc

import pytest

from circulant_lab import fixtures
from circulant_lab.errors import (
    BadCharacter,
    DuplicateEdge,
    LoopEdge,
    MalformedHeader,
    TruncatedBits,
    VertexOutOfRange,
)
from circulant_lab.graphio import (
    MAX_ORDER,
    _graph6_decode_n,
    _graph6_encode_n,
    from_edges,
    girth,
    is_connected,
    is_cubic,
    parse_edgelist,
    parse_graph6,
    serialize,
    to_graph6_line,
)
from helpers import random_simple_graph


def test_parse_edgelist_k4():
    text = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    g = parse_edgelist(text)
    assert g.n == 4 and g.edge_count == 6
    assert is_cubic(g) and is_connected(g)


def test_parse_edgelist_single_edge():
    g = parse_edgelist("2 1\n0 1\n")
    assert g.n == 2 and g.edge_count == 1


def test_parse_edgelist_errors():
    with pytest.raises(VertexOutOfRange):
        parse_edgelist("3 1\n0 3\n")
    with pytest.raises(LoopEdge):
        parse_edgelist("3 1\n1 1\n")
    with pytest.raises(DuplicateEdge):
        parse_edgelist("3 2\n0 1\n1 0\n")
    with pytest.raises(MalformedHeader):
        parse_edgelist("nope\n")
    with pytest.raises(MalformedHeader):
        parse_edgelist("3 2\n0 1\n")  # promised 2 edges, got 1
    with pytest.raises(MalformedHeader):
        parse_edgelist("")
    with pytest.raises(MalformedHeader, match=f"{MAX_ORDER + 1}.*{MAX_ORDER}"):
        parse_edgelist(f"{MAX_ORDER + 1} 0\n")  # refused before allocating


def test_parse_memory_follows_the_file_not_the_header():
    # a 10-byte file declaring MAX_ORDER isolated vertices: neighbour sets
    # are built only for vertices in an edge
    tracemalloc.start()
    try:
        graph = parse_edgelist(f"{MAX_ORDER} 0")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert graph.n == MAX_ORDER and graph.edge_count == 0
    assert graph.adjacency[0] == graph.adjacency[-1] == ()


def test_from_edges_isolated_vertices_and_sorted_neighbours():
    graph = from_edges(6, [(4, 1), (1, 0), (4, 3)])
    assert graph.adjacency == ((1,), (0, 4), (), (4,), (1, 3), ())


def test_graph6_known_strings():
    k4 = parse_graph6("C~")
    assert k4.n == 4 and k4.edge_count == 6
    single = parse_graph6("A_")
    assert single.n == 2 and single.edge_count == 1
    empty = parse_graph6("A?")
    assert empty.n == 2 and empty.edge_count == 0


def test_graph6_header_tolerated():
    g = parse_graph6(">>graph6<<C~")
    assert g.n == 4 and g.edge_count == 6


def test_graph6_long_form():
    # n = 2 forced through the 18-bit long form: '~' '?' '?' 'A', then one
    # adjacency char with the single bit set
    g = parse_graph6("~??A_")
    assert g.n == 2 and g.edge_count == 1


def _graph6_long_form(n: int, edges) -> str:
    """graph6 in the 18-bit long form, encoded independently of the library."""
    bits = bytearray(n * (n - 1) // 2 + 5)  # padded to whole characters
    for u, v in edges:
        row, col = min(u, v), max(u, v)
        bits[col * (col - 1) // 2 + row] = 1
    body = [
        chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
        for i in range(0, len(bits) - 5, 6)
    ]
    head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    return head + "".join(body)


def test_graph6_parse_time_is_linear_in_the_line():
    # a 120 KB line: a decode that shifts one big integer per vertex pair
    # takes about 13 s on it (2-core host), a linear one well under 1 s
    n = 1200
    cycle = [(i, (i + 1) % n) for i in range(n)]
    line = _graph6_long_form(n, cycle)
    assert len(line) == 4 + (n * (n - 1) // 2 + 5) // 6
    started = time.perf_counter()
    g = parse_graph6(line)
    assert time.perf_counter() - started < 3
    assert g == from_edges(n, cycle)


def test_graph6_errors():
    with pytest.raises(BadCharacter):
        parse_graph6("C~~")  # trailing garbage
    with pytest.raises(TruncatedBits):
        parse_graph6("C")
    with pytest.raises(BadCharacter):
        parse_graph6("C\x01\x01")
    with pytest.raises(TruncatedBits):
        parse_graph6("")


def test_serialize_k4_round_trip():
    k4 = fixtures.load("k4")
    assert to_graph6_line(k4) == "C~"
    assert serialize(k4, "edgelist").startswith("4 6\n")


@pytest.mark.parametrize("n", [63, 150])
def test_serialize_long_form_round_trip(n):
    rng = random.Random(n)
    g = random_simple_graph(rng, n, 0.1)
    line = serialize(g, "graph6")
    assert line == _graph6_long_form(n, g.edges())
    assert parse_graph6(line) == g


def test_graph6_vertex_count_forms():
    # short below 63, 18-bit long form up to 258047 (above it the first
    # character would read as the long-long marker), 36-bit long-long above
    for n, width in ((0, 1), (62, 1), (63, 4), (258047, 4), (258048, 8),
                     (2 ** 36 - 1, 8)):
        head = _graph6_encode_n(n)
        assert _graph6_decode_n(head) == (n, width)


def test_round_trip_random_graphs():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randrange(1, 30)
        g = random_simple_graph(rng, n, rng.random())
        assert parse_edgelist(serialize(g, "edgelist")) == g
        assert parse_graph6(serialize(g, "graph6")) == g


def test_empty_graph_edgelist():
    g = from_edges(1, [])
    assert serialize(g, "edgelist") == "1 0\n"
    assert parse_edgelist("1 0\n") == g


def test_connectivity():
    assert is_connected(fixtures.load("k33"))
    two_k4 = from_edges(8, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                        + [(u + 4, v + 4) for u in range(4) for v in range(u + 1, 4)])
    assert not is_connected(two_k4)
    assert is_cubic(two_k4)
    assert is_connected(from_edges(0, []))
    assert not is_connected(from_edges(4, [(1, 2), (2, 3), (1, 3)]))  # vertex 0 isolated


def test_fixture_corpus_stats():
    expected = {
        "k4": (4, 6, 3),
        "k33": (6, 9, 4),
        "cube3": (8, 12, 4),
        "petersen": (10, 15, 5),
        "heawood": (14, 21, 6),
        "pappus": (18, 27, 6),
    }
    for name, (n, m, g) in expected.items():
        graph = fixtures.load(name)
        assert graph.n == n
        assert graph.edge_count == m
        assert girth(graph) == g
        assert is_cubic(graph)
        assert is_connected(graph)


def test_girth_forest():
    path = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert girth(path) is None
