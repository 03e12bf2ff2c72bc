"""Kernel contracts: the adjacency check (and ``aut.is_automorphism`` on
top of it) agrees with an edge-set oracle on CSR arrays in any neighbour
order, refinement reaches the reference partition with canonical cell ids
and a canonical trace, a refinement checked against an expected trace
stops exactly when its own trace differs, the splitters that hit no vertex
twice split exactly as the by-count split of ``helpers.refine_by_counts``
would, individualization returns cells that match its coloring and never
modifies its parent's coloring or cells, and composition shares the int
objects of its second argument.  The cycle walk is tested through ``perm``
in ``test_perm.py``."""
import random

from circulant_lab import _kernels as kern
from circulant_lab import aut, fixtures
from circulant_lab.graphio import from_edges
from circulant_lab.perm import Permutation, identity
from helpers import (
    brute_force_automorphisms,
    cfi_graph,
    generalized_petersen,
    partition_of,
    random_cubic_graph,
    random_simple_graph,
    refine_by_counts,
    relabel,
    round_refine,
)


def random_images(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return images


def test_compose_reuses_the_int_objects_of_q():
    # n = 1000 keeps the images out of the small-int cache, so `is` tells a
    # shared object from a fresh one; a transversal of compositions then
    # costs one list slot per image, not one int object per image
    rng = random.Random(76)
    n = 1000
    p = random_images(rng, n)
    q = random_images(rng, n)
    out = kern.compose_images(p, q)
    assert all(out[i] is q[p[i]] for i in range(n))


def test_adjacency_check_matches_the_edge_set_oracle():
    # random bijections and brute-force automorphisms (n <= 8), on CSR
    # arrays built from shuffled neighbour lists: no order is assumed
    rng = random.Random(84)
    hits = misses = 0
    for trial in range(60):
        if trial % 2:
            graph = random_cubic_graph(rng, rng.choice((4, 6, 8)))
        else:
            graph = random_simple_graph(rng, rng.randrange(1, 9), rng.random())
        edges = {frozenset(e) for e in graph.edges()}
        ptr, flat = kern.build_csr([rng.sample(nbrs, len(nbrs)) for nbrs in graph.adjacency])
        autos = brute_force_automorphisms(graph)
        samples = rng.sample(autos, min(len(autos), 20))
        for images in samples + [tuple(random_images(rng, graph.n)) for _ in range(10)]:
            expected = {frozenset((images[u], images[v])) for u, v in graph.edges()} == edges
            assert kern.preserves_adjacency(ptr, flat, images) == expected
            assert aut.is_automorphism(graph, Permutation(images)) == expected
            hits += expected
            misses += not expected
        # a permutation of another degree is never an automorphism
        assert not aut.is_automorphism(graph, identity(graph.n + 1))
        assert not aut.is_automorphism(graph, identity(graph.n - 1))
    assert hits > 100 and misses > 100


def test_refinement_matches_the_round_reference():
    rng = random.Random(79)
    for _ in range(200):
        n = rng.randrange(1, 20)
        graph = random_simple_graph(rng, n, rng.random())
        ptr, flat = kern.build_csr(graph.adjacency)
        colors = [rng.randrange(0, max(1, n // 2)) for _ in range(n)]
        refined, _ = kern.refine_colors(ptr, flat, colors)
        assert partition_of(refined) == partition_of(round_refine(ptr, flat, colors))
        assert sorted(set(refined)) == list(range(len(set(refined))))


def test_individualize_matches_the_round_reference():
    # random cubic graphs keep large cells after refinement, random graphs
    # with a few input colors give uneven ones
    rng = random.Random(82)
    checked = 0
    for trial in range(200):
        if trial % 2:
            graph = random_cubic_graph(rng, 2 * rng.randrange(2, 11))
            colors = [0] * graph.n
        else:
            graph = random_simple_graph(rng, rng.randrange(2, 20), rng.random())
            colors = [rng.randrange(0, 3) for _ in range(graph.n)]
        ptr, flat = kern.build_csr(graph.adjacency)
        colors, cells = kern.refine_colors(ptr, flat, colors)
        shared = [v for v in range(graph.n) if colors.count(colors[v]) > 1]
        if not shared:
            continue
        v = rng.choice(shared)
        got, _ = kern.individualize(ptr, flat, colors, cells, v)
        split = [2 * c + (u == v) for u, c in enumerate(colors)]
        assert partition_of(got) == partition_of(round_refine(ptr, flat, split))
        assert got[v] == max(colors) + 1
        assert sorted(set(got)) == list(range(len(set(got))))
        checked += 1
    assert checked > 100


def test_refinement_splits_by_degree():
    # star K(1,3): center separates from the leaves
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    ptr, flat = kern.build_csr(star.adjacency)
    colors, _ = kern.refine_colors(ptr, flat, [0, 0, 0, 0])
    assert colors[0] != colors[1]
    assert colors[1] == colors[2] == colors[3]


def _principal_path(ptr, flat, colors):
    """Levels (coloring and cells), individualized vertices and traces down
    to the discrete coloring, individualizing at each level the first vertex
    in a shared cell; the root level has no trace."""
    n = len(colors)
    levels = [kern.refine_colors(ptr, flat, colors)]
    path = []
    traces = []
    while True:
        last, cells = levels[-1]
        v = next((u for u in range(n) if last.count(last[u]) > 1), None)
        if v is None:
            return levels, path, traces
        trace = []
        levels.append(kern.individualize(ptr, flat, last, cells, v, trace))
        assert levels[-1] == kern.individualize(ptr, flat, last, cells, v)
        path.append(v)
        traces.append(trace)


def test_refinement_is_isomorphism_invariant():
    # relabeling the vertices permutes the cell ids with them: vertex
    # images[v] of the relabeled graph gets the id that v gets, after the
    # unit refinement and after each individualization, and its refinement
    # records the same trace, so it passes the check against that trace
    rng = random.Random(80)
    cases = [(fixtures.load(name), None) for name in ("petersen", "heawood", "pappus")]
    for _ in range(20):
        graph = random_simple_graph(rng, rng.randrange(2, 16), rng.random())
        cases.append((graph, [rng.randrange(0, 3) for _ in range(graph.n)]))
    cases += [(random_cubic_graph(rng, 2 * rng.randrange(5, 13)), None) for _ in range(10)]
    for graph, colors in cases:
        n = graph.n
        colors = colors or [0] * n
        ptr, flat = kern.build_csr(graph.adjacency)
        levels, path, traces = _principal_path(ptr, flat, colors)
        for _ in range(3):
            images = random_images(rng, n)
            g2 = relabel(graph, images)
            ptr2, flat2 = kern.build_csr(g2.adjacency)
            moved = [0] * n
            for v in range(n):
                moved[images[v]] = colors[v]
            got = kern.refine_colors(ptr2, flat2, moved)
            assert all(got[0][images[u]] == levels[0][0][u] for u in range(n))
            for v, level, trace in zip(path, levels[1:], traces):
                checked = kern.individualize(ptr2, flat2, *got, images[v], expected=trace)
                recorded = []
                got = kern.individualize(ptr2, flat2, *got, images[v], recorded)
                assert all(got[0][images[u]] == level[0][u] for u in range(n))
                assert checked == got and recorded == trace
        # a trace one splitter too long or too short fails at its end
        if path:
            parent, v, trace = levels[-2], path[-1], traces[-1]
            assert kern.individualize(ptr, flat, *parent, v, expected=trace + [()]) is None
            assert kern.individualize(ptr, flat, *parent, v, expected=trace[:-1]) is None


def test_refinement_reaches_equitable_fixpoint():
    rng = random.Random(81)
    for _ in range(50):
        n = rng.randrange(1, 15)
        graph = random_simple_graph(rng, n, rng.random())
        ptr, flat = kern.build_csr(graph.adjacency)
        colors, _ = kern.refine_colors(ptr, flat, [0] * n)
        # equitable: same-colored vertices see the same color multiset
        sigs = {}
        for v in range(n):
            sig = tuple(sorted(colors[u] for u in graph.adjacency[v]))
            sigs.setdefault(colors[v], set()).add(sig)
        assert all(len(s) == 1 for s in sigs.values())
        # idempotent on its own output
        assert kern.refine_colors(ptr, flat, colors)[0] == colors


def test_trace_replays_to_the_cell_sizes():
    # starting from the parent's cell sizes with v split off, each entry
    # (id, piece sizes) splits a cell of that size, the first piece keeping
    # the id and the rest taking fresh ids in order; the replay ends at the
    # refined cell sizes, so equal traces from equal parents give equal
    # cell sizes per id
    rng = random.Random(87)
    replayed = 0
    for trial in range(60):
        if trial % 2:
            graph = random_cubic_graph(rng, 2 * rng.randrange(3, 13))
        else:
            graph = random_simple_graph(rng, rng.randrange(2, 16), rng.random())
        ptr, flat = kern.build_csr(graph.adjacency)
        levels, path, traces = _principal_path(ptr, flat, [0] * graph.n)
        for (parent, _), v, trace, (got, _) in zip(levels, path, traces, levels[1:]):
            sizes = [parent.count(c) for c in range(max(parent) + 1)]
            sizes[parent[v]] -= 1
            sizes.append(1)
            for entry in trace:
                for c, pieces in entry:
                    assert sizes[c] == sum(pieces) and len(pieces) > 1
                    sizes[c] = pieces[0]
                    sizes.extend(pieces[1:])
                    replayed += 1
            assert sizes == [got.count(c) for c in range(len(sizes))]
            assert len(sizes) == max(got) + 1
    assert replayed > 100


def test_trace_check_rejects_exactly_the_differing_traces():
    # in the root cell of random cubic graphs on 8 vertices, individualizing
    # w against v's trace returns None exactly when w's own trace differs; a
    # vertex in v's orbit (brute force) never differs, and an aborted call
    # leaves the parent coloring as it was
    rng = random.Random(86)
    aborted = 0
    for _ in range(12):
        graph = random_cubic_graph(rng, 8)
        n = graph.n
        ptr, flat = kern.build_csr(graph.adjacency)
        root, root_cells = kern.refine_colors(ptr, flat, [0] * n)
        assert root == [0] * n
        orbit = {v: {p[v] for p in brute_force_automorphisms(graph)} for v in range(n)}
        traces = []
        plain = []
        for w in range(n):
            traces.append([])
            plain.append(kern.individualize(ptr, flat, root, root_cells, w, traces[w])[0])
        for v in range(n):
            for w in range(n):
                parent = list(root)
                got = kern.individualize(ptr, flat, parent, root_cells, w, expected=traces[v])
                assert parent == root
                if w in orbit[v]:
                    assert traces[w] == traces[v]
                if traces[w] == traces[v]:
                    # equal traces give equal cell sizes per id
                    assert got[0] == plain[w]
                    assert all(got[0].count(c) == plain[v].count(c) for c in range(n))
                else:
                    assert got is None
                    aborted += w not in orbit[v]
    assert aborted > 100


def test_individualize_leaves_its_parent_as_it_was():
    # the child shares every cell's set with its parent until it splits
    # that cell: at every level of the principal path, individualizing any
    # vertex of a shared cell, with a full trace or against a truncated one
    # (an abort part-way through the refinement), must leave the parent's
    # coloring and cell sets as they were, and a completed child's cells
    # are the cells of its coloring, each under its own id
    rng = random.Random(89)
    graphs = [random_cubic_graph(rng, 2 * rng.randrange(4, 16)) for _ in range(8)]
    graphs.append(generalized_petersen(10, 3))
    calls = 0
    for graph in graphs:
        n = graph.n
        ptr, flat = kern.build_csr(graph.adjacency)
        levels, _, _ = _principal_path(ptr, flat, [0] * n)
        for colors, cells in levels:
            for v in range(n):
                if len(cells[colors[v]]) == 1:
                    continue
                snapshot = (list(colors), [set(cell) for cell in cells])
                trace = []
                got, got_cells = kern.individualize(ptr, flat, colors, cells, v, trace)
                assert (colors, cells) == snapshot
                assert {frozenset(cell) for cell in got_cells} == partition_of(got)
                assert all(got[u] == c for c, cell in enumerate(got_cells) for u in cell)
                assert kern.individualize(ptr, flat, colors, cells, v,
                                          expected=trace[:-1]) is None
                assert (colors, cells) == snapshot
                calls += 1
    assert calls > 150


def _by_kernel_and_reference(monkeypatch, call):
    """call(trace) under the kernel's refinement and then under the
    reference's (``helpers.refine_by_counts``), each with a fresh trace
    list: the two (result, trace) pairs."""
    runs = []
    for refine in (kern._refine, refine_by_counts):
        with monkeypatch.context() as m:
            m.setattr(kern, "_refine", refine)
            trace = []
            runs.append((call(trace), trace))
    return runs


def test_refinement_matches_the_by_count_reference(monkeypatch):
    # the kernel's singleton and two-piece splits against the by-count split
    # of every splitter: the same coloring, the same cell set per id and the
    # same trace at the root and for every sibling of every principal level,
    # and None for the same siblings against the principal trace and a
    # truncated one; the parent's cells, shared with each child until the
    # child splits them, are left as they were.  Random graphs with input
    # colors have splitters that hit a vertex twice (many splits into more
    # than two pieces, which only the by-count split makes); cubic graphs
    # refined from one cell have mostly singleton splitters
    rng = random.Random(90)
    cases = []
    for _ in range(30):
        graph = random_simple_graph(rng, rng.randrange(2, 17), rng.random())
        cases.append((graph, [rng.randrange(0, 3) for _ in range(graph.n)]))
    cases += [(random_cubic_graph(rng, 2 * rng.randrange(4, 21)), None) for _ in range(20)]
    cases += [(generalized_petersen(n, k), None) for n, k in ((10, 3), (13, 5), (24, 5))]
    cases.append((cfi_graph(random_cubic_graph(random.Random(12), 12)), None))
    siblings = many = aborted = 0
    for graph, colors in cases:
        n = graph.n
        ptr, flat = kern.build_csr(graph.adjacency)
        colors = colors or [0] * n
        (got, _), (want, _) = _by_kernel_and_reference(
            monkeypatch, lambda trace: kern.refine_colors(ptr, flat, colors))
        assert got == want
        levels, path, traces = _principal_path(ptr, flat, colors)
        for (parent, cells), v, principal in zip(levels, path, traces):
            snapshot = (list(parent), [set(cell) for cell in cells])
            for w in sorted(cells[parent[v]]):
                (got, trace), (want, ref_trace) = _by_kernel_and_reference(
                    monkeypatch,
                    lambda trace: kern.individualize(ptr, flat, parent, cells, w, trace))
                assert got == want and trace == ref_trace
                assert w != v or trace == principal
                many += any(len(pieces) > 2 for entry in trace for _, pieces in entry)
                for expected in (principal, principal[:-1]):
                    (got, _), (want, _) = _by_kernel_and_reference(
                        monkeypatch, lambda trace: kern.individualize(
                            ptr, flat, parent, cells, w, expected=tuple(expected)))
                    assert got == want
                    aborted += got is None
                assert (parent, cells) == snapshot
                siblings += 1
    assert siblings > 500 and many > 200 and aborted > siblings
