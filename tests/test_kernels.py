"""Kernel contracts: refinement reaches the reference partition with
canonical cell ids, and composition shares the int objects of its second
argument."""
import random

from circulant_lab import _kernels as kern
from circulant_lab import fixtures
from circulant_lab.graphio import from_edges
from helpers import partition_of, random_cubic_graph, random_simple_graph, relabel, round_refine


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


def test_refinement_matches_the_round_reference():
    rng = random.Random(79)
    for _ in range(200):
        n = rng.randrange(1, 20)
        graph = random_simple_graph(rng, n, rng.random())
        ptr, flat = kern.build_csr(graph.adjacency)
        colors = [rng.randrange(0, max(1, n // 2)) for _ in range(n)]
        refined = kern.refine_colors(ptr, flat, colors)
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
        colors = kern.refine_colors(ptr, flat, colors)
        shared = [v for v in range(graph.n) if colors.count(colors[v]) > 1]
        if not shared:
            continue
        v = rng.choice(shared)
        got = kern.individualize(ptr, flat, colors, v)
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
    colors = kern.refine_colors(ptr, flat, [0, 0, 0, 0])
    assert colors[0] != colors[1]
    assert colors[1] == colors[2] == colors[3]


def test_refinement_is_isomorphism_invariant():
    # relabeling the vertices permutes the cell ids with them: vertex
    # images[v] of the relabeled graph gets the id that v gets, after the
    # unit refinement and after each individualization
    rng = random.Random(80)
    cases = [(fixtures.load(name), None) for name in ("petersen", "heawood", "pappus")]
    for _ in range(20):
        graph = random_simple_graph(rng, rng.randrange(2, 16), rng.random())
        cases.append((graph, [rng.randrange(0, 3) for _ in range(graph.n)]))
    for graph, colors in cases:
        n = graph.n
        colors = colors or [0] * n
        ptr, flat = kern.build_csr(graph.adjacency)
        # down to the discrete coloring, individualizing at each level the
        # first vertex in a shared cell
        levels = [kern.refine_colors(ptr, flat, colors)]
        path = []
        while True:
            last = levels[-1]
            v = next((u for u in range(n) if last.count(last[u]) > 1), None)
            if v is None:
                break
            path.append(v)
            levels.append(kern.individualize(ptr, flat, last, v))
        for _ in range(3):
            images = random_images(rng, n)
            g2 = relabel(graph, images)
            ptr2, flat2 = kern.build_csr(g2.adjacency)
            moved = [0] * n
            for v in range(n):
                moved[images[v]] = colors[v]
            got = kern.refine_colors(ptr2, flat2, moved)
            assert all(got[images[u]] == levels[0][u] for u in range(n))
            for v, level in zip(path, levels[1:]):
                got = kern.individualize(ptr2, flat2, got, images[v])
                assert all(got[images[u]] == level[u] for u in range(n))


def test_refinement_reaches_equitable_fixpoint():
    rng = random.Random(81)
    for _ in range(50):
        n = rng.randrange(1, 15)
        graph = random_simple_graph(rng, n, rng.random())
        ptr, flat = kern.build_csr(graph.adjacency)
        colors = kern.refine_colors(ptr, flat, [0] * n)
        # equitable: same-colored vertices see the same color multiset
        sigs = {}
        for v in range(n):
            sig = tuple(sorted(colors[u] for u in graph.adjacency[v]))
            sigs.setdefault(colors[v], set()).add(sig)
        assert all(len(s) == 1 for s in sigs.values())
        # idempotent on its own output
        assert kern.refine_colors(ptr, flat, colors) == colors
