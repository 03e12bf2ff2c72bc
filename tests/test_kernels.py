"""Kernel contracts: the compiled twins are observably identical to the pure
kernels, and composition shares the int objects of its second argument."""
import random

import pytest

from circulant_lab import _kernels as kern
from circulant_lab._kernels import build_csr, pure
from circulant_lab import fixtures
from helpers import random_simple_graph

try:
    from circulant_lab._kernels import _speedups
except ImportError:
    _speedups = None

needs_speedups = pytest.mark.skipif(_speedups is None, reason="extension not built")


def random_images(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return images


@needs_speedups
def test_permutation_primitives_agree():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randrange(0, 40)
        p = random_images(rng, n)
        assert _speedups.inverse_images(p) == pure.inverse_images(p)
        assert _speedups.is_semiregular_images(p) == pure.is_semiregular_images(p)


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


@needs_speedups
def test_adjacency_check_agrees():
    rng = random.Random(78)
    for _ in range(100):
        n = rng.randrange(1, 15)
        graph = random_simple_graph(rng, n, rng.random())
        ptr, flat = build_csr(graph.adjacency)
        images = random_images(rng, n)
        assert (_speedups.preserves_adjacency(ptr, flat, images)
                == pure.preserves_adjacency(ptr, flat, images))


@needs_speedups
def test_refinement_agrees_on_random_graphs():
    rng = random.Random(79)
    for _ in range(100):
        n = rng.randrange(1, 20)
        graph = random_simple_graph(rng, n, rng.random())
        ptr, flat = build_csr(graph.adjacency)
        colors = [rng.randrange(0, max(1, n // 2)) for _ in range(n)]
        assert (_speedups.refine_colors(ptr, flat, colors)
                == pure.refine_colors(ptr, flat, colors))


@needs_speedups
def test_refinement_agrees_on_fixtures():
    for name in fixtures.NAMES:
        graph = fixtures.load(name)
        ptr, flat = build_csr(graph.adjacency)
        colors = [0] * graph.n
        assert (_speedups.refine_colors(ptr, flat, colors)
                == pure.refine_colors(ptr, flat, colors))


def test_refinement_splits_by_degree():
    # star K(1,3): center separates from the leaves in one round
    from circulant_lab.graphio import from_edges
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    ptr, flat = build_csr(star.adjacency)
    colors = pure.refine_colors(ptr, flat, [0, 0, 0, 0])
    assert colors[0] != colors[1]
    assert colors[1] == colors[2] == colors[3]


def test_refinement_is_isomorphism_invariant():
    # cell-size multiset is preserved under relabeling
    from helpers import relabel
    rng = random.Random(80)
    for name in ("petersen", "heawood"):
        graph = fixtures.load(name)
        ptr, flat = build_csr(graph.adjacency)
        base = sorted(pure.refine_colors(ptr, flat, [0] * graph.n))
        for _ in range(3):
            images = list(range(graph.n))
            rng.shuffle(images)
            g2 = relabel(graph, images)
            ptr2, flat2 = build_csr(g2.adjacency)
            assert sorted(pure.refine_colors(ptr2, flat2, [0] * g2.n)) == base


def test_refinement_reaches_equitable_fixpoint():
    rng = random.Random(81)
    for _ in range(50):
        n = rng.randrange(1, 15)
        graph = random_simple_graph(rng, n, rng.random())
        ptr, flat = build_csr(graph.adjacency)
        colors = pure.refine_colors(ptr, flat, [0] * n)
        # equitable: same-colored vertices see the same color multiset
        sigs = {}
        for v in range(n):
            sig = tuple(sorted(colors[u] for u in graph.adjacency[v]))
            sigs.setdefault(colors[v], set()).add(sig)
        assert all(len(s) == 1 for s in sigs.values())
        # idempotent on its own output
        assert pure.refine_colors(ptr, flat, colors) == colors
