"""Independent oracles and small utilities shared by the test modules.

Everything here deliberately avoids the library's stabilizer-chain and
refinement machinery so that it can serve as a cross-check on them.
"""
from itertools import permutations

from circulant_lab.graphio import Graph, from_edges


def brute_force_automorphisms(graph: Graph) -> list[tuple[int, ...]]:
    """All automorphisms by checking every bijection; fine up to n = 10."""
    adj = graph.adjacency
    edges = list(graph.edges())
    out = []
    for p in permutations(range(graph.n)):
        if all(p[v] in adj[p[u]] for u, v in edges):
            out.append(p)
    return out


def naive_backtracking_aut_count(graph: Graph) -> int:
    """Count automorphisms by extending partial bijections vertex by vertex.

    Prunes only on adjacency consistency with already-mapped vertices; no
    color refinement anywhere.  Usable a bit beyond 10 vertices.
    """
    n = graph.n
    adj = [set(nbrs) for nbrs in graph.adjacency]
    images = [-1] * n
    used = [False] * n
    count = 0

    def extend(v: int) -> None:
        nonlocal count
        if v == n:
            count += 1
            return
        for w in range(n):
            if used[w] or len(adj[v]) != len(adj[w]):
                continue
            ok = True
            for u in range(v):
                if (u in adj[v]) != (images[u] in adj[w]):
                    ok = False
                    break
            if ok:
                images[v] = w
                used[w] = True
                extend(v + 1)
                used[w] = False
        images[v] = -1

    extend(0)
    return count


def brute_force_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Isomorphism by trying every bijection; fine up to n = 8 or so."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    adj2 = g1.n and g2.adjacency
    for p in permutations(range(g1.n)):
        if all(p[v] in adj2[p[u]] for u, v in g1.edges()):
            return True
    return g1.n == 0


def spectrum_of_perms(n: int, perms) -> set[int]:
    """k-spectrum from an explicit list of automorphisms (image tuples)."""
    out = set()
    for p in perms:
        lengths = set()
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            ln, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                ln += 1
            lengths.add(ln)
        if len(lengths) == 1:
            out.add(n // lengths.pop())
    return out


def relabel(graph: Graph, images) -> Graph:
    """Apply a vertex relabeling (images[v] = new name of v)."""
    return from_edges(graph.n, [(images[u], images[v]) for u, v in graph.edges()])


def random_simple_graph(rng, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n, k): outer cycle 0..n-1, spokes i -- n+i, inner edges n+i -- n+(i+k)."""
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + k) % n))
    return from_edges(2 * n, edges)


def random_cubic_graph(rng, n: int) -> Graph:
    """A simple cubic graph on n (even) vertices from the pairing model."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])}
        if len(pairs) == 3 * n // 2 and all(a != b for a, b in pairs):
            return from_edges(n, sorted(pairs))


def round_refine(ptr, flat, colors):
    """Reference equitable refinement, by rounds of neighbour signatures.

    Each round re-colors every vertex by (own color, sorted neighbor colors
    padded with n to the maximum degree) and ranks the distinct signatures,
    until the number of cells stops growing.  Only the partition it reaches
    (the coarsest equitable one finer than the input) is a reference for the
    library's refinement; its ids follow another scheme.
    """
    n = len(ptr) - 1
    if n == 0:
        return []
    max_deg = max(ptr[i + 1] - ptr[i] for i in range(n))
    colors = list(colors)
    ncells = len(set(colors))
    while True:
        sigs = []
        for v in range(n):
            nbr = sorted(colors[flat[i]] for i in range(ptr[v], ptr[v + 1]))
            nbr.extend([n] * (max_deg - len(nbr)))
            sigs.append((colors[v], *nbr))
        rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == ncells:
            return colors
        ncells = len(rank)


def partition_of(colors) -> set[frozenset[int]]:
    """The cells of a coloring, as a set of vertex sets."""
    cells: dict[int, set[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, set()).add(v)
    return {frozenset(cell) for cell in cells.values()}
