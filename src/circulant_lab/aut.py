"""Graph automorphisms, transitivity tests, and the arc-type classifier.

The automorphism search interleaves equitable color refinement with
backtracking over images of a BFS-ordered vertex sequence, as two loops.
The first walks the principal path once: from the refined unit coloring,
each level individualizes its target vertex (the first vertex of the
sequence in a non-singleton cell) and refines, down to the discrete leaf.
The second takes the levels deepest first and tries one vertex per
remaining orbit of the target's cell (orbit pruning against the
generators found so far); each try is a depth-first search on an explicit
stack that refines the individualized colorings and compares them, level
by level, with the stored principal path, and tests adjacency at the
leaf.  Refinement and individualization are kernels
(``_kernels.refine_colors`` for the unit coloring,
``_kernels.individualize`` below it), and only they number the cells: the
ids are canonical, so a sibling coloring is compared with the principal
one by its cell counts per id, and a leaf maps each principal vertex to
the vertex with the same id.  The targets form a base and the generators
a strong generating set, so the search returns its group with the
stabilizer chain already filled in (``PermGroup.from_chain``): |Aut| is
the product of the basic orbit lengths, with no Schreier-Sims pass, and
transversals are built only when membership or enumeration first needs
them.  Every choice point is iterated in ascending vertex order, so the
output is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

from circulant_lab import _kernels as kern
from circulant_lab import graphio
from circulant_lab._bfs import components, reach
from circulant_lab.errors import (
    GroupNotAutomorphisms,
    NotArcTransitive,
    NotCubic,
    SearchTimeout,
    StabiliserNotOfForm,
)
from circulant_lab.perm import PermGroup, Permutation

DEFAULT_NODE_CAP = 10 ** 8

_STABILISER_TO_T = {3: 0, 6: 1, 12: 2, 24: 3, 48: 4}


def bfs_order(graph: graphio.Graph) -> list[int]:
    """Vertices in BFS order from 0 (components visited by ascending root)."""
    return [v for comp in components(graph.n, graph.adjacency.__getitem__) for v in comp]


def _counts_of(colors: list[int]) -> list[int]:
    counts = [0] * (max(colors) + 1)
    for c in colors:
        counts[c] += 1
    return counts


def _orbit_of(point: int, perms: list[Permutation]) -> set[int]:
    images = [g.images for g in perms]
    return set(reach([point], lambda p: [im[p] for im in images]))


def automorphism_group(graph: graphio.Graph, node_cap: int = DEFAULT_NODE_CAP) -> PermGroup:
    """The full automorphism group of the graph, with its stabilizer chain.

    The base is the search's target vertices whose basic orbit is more than
    the target itself; the strong generators of a level are the generators
    found at that level of the search or deeper.  Every returned generator
    is verified to preserve adjacency.  node_cap bounds the number of
    refinement calls: the principal path's, one per level, and one per node
    of every sibling search.  Raises SearchTimeout when the search needs
    more.
    """
    n = graph.n
    if n == 0:
        return PermGroup(0, [])
    ptr, flat = kern.build_csr(graph.adjacency)
    base_seq = bfs_order(graph)
    nodes = 0

    def count_node() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise SearchTimeout(
                f"automorphism search exceeded its node cap (node_cap={node_cap})")

    def individualize(colors: list[int], v: int) -> list[int]:
        count_node()
        return kern.individualize(ptr, flat, colors, v)

    # the principal path: (coloring, target vertex or None at the leaf,
    # cell counts) per level, each coloring refined from its parent with
    # the parent's target individualized
    path: list[tuple[list[int], int | None, list[int]]] = []
    count_node()
    colors = kern.refine_colors(ptr, flat, [0] * n)
    while True:
        counts = _counts_of(colors)
        target = next((v for v in base_seq if counts[colors[v]] > 1), None)
        path.append((colors, target, counts))
        if target is None:
            break
        colors = individualize(colors, target)
    leaf_pos = [0] * n
    for v, c in enumerate(colors):
        leaf_pos[c] = v

    def seek(level: int, w: int) -> Permutation | None:
        """The first automorphism that fixes the targets above the level and
        maps its target to w, searched depth-first against the principal
        path below the level."""
        stack = [(level + 1, path[level][0], w)]
        while stack:
            depth, parent, v = stack.pop()
            beta = individualize(parent, v)
            alpha, target, counts = path[depth]
            if _counts_of(beta) != counts:
                continue
            if target is None:
                images = [0] * n
                for u, c in enumerate(beta):
                    images[leaf_pos[c]] = u
                if kern.preserves_adjacency(ptr, flat, images):
                    return Permutation(tuple(images))
                continue
            color = alpha[target]
            stack.extend((depth + 1, beta, u) for u in range(n - 1, -1, -1) if beta[u] == color)
        return None

    # levels deepest first: every generator found so far fixes the targets
    # above the current level, so all of them act on its target's orbit
    gens: list[Permutation] = []
    chain: list[tuple[int, int]] = []  # (base point, orbit size), deepest first
    for level in range(len(path) - 2, -1, -1):
        alpha, target, _ = path[level]
        orbit: set[int] | None = None
        for w in range(n):
            if w == target or alpha[w] != alpha[target]:
                continue
            if orbit is None:
                orbit = _orbit_of(target, gens)
            if w in orbit:
                continue
            found = seek(level, w)
            if found is not None:
                gens.append(found)
                orbit = None
        if orbit is None:
            orbit = _orbit_of(target, gens)
        if len(orbit) > 1:
            chain.append((target, len(orbit)))
    chain.reverse()
    return PermGroup.from_chain(n, gens, chain)


def is_automorphism(graph: graphio.Graph, p: Permutation) -> bool:
    """True iff p acts on the graph's vertices and maps every edge onto an edge."""
    if p.degree != graph.n:
        return False
    ptr, flat = kern.build_csr(graph.adjacency)
    return kern.preserves_adjacency(ptr, flat, list(p.images))


def check_all_automorphisms(graph: graphio.Graph, group: PermGroup) -> None:
    """Raise GroupNotAutomorphisms unless the group acts on the graph's
    vertices and every generator is an automorphism."""
    if group.degree != graph.n:
        raise GroupNotAutomorphisms(f"group degree {group.degree} differs from n = {graph.n}")
    ptr, flat = kern.build_csr(graph.adjacency)
    for g in group.generators:
        if not kern.preserves_adjacency(ptr, flat, list(g.images)):
            raise GroupNotAutomorphisms(f"generator {g} does not preserve adjacency")


def is_arc_transitive(graph: graphio.Graph, group: PermGroup) -> bool:
    """True iff the group is transitive on ordered pairs of adjacent vertices.

    Computed as the orbit of one fixed arc; vacuously true for edgeless
    graphs.  Raises GroupNotAutomorphisms if a generator breaks an edge.
    """
    check_all_automorphisms(graph, group)
    total_arcs = 2 * graph.edge_count
    if total_arcs == 0:
        return True
    images = [g.images for g in group.generators]
    orbit = reach([next(graph.arcs())], lambda uv: [(im[uv[0]], im[uv[1]]) for im in images])
    return len(orbit) == total_arcs


def tutte_type(graph: graphio.Graph, group: PermGroup | None = None) -> int:
    """Arc-type t in [0, 4]: the vertex-stabiliser has order 3 * 2^t.

    Requires a cubic, connected, arc-transitive graph.  A stabiliser order
    outside {3, 6, 12, 24, 48} is impossible for genuine inputs and raises
    StabiliserNotOfForm.
    """
    if not graphio.is_cubic(graph):
        raise NotCubic("a vertex has degree != 3")
    if not graphio.is_connected(graph):
        raise NotArcTransitive("graph is not connected")
    if group is None:
        group = automorphism_group(graph)
    if not is_arc_transitive(graph, group):
        raise NotArcTransitive("automorphism group is not transitive on arcs")
    return _arc_type(group.order(), graph.n)


def _arc_type(order: int, n: int) -> int:
    """t with order = 3 * 2^t * n, or StabiliserNotOfForm."""
    if order % n != 0:
        raise StabiliserNotOfForm(f"|Aut| = {order} not divisible by n = {n}")
    stab = order // n
    t = _STABILISER_TO_T.get(stab)
    if t is None:
        raise StabiliserNotOfForm(f"stabiliser order {stab} is not 3 * 2^t, t <= 4")
    return t


@dataclass(frozen=True)
class SymmetryProfile:
    n: int
    aut_order: int
    vertex_transitive: bool
    arc_transitive: bool
    tutte_t: int | None
    stabiliser_order: int | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "aut_order": self.aut_order,
            "vertex_transitive": self.vertex_transitive,
            "arc_transitive": self.arc_transitive,
            "tutte_t": self.tutte_t,
            "stabiliser_order": self.stabiliser_order,
        }


def symmetry_profile(graph: graphio.Graph, group: PermGroup | None = None) -> SymmetryProfile:
    """Full symmetry analysis; computes Aut if no group is supplied."""
    if group is None:
        group = automorphism_group(graph)
    order = group.order()
    vt = graph.n > 0 and len(group.orbits()) == 1
    at = is_arc_transitive(graph, group)
    stab = order // graph.n if vt else None
    t = None
    if at and graphio.is_cubic(graph) and graphio.is_connected(graph) and graph.n > 0:
        t = _arc_type(order, graph.n)
    return SymmetryProfile(graph.n, order, vt, at, t, stab)
