"""Graph automorphisms, transitivity tests, and the arc-type classifier.

The automorphism search interleaves equitable color refinement with
backtracking over images of a BFS-ordered vertex sequence.  It finds
generators level by level: the subtree fixing the next target vertex is
explored first, then one coset representative per remaining orbit of the
target's cell (orbit pruning against the generators found so far).  The
targets form a base and the generators a strong generating set, so the
search returns its group with the stabilizer chain already filled in
(``PermGroup.from_chain``): |Aut| is the product of the basic orbit lengths,
with no Schreier-Sims pass, and transversals are built only when membership
or enumeration first needs them.  Every choice point is iterated in
ascending vertex order, so the output is deterministic.
"""
from __future__ import annotations

import sys
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


class _Budget:
    __slots__ = ("cap", "left")

    def __init__(self, cap: int):
        self.cap = cap
        self.left = cap

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise SearchTimeout(
                f"automorphism search exceeded its node cap (node_cap={self.cap})")


def bfs_order(graph: graphio.Graph) -> list[int]:
    """Vertices in BFS order from 0 (components visited by ascending root)."""
    return [v for comp in components(graph.n, graph.adjacency.__getitem__) for v in comp]


def _individualize(colors: list[int], v: int) -> list[int]:
    pairs = [(c, 1 if i == v else 0) for i, c in enumerate(colors)]
    rank = {s: r for r, s in enumerate(sorted(set(pairs)))}
    return [rank[s] for s in pairs]


def _orbit_of(point: int, perms: list[Permutation]) -> set[int]:
    images = [g.images for g in perms]
    return set(reach([point], lambda p: [im[p] for im in images]))


def automorphism_group(graph: graphio.Graph, node_cap: int = DEFAULT_NODE_CAP) -> PermGroup:
    """The full automorphism group of the graph, with its stabilizer chain.

    The base is the search's target vertices whose basic orbit is more than
    the target itself; the strong generators of a level are the generators
    found at that level of the search or deeper.  Every returned generator
    is verified to preserve adjacency.  Raises SearchTimeout when more than
    node_cap refinement nodes are explored.
    """
    n = graph.n
    if n == 0:
        return PermGroup(0, [])
    ptr, flat = kern.build_csr(graph.adjacency)
    budget = _Budget(node_cap)
    base_seq = bfs_order(graph)
    gens: list[tuple[int, Permutation]] = []
    chain: list[tuple[int, int, int]] = []  # (level, base point, orbit size)

    def refine(colors: list[int]) -> list[int]:
        budget.spend()
        return kern.refine_colors(ptr, flat, colors)

    def counts_of(colors: list[int]) -> list[int]:
        counts = [0] * (max(colors) + 1)
        for c in colors:
            counts[c] += 1
        return counts

    def select_target(colors: list[int], counts: list[int]) -> int | None:
        for v in base_seq:
            if counts[colors[v]] > 1:
                return v
        return None

    def leaf_mapping(alpha: list[int], beta: list[int]) -> list[int]:
        pos = [0] * n
        for w, c in enumerate(beta):
            pos[c] = w
        return [pos[c] for c in alpha]

    def seek(alpha: list[int], beta: list[int]) -> Permutation | None:
        """One automorphism consistent with the colored pair, or None."""
        counts = counts_of(alpha)
        if counts != counts_of(beta):
            return None
        t = select_target(alpha, counts)
        if t is None:
            images = leaf_mapping(alpha, beta)
            if kern.preserves_adjacency(ptr, flat, images):
                return Permutation(tuple(images))
            return None
        alpha_t = refine(_individualize(alpha, t))
        color_t = alpha[t]
        for w in range(n):
            if beta[w] != color_t:
                continue
            found = seek(alpha_t, refine(_individualize(beta, w)))
            if found is not None:
                return found
        return None

    def explore(alpha: list[int], level: int) -> None:
        """Walk the principal path (alpha equals beta), harvesting generators."""
        counts = counts_of(alpha)
        t = select_target(alpha, counts)
        if t is None:
            return
        alpha_t = refine(_individualize(alpha, t))
        explore(alpha_t, level + 1)
        color_t = alpha[t]
        orbit: set[int] | None = None
        for w in range(n):
            if w == t or alpha[w] != color_t:
                continue
            if orbit is None:
                known = [g for lvl, g in gens if lvl >= level]
                orbit = _orbit_of(t, known)
            if w in orbit:
                continue
            found = seek(alpha_t, refine(_individualize(alpha, w)))
            if found is not None:
                gens.append((level, found))
                orbit = None
        if orbit is None:
            orbit = _orbit_of(t, [g for lvl, g in gens if lvl >= level])
        if len(orbit) > 1:
            chain.append((level, t, len(orbit)))

    caller_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(caller_limit, 6 * n + 200))
    try:
        explore(refine([0] * n), 0)
    finally:
        sys.setrecursionlimit(caller_limit)
    chain.sort()
    return PermGroup.from_chain(n, [g for _, g in gens], [(t, size) for _, t, size in chain])


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
    for g in group.generators:
        if not is_automorphism(graph, g):
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
    order = group.order()
    if order % graph.n != 0:
        raise StabiliserNotOfForm(f"|Aut| = {order} not divisible by n = {graph.n}")
    stab = order // graph.n
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
        t = tutte_type(graph, group)
    return SymmetryProfile(graph.n, order, vt, at, t, stab)
