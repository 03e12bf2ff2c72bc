"""Graph automorphisms, transitivity tests, and the arc-type classifier.

The automorphism search interleaves equitable color refinement with
backtracking over images of a BFS-ordered vertex sequence, as two loops.
The first walks the principal path once: from the refined unit coloring,
each level individualizes its target vertex (the first vertex of the
sequence in a non-singleton cell) and refines, down to the discrete leaf.
The second takes the levels deepest first and tries the vertices of the
target's cell, skipping every vertex whose orbit under the generators found
so far holds the target or a sibling that already failed at that level
(orbit pruning; the orbits are kept in a union-find forest that each new
generator merges its cycles into).  A failed sibling w prunes its orbit
soundly: the generators fix the targets above the level, so an
automorphism that maps the target into w's orbit, composed with one of
them, would map the target to w.  Each try is a depth-first search on an
explicit stack that refines the individualized colorings against the
stored principal path, level by level, and tests adjacency at the leaf.
Refinement and individualization are kernels
(``_kernels.refine_colors`` for the unit coloring,
``_kernels.individualize`` below it), and only they number the cells.
Each principal level keeps its coloring with its cells, so a node's
individualization starts from its parent's cells and copies only the
cells its refinement splits, and a node's candidates are the members of
one cell, not a scan over all n vertices.  Each principal level also
keeps the trace of its refinement: for every splitter, the cells it split
and their piece sizes.  A sibling's refinement is checked against that
trace and abandoned at the first splitter that differs (the node
invariant of McKay and Piperno, 2014).  This is sound because refinement
is canonical: an automorphism that maps the principal vertices to a
sibling's maps each principal coloring onto the sibling's with the same
ids, and so gives the same trace; a branch whose trace differs holds no
automorphism, and pruning it changes no generator, base point or order.
Equal traces from colorings with equal cell sizes per id also give equal
cell sizes per id, so no other comparison is needed, and a leaf maps each
principal vertex to the vertex with the same id.  The targets form a base
and the generators a strong generating set, so the search returns its
group with the stabilizer chain already filled in
(``PermGroup.from_chain``): |Aut| is the product of the basic orbit
lengths, read off each level's Schreier tree with no Schreier-Sims pass,
and a coset representative is composed only when membership or
enumeration first needs it.  Every choice point is iterated in ascending
vertex order, so the output is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from circulant_lab import _kernels as kern
from circulant_lab import graphio
from circulant_lab._bfs import components
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


def _root(forest: list[int], v: int) -> int:
    """The root of v's tree in a union-find forest, halving the path."""
    while forest[v] != v:
        forest[v] = v = forest[forest[v]]
    return v


def automorphism_group(graph: graphio.Graph, node_cap: int = DEFAULT_NODE_CAP) -> PermGroup:
    """The full automorphism group of the graph, with its stabilizer chain.

    The base is the search's target vertices whose basic orbit is more than
    the target itself; the strong generators of a level are the generators
    found at that level of the search or deeper.  A sibling node is dropped
    as soon as its refinement's trace departs from the principal level's
    (see the module docstring), and every returned generator is verified
    to preserve adjacency, so the group records the graph as checked (see
    check_all_automorphisms).  A sibling whose search fails prunes its orbit
    under the generators found so far, at its level.  node_cap bounds the
    number of refinement calls: the principal path's, one per level, and
    one per node of every sibling search, aborted or not; a pruned sibling
    makes none.  Raises SearchTimeout when the search needs more.
    """
    n = graph.n
    if n == 0:
        group = PermGroup(0, [])
        group._automorphisms_of = graph
        return group
    ptr, flat = kern.build_csr(graph.adjacency)
    base_seq = bfs_order(graph)
    nodes = 0

    def count_node() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise SearchTimeout(
                f"automorphism search exceeded its node cap (node_cap={node_cap})")

    def individualize(colors: list[int], cells: list[set[int]], v: int,
                      trace: list | None = None, expected: tuple | None = None
                      ) -> tuple[list[int], list[set[int]]] | None:
        count_node()
        return kern.individualize(ptr, flat, colors, cells, v, trace, expected)

    # the principal path: (coloring, target vertex or None at the leaf,
    # refinement trace) per level, each coloring refined from its parent
    # with the parent's target individualized; the root's trace is empty.
    # path_cells holds the cells of every level above the leaf.  A vertex in
    # a singleton cell stays in one below, so the search for the next target
    # resumes where the last one stopped.
    path: list[tuple[list[int], int | None, tuple]] = []
    path_cells: list[list[set[int]]] = []
    count_node()
    colors, cells = kern.refine_colors(ptr, flat, [0] * n)
    trace: list = []
    pos = 0
    while True:
        while pos < n and len(cells[colors[base_seq[pos]]]) == 1:
            pos += 1
        target = base_seq[pos] if pos < n else None
        path.append((colors, target, tuple(trace)))
        if target is None:
            break
        path_cells.append(cells)
        trace = []
        colors, cells = individualize(colors, cells, target, trace)
    leaf_pos = [0] * n
    for v, c in enumerate(colors):
        leaf_pos[c] = v

    def seek(level: int, cells: list[set[int]], w: int) -> Permutation | None:
        """The first automorphism that fixes the targets above the level and
        maps its target to w, searched depth-first against the principal
        path below the level; cells are the level's.  Each stack frame holds
        a node's coloring and cells and the candidates it has still to try,
        in descending order, so the smallest is popped first."""
        stack = [(level + 1, path[level][0], cells, [w])]
        while stack:
            depth, parent, parent_cells, todo = stack[-1]
            if not todo:
                stack.pop()
                continue
            alpha, target, trace = path[depth]
            child = individualize(parent, parent_cells, todo.pop(), expected=trace)
            if child is None:
                continue
            beta, beta_cells = child
            if target is None:
                images = [0] * n
                for u, c in enumerate(beta):
                    images[leaf_pos[c]] = u
                if kern.preserves_adjacency(ptr, flat, images):
                    return Permutation(tuple(images))
                continue
            todo = sorted(beta_cells[alpha[target]], reverse=True)
            stack.append((depth + 1, beta, beta_cells, todo))
        return None

    # levels deepest first: every generator found so far fixes the targets
    # above the current level, so all of them act on its target's cell.
    # orbits is a union-find forest of the orbits of the generators found so
    # far.  A sibling w is tried only if its orbit holds neither the target
    # nor a sibling that failed at this level: a failed w has no
    # automorphism fixing the targets above that maps the target to it, so
    # no vertex of its orbit has one either.  Only the seeks at a level read
    # its cells, so they are popped, and freed, as the level starts.
    gens: list[Permutation] = []
    orbits = list(range(n))
    for level in range(len(path) - 2, -1, -1):
        alpha, target, _ = path[level]
        cells = path_cells.pop()
        dead: set[int] = set()
        for w in sorted(cells[alpha[target]]):
            r = _root(orbits, w)
            if r in dead or r == _root(orbits, target):
                continue
            found = seek(level, cells, w)
            if found is None:
                dead.add(r)
                continue
            gens.append(found)
            for v, u in enumerate(found.images):
                a, b = _root(orbits, v), _root(orbits, u)
                if a != b:
                    orbits[max(a, b)] = min(a, b)
            dead = {_root(orbits, d) for d in dead}
    group = PermGroup.from_chain(n, gens, [target for _, target, _ in path[:-1]])
    group._automorphisms_of = graph
    return group


def is_automorphism(graph: graphio.Graph, p: Permutation) -> bool:
    """True iff p acts on the graph's vertices and maps every edge onto an edge."""
    if p.degree != graph.n:
        return False
    ptr, flat = kern.build_csr(graph.adjacency)
    return kern.preserves_adjacency(ptr, flat, p.images)


def check_all_automorphisms(graph: graphio.Graph, group: PermGroup) -> None:
    """Raise GroupNotAutomorphisms unless the group acts on the graph's
    vertices and every generator is an automorphism.

    The one place that decides whether a group is checked: a group records
    the graph it passed for, the graph automorphism_group searched, or the
    graph of the group it is a subgroup of (subgroup), and is not checked
    again for that Graph object (an equal one is).
    """
    if group._automorphisms_of is graph:
        return
    if group.degree != graph.n:
        raise GroupNotAutomorphisms(f"group degree {group.degree} differs from n = {graph.n}")
    ptr, flat = kern.build_csr(graph.adjacency)
    for g in group.generators:
        if not kern.preserves_adjacency(ptr, flat, g.images):
            raise GroupNotAutomorphisms(f"generator {g} does not preserve adjacency")
    group._automorphisms_of = graph


def subgroup(group: PermGroup, elements: Sequence[Permutation]) -> PermGroup:
    """The subgroup that elements of group generate, recorded for the graph
    group is recorded for (check_all_automorphisms), so it is not checked
    again there.  The caller vouches that the elements lie in group, as a
    spectrum's witnesses do: each is a product of the group's coset
    representatives."""
    sub = PermGroup(group.degree, elements)
    sub._automorphisms_of = group._automorphisms_of
    return sub


def is_arc_transitive(graph: graphio.Graph, group: PermGroup) -> bool:
    """True iff the group is transitive on ordered pairs of adjacent vertices.

    Computed as the orbit of one fixed arc, each arc (u, v) numbered
    u*n + v; vacuously true for edgeless graphs.  GroupNotAutomorphisms
    from check_all_automorphisms if a generator breaks an edge.
    """
    check_all_automorphisms(graph, group)
    total_arcs = 2 * graph.edge_count
    if total_arcs == 0:
        return True
    n = graph.n
    images = [g.images for g in group.generators]
    u, v = next(graph.arcs())
    orbit = [u * n + v]
    seen = set(orbit)
    for arc in orbit:  # orbit grows while it is walked: it is the FIFO queue
        u, v = divmod(arc, n)
        for im in images:
            image = im[u] * n + im[v]
            if image not in seen:
                seen.add(image)
                orbit.append(image)
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
    group = automorphism_group(graph) if group is None else group
    if not is_arc_transitive(graph, group):
        raise NotArcTransitive("automorphism group is not transitive on arcs")
    return _arc_type(group.order(), graph.n)


def _arc_type(order: int, n: int) -> int:
    """t with order = 3 * 2^t * n, or StabiliserNotOfForm."""
    if n == 0:
        raise StabiliserNotOfForm("the null graph has no vertex stabiliser")
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
    """Full symmetry analysis; computes Aut if no group is supplied.  The
    group goes through check_all_automorphisms (in is_arc_transitive)."""
    group = automorphism_group(graph) if group is None else group
    at = is_arc_transitive(graph, group)
    order = group.order()
    vt = graph.n > 0 and len(group.orbits()) == 1
    stab = order // graph.n if vt else None
    t = None
    if at and graphio.is_cubic(graph) and graphio.is_connected(graph) and graph.n > 0:
        t = _arc_type(order, graph.n)
    return SymmetryProfile(graph.n, order, vt, at, t, stab)
