"""Graph automorphisms, transitivity tests, and the arc-type classifier.

The automorphism search interleaves equitable color refinement with
backtracking over images of a BFS-ordered vertex sequence, as two loops.
It starts from a root coloring and finds the automorphisms that preserve
it: the unit coloring gives the full group (``automorphism_group``), and a
coloring that puts both ends of an arc in cells of their own gives the
arc's stabilizer (``arc_transitive_type``).  The first loop walks the
principal path once: from the refined root coloring, each level
individualizes its target vertex (the first vertex of the sequence in a
non-singleton cell) and refines, down to the discrete leaf.  A vertex the
root coloring puts in a singleton cell is never a target.
The second takes the levels deepest first and tries the vertices of the
target's cell, skipping every vertex whose orbit under the generators found
so far holds the target or a sibling that already failed at that level
(orbit pruning; the orbits are kept in a union-find forest that each new
generator merges its cycles into).  A failed sibling w prunes its orbit
soundly: the generators fix the targets above the level, so an
automorphism that maps the target into w's orbit, composed with one of
them, would map the target to w.  Before a sibling is tried, its ball
profile (the sizes of the breadth-first layers around it, out to the end
of its component; ``_kernels.ball_profile``) is compared with the
target's, which each level walks once, and a sibling whose profile
differs fails with no refinement: automorphisms keep distances, so none
maps the target to it.  The sibling's walk stops at its first layer that
differs.  On an asymmetric cubic graph every vertex of the root cell is a
sibling, and on random cubic graphs from n = 176 to n = 11264 the
profiles reject all of them, so the search makes one individualization,
the principal path's, where each sibling would cost an aborted O(n) one.
Each try is a depth-first search on an explicit stack that refines the
individualized colorings against the stored principal path, level by
level, and tests adjacency at the leaf.
Refinement and individualization are kernels
(``_kernels.refine_colors`` for the root coloring,
``_kernels.individualize`` below it), and only they number the cells.
They read the graph's CSR arrays from the graph itself (``Graph.csr``),
and the leaf's adjacency test, like every automorphism check here, reads
its edge index (``Graph.edge_index``, _kernels.preserves_edges).  Both are
built on first use and kept, so the searches and checks on one Graph
object share one copy of each, and a search that reaches no leaf builds
no index.
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
from circulant_lab._bfs import reach
from circulant_lab.errors import (
    CapExceeded,
    GroupNotAutomorphisms,
    NotArcTransitive,
    NotCubic,
    StabiliserNotOfForm,
)
from circulant_lab.perm import PermGroup, Permutation

_STABILISER_TO_T = {3: 0, 6: 1, 12: 2, 24: 3, 48: 4}


def bfs_order(graph: graphio.Graph) -> list[int]:
    """Vertices in BFS order from 0 (components visited by ascending root).

    Vertex 0's component is the walk the graph keeps (Graph.walk_from_0),
    so only a disconnected graph walks the others here."""
    order = list(graph.walk_from_0)
    if len(order) < graph.n:
        seen = set(order)
        for root in range(graph.n):
            if root not in seen:
                component = reach([root], graph.adjacency.__getitem__)
                seen.update(component)
                order += component
    return order


def _root(forest: list[int], v: int) -> int:
    """The root of v's tree in a union-find forest, halving the path."""
    while forest[v] != v:
        forest[v] = v = forest[forest[v]]
    return v


def automorphism_group(graph: graphio.Graph, cap: int | None = None) -> PermGroup:
    """The full automorphism group of the graph, with its stabilizer chain.

    The base is the search's target vertices whose basic orbit is more than
    the target itself; the strong generators of a level are the generators
    found at that level of the search or deeper.  A sibling node is dropped
    as soon as its refinement's trace departs from the principal level's
    (see the module docstring), and every returned generator is verified
    to preserve adjacency, so the group records the graph as checked (see
    check_all_automorphisms).  A sibling whose search fails prunes its orbit
    under the generators found so far, at its level.  With a cap, raises
    CapExceeded as soon as the levels finished so far prove |Aut| > cap:
    once a level is finished, the product of the basic orbit lengths of it
    and the levels below is the order of the stabiliser of the targets
    above it, a divisor of |Aut|.  No cap (None) searches to the end.
    """
    return _search(graph, [0] * graph.n, cap)


def _search(graph: graphio.Graph, colors: list[int], cap: int | None = None) -> PermGroup:
    """The group of the graph's automorphisms that preserve the root
    coloring colors (an int per vertex), with its stabilizer chain, as
    automorphism_group describes it.  Refinement numbers the root's cells by
    ascending color, so a leaf maps each vertex into its own color class.
    The root's singleton cells are fixed by every generator and are never
    targets, so the search neither individualizes nor seeks there."""
    n = graph.n
    if n == 0:
        group = PermGroup(0, [])
        group._automorphisms_of = graph
        return group
    ptr, flat = graph.csr
    base_seq = bfs_order(graph)
    # the principal path: (coloring, target vertex or None at the leaf,
    # refinement trace) per level, each coloring refined from its parent
    # with the parent's target individualized; the root's trace is empty.
    # path_cells holds the cells of every level above the leaf.  A vertex in
    # a singleton cell stays in one below, so the search for the next target
    # resumes where the last one stopped.
    path: list[tuple[list[int], int | None, tuple]] = []
    path_cells: list[list[set[int]]] = []
    colors, cells = kern.refine_colors(ptr, flat, colors)
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
        colors, cells = kern.individualize(ptr, flat, colors, cells, target, trace)
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
            child = kern.individualize(ptr, flat, parent, parent_cells, todo.pop(),
                                       expected=trace)
            if child is None:
                continue
            beta, beta_cells = child
            if target is None:
                images = [0] * n
                for u, c in enumerate(beta):
                    images[leaf_pos[c]] = u
                if kern.preserves_edges(graph.edge_index, images):
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
    # its cells, so they are popped, and freed, as the level starts.  size
    # holds each root's orbit length: once a level is finished, its
    # target's orbit is its basic orbit, and order is the product of the
    # basic orbit lengths of this level and those below.
    #
    # A sibling whose ball profile (_kernels.ball_profile) differs from the
    # target's is dead with no seek: automorphisms keep distances, so none
    # maps the target to it, and the seek would have failed.  The target's
    # profile is walked to the end of its component once per level; a
    # sibling's walk stops at its first layer that differs from it.  The
    # whole profiles walked (each level's target's, and each sibling's that
    # matched) are kept for the search, so a vertex walked whole once, as a
    # deeper level's target or as a sibling, is compared by its tuple.
    profiles: dict[int, tuple[int, ...]] = {}
    gens: list[Permutation] = []
    orbits = list(range(n))
    size = [1] * n
    order = 1
    for level in range(len(path) - 2, -1, -1):
        alpha, target, _ = path[level]
        cells = path_cells.pop()
        want = profiles.get(target)
        if want is None:
            want = profiles[target] = kern.ball_profile(graph.adjacency, target)
        dead: set[int] = set()
        for w in sorted(cells[alpha[target]]):
            r = _root(orbits, w)
            if r in dead or r == _root(orbits, target):
                continue
            profile = profiles.get(w)
            if profile is None:
                profile = kern.ball_profile(graph.adjacency, w, want)
                if profile is not None:
                    profiles[w] = profile
            if profile != want:
                found = None  # no automorphism maps the target to w
            else:
                found = seek(level, cells, w)
            if found is None:
                dead.add(r)
                continue
            gens.append(found)
            for v, u in enumerate(found.images):
                a, b = _root(orbits, v), _root(orbits, u)
                if a != b:
                    a, b = min(a, b), max(a, b)
                    orbits[b] = a
                    size[a] += size[b]
            dead = {_root(orbits, d) for d in dead}
        order *= size[_root(orbits, target)]
        if cap is not None and order > cap:
            raise CapExceeded(f"group order at least {order} exceeds cap {cap}")
    group = PermGroup.from_chain(n, gens, [target for _, target, _ in path[:-1]])
    group._automorphisms_of = graph
    return group


def is_automorphism(graph: graphio.Graph, p: Permutation) -> bool:
    """True iff p acts on the graph's vertices and maps every edge onto an edge."""
    if p.degree != graph.n:
        return False
    return kern.preserves_edges(graph.edge_index, p.images)


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
    index = graph.edge_index
    for g in group.generators:
        if not kern.preserves_edges(index, g.images):
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
    _require_cubic_connected(graph)
    group = automorphism_group(graph) if group is None else group
    if not is_arc_transitive(graph, group):
        raise NotArcTransitive("automorphism group is not transitive on arcs")
    return _arc_type(group.order(), graph.n)


def arc_transitive_type(graph: graphio.Graph) -> int:
    """Arc-type t of Aut, for a cubic, connected graph whose Aut is known to
    be arc-transitive.

    Precondition, not checked: Aut is transitive on arcs, as it is as soon
    as any group of automorphisms is (is_arc_transitive on that group).
    Then orbit-stabiliser gives |Aut| = 2|E| * |Aut_(u,v)| for any arc
    (u, v), and Aut_(u,v) is the group of automorphisms that preserve a
    root coloring with u and v in cells of their own: one search, which
    never individualizes u or v, nor seeks their images.  Without the
    precondition the result is t for a wrong |Aut|, or StabiliserNotOfForm.
    NotCubic or NotArcTransitive as in tutte_type for a graph that is not
    cubic or not connected.
    """
    _require_cubic_connected(graph)
    if graph.n == 0:
        raise StabiliserNotOfForm("the null graph has no vertex stabiliser")
    u, v = next(graph.arcs())
    colors = [0] * graph.n
    colors[u], colors[v] = 1, 2
    stabiliser = _search(graph, colors)
    return _arc_type(2 * graph.edge_count * stabiliser.order(), graph.n)


def _require_cubic_connected(graph: graphio.Graph) -> None:
    if not graphio.is_cubic(graph):
        raise NotCubic("a vertex has degree != 3")
    if not graphio.is_connected(graph):
        raise NotArcTransitive("graph is not connected")


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
        # the fields are flat values, so no deep copy (asdict) is needed
        return dict(vars(self))


def symmetry_profile(graph: graphio.Graph, group: PermGroup | None = None) -> SymmetryProfile:
    """Full symmetry analysis; computes Aut if no group is supplied.  The
    group goes through check_all_automorphisms (in is_arc_transitive), and
    vertex transitivity is read off the chain that order() builds
    (PermGroup.is_transitive)."""
    group = automorphism_group(graph) if group is None else group
    at = is_arc_transitive(graph, group)
    order = group.order()
    vt = group.is_transitive()
    stab = order // graph.n if vt else None
    t = None
    if at and graphio.is_cubic(graph) and graphio.is_connected(graph) and graph.n > 0:
        t = _arc_type(order, graph.n)
    return SymmetryProfile(graph.n, order, vt, at, t, stab)
