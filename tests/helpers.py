"""Independent oracles and small utilities shared by the test modules.

Everything here deliberately avoids the library's stabilizer-chain and
refinement machinery so that it can serve as a cross-check on them.
"""
from itertools import combinations, permutations, product

from circulant_lab import perm
from circulant_lab.graphio import Graph, from_edges
from circulant_lab.papergroups import EvenElement, EvenGroup, OddElement
from circulant_lab.perm import Permutation


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


def diamond_ring(count: int) -> Graph:
    """A ring of count diamonds (K4 minus an edge): diamond i has ends 4i
    and 4i + 3, of degree 2 inside it, and middles 4i + 1 and 4i + 2, and
    its end 4i + 3 is joined to the next diamond's end 4i + 4.  Cubic, with
    n = 4 * count and |Aut| = 2 * count * 2^count (for count >= 3): the
    ring's dihedral group, and a swap of the middles of any diamond."""
    n = 4 * count
    edges = []
    for i in range(0, n, 4):
        edges += [(i, i + 1), (i, i + 2), (i + 1, i + 2), (i + 1, i + 3), (i + 2, i + 3),
                  (i + 3, (i + 4) % n)]
    return from_edges(n, edges)


def chang_graph(switch) -> Graph:
    """T(8), the line graph of K8, Seidel-switched on a set of K8's edges.

    The vertices are the 28 pairs of {0, ..., 7} in lexicographic order,
    two of them adjacent when they share a point.  Switching on the edges
    in switch (pairs of points) flips every adjacency between a switched
    vertex and an unswitched one.  On a perfect matching, on an 8-cycle
    and on a 3-cycle with a disjoint 5-cycle this gives the three Chang
    graphs: strongly regular with parameters (28, 12, 6, 4), like T(8)
    itself, so every vertex has the ball profile (1, 12, 15)."""
    pairs = list(combinations(range(8), 2))
    flip = {pairs.index(tuple(sorted(e))) for e in switch}
    edges = [(i, j) for i, j in combinations(range(28), 2)
             if bool(set(pairs[i]) & set(pairs[j])) != ((i in flip) != (j in flip))]
    return from_edges(28, edges)


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


def refine_by_counts(ptr, flat, colors, cells, queue, owned, trace=None, expected=None):
    """Splitter-queue refinement the way the library refined before its
    splitters that hit no vertex twice took a path of their own: every
    splitter counts, in a table, each vertex's neighbors in it, and every
    cell it touches is split by that count, in ascending id order.  Same
    arguments, effects and result as ``_kernels._refine``, whose cell ids,
    trace and None on a departed expected trace it must reproduce."""
    queued = [False] * len(cells)
    for s in queue:
        queued[s] = True
    step = 0
    for s in queue:
        queued[s] = False
        entry = []
        hits = {}
        touched = {}
        for v in cells[s]:
            for i in range(ptr[v], ptr[v + 1]):
                u = flat[i]
                if u in hits:
                    hits[u] += 1
                else:
                    hits[u] = 1
                    touched.setdefault(colors[u], []).append(u)
        for c in sorted(touched):
            hit = touched[c]
            members = cells[c]
            if len(hit) == len(members):
                if len({hits[u] for u in hit}) == 1:
                    continue
                pieces = []
            else:
                if not owned[c]:
                    members = set(members)
                members.difference_update(hit)
                pieces = [members]
            by_count = {}
            for u in hit:
                by_count.setdefault(hits[u], set()).add(u)
            pieces.extend(by_count[k] for k in sorted(by_count))
            sizes = tuple(map(len, pieces))
            entry.append((c, sizes))
            skip = -1 if queued[c] else sizes.index(max(sizes))
            cells[c] = pieces[0]
            owned[c] = 1
            if skip > 0:
                queue.append(c)
                queued[c] = True
            for i in range(1, len(pieces)):
                new = len(cells)
                cells.append(pieces[i])
                owned.append(1)
                for u in pieces[i]:
                    colors[u] = new
                queued.append(i != skip)
                if i != skip:
                    queue.append(new)
        entry = tuple(entry)
        if expected is not None:
            if step == len(expected) or expected[step] != entry:
                return None
            step += 1
        elif trace is not None:
            trace.append(entry)
    if expected is not None and step != len(expected):
        return None
    return colors


def partition_of(colors) -> set[frozenset[int]]:
    """The cells of a coloring, as a set of vertex sets."""
    cells: dict[int, set[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, set()).add(v)
    return {frozenset(cell) for cell in cells.values()}


def cayley_graph_by_multiplication(group, connection_set):
    """The Cayley walk with one group product per vertex and generator:
    the definition the library's table walk must agree with.  Returns the
    graph, the vertices' elements, and the step, parent and via lists."""
    ident = group.identity()
    S = sorted(set(connection_set))
    vertex_of = {ident: 0}
    elements = [ident]
    parent = [0]
    via = [0]
    rows = []
    step = []
    for v, gv in enumerate(elements):
        row = []
        for i, s in enumerate(S):
            h = group.mul(gv, s)
            w = vertex_of.get(h)
            if w is None:
                w = len(elements)
                vertex_of[h] = w
                elements.append(h)
                parent.append(v)
                via.append(i)
            row.append(w)
        step.extend(row)
        rows.append(tuple(sorted(row)))
    return Graph(tuple(rows)), tuple(elements), tuple(step), tuple(parent), tuple(via)


def all_elements(group):
    """Every element of a family group (papergroups), listed from its
    parameters in normal-form order: u^a v^b w^c x^e for the even group,
    u^a v^b x^hx y^hy sigma^j for the odd one."""
    if isinstance(group, EvenGroup):
        m, p = group.params.m, group.params.p
        return (EvenElement(*e) for e in product(range(m), range(m), range(p), range(2)))
    k = group.k
    return (OddElement(*e) for e in product(range(k), range(k), range(3), range(2), range(3)))


def r_elements(group):
    """The elements of the odd group's R (sigma^0), in normal-form order."""
    k = group.k
    return (OddElement(a, b, hx, hy, 0)
            for a, b, hx, hy in product(range(k), range(k), range(3), range(2)))


_H_SYMBOLS = {(0, 0): "1", (1, 0): "x", (2, 0): "x^2",
              (0, 1): "y", (1, 1): "x y", (2, 1): "x^2 y"}


def render(g) -> str:
    """A family group element's normal form as text."""
    if isinstance(g, EvenElement):
        return f"u^{g.a} v^{g.b} w^{g.c} x^{g.e}"
    return f"u^{g.a} v^{g.b} {_H_SYMBOLS[g.hx, g.hy]} sigma^{g.j}"


def element_of_vertex(labeling) -> tuple:
    """Each vertex's element of a Cayley labeling, decoded from its code."""
    return tuple(map(labeling.group.decode, labeling.code_of_vertex))


def vertex_of_element(labeling) -> dict:
    """Each element of a Cayley labeling -> its vertex, by ascending vertex."""
    return {g: v for v, g in enumerate(element_of_vertex(labeling))}


def left_translation_by_multiplication(group, labeling, g) -> tuple[int, ...]:
    """Images of v -> label(g * element(v)), one group product per vertex:
    the definition the library's transported translation must agree with."""
    vertex_of = vertex_of_element(labeling)
    return tuple(vertex_of[group.mul(g, h)] for h in vertex_of)


def automorphism_by_substitution(labeling, phi) -> tuple[int, ...]:
    """Images of v -> label(phi(element(v))), phi applied to every vertex's
    element: the definition of the induced vertex permutation."""
    vertex_of = vertex_of_element(labeling)
    return tuple(vertex_of[phi(h)] for h in vertex_of)


def arc_orbit_of_tuples(graph: Graph, generators) -> set[tuple[int, int]]:
    """The orbit of the graph's first arc under the generators, walked as
    (u, v) tuples; empty for an edgeless graph."""
    start = next(graph.arcs(), None)
    if start is None:
        return set()
    images = [g.images for g in generators]
    orbit = {start}
    todo = [start]
    while todo:
        u, v = todo.pop()
        for im in images:
            arc = (im[u], im[v])
            if arc not in orbit:
                orbit.add(arc)
                todo.append(arc)
    return orbit


def cfi_graph(base: Graph) -> Graph:
    """The Cai-Fürer-Immerman graph over a cubic base graph (untwisted).

    Each base vertex v becomes ten vertices, numbered from 10 * v: four
    middle ones, one per subset S of even size of v's three edge slots,
    then six outer ones, a pair (slot i, bit x) per slot.  The middle vertex
    of S is joined to the outer vertex (i, 1 if i in S else 0) of each slot
    i, and the base edge that fills slot i at u and slot j at v joins (i, x)
    at u to (j, x) at v for both bits x.  The result is cubic, and connected
    when the base is.
    """
    middles = [frozenset(), frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})]
    slot = [{} for _ in range(base.n)]
    for v, nbrs in enumerate(base.adjacency):
        for i, u in enumerate(sorted(nbrs)):
            slot[v][u] = i

    def outer(v, i, x):
        return 10 * v + 4 + 2 * i + x

    edges = []
    for v in range(base.n):
        for s, subset in enumerate(middles):
            edges.extend((10 * v + s, outer(v, i, int(i in subset))) for i in range(3))
    for u, v in base.edges():
        edges.extend((outer(u, slot[u][v], x), outer(v, slot[v][u], x)) for x in (0, 1))
    return from_edges(10 * base.n, edges)



def schreier_tree(base, gens):
    """The Schreier tree of base's orbit under gens (image sequences), grown
    by one FIFO walk that tries every generator at every point, in order:
    each orbit point -> (the point it was reached from, the generator that
    reached it), the base point -> None, in the order the walk reached
    them."""
    tree = {base: None}
    orbit = [base]
    for pt in orbit:
        for g in gens:
            q = g[pt]
            if q not in tree:
                tree[q] = (pt, g)
                orbit.append(q)
    return tree


def tree_representative(tree, reps, pt):
    """The coset representative mapping the tree's base point to pt: the
    generators on its tree path applied in turn, as a list.  reps holds the
    ones composed so far, at first only the base point's identity, and
    keeps every one composed on the way."""
    path = []
    while pt not in reps:
        path.append(pt)
        pt = tree[pt][0]
    t = reps[pt]
    for q in reversed(path):
        g = tree[q][1]
        t = reps[q] = [g[x] for x in t]
    return t


def chain_elements(group):
    """Every element of the group once, in the chain order that witnesses
    follow: g = t_{L-1} * ... * t_0, one coset representative per level,
    g(x) = t_0[t_1[...[x]]], lexicographic over the transversal indices
    with the top level most significant and each transversal taken by
    ascending orbit point.

    It reads only each level's base point and strong generators, and grows
    its own trees and representatives, so it checks the library's tree
    growth and composition as well as its walk.
    """
    group.base()  # builds the chain
    identity = list(range(group.degree))
    transversals = []
    for lvl in group._levels:
        tree = schreier_tree(lvl.base, lvl.gens)
        reps = {lvl.base: identity}
        transversals.append([tree_representative(tree, reps, pt) for pt in sorted(tree)])
    for ts in product(*transversals):
        images = identity
        for t in reversed(ts):
            images = [t[x] for x in images]
        yield Permutation(tuple(images))


def spectrum_passes(group):
    """The two passes of the spectrum walk over the group's chain, as
    PermGroup.semiregular_hits makes them: (minima, shallow, in_order),
    where minima are the smallest points of the suborbits other than {b},
    ascending, shallow() is the shallow pass (perm._shallow_pass) and
    in_order(points) the pass in chain order over the blocks of the given
    points (perm._chain_pass).  Not an oracle: a window on the library's
    own walk, for the tests that take it apart.  The trivial group, which
    has no level, has no pass."""
    group.base()  # builds the chain
    top = group._levels[0]
    suborbits, steps = perm._walk_partition(group.degree, group._levels)
    return ([cls[0] for cls in suborbits],
            lambda: perm._shallow_pass(top, suborbits, steps),
            lambda points: perm._chain_pass(top, points, steps))


def schreier_sims_by_inverses(degree: int, generators):
    """The stabiliser chain of the group that the generators (image
    sequences) generate, built the way the library built it before its
    sifts carried the product of their chosen representatives: each sift
    step composes the sifted element with the inverse of a coset
    representative.  Base points are smallest moved points, each Schreier
    tree is one FIFO orbit walk over its level's strong generators, a
    residue joins the strong generators of every level down to where its
    sift stopped, and levels are verified bottom up, restarting at the
    level where a Schreier generator sticks.

    Returns (base, gens, parents, contains): the base points, top level
    first; each level's strong generators as image tuples, in order; each
    tree's parent map (point -> the point it was reached from, the base
    point -> None); and membership in the group, by the same sift.
    """
    identity = list(range(degree))
    levels = []

    def level(base, gens):
        return {"base": base, "gens": gens, "tree": schreier_tree(base, gens),
                "reps": {base: identity}}

    def rep(lvl, pt):
        return tree_representative(lvl["tree"], lvl["reps"], pt)

    def sift(images, start):
        for i in range(start, len(levels)):
            pt = images[levels[i]["base"]]
            if pt not in levels[i]["tree"]:
                return images, i
            inverse = _inverse(rep(levels[i], pt))
            images = [inverse[x] for x in images]
        return images, len(levels)

    def adjoin(residue, stop):
        if stop == len(levels):
            levels.append(level(next(i for i, x in enumerate(residue) if i != x), []))
        for j in range(stop + 1):
            levels[j] = level(levels[j]["base"], levels[j]["gens"] + [residue])

    def verify(i):
        lvl = levels[i]
        for pt in sorted(lvl["tree"]):
            tp = rep(lvl, pt)
            for g in lvl["gens"]:
                tg = [g[x] for x in tp]
                t2 = rep(lvl, g[pt])
                if tg == t2:
                    continue
                inverse = _inverse(t2)
                residue, stop = sift([inverse[x] for x in tg], i + 1)
                if residue != identity:
                    adjoin(residue, stop)
                    return stop
        return None

    for g in generators:
        residue, stop = sift(list(g), 0)
        if residue != identity:
            adjoin(residue, stop)
    i = len(levels) - 1
    while i >= 0:
        stuck = verify(i)
        i = i - 1 if stuck is None else stuck

    def contains(images):
        return sift(list(images), 0)[0] == identity

    base = tuple(lvl["base"] for lvl in levels)
    gens = [[tuple(g) for g in lvl["gens"]] for lvl in levels]
    parents = [{pt: None if edge is None else edge[0] for pt, edge in lvl["tree"].items()}
               for lvl in levels]
    return base, gens, parents, contains


def _inverse(p):
    inverse = [0] * len(p)
    for i, x in enumerate(p):
        inverse[x] = i
    return inverse
