"""Hot-loop primitives, in pure Python.

Permutations are plain sequences of images, and ``cycles`` is the one walk
that lists their cycles (``is_semiregular_images`` only counts their
lengths).  Composition is one C-level gather (``operator.itemgetter``
over the images), not a Python loop per point.  This is the one module
that knows the two layouts a graph keeps, each built once, on first use:
the CSR arrays (``ptr``/``flat``, from :func:`build_csr`, kept as
``Graph.csr``) that refinement reads, and the edge index (from
:func:`build_edge_index`, kept as ``Graph.edge_index``) that the
automorphism check reads (:func:`preserves_edges`: gathers and one set
lookup per edge, all in C; :func:`preserves_adjacency` builds the index
from CSR arrays on each call), and how colour refinement numbers its
cells.  Refinement is canonical splitter-queue refinement
(Cardon and Crochemore 1982; Berkholz, Bonsma and Grohe 2017): its cell ids
and its trace (the splits each splitter makes) depend only on the colored
isomorphism type, so two refinements of isomorphic colorings can be
compared id by id, and one can be abandoned as soon as its trace departs
from the other's.  It costs per splitter more than per neighbor visit, so a
splitter that hits no vertex twice, as every singleton does, splits cells
in two with no count table (see :func:`_refine`).  A coloring travels with
its cells (the vertex set of each id): ``refine_colors`` builds them once
for the root, and each ``individualize`` derives a child's from its
parent's, copying only the cells its refinement splits and never modifying
the parent's.  ``BACKEND`` names the implementation, for benchmark reports.
"""

from operator import contains, itemgetter, sub

BACKEND = "pure"


def build_csr(adjacency):
    """Flatten neighbor lists into (ptr, flat) index arrays: the neighbors
    of v are flat[ptr[v]:ptr[v + 1]]."""
    ptr = [0]
    flat = []
    for nbrs in adjacency:
        flat.extend(nbrs)
        ptr.append(len(flat))
    return ptr, flat


def compose_images(p, q):
    """Left-to-right composition, as a list: result[i] = q[p[i]].  One
    itemgetter gathers every image in C; with one argument it would return
    the bare item, and with none it cannot be built, so degrees below 2
    take the comprehension.  It is written out here, not through _gather,
    since it is the chain's hottest call."""
    if len(p) < 2:
        return [q[x] for x in p]
    return list(itemgetter(*p)(q))


def _gather(points):
    """The function that reads images at the given points, in order, as a
    sequence: one itemgetter, or a comprehension for fewer than two points,
    as in compose_images."""
    if len(points) < 2:
        return lambda images: [images[x] for x in points]
    return itemgetter(*points)


def inverse_images(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return inv


def cycles(p):
    """Each cycle of p as a list, fixed points included.  A cycle starts at
    its smallest point, and cycles come in ascending order of that point."""
    seen = bytearray(len(p))
    for i in range(len(p)):
        if seen[i]:
            continue
        cycle = []
        j = i
        while not seen[j]:
            seen[j] = 1
            cycle.append(j)
            j = p[j]
        yield cycle


def cycle_lengths(p):
    """Sorted list of cycle lengths of p (fixed points included)."""
    return sorted(map(len, cycles(p)))


def is_semiregular_images(p):
    """True iff every cycle of p has the same length; stops at the first
    cycle that differs from the first.  Counts each cycle's length on a
    walk of its own, with no list of its points."""
    seen = bytearray(len(p))
    first = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = 1
            length += 1
            j = p[j]
        if not first:
            first = length
        elif length != first:
            return False
    return True


def build_edge_index(adjacency):
    """The index preserves_edges reads: (first, second, nbrs).  first and
    second gather, from a vertex map, the images of the smaller and of the
    larger end of each edge, in one edge order (_gather), and nbrs[v] is the
    frozenset of v's neighbours.  Neighbour lists may come in any order."""
    first = []
    second = []
    for u, nbrs in enumerate(adjacency):
        for v in nbrs:
            if u < v:
                first.append(u)
                second.append(v)
    return _gather(first), _gather(second), list(map(frozenset, adjacency))


def preserves_edges(index, images):
    """True iff the vertex map sends every edge to an edge: the image of
    each edge's larger end is a neighbour of its smaller end's image.

    index is build_edge_index's.  Assumes images is a bijection: then edges
    map to distinct edges, so checking each edge once suffices.  Stops at
    the first edge that fails.
    """
    first, second, nbrs = index
    return all(map(contains, _gather(first(images))(nbrs), second(images)))


def preserves_adjacency(ptr, flat, images):
    """preserves_edges on CSR arrays, with the index built from them on
    each call."""
    adjacency = [flat[ptr[v]:ptr[v + 1]] for v in range(len(ptr) - 1)]
    return preserves_edges(build_edge_index(adjacency), images)


def ball_profile(adjacency, v, expected=None):
    """The sizes of the breadth-first layers around v, as a tuple: layer 0
    is v alone, layer d the vertices at distance d, out to the last
    nonempty layer, so the sizes sum to the order of v's component.
    Distances are kept by every automorphism, so the profile is an
    isomorphism invariant of the vertex.  The neighbors of layer d lie in
    layers d - 1, d and d + 1, so each layer is its predecessor's neighbors
    less the two layers before it, and no set of all vertices seen is kept.
    The walk stops once it has seen every vertex, since all later layers
    are then empty.  Given an expected profile, it returns None at the
    first layer that differs from it, or if the profile ends before or
    after it."""
    n = len(adjacency)
    before = set()
    layer = {v}
    sizes = [1]
    seen = 1
    while seen < n:
        nxt = set()
        for u in layer:
            nxt.update(adjacency[u])
        nxt -= layer
        nxt -= before
        if not nxt:
            break
        if expected is not None and expected[len(sizes):len(sizes) + 1] != (len(nxt),):
            return None
        seen += len(nxt)
        sizes.append(len(nxt))
        before, layer = layer, nxt
    if expected is not None and len(expected) != len(sizes):
        return None
    return tuple(sizes)


def refine_colors(ptr, flat, colors):
    """Equitable refinement of a vertex coloring, with canonical cell ids.

    The distinct input colors become cells 0, 1, ... in ascending order, and
    every cell is queued as a splitter (see :func:`_refine`).  The returned
    ids depend only on the colored isomorphism type, which is what makes
    cross-checking two refinements meaningful.  Returns the refined coloring
    and its cells (cells[c] is the set of vertices of id c), the pair that
    :func:`individualize` takes.
    """
    rank = {c: r for r, c in enumerate(sorted(set(colors)))}
    colors = [rank[c] for c in colors]
    cells = _cells(colors, len(rank))
    if len(rank) == 1 and len(set(map(sub, ptr[1:], ptr))) == 1:
        return colors, cells  # one colour on a regular graph is equitable
    colors = _refine(ptr, flat, colors, cells, list(range(len(rank))),
                     bytearray(b"\x01") * len(cells))
    return colors, cells


def individualize(ptr, flat, colors, cells, v, trace=None, expected=None):
    """Refinement of an equitable coloring with v moved to a cell of its own.

    colors and cells are a parent's pair, as :func:`refine_colors` and this
    function return it, and v's cell must hold other vertices.  v takes the
    fresh id len(cells), and only that singleton is queued: the rest of v's
    old cell keeps its id, and the coloring was equitable before, so every
    other splitter is already accounted for.  Returns the child's pair.
    The child copies the coloring and the list of cells, but it shares each
    cell's set with the parent until its refinement splits that cell, so a
    node pays for the cells it splits, not for every cell.  The parent's
    coloring and cells are never modified, whether the refinement completes
    or aborts.

    trace and expected are passed on to :func:`_refine`: a list given as
    trace receives the refinement's trace, and with an expected trace the
    result is None as soon as the refinement departs from it.
    """
    c = colors[v]
    colors = list(colors)
    cells = list(cells)
    owned = bytearray(len(cells))
    cells[c] = cells[c] - {v}
    owned[c] = 1
    colors[v] = len(cells)
    cells.append({v})
    owned.append(1)
    if _refine(ptr, flat, colors, cells, [colors[v]], owned, trace, expected) is None:
        return None
    return colors, cells


def _cells(colors, count):
    """cells[c] = the set of vertices of id c, for ids below count."""
    cells = [set() for _ in range(count)]
    for v, c in enumerate(colors):
        cells[c].add(v)
    return cells


def _refine(ptr, flat, colors, cells, queue, owned, trace=None, expected=None):
    """Splitter-queue refinement of colors (cells[c] is the set of vertices
    of id c) in place, until the coloring is equitable.

    Each splitter taken from the queue counts, for every vertex, its
    neighbors in the splitter.  The cells this touches are split in
    ascending id order, each into pieces ordered by that count: the first
    piece keeps the id, the others take fresh ids in order.  A split cell
    that was queued stays queued and queues its new pieces; one that was not
    queues every piece but the first largest, since the cell as a whole has
    already split the others.  Bookkeeping is the cost per splitter, so one
    that hits no vertex twice (every singleton: a simple graph's neighbors
    are distinct) keeps no count table and splits each cell it touches
    straight into (missed, hit); a singleton skips singleton cells too.

    owned[c] is 1 when the set cells[c] belongs to this refinement, and 0
    when it is still a parent's: such a set is copied the first time a
    splitter splits its cell, and never modified, so the parent's cells stay
    as they were.  The piece that keeps the id then shrinks in place
    (``difference_update`` on the owned copy), so every later split of the
    cell costs the number of vertices hit, not the size of the cell.

    The trace has one entry per splitter: the tuple of (cell id, piece
    sizes) of the cells it splits, in split order.  Like the ids, it
    depends only on the colored isomorphism type of the input.  Given a
    list as trace, the entries are appended to it.  Given an expected
    trace, the refinement returns None at the first splitter whose entry
    differs from the expected one, or if it takes more or fewer splitters;
    colors and cells are then left part-way refined.
    """
    queued = [False] * len(cells)
    for s in queue:
        queued[s] = True
    step = 0
    for s in queue:  # queue grows while it is walked: it is the FIFO queue
        queued[s] = False
        entry = []
        touched = {}
        repeats = False  # does some vertex have two neighbors in s?
        splitter = cells[s]
        if len(splitter) == 1:
            (v,) = splitter
            for u in flat[ptr[v]:ptr[v + 1]]:
                c = colors[u]
                if c in touched:
                    touched[c].append(u)
                elif len(cells[c]) > 1:
                    touched[c] = [u]
        else:
            hits = {}
            for v in splitter:
                for u in flat[ptr[v]:ptr[v + 1]]:
                    if u in hits:
                        hits[u] += 1
                        repeats = True
                    else:
                        hits[u] = 1
                        c = colors[u]
                        if c in touched:
                            touched[c].append(u)
                        else:
                            touched[c] = [u]
        for c in sorted(touched) if len(touched) > 1 else touched:
            hit = touched[c]
            members = cells[c]
            if not repeats:  # every count is 1: pieces (missed, hit)
                if len(hit) == len(members):
                    continue
                if not owned[c]:
                    cells[c] = members = set(members)
                    owned[c] = 1
                members.difference_update(hit)
                entry.append((c, (len(members), len(hit))))
                new = len(cells)
                cells.append(set(hit))
                owned.append(1)
                for u in hit:
                    colors[u] = new
                if queued[c] or len(members) >= len(hit):
                    queue.append(new)
                    queued.append(True)
                else:  # the hit piece is the first largest
                    queue.append(c)
                    queued[c] = True
                    queued.append(False)
                continue
            if len(hit) == len(members):
                k = hits[hit[0]]
                if all(hits[u] == k for u in hit):
                    continue
                pieces = []
            else:
                # the vertices the splitter misses form the first piece
                if not owned[c]:
                    members = set(members)
                members.difference_update(hit)
                pieces = [members]
            by_count = {}
            for u in hit:
                k = hits[u]
                if k in by_count:
                    by_count[k].add(u)
                else:
                    by_count[k] = {u}
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
                piece = pieces[i]
                cells.append(piece)
                owned.append(1)
                for u in piece:
                    colors[u] = new
                split_queued = i != skip
                queued.append(split_queued)
                if split_queued:
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
