"""Pure-Python implementations of the hot-loop primitives.

Permutations are plain sequences of images; graphs arrive as CSR arrays
(``ptr``/``flat``) built by :func:`circulant_lab._kernels.build_csr`.
Colour refinement is canonical splitter-queue refinement (Cardon and
Crochemore 1982; Berkholz, Bonsma and Grohe 2017): its cell ids depend
only on the colored isomorphism type, so two refinements of isomorphic
colorings can be compared id by id.
"""


def compose_images(p, q):
    """Left-to-right composition: result[i] = q[p[i]]."""
    return [q[x] for x in p]


def inverse_images(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return inv


def cycle_lengths(p):
    """Sorted list of cycle lengths of p (fixed points included)."""
    n = len(p)
    seen = bytearray(n)
    out = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = 1
            j = p[j]
            length += 1
        out.append(length)
    out.sort()
    return out


def is_semiregular_images(p):
    """True iff every cycle of p has the same length."""
    n = len(p)
    if n == 0:
        return True
    seen = bytearray(n)
    first = -1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = 1
            j = p[j]
            length += 1
        if first < 0:
            first = length
        elif length != first:
            return False
    return True


def preserves_adjacency(ptr, flat, images):
    """True iff the vertex map sends every edge to an edge.

    Assumes images is a bijection and neighbor lists are sorted, so checking
    membership of each mapped neighbor suffices.
    """
    n = len(ptr) - 1
    for v in range(n):
        iv = images[v]
        lo0, hi0 = ptr[iv], ptr[iv + 1]
        for idx in range(ptr[v], ptr[v + 1]):
            target = images[flat[idx]]
            lo, hi = lo0, hi0
            while lo < hi:
                mid = (lo + hi) // 2
                if flat[mid] < target:
                    lo = mid + 1
                else:
                    hi = mid
            if lo == hi0 or flat[lo] != target:
                return False
    return True


def refine_colors(ptr, flat, colors):
    """Equitable refinement of a vertex coloring, with canonical cell ids.

    The distinct input colors become cells 0, 1, ... in ascending order, and
    every cell is queued as a splitter (see :func:`_refine`).  The returned
    ids depend only on the colored isomorphism type, which is what makes
    cross-checking two refinements meaningful.
    """
    rank = {c: r for r, c in enumerate(sorted(set(colors)))}
    colors = [rank[c] for c in colors]
    return _refine(ptr, flat, colors, _cells(colors, len(rank)), list(range(len(rank))))


def individualize(ptr, flat, colors, v):
    """Refinement of an equitable coloring with v moved to a cell of its own.

    v's cell must hold other vertices.  v takes the fresh id
    max(colors) + 1, and only that singleton is queued: the rest of v's old
    cell keeps its id, and the coloring was equitable before, so every other
    splitter is already accounted for.
    """
    colors = list(colors)
    cells = _cells(colors, max(colors) + 1)
    cells[colors[v]].remove(v)
    colors[v] = len(cells)
    cells.append({v})
    return _refine(ptr, flat, colors, cells, [colors[v]])


def _cells(colors, count):
    """cells[c] = the set of vertices of id c, for ids below count."""
    cells = [set() for _ in range(count)]
    for v, c in enumerate(colors):
        cells[c].add(v)
    return cells


def _refine(ptr, flat, colors, cells, queue):
    """Splitter-queue refinement of colors (cells[c] is the set of vertices
    of id c) in place, until the coloring is equitable.

    Each splitter taken from the queue counts, for every vertex, its
    neighbors in the splitter.  The cells this touches are split in
    ascending id order, each into pieces ordered by that count: the first
    piece keeps the id, the others take fresh ids in order.  A split cell
    that was queued stays queued and queues its new pieces; one that was not
    queues every piece but the first largest, since the cell as a whole has
    already split the others.
    """
    queued = [False] * len(cells)
    for s in queue:
        queued[s] = True
    for s in queue:  # queue grows while it is walked: it is the FIFO queue
        queued[s] = False
        hits = {}
        touched = {}
        repeats = False  # does some vertex have two neighbors in s?
        for v in cells[s]:
            for i in range(ptr[v], ptr[v + 1]):
                u = flat[i]
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
        for c in sorted(touched):
            hit = touched[c]
            members = cells[c]
            if len(hit) == len(members):
                if not repeats:
                    continue
                k = hits[hit[0]]
                if all(hits[u] == k for u in hit):
                    continue
                pieces = []
            else:
                # the vertices the splitter misses form the first piece
                members.difference_update(hit)
                pieces = [members]
            if repeats:
                by_count = {}
                for u in hit:
                    k = hits[u]
                    if k in by_count:
                        by_count[k].add(u)
                    else:
                        by_count[k] = {u}
                pieces.extend(by_count[k] for k in sorted(by_count))
            else:
                pieces.append(set(hit))  # every count is 1
            sizes = [len(p) for p in pieces]
            skip = -1 if queued[c] else sizes.index(max(sizes))
            cells[c] = pieces[0]
            if skip > 0:
                queue.append(c)
                queued[c] = True
            for i in range(1, len(pieces)):
                new = len(cells)
                piece = pieces[i]
                cells.append(piece)
                for u in piece:
                    colors[u] = new
                split_queued = i != skip
                queued.append(split_queued)
                if split_queued:
                    queue.append(new)
    return colors
