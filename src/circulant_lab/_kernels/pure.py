"""Pure-Python implementations of the hot-loop primitives.

The compiled backend in ``_speedups.pyx`` twins four of them
(``inverse_images``, ``is_semiregular_images``, ``preserves_adjacency`` and
``refine_colors``) and must stay observably identical to this module: same
results, same canonical orderings.  ``compose_images`` and ``cycle_lengths``
exist only here.  Permutations are plain sequences of images; graphs arrive
as CSR arrays (``ptr``/``flat``) built by
:func:`circulant_lab._kernels.build_csr`.
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

    Repeatedly re-colors each vertex by the signature (own color, sorted
    neighbor colors padded with n to the maximum degree) and renumbers the
    distinct signatures in sorted order, until the number of cells stops
    growing.  The returned ids depend only on the colored isomorphism type,
    which is what makes cross-checking two refinements meaningful.
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
