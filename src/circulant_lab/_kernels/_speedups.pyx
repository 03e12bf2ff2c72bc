# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled twins of four primitives in ``pure.py``: ``inverse_images``,
``is_semiregular_images``, ``preserves_adjacency`` and ``refine_colors``.

``compose_images`` and ``cycle_lengths`` have no twin: the pure list
comprehension is as fast as a compiled loop and shares ``q``'s int objects,
where a compiled one boxes a fresh int per image.

Results (including canonical refinement ids) must match the pure backend
exactly; tests/test_kernels.py enforces this on random inputs.
"""
from libc.stdlib cimport malloc, free


cdef long long* _seq_to_buf(object seq, Py_ssize_t n) except NULL:
    cdef long long* buf = <long long*> malloc((n if n else 1) * sizeof(long long))
    cdef Py_ssize_t i
    if buf == NULL:
        raise MemoryError()
    for i in range(n):
        buf[i] = seq[i]
    return buf


def inverse_images(p):
    cdef Py_ssize_t n = len(p)
    cdef long long* pa = _seq_to_buf(p, n)
    cdef list out = [0] * n
    cdef Py_ssize_t i
    try:
        for i in range(n):
            out[<Py_ssize_t> pa[i]] = i
    finally:
        free(pa)
    return out


def is_semiregular_images(p):
    """True iff every cycle of p has the same length."""
    cdef Py_ssize_t n = len(p)
    if n == 0:
        return True
    cdef long long* pa = _seq_to_buf(p, n)
    cdef char* seen = <char*> malloc(n)
    cdef Py_ssize_t i, j, length
    cdef Py_ssize_t first = -1
    cdef bint ok = True
    try:
        if seen == NULL:
            raise MemoryError()
        for i in range(n):
            seen[i] = 0
        for i in range(n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = 1
                j = <Py_ssize_t> pa[j]
                length += 1
            if first < 0:
                first = length
            elif length != first:
                ok = False
                break
    finally:
        free(pa)
        free(seen)
    return bool(ok)


def preserves_adjacency(ptr, flat, images):
    """True iff the vertex map sends every edge to an edge."""
    cdef Py_ssize_t n = len(ptr) - 1
    cdef Py_ssize_t m = len(flat)
    cdef long long* cptr = _seq_to_buf(ptr, n + 1)
    cdef long long* cflat = NULL
    cdef long long* im = NULL
    cdef Py_ssize_t v, idx, lo, hi, mid, lo0, hi0
    cdef long long target
    cdef bint ok = True
    try:
        cflat = _seq_to_buf(flat, m)
        im = _seq_to_buf(images, n)
        for v in range(n):
            lo0 = <Py_ssize_t> cptr[<Py_ssize_t> im[v]]
            hi0 = <Py_ssize_t> cptr[<Py_ssize_t> im[v] + 1]
            for idx in range(<Py_ssize_t> cptr[v], <Py_ssize_t> cptr[v + 1]):
                target = im[<Py_ssize_t> cflat[idx]]
                lo = lo0
                hi = hi0
                while lo < hi:
                    mid = (lo + hi) >> 1
                    if cflat[mid] < target:
                        lo = mid + 1
                    else:
                        hi = mid
                if lo == hi0 or cflat[lo] != target:
                    ok = False
                    break
            if not ok:
                break
    finally:
        free(cptr)
        if cflat != NULL:
            free(cflat)
        if im != NULL:
            free(im)
    return bool(ok)


def refine_colors(ptr, flat, colors):
    """Equitable refinement with canonical cell ids (see pure.refine_colors).

    Color values must lie in [0, n]; callers pass either all zeros or ids
    produced by a previous refinement/individualization.  Signature rows are
    ranked lexicographically via LSD radix passes, which matches sorted()
    order on the tuples the pure backend builds.
    """
    cdef Py_ssize_t n = len(ptr) - 1
    if n == 0:
        return []
    cdef Py_ssize_t m = len(flat)
    cdef long long* cptr = _seq_to_buf(ptr, n + 1)
    cdef long long* cflat = NULL
    cdef long long* col = NULL
    cdef long long* sig = NULL
    cdef long long* order = NULL
    cdef long long* order2 = NULL
    cdef long long* count = NULL
    cdef long long* newcol = NULL
    cdef long long* tmp
    cdef Py_ssize_t max_deg = 0, deg, v, i, j, c, ncols, base, row
    cdef long long val
    cdef Py_ssize_t ncells, newcells, ident
    cdef bint differs
    try:
        cflat = _seq_to_buf(flat, m)
        col = _seq_to_buf(colors, n)
        for v in range(n):
            deg = <Py_ssize_t> (cptr[v + 1] - cptr[v])
            if deg > max_deg:
                max_deg = deg
        ncols = max_deg + 1
        sig = <long long*> malloc(n * ncols * sizeof(long long))
        order = <long long*> malloc(n * sizeof(long long))
        order2 = <long long*> malloc(n * sizeof(long long))
        count = <long long*> malloc((n + 2) * sizeof(long long))
        newcol = <long long*> malloc(n * sizeof(long long))
        if sig == NULL or order == NULL or order2 == NULL or count == NULL or newcol == NULL:
            raise MemoryError()

        # count distinct input colors
        for i in range(n + 2):
            count[i] = 0
        for i in range(n):
            count[<Py_ssize_t> col[i]] += 1
        ncells = 0
        for i in range(n + 2):
            if count[i]:
                ncells += 1

        while True:
            # signature rows: own color, sorted neighbor colors, pad with n
            for v in range(n):
                base = v * ncols
                sig[base] = col[v]
                deg = 0
                for i in range(<Py_ssize_t> cptr[v], <Py_ssize_t> cptr[v + 1]):
                    sig[base + 1 + deg] = col[<Py_ssize_t> cflat[i]]
                    deg += 1
                for i in range(1, deg):
                    val = sig[base + 1 + i]
                    j = i
                    while j > 0 and sig[base + j] > val:
                        sig[base + 1 + j] = sig[base + j]
                        j -= 1
                    sig[base + 1 + j] = val
                for i in range(deg, max_deg):
                    sig[base + 1 + i] = n

            # LSD radix: stable counting sorts, last column first
            for v in range(n):
                order[v] = v
            for c in range(ncols - 1, -1, -1):
                for i in range(n + 2):
                    count[i] = 0
                for v in range(n):
                    count[<Py_ssize_t> sig[<Py_ssize_t> order[v] * ncols + c]] += 1
                ident = 0
                for i in range(n + 2):
                    j = <Py_ssize_t> count[i]
                    count[i] = ident
                    ident += j
                for v in range(n):
                    i = <Py_ssize_t> sig[<Py_ssize_t> order[v] * ncols + c]
                    order2[count[i]] = order[v]
                    count[i] += 1
                tmp = order
                order = order2
                order2 = tmp

            # canonical ids along the sorted order
            ident = 0
            newcol[<Py_ssize_t> order[0]] = 0
            for v in range(1, n):
                row = <Py_ssize_t> order[v] * ncols
                base = <Py_ssize_t> order[v - 1] * ncols
                differs = False
                for c in range(ncols):
                    if sig[row + c] != sig[base + c]:
                        differs = True
                        break
                if differs:
                    ident += 1
                newcol[<Py_ssize_t> order[v]] = ident
            newcells = ident + 1

            tmp = col
            col = newcol
            newcol = tmp
            if newcells == ncells:
                break
            ncells = newcells

        return [col[v] for v in range(n)]
    finally:
        free(cptr)
        if cflat != NULL:
            free(cflat)
        if col != NULL:
            free(col)
        if sig != NULL:
            free(sig)
        if order != NULL:
            free(order)
        if order2 != NULL:
            free(order2)
        if count != NULL:
            free(count)
        if newcol != NULL:
            free(newcol)
