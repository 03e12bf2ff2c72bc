"""Hot-loop primitives with a compiled core and a pure-Python fallback.

The compiled extension is used when it has been built and imports;
otherwise the pure-Python module is.  Both implement the same contract
(``pure.py`` gives the reference semantics, and tests/test_kernels.py
checks that the two agree); ``BACKEND`` names the one in use.
"""
try:
    from circulant_lab._kernels import _speedups as _impl
    BACKEND = "c"
except ImportError:
    from circulant_lab._kernels import pure as _impl
    BACKEND = "pure"

compose_images = _impl.compose_images
inverse_images = _impl.inverse_images
cycle_lengths = _impl.cycle_lengths
is_semiregular_images = _impl.is_semiregular_images
preserves_adjacency = _impl.preserves_adjacency
refine_colors = _impl.refine_colors


def build_csr(adjacency):
    """Flatten sorted neighbor lists into (ptr, flat) index arrays."""
    ptr = [0]
    flat = []
    for nbrs in adjacency:
        flat.extend(nbrs)
        ptr.append(len(flat))
    return ptr, flat
