"""Hot-loop primitives with a compiled core and a pure-Python fallback.

Four primitives have a compiled twin: ``inverse_images``,
``is_semiregular_images``, ``preserves_adjacency`` and ``refine_colors``.
They come from the extension when it has been built and imports, and from
the pure-Python module otherwise; ``BACKEND`` names the one in use for
them.  ``compose_images`` and ``cycle_lengths`` always come from ``pure.py``.
Both backends implement the same contract (``pure.py`` gives the reference
semantics, and tests/test_kernels.py checks that the twins agree).
"""
from circulant_lab._kernels import pure

try:
    from circulant_lab._kernels import _speedups as _impl
    BACKEND = "c"
except ImportError:
    _impl = pure
    BACKEND = "pure"

compose_images = pure.compose_images
inverse_images = _impl.inverse_images
cycle_lengths = pure.cycle_lengths
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
