"""Hot-loop primitives, in pure Python.

Permutation kernels (``compose_images``, ``inverse_images``,
``cycle_lengths``, ``is_semiregular_images``), the adjacency check
(``preserves_adjacency``) and colour refinement (``refine_colors``,
``individualize``) all live in ``pure.py``, which is also the only place
that knows how refinement numbers its cells.  ``BACKEND`` names the
implementation, for benchmark reports.
"""
from circulant_lab._kernels import pure

BACKEND = "pure"

compose_images = pure.compose_images
inverse_images = pure.inverse_images
cycle_lengths = pure.cycle_lengths
is_semiregular_images = pure.is_semiregular_images
preserves_adjacency = pure.preserves_adjacency
refine_colors = pure.refine_colors
individualize = pure.individualize


def build_csr(adjacency):
    """Flatten sorted neighbor lists into (ptr, flat) index arrays."""
    ptr = [0]
    flat = []
    for nbrs in adjacency:
        flat.extend(nbrs)
        ptr.append(len(flat))
    return ptr, flat
