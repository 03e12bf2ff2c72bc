"""Cayley graph construction with a deterministic vertex labeling.

Works for any group object exposing ``identity()``, ``mul(a, b)`` and
``inv(a)`` whose element values are hashable and orderable.  Vertex 0 is the
identity and the remaining vertices appear in BFS order from it, with the
connection set iterated in sorted order, so every produced graph is
byte-identical across runs.  The walk that labels the vertices also lists
each vertex's neighbours: the labels of g*s are g's row of the adjacency.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from circulant_lab import graphio
from circulant_lab.errors import (
    ElementOutsideR,
    IdentityInS,
    NotInverseClosed,
    PhiDoesNotPreserveS,
)
from circulant_lab.perm import Permutation


@dataclass(frozen=True)
class CayleyLabeling:
    element_of_vertex: tuple
    vertex_of_element: dict

    @property
    def n(self) -> int:
        return len(self.element_of_vertex)


def cayley_graph(group, connection_set: Sequence) -> tuple[graphio.Graph, CayleyLabeling]:
    """Cay(<S>, S): vertices are the closure of S, g adjacent to g*s; g's
    row is the sorted labels of g*s over the set S, as the walk meets them."""
    ident = group.identity()
    S = sorted(set(connection_set))
    if ident in S:
        raise IdentityInS("identity element in connection set")
    for s in S:
        if group.inv(s) not in S:
            raise NotInverseClosed(f"inverse of {s} missing from connection set")

    vertex_of = {ident: 0}
    elements = [ident]
    rows = []
    # elements grows while it is walked: it is the FIFO queue
    for gv in elements:
        row = []
        for s in S:
            h = group.mul(gv, s)
            w = vertex_of.get(h)
            if w is None:
                w = len(elements)
                vertex_of[h] = w
                elements.append(h)
            row.append(w)
        rows.append(tuple(sorted(row)))
    return graphio.Graph(tuple(rows)), CayleyLabeling(tuple(elements), vertex_of)


def left_translation(group, labeling: CayleyLabeling, g) -> Permutation:
    """The vertex permutation v -> label(g * element(v)).

    Always an automorphism of the Cayley graph; fixed-point-free for
    g != identity (the action of the base group on itself is regular).
    """
    if g not in labeling.vertex_of_element:
        raise ElementOutsideR(f"{g} is not a vertex of this Cayley graph")
    images = tuple(
        labeling.vertex_of_element[group.mul(g, h)] for h in labeling.element_of_vertex
    )
    return Permutation(images)


def automorphism_from_group_automorphism(
    group, labeling: CayleyLabeling, phi: Callable, connection_set: Sequence
) -> Permutation:
    """Vertex permutation induced by a group automorphism stabilizing S.

    Fixes vertex 0; together with the translations it generates an
    arc-transitive group whenever phi is transitive on S.
    """
    if set(map(phi, connection_set)) != set(connection_set):
        raise PhiDoesNotPreserveS("automorphism does not stabilize the connection set")
    images = tuple(
        labeling.vertex_of_element[phi(h)] for h in labeling.element_of_vertex
    )
    if images[0] != 0:
        raise PhiDoesNotPreserveS("automorphism does not fix the identity element")
    return Permutation(images)
