"""Cayley graph construction with a deterministic vertex labeling.

Works for any group object exposing ``identity()``, ``mul(a, b)`` and
``inv(a)`` whose element values are hashable and orderable.  Vertex 0 is the
identity and the remaining vertices appear in BFS order from it, with the
connection set iterated in sorted order, so every produced graph is
byte-identical across runs.  The walk that labels the vertices also lists
each vertex's neighbours: the labels of g*s are g's row of the adjacency.

The labeling keeps that walk: the step table of labels g*s, and for each
vertex the parent that first reached it and the generator it came by.  The
induced vertex permutations are carried along it instead of being computed
element by element.  A left translation commutes with right multiplication,
L_g(v*s) = L_g(v)*s, and a group automorphism phi that preserves S maps
v*s to phi(v)*phi(s); so each vertex's image is one step from its parent's
image, and the only group arithmetic left is label(g) and phi on S.
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
    """The vertex labels of Cay(R, S) and the walk that assigned them.

    connection_set is S sorted, d = |S|; step[v*d + i] is the label of
    element(v)*S[i]; vertex v > 0 was first reached as element(parent[v])
    * S[via[v]], and parent[v] < v (parent[0] = via[0] = 0 are unused).
    """

    element_of_vertex: tuple
    vertex_of_element: dict
    connection_set: tuple
    step: tuple[int, ...]
    parent: tuple[int, ...]
    via: tuple[int, ...]

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
    parent = [0]
    via = [0]
    rows = []
    step: list[int] = []
    # elements grows while it is walked: it is the FIFO queue
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
    labeling = CayleyLabeling(tuple(elements), vertex_of, tuple(S), tuple(step),
                              tuple(parent), tuple(via))
    return graphio.Graph(tuple(rows)), labeling


def _transport(labeling: CayleyLabeling, root: int, moves: Sequence[int]) -> Permutation:
    """The images v -> step[image(parent[v])*d + moves[via[v]]], with vertex 0
    sent to root: each vertex one step from its parent's image."""
    d = len(labeling.connection_set)
    step, parent, via = labeling.step, labeling.parent, labeling.via
    images = [root]
    append = images.append
    for v in range(1, labeling.n):
        append(step[images[parent[v]] * d + moves[via[v]]])
    return Permutation(tuple(images))


def left_translation(group, labeling: CayleyLabeling, g) -> Permutation:
    """The vertex permutation v -> label(g * element(v)).

    Always an automorphism of the Cayley graph; fixed-point-free for
    g != identity (the action of the base group on itself is regular).
    Carried along the labeling's walk from label(g), so group is unused.
    """
    root = labeling.vertex_of_element.get(g)
    if root is None:
        raise ElementOutsideR(f"{g} is not a vertex of this Cayley graph")
    return _transport(labeling, root, range(len(labeling.connection_set)))


def automorphism_from_group_automorphism(group, labeling: CayleyLabeling,
                                         phi: Callable) -> Permutation:
    """Vertex permutation v -> label(phi(element(v))) induced by a group
    automorphism stabilizing S, the connection set the labeling holds.

    The caller guarantees that phi is a group automorphism: only its values
    on S and on the identity are checked, and the rest is carried along the
    labeling's walk.  Fixes vertex 0; together with the translations it
    generates an arc-transitive group whenever phi is transitive on S.
    """
    S = labeling.connection_set
    index = {s: i for i, s in enumerate(S)}
    moves = [index.get(phi(s)) for s in S]
    if None in moves or len(set(moves)) != len(S):
        raise PhiDoesNotPreserveS("automorphism does not stabilize the connection set")
    if phi(group.identity()) != group.identity():
        raise PhiDoesNotPreserveS("automorphism does not fix the identity element")
    return _transport(labeling, 0, moves)
