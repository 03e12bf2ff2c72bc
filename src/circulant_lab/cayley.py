"""Cayley graph construction with a deterministic vertex labeling.

Works for a group whose elements have integer codes (the family groups of
papergroups): identity() and inv(a) on elements, code(g) (None for an
element without one) and decode(code), code_count, and right_table(s), the
list code(g) -> code(g*s) over the coded elements.  The walk steps through
codes by table lookup, so the group arithmetic it does is one table per
generator, not one product per vertex.  Vertex 0 is the identity and the
remaining vertices appear in BFS order from it, with the connection set
iterated in sorted order, so every produced graph is byte-identical across
runs.  The walk that labels the vertices also lists each vertex's
neighbours: the labels of g*s are g's row of the adjacency.

The labeling keeps that walk: the step table of labels g*s, and for each
vertex the parent that first reached it and the generator it came by.  The
induced vertex permutations are carried along it instead of being computed
element by element.  A left translation commutes with right multiplication,
L_g(v*s) = L_g(v)*s, and a group automorphism phi that preserves S maps
v*s to phi(v)*phi(s); so each vertex's image is one step from its parent's
image, and the only group arithmetic left is label(g) and phi on S.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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

    Vertex v is the element with code code_of_vertex[v], and
    vertex_of_code[c] is the vertex of code c (-1 for a code the closure of
    S does not reach).  connection_set is S sorted, d = |S|; step[v*d + i]
    is the label of element(v)*S[i]; vertex v > 0 was first reached as
    element(parent[v]) * S[via[v]], and parent[v] < v (parent[0] = via[0] =
    0 are unused).
    """

    group: object = field(repr=False, compare=False)
    code_of_vertex: tuple[int, ...]
    vertex_of_code: tuple[int, ...]
    connection_set: tuple
    step: tuple[int, ...]
    parent: tuple[int, ...]
    via: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.code_of_vertex)

    def vertex(self, g) -> int | None:
        """The label of g, or None when g is not a vertex."""
        code = self.group.code(g)
        if code is None:
            return None
        v = self.vertex_of_code[code]
        return None if v < 0 else v


def cayley_graph(group, connection_set: Sequence) -> tuple[graphio.Graph, CayleyLabeling]:
    """Cay(<S>, S): vertices are the closure of S, g adjacent to g*s; g's
    row is the sorted labels of g*s over the set S, as the walk meets them.

    The walk holds codes: label[code] is the vertex of a code (-1 unseen),
    and g*S[i] is one lookup in S[i]'s right-multiplication table.  An S
    with an element that has no code raises ElementOutsideR."""
    ident = group.identity()
    S = sorted(set(connection_set))
    if ident in S:
        raise IdentityInS("identity element in connection set")
    for s in S:
        if group.inv(s) not in S:
            raise NotInverseClosed(f"inverse of {s} missing from connection set")

    tables = [group.right_table(s) for s in S]
    label = [-1] * group.code_count
    root = group.code(ident)
    label[root] = 0
    codes = [root]
    parent = [0]
    via = [0]
    rows = []
    step: list[int] = []
    # codes grows while it is walked: it is the FIFO queue
    for v, c in enumerate(codes):
        row = []
        for i, table in enumerate(tables):
            h = table[c]
            w = label[h]
            if w < 0:
                w = label[h] = len(codes)
                codes.append(h)
                parent.append(v)
                via.append(i)
            row.append(w)
        step.extend(row)
        rows.append(tuple(sorted(row)))
    labeling = CayleyLabeling(group, tuple(codes), tuple(label), tuple(S), tuple(step),
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
    Carried along the labeling's walk from label(g), so group is unused:
    the labeling holds the group it was built on.
    """
    root = labeling.vertex(g)
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
