"""Quotients by orbit partitions, the regular-cover predicate, and the
divisibility harness for induced actions on orbits.

Quotients are simple graphs: edges inside one orbit never become loops but
are reported through a flag instead, since the cover machinery only uses the
loop-free case.  Orbit indices are ordered by smallest contained vertex,
and the orbits and each vertex's index come from one labelled walk
(PermGroup.labelled_orbits), each orbit listed from its smallest vertex.
A subgroup of automorphisms fixes each of its orbits, so every vertex of
an orbit sees the same orbits around it, and the quotient reads one
vertex per orbit (quotient_graph gives the argument).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from circulant_lab import graphio
from circulant_lab.aut import check_all_automorphisms
from circulant_lab.errors import DoesNotPreservePartition, HypothesisViolated
from circulant_lab.perm import (
    PermGroup,
    Permutation,
    compose,
    cycle_structure,
    inverse,
    is_semiregular,
)


@dataclass(frozen=True)
class QuotientResult:
    quotient: graphio.Graph
    orbit_map: tuple[int, ...]
    is_regular_cover: bool
    has_intra_orbit_edges: bool


def quotient_graph(graph: graphio.Graph, subgroup: PermGroup) -> QuotientResult:
    """Quotient of the graph by the subgroup's orbit partition.

    The cover flag is the definitional local-bijection test: the projection
    restricted to each neighborhood must be a bijection onto the quotient
    neighborhood.  Raises GroupNotAutomorphisms if a generator breaks an edge.

    Once the generators are checked, the subgroup acts by automorphisms
    that fix every orbit, so an element mapping v to w maps v's neighbours
    onto w's and each of them into its own orbit: every vertex of an orbit
    projects its neighbours onto the same multiset of orbits.  The
    quotient's edges, the intra-orbit flag and the cover test are therefore
    read off one vertex per orbit, its smallest.  The neighbour sets so
    built are symmetric by the same argument: if orbit[0] of A has a
    neighbour in B, that neighbour's orbit-mates all have one in A, so
    orbit[0] of B has too.
    """
    check_all_automorphisms(graph, subgroup)
    orbits, orbit_map = subgroup.labelled_orbits()
    adjacency = graph.adjacency
    quotient_adjacency = []
    intra = False
    cover = True
    for o, orbit in enumerate(orbits):
        projected = [orbit_map[u] for u in adjacency[orbit[0]]]
        targets = set(projected)
        if o in targets:
            intra = True
            cover = False
            targets.discard(o)
        elif len(targets) != len(projected):
            cover = False  # two neighbours in one orbit
        quotient_adjacency.append(tuple(sorted(targets)))
    quotient = graphio.Graph(tuple(quotient_adjacency))
    return QuotientResult(quotient, tuple(orbit_map), cover, intra)


def induced_action(c: Permutation, subgroup: PermGroup) -> Permutation:
    """The permutation c induces on the subgroup's orbits.

    Raises DoesNotPreservePartition unless c maps orbits onto orbits.
    """
    if c.degree != subgroup.degree:
        raise DoesNotPreservePartition(f"degree {c.degree} differs from {subgroup.degree}")
    orbits, orbit_map = subgroup.labelled_orbits()
    images = []
    for orbit in orbits:
        targets = {orbit_map[c[v]] for v in orbit}
        if len(targets) != 1:
            raise DoesNotPreservePartition(f"orbit {sorted(orbit)} is split by the permutation")
        target = targets.pop()
        if len(orbits[target]) != len(orbit):
            raise DoesNotPreservePartition(
                f"orbit {sorted(orbit)} maps onto a different-sized orbit")
        images.append(target)
    return Permutation(tuple(images))


@dataclass(frozen=True)
class LemmaVerdict:
    k: int
    k_prime: int
    passed: bool


def induced_semiregular_harness(graph: graphio.Graph, c: Permutation,
                                normal_subgroup: PermGroup, group: PermGroup) -> LemmaVerdict:
    """Check that the action induced by a semiregular c on the orbits of a
    normal subgroup (of order coprime to the vertex stabiliser) is again
    semiregular, with an orbit count dividing the original one.

    Hypotheses are verified first and raise HypothesisViolated naming the
    failing clause (GroupNotAutomorphisms if a generator of the group breaks
    an edge); the conclusion is reported in the verdict.
    """
    check_all_automorphisms(graph, group)
    n = graph.n
    if not group.is_transitive():
        raise HypothesisViolated("transitivity")
    if not group.contains(c):
        raise HypothesisViolated("containment of c in G")
    for h in normal_subgroup.generators:
        if not group.contains(h):
            raise HypothesisViolated("containment of N in G")
    for g in group.generators:
        g_inv = inverse(g)
        for h in normal_subgroup.generators:
            conj = compose(compose(g_inv, h), g)
            if not normal_subgroup.contains(conj):
                raise HypothesisViolated("normality")
    if not is_semiregular(c):
        raise HypothesisViolated("semiregularity of C")
    stab_order = group.order() // n
    if math.gcd(normal_subgroup.order(), stab_order) != 1:
        raise HypothesisViolated("coprimality")

    k = n // cycle_structure(c).element_order
    induced = induced_action(c, normal_subgroup)
    if not is_semiregular(induced):
        return LemmaVerdict(k, -1, False)
    k_prime = induced.degree // cycle_structure(induced).element_order
    return LemmaVerdict(k, k_prime, k % k_prime == 0)
