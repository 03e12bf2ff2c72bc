"""k-circulant spectrum, witnesses, and the 6k^2 order-bound checks.

A graph is a k-circulant when some semiregular automorphism has exactly k
cycles; the spectrum collects every such k.  Being semiregular with k
cycles is invariant under conjugation, so the spectrum walks one coset
block per suborbit (``PermGroup.suborbit_pairs``): the |G_b| elements
mapping the first base point b to the smallest point of each orbit of the
stabiliser G_b, over the stabilizer chain the automorphism search hands
over.  An element that fixes a point is the identity or not semiregular,
so the walk drops elements that fix a base point, whole subtrees of the
chain at a time.  It comes by depth-first order of the top Schreier tree,
holding one path of coset representatives, so blocks do not come by
ascending point: a witness is the hit with the smallest block point, the
first in its block, which is exactly the first hit of the whole group in
the chain order that ``PermGroup.suborbit_pairs`` defines.  Witnesses thus
follow the search's base and coset representatives.  The walk hands out
each element uncomposed, as three image lists h, v, t with the element
x -> t[v[h[x]]], and only its cycle through point 0 is followed, image by
image.  The element is composed,
and given the full semiregularity test, only when n over that cycle's
length is a k still wanted: one with no witness from a smaller block point
yet, in the spectrum; the requested one, in a certificate, which skips
every block from its best hit's point on.  The trivial k = n (identity witness) is
part of the spectrum whenever n >= 1; reports may filter it.  The walk
holds only for a group of automorphisms, so both pass their group through
``aut.check_all_automorphisms``: a searched group is never checked again,
a supplied one once per graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

from circulant_lab import _kernels as kern
from circulant_lab import aut as aut_mod
from circulant_lab import graphio
from circulant_lab.errors import KDoesNotDivideN, PreconditionViolated
from circulant_lab.perm import (
    PermGroup,
    Permutation,
    cycle_structure,
    is_semiregular,
    power,
    to_cycle_string,
)


@dataclass(frozen=True)
class BoundFinding:
    """Outcome of the order-at-most-6k^2 check for one odd spectrum value."""

    k: int
    bound: int
    passed: bool
    theorem_backed: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "bound": self.bound,
            "pass": self.passed,
            "theorem_backed": self.theorem_backed,
        }


@dataclass
class SpectrumReport:
    n: int
    spectrum: tuple[int, ...]
    witnesses: dict[int, Permutation]
    findings: tuple[BoundFinding, ...] = field(default_factory=tuple)

    def to_json_dict(self, include_trivial: bool = True) -> dict:
        ks = [k for k in self.spectrum if include_trivial or k != self.n]
        return {
            "n": self.n,
            "spectrum": ks,
            "witnesses": {str(k): to_cycle_string(self.witnesses[k]) for k in ks},
            "findings": [f.to_json_dict() for f in self.findings],
        }


def is_squarefree(k: int) -> bool:
    d = 2
    while d * d <= k:
        if k % (d * d) == 0:
            return False
        d += 1
    return True


def _semiregular_elements(graph: graphio.Graph, group: PermGroup, cap: int | None,
                          wanted: Callable[[int, int], bool],
                          until: Callable[[], int] | None = None
                          ) -> Iterator[tuple[int, int, Permutation]]:
    """(block point, number of cycles, element) for each semiregular element
    of the walk whose number of cycles k is wanted(k, block point), in walk
    order; until is the walk's, which skips the blocks from its point on.

    All cycles of a semiregular element have one length, so the cycle
    through point 0 gives their number.  That cycle of the element
    x -> t[v[h[x]]] is followed as j -> t[v[h[j]]], in as many steps as it
    is long; the element is composed and fully tested only when its number
    is wanted.
    """
    n = graph.n
    if n == 0:
        return  # the null graph is a k-circulant for no k >= 1
    for pt, h, v, t in group.suborbit_pairs(cap, until):
        length = 1
        j = t[v[h[0]]]
        while j:
            j = t[v[h[j]]]
            length += 1
        if n % length or not wanted(n // length, pt):
            continue
        images = [t[v[x]] for x in h]
        if kern.is_semiregular_images(images):
            yield pt, n // length, Permutation(tuple(images))


def k_spectrum(graph: graphio.Graph, group: PermGroup | None = None,
               cap: int | None = None) -> SpectrumReport:
    """Spectrum { n/|g| : g in Aut, g semiregular } with one witness per k.

    Each witness is the first hit for its k in chain order (defined at
    PermGroup.suborbit_pairs): of the walk's hits, the one with the
    smallest block point, and the first in its block.  k = n is always in
    the spectrum for n >= 1; the null graph's spectrum is empty, as a
    k-circulant needs k >= 1.  Raises CapExceeded when |Aut| exceeds the enumeration cap,
    and GroupNotAutomorphisms (aut.check_all_automorphisms) when the group
    is not a group of automorphisms of the graph.
    """
    group = aut_mod.automorphism_group(graph) if group is None else group
    aut_mod.check_all_automorphisms(graph, group)
    best: dict[int, tuple[int, Permutation]] = {}
    for pt, k, g in _semiregular_elements(
            graph, group, cap, lambda k, pt: k not in best or pt < best[k][0]):
        best[k] = pt, g
    witnesses = {k: best[k][1] for k in sorted(best)}
    return SpectrumReport(graph.n, tuple(witnesses), witnesses)


def check_order_bound(report: SpectrumReport) -> tuple[BoundFinding, ...]:
    """Order-bound findings for every odd k in the spectrum.

    pass means n <= 6 k^2; theorem_backed marks the k (squarefree, coprime
    to 6) for which the bound is a theorem rather than a conjecture.
    """
    out = []
    for k in report.spectrum:
        if k % 2 == 0:
            continue
        bound = 6 * k * k
        out.append(BoundFinding(
            k=k,
            bound=bound,
            passed=report.n <= bound,
            theorem_backed=is_squarefree(k) and math.gcd(k, 6) == 1,
        ))
    return tuple(out)


def certify_k_circulant(graph: graphio.Graph, k: int,
                        group: PermGroup | None = None,
                        cap: int | None = None) -> Permutation | None:
    """A verified semiregular witness with k cycles, or None.

    The witness is the one k_spectrum gives for k: the hit with the
    smallest block point, the first in its block.  Each hit is re-verified
    from scratch, cycle structure and adjacency preservation, before it is
    kept, and the walk skips every block from the kept hit's point on.
    GroupNotAutomorphisms as in k_spectrum.
    """
    n = graph.n
    if k < 1 or n % k != 0:
        raise KDoesNotDivideN(f"k = {k} does not divide n = {n}")
    group = aut_mod.automorphism_group(graph) if group is None else group
    aut_mod.check_all_automorphisms(graph, group)
    want = n // k
    best: tuple[int, Permutation | None] = (n, None)  # every block point is below n
    for pt, _, g in _semiregular_elements(graph, group, cap, lambda c, pt: c == k,
                                          lambda: best[0]):
        structure = cycle_structure(g)
        if structure.element_order != want or not all(l == want for l in structure.cycle_lengths):
            continue
        if not aut_mod.is_automorphism(graph, g):
            continue
        best = pt, g
    return best[1]


def edge_reversing_involution_check(graph: graphio.Graph, c_generator: Permutation) -> bool:
    """Does the unique involution of <c> swap the endpoints of some edge?

    Preconditions (PreconditionViolated otherwise): every vertex degree odd;
    c_generator an automorphism, semiregular, with an odd number of cycles.
    Under these the group <c> has even order and the check must return True;
    the operation exists to property-test exactly that.
    """
    if any(len(nbrs) % 2 == 0 for nbrs in graph.adjacency):
        raise PreconditionViolated("a vertex has even degree")
    if c_generator.degree != graph.n:
        raise PreconditionViolated("generator degree differs from graph order")
    if not aut_mod.is_automorphism(graph, c_generator):
        raise PreconditionViolated("generator is not an automorphism")
    if not is_semiregular(c_generator):
        raise PreconditionViolated("generator is not semiregular")
    order = cycle_structure(c_generator).element_order
    orbits = graph.n // order
    if orbits % 2 == 0:
        raise PreconditionViolated(f"even number of orbits ({orbits})")
    if order % 2 != 0:
        # impossible alongside the checks above (it would force odd n on a
        # graph whose degree sum is odd); kept as a guard
        raise PreconditionViolated(f"<c> has odd order {order}")
    involution = power(c_generator, order // 2)
    return any(involution[u] == v for u, v in graph.edges())
