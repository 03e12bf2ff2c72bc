"""k-circulant spectrum, witnesses, and the 6k^2 order-bound checks.

A graph is a k-circulant when some semiregular automorphism has exactly k
cycles; the spectrum collects every such k.  Being semiregular with k
cycles is invariant under conjugation, so the spectrum walks one coset
block per suborbit (``PermGroup.suborbit_elements``): the |G_b| elements
mapping the first base point b to the smallest point of each orbit of the
stabiliser G_b, over the stabilizer chain the automorphism search hands
over.  Witnesses are the first hits in that walk, which are exactly the
first hits in the enumeration of the whole group, so they follow the
search's base and coset representatives.  Each element's cycle through
point 0 is walked first, and the full semiregularity test runs only when n
over its length is a k still wanted: one with no witness yet in the
spectrum, the requested one in a certificate.  The trivial k = n (identity
witness) is always part of the spectrum; reports may filter it.
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


def _cycle_length_at_0(images: tuple[int, ...]) -> int:
    length, j = 1, images[0]
    while j != 0:
        j = images[j]
        length += 1
    return length


def _semiregular_elements(graph: graphio.Graph, group: PermGroup, cap: int | None,
                          wanted: Callable[[int], bool]) -> Iterator[tuple[int, Permutation]]:
    """(number of cycles, element) for each semiregular element of the
    suborbit walk whose number of cycles is wanted, in walk order.

    All cycles of a semiregular element have one length, so the cycle
    through point 0 gives their number; the full semiregularity test runs
    only when that number is a wanted k.
    """
    n = graph.n
    for g in group.suborbit_elements(cap):
        images = g.images
        length = _cycle_length_at_0(images) if images else 1
        if n % length == 0 and wanted(n // length) and kern.is_semiregular_images(images):
            yield n // length, g


def k_spectrum(graph: graphio.Graph, group: PermGroup | None = None,
               cap: int | None = None) -> SpectrumReport:
    """Spectrum { n/|g| : g in Aut, g semiregular } with one witness per k.

    Witnesses are the first hits in the deterministic element enumeration,
    found by the suborbit walk.  Raises CapExceeded when |Aut| exceeds the
    enumeration cap.
    """
    if group is None:
        group = aut_mod.automorphism_group(graph)
    witnesses: dict[int, Permutation] = {}
    for k, g in _semiregular_elements(graph, group, cap, lambda k: k not in witnesses):
        witnesses[k] = g
    return SpectrumReport(graph.n, tuple(sorted(witnesses)), witnesses)


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

    The witness is the first hit for k in the element stream that
    k_spectrum walks, and it is re-verified from scratch: cycle structure
    and adjacency preservation are both checked before returning.  The
    suborbit walk may skip elements only because every element of the
    group is an automorphism, so a caller-supplied group is checked first:
    GroupNotAutomorphisms if a generator breaks an edge.
    """
    n = graph.n
    if k < 1 or n % k != 0:
        raise KDoesNotDivideN(f"k = {k} does not divide n = {n}")
    if group is None:
        group = aut_mod.automorphism_group(graph)
    else:
        aut_mod.check_all_automorphisms(graph, group)
    want = n // k
    for _, g in _semiregular_elements(graph, group, cap, lambda c: c == k):
        structure = cycle_structure(g)
        if structure.element_order != want or not all(l == want for l in structure.cycle_lengths):
            continue
        if not aut_mod.is_automorphism(graph, g):
            continue
        return g
    return None


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
