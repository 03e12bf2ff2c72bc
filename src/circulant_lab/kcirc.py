"""k-circulant spectrum, witnesses, and the 6k^2 order-bound checks.

A graph is a k-circulant when some semiregular automorphism has exactly k
cycles; the spectrum collects every such k.  The walk that finds them is
the group's (``PermGroup.semiregular_hits``): k -> the first semiregular
element with k cycles in the chain order it defines, walked once per group
over one coset block per suborbit and kept, so the spectrum and every
certificate read the same hits, and witnesses follow the search's base and
coset representatives.  The trivial k = n (identity witness) is part of
the spectrum whenever n >= 1, and reports may filter it.  The walk holds
only for a group of automorphisms, so both entry points pass their group
through ``aut.check_all_automorphisms``: a searched group is never checked
again, a supplied one once per graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from circulant_lab import _kernels as kern
from circulant_lab import aut as aut_mod
from circulant_lab import graphio
from circulant_lab.errors import KDoesNotDivideN, PreconditionViolated
from circulant_lab.perm import (
    DEFAULT_ENUMERATION_CAP,
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

    def reported_ks(self, include_trivial: bool = True) -> list[int]:
        """The spectrum as reports print it: k = n only with include_trivial."""
        return [k for k in self.spectrum if include_trivial or k != self.n]

    def to_json_dict(self, include_trivial: bool = True) -> dict:
        ks = self.reported_ks(include_trivial)
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


def k_spectrum(graph: graphio.Graph, group: PermGroup | None = None,
               cap: int | None = None) -> SpectrumReport:
    """Spectrum { n/|g| : g in Aut, g semiregular } with one witness per k.

    Each witness is the first hit for its k in chain order
    (PermGroup.semiregular_hits): the first hit in the block of the
    smallest point whose block holds one.  k = n is always in the
    spectrum for n >= 1; the null graph's spectrum is empty, as a
    k-circulant needs k >= 1.  Raises CapExceeded when |Aut| exceeds the
    enumeration cap (None: the default), from the search when there is no
    group, and GroupNotAutomorphisms (aut.check_all_automorphisms) when the
    group is not a group of automorphisms of the graph.
    """
    if group is None:
        group = aut_mod.automorphism_group(graph, DEFAULT_ENUMERATION_CAP if cap is None else cap)
    aut_mod.check_all_automorphisms(graph, group)
    witnesses = dict(group.semiregular_hits(cap))
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

    The witness is the one k_spectrum gives for k: the first hit in the
    block of the smallest point whose block holds one, read from the hits
    the group keeps (PermGroup.semiregular_hits).  It is re-verified from
    scratch, cycle structure and adjacency preservation, before it is
    returned.
    CapExceeded and GroupNotAutomorphisms as in k_spectrum.
    """
    n = graph.n
    if k < 1 or n % k != 0:
        raise KDoesNotDivideN(f"k = {k} does not divide n = {n}")
    if group is None:
        group = aut_mod.automorphism_group(graph, DEFAULT_ENUMERATION_CAP if cap is None else cap)
    aut_mod.check_all_automorphisms(graph, group)
    g = group.semiregular_hits(cap).get(k)
    return None if g is None else _verified(graph, g, n // k)


def _verified(graph: graphio.Graph, g: Permutation, length: int) -> Permutation | None:
    """g if, checked from scratch, every cycle has the given length and it
    preserves adjacency; else None.  On n >= 1 points every cycle has the
    length exactly when all cycles have one length and the cycle through
    0 has it, so neither a cycle list nor the element order is formed."""
    images = g.images
    if not kern.is_semiregular_images(images):
        return None
    steps, j = 1, images[0]
    while j:
        j = images[j]
        steps += 1
    if steps != length:
        return None
    return g if aut_mod.is_automorphism(graph, g) else None


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
