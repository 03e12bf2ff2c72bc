"""k-circulant spectrum, witnesses, and the 6k^2 order-bound checks.

A graph is a k-circulant when some semiregular automorphism has exactly k
cycles; the spectrum collects every such k.  Being semiregular with k
cycles is invariant under conjugation, so the spectrum walks one coset
block per suborbit (``PermGroup.suborbit_pairs``): the |G_b| elements
mapping the first base point b to one point of each orbit of the
stabiliser G_b, over the stabilizer chain the automorphism search hands
over.  An element that fixes a point is the identity or not semiregular,
so the walk drops elements that fix a base point, whole subtrees of the
chain at a time.  A witness is the first hit of the whole group in the
chain order that ``PermGroup.suborbit_pairs`` defines: the first hit in
the block of the smallest point whose block holds one.  So witnesses
follow the search's base and coset representatives.

The walk runs in two passes (``PermGroup.suborbit_pairs`` gives the
account), and one function, _first_hits, runs both, once per group: it
walks every k and keeps the hits on the group, and the spectrum and every
certificate read them.  Each pass composes a coset representative only
where its tree branches, and reads each leaf's block through its parent's
representative and the leaf's generator.  A block the first pass reads
through a representative the chain keeps is in chain order, so its first
hit is final, as the identity's is; the second pass walks only the other
witness blocks, and a Schreier-Sims group makes none.  The trivial k = n
(identity witness) is part of the spectrum whenever n >= 1; reports may
filter it.  The walk holds only for a group of automorphisms, so both
pass their group through ``aut.check_all_automorphisms``: a searched group
is never checked again, a supplied one once per graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from circulant_lab import _kernels as kern
from circulant_lab import aut as aut_mod
from circulant_lab import graphio
from circulant_lab.errors import KDoesNotDivideN, PreconditionViolated
from circulant_lab.perm import (
    DEFAULT_ENUMERATION_CAP,
    PermGroup,
    Permutation,
    WalkElement,
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


def _semiregular_elements(n: int, pairs: Iterable[WalkElement],
                          wanted: Callable[[int, int], bool]
                          ) -> Iterator[tuple[int, bool, int, list[int]]]:
    """(m, ordered, number of cycles, images) for each semiregular element
    of the walk's pairs (PermGroup.suborbit_pairs) whose number of cycles k
    is wanted(k, m), in walk order.

    All cycles of a semiregular element have one length, so the cycle
    through point 0 gives their number.  That cycle of the element
    x -> t[v[h[x]]], or x -> g[t[v[h[x]]]] for a block the walk reads
    through its parent, is followed in as many steps as it is long.  The
    element is composed and tested only when its number is wanted: one
    that fixes 0 is semiregular exactly when it is the identity, a list
    comparison, and any other is fully tested.
    """
    for m, ordered, h, v, t, g in pairs:
        length = 1
        if g is None:
            j = t[v[h[0]]]
            while j:
                j = t[v[h[j]]]
                length += 1
        else:
            j = g[t[v[h[0]]]]
            while j:
                j = g[t[v[h[j]]]]
                length += 1
        if n % length or not wanted(n // length, m):
            continue
        images = [t[v[x]] for x in h] if g is None else [g[t[v[x]]] for x in h]
        if (images == list(range(n))) if length == 1 else kern.is_semiregular_images(images):
            yield m, ordered, n // length, images


def _first_hits(n: int, group: PermGroup, cap: int | None) -> dict[int, Permutation]:
    """k -> its first hit in chain order (defined at PermGroup.suborbit_pairs),
    by ascending k, for every k of the spectrum of group on n > 0 points.

    The first pass (suborbit_pairs) records for each k the smallest point m
    whose block holds it.  A block the first pass reads in chain order (the
    identity's, and each one read through a representative the top level
    keeps) gives its first hit of each k as it goes, and that hit is kept
    while its m is the best.  The second (chain_pairs) walks in chain order
    the blocks of the other best m only, and takes the first hit of each k
    in its block.  A Schreier-Sims chain keeps every top-level
    representative, so it makes no second pass.

    The hits depend on the chain alone, not on the representatives the top
    level keeps, so the group walks once, on the first call, and keeps them
    (in an attribute read and set only here): a spectrum and a certificate
    for each divisor of n cost one walk.  The walk's cap check
    (PermGroup.check_cap) runs on every call before the hits are read, and
    a call that raised keeps nothing.
    """
    group.check_cap(cap)
    if group._spectrum_hits is not None:
        return group._spectrum_hits
    first: dict[int, int] = {}  # k -> the smallest suborbit point whose block holds it
    found: dict[int, list[int]] = {}
    for m, ordered, c, images in _semiregular_elements(
            n, group.suborbit_pairs(cap), lambda c, m: m < first.get(c, n)):
        first[c] = m
        if ordered:
            found[c] = images
        else:
            found.pop(c, None)
    rest = {m for c, m in first.items() if c not in found}
    if rest:
        for _, _, c, images in _semiregular_elements(
                n, group.chain_pairs(rest), lambda c, m: first.get(c) == m and c not in found):
            found[c] = images
            if len(found) == len(first):
                break
    group._spectrum_hits = {k: Permutation(tuple(found[k])) for k in sorted(found)}
    return group._spectrum_hits


def k_spectrum(graph: graphio.Graph, group: PermGroup | None = None,
               cap: int | None = None) -> SpectrumReport:
    """Spectrum { n/|g| : g in Aut, g semiregular } with one witness per k.

    Each witness is the first hit for its k in chain order (defined at
    PermGroup.suborbit_pairs): the first hit in the block of the smallest
    point whose block holds one (_first_hits).  k = n is always in the
    spectrum for n >= 1; the null graph's spectrum is empty, as a
    k-circulant needs k >= 1.  Raises CapExceeded when |Aut| exceeds the
    enumeration cap (None: the default), from the search when there is no
    group, and GroupNotAutomorphisms (aut.check_all_automorphisms) when the
    group is not a group of automorphisms of the graph.
    """
    if group is None:
        group = aut_mod.automorphism_group(graph, DEFAULT_ENUMERATION_CAP if cap is None else cap)
    aut_mod.check_all_automorphisms(graph, group)
    n = graph.n
    if n == 0:  # the null graph is a k-circulant for no k >= 1
        return SpectrumReport(0, (), {})
    witnesses = dict(_first_hits(n, group, cap))
    return SpectrumReport(n, tuple(witnesses), witnesses)


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
    the group keeps (_first_hits).  It is re-verified from scratch, cycle
    structure and adjacency preservation, before it is returned.
    CapExceeded and GroupNotAutomorphisms as in k_spectrum.
    """
    n = graph.n
    if k < 1 or n % k != 0:
        raise KDoesNotDivideN(f"k = {k} does not divide n = {n}")
    if group is None:
        group = aut_mod.automorphism_group(graph, DEFAULT_ENUMERATION_CAP if cap is None else cap)
    aut_mod.check_all_automorphisms(graph, group)
    if n == 0:
        return None
    g = _first_hits(n, group, cap).get(k)
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
