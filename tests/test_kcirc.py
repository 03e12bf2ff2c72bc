"""Spectrum computation, witnesses, order-bound findings, edge reversal."""
import gc
import json
import random
import time
import tracemalloc

import pytest

from circulant_lab import _kernels as kern
from circulant_lab import fixtures, kcirc, perm
from circulant_lab.aut import automorphism_group
from circulant_lab.cli import build_even, build_odd, main, verify_construction
from circulant_lab.errors import (
    CapExceeded,
    GroupNotAutomorphisms,
    KDoesNotDivideN,
    PreconditionViolated,
)
from circulant_lab.graphio import from_edges, is_connected, is_cubic, to_edgelist_text
from circulant_lab.kcirc import (
    certify_k_circulant,
    check_order_bound,
    edge_reversing_involution_check,
    is_squarefree,
    k_spectrum,
)
from circulant_lab.perm import (
    PermGroup,
    cycle_structure,
    from_cycle_string,
    identity,
    is_semiregular,
)
from helpers import (
    cfi_graph,
    chain_elements,
    generalized_petersen,
    random_cubic_graph,
    relabel,
    spectrum_of_perms,
    spectrum_passes,
)

SPEC_SPECTRA = {
    "k4": (1, 2, 4),
    "k33": (1, 2, 3, 6),
    "petersen": (2, 10),
    "cube3": (2, 4, 8),
}


@pytest.mark.parametrize("name,want", sorted(SPEC_SPECTRA.items()))
def test_fixture_spectra(name, want):
    report = k_spectrum(fixtures.load(name))
    assert report.spectrum == want


def test_spectrum_contains_n_and_divisors_only():
    for name in fixtures.NAMES:
        graph = fixtures.load(name)
        report = k_spectrum(graph)
        assert graph.n in report.spectrum
        assert all(graph.n % k == 0 for k in report.spectrum)


def test_witnesses_are_verified_semiregular():
    for name in fixtures.NAMES:
        graph = fixtures.load(name)
        report = k_spectrum(graph)
        for k, w in report.witnesses.items():
            cs = cycle_structure(w)
            assert is_semiregular(w)
            assert cs.element_order == graph.n // k
            for u, v in graph.edges():
                assert w[v] in graph.adjacency[w[u]]


def test_spectrum_invariant_under_relabeling():
    rng = random.Random(21)
    for name in ("k33", "petersen", "cube3"):
        graph = fixtures.load(name)
        want = k_spectrum(graph).spectrum
        for _ in range(3):
            images = list(range(graph.n))
            rng.shuffle(images)
            assert k_spectrum(relabel(graph, images)).spectrum == want


def test_certify_k33_tricirculant():
    k33 = fixtures.load("k33")
    witness = certify_k_circulant(k33, 3)
    assert witness is not None
    cs = cycle_structure(witness)
    assert cs.element_order == 2 and cs.cycle_lengths == (2, 2, 2)


def test_certify_petersen_not_circulant():
    assert certify_k_circulant(fixtures.load("petersen"), 1) is None


def test_certify_trivial_k():
    graph = fixtures.load("cube3")
    assert certify_k_circulant(graph, graph.n) == identity(graph.n)


def test_certify_k_must_divide_n():
    with pytest.raises(KDoesNotDivideN):
        certify_k_circulant(fixtures.load("petersen"), 3)


def test_spectrum_and_certify_search_under_their_cap():
    # with no group they search with their cap, None meaning the default
    # 2^24, so the edgeless graph ends in the search at 11! and at 13!
    edgeless = from_edges(200, [])
    with pytest.raises(CapExceeded, match="^group order at least 39916800 exceeds cap 16777216$"):
        k_spectrum(edgeless)
    with pytest.raises(CapExceeded, match="^group order at least 6227020800 exceeds cap 1000000000$"):
        certify_k_circulant(edgeless, 2, cap=10 ** 9)


def test_null_graph_spectrum_is_empty():
    # a k-circulant needs k >= 1, and certify already refuses k = 0 there
    null = from_edges(0, [])
    report = k_spectrum(null)
    assert report.spectrum == () and report.witnesses == {}
    assert report.to_json_dict()["spectrum"] == []
    with pytest.raises(KDoesNotDivideN):
        certify_k_circulant(null, 0)


ARC_TRANSITIVE_GP = ((4, 1), (5, 2), (8, 3), (10, 2), (10, 3), (12, 5), (24, 5))

CERTIFY_CASES = [(name, "search") for name in fixtures.NAMES] + [
    (member, kind)
    for member in ("odd-3", "odd-5", "odd-7", "even-1-7", "even-2-7")
    for kind in ("search", "arc")
] + [("odd-9", "search")] + [(f"GP{n}-{k}", "search") for n, k in ARC_TRANSITIVE_GP] + [
    (f"random-{seed}", "search") for seed in range(20)
]


def _certify_case(source, group_kind):
    # "search" is the searched Aut; "arc" the caller-supplied arc-transitive
    # group of a family member, whose chain comes from Schreier-Sims
    arc_group = None
    if source in fixtures.NAMES:
        graph = fixtures.load(source)
    elif source.startswith("GP"):
        graph = generalized_petersen(*map(int, source[2:].split("-")))
    elif source.startswith("random-"):
        seed = int(source.split("-")[1])
        rng = random.Random(seed)
        graph = random_cubic_graph(rng, rng.randrange(8, 32, 2))
    else:
        family, *params = source.split("-")
        cons = (build_odd if family == "odd" else build_even)(*map(int, params))
        graph, arc_group = cons.graph, cons.arc_group
    group = automorphism_group(graph) if group_kind == "search" else arc_group
    return graph, group


def _first_hits_over_all_elements(n, group):
    """k -> the first element in chain order that is semiregular with k
    cycles: the oracle for the suborbit walk."""
    hits = {}
    for g in chain_elements(group):
        for k in spectrum_of_perms(n, [g.images]):
            hits.setdefault(k, g)
    return hits


@pytest.mark.parametrize("source,group_kind", CERTIFY_CASES)
def test_certify_matches_spectrum_witness_for_every_divisor(source, group_kind):
    graph, group = _certify_case(source, group_kind)
    oracle = _first_hits_over_all_elements(graph.n, group)
    report = k_spectrum(graph, group)
    assert report.spectrum == tuple(sorted(oracle))
    assert report.witnesses == oracle
    for d in range(1, graph.n + 1):
        if graph.n % d == 0:
            assert certify_k_circulant(graph, d, group) == oracle.get(d), d


@pytest.mark.parametrize("source", ["odd-3", "even-2-7", "odd-5"])
def test_a_first_pass_over_kept_and_shallow_suborbits_matches_the_oracle(source):
    # membership sifts keep the top-level representatives on their paths,
    # so the first pass reads some suborbits through kept representatives
    # and enters the others by its shallow tree
    graph, group = _certify_case(source, "search")
    everything = list(chain_elements(group))
    b = group.base()[0]
    stabiliser = [g for g in everything if g[b] == b]
    minima = sorted({min(h[g[b]] for h in stabiliser) for g in everything} - {b})
    for m in minima[1::2][:4]:
        assert group.contains(next(g for g in everything if g[b] == m))
    kept = group._levels[0].reps
    assert any(m in kept for m in minima) and not all(m in kept for m in minima)
    oracle = _first_hits_over_all_elements(graph.n, group)
    assert k_spectrum(graph, group).witnesses == oracle
    for d in range(1, graph.n + 1):
        if graph.n % d == 0:
            assert certify_k_circulant(graph, d, group) == oracle.get(d), d


@pytest.mark.parametrize("source", ["odd-3", "even-2-7"])
def test_certify_for_every_divisor_computes_the_suborbit_partition_once(monkeypatch, source):
    # repeated queries on one Schreier-Sims group share its suborbit
    # partition, from one orbit walk
    cons = build_odd(3) if source == "odd-3" else build_even(2, 7)
    graph = cons.graph
    group = PermGroup(graph.n, cons.arc_group.generators)
    walks = []
    components = perm.components
    monkeypatch.setattr(perm, "components", lambda n, step: walks.append(n) or components(n, step))
    hits = {k for k in range(1, graph.n + 1)
            if graph.n % k == 0 and certify_k_circulant(graph, k, group) is not None}
    assert len(walks) == 1
    assert hits == set(k_spectrum(graph, group).spectrum)
    assert len(walks) == 1


def _count_walks(monkeypatch, name="_shallow_pass"):
    """Count the calls of one pass of the walk: the shallow pass
    (perm._shallow_pass) or the pass in chain order (perm._chain_pass)."""
    walks = [0]
    walk = getattr(perm, name)

    def counting(*args):
        walks[0] += 1
        return walk(*args)

    monkeypatch.setattr(perm, name, counting)
    return walks


@pytest.mark.parametrize("spectrum_first", [False, True])
@pytest.mark.parametrize("source,group_kind", [("odd-9", "arc"), ("even-5-13", "search")])
def test_certificates_for_every_divisor_walk_the_group_once(
        monkeypatch, source, group_kind, spectrum_first):
    # the first query on a group walks every k, and the spectrum and every
    # later certificate read the hits it kept, in either order: the
    # Schreier-Sims group makes the pass in chain order alone, and the
    # searched group the shallow pass and then that one
    graph, group = _certify_case(source, group_kind)
    n = graph.n
    shallow = _count_walks(monkeypatch)
    in_order = _count_walks(monkeypatch, "_chain_pass")
    if spectrum_first:
        witnesses = k_spectrum(graph, group).witnesses
    certificates = {k: certify_k_circulant(graph, k, group)
                    for k in range(1, n + 1) if n % k == 0}
    if not spectrum_first:
        witnesses = k_spectrum(graph, group).witnesses
    assert (shallow[0], in_order[0]) == ((0, 1) if group_kind == "arc" else (1, 1))
    assert set(witnesses) < set(certificates)
    assert certificates == {k: witnesses.get(k) for k in certificates}


def test_kept_hits_are_read_only_under_the_cap(monkeypatch):
    # every call runs the walk's cap check before it reads the kept hits
    graph = build_odd(3).graph
    group = automorphism_group(graph)
    order = group.order()
    witnesses = k_spectrum(graph, group).witnesses
    text = f"^group order {order} exceeds cap {order - 1}$"
    with pytest.raises(CapExceeded, match=text):
        k_spectrum(graph, group, cap=order - 1)
    with pytest.raises(CapExceeded, match=text):
        certify_k_circulant(graph, 3, group, cap=order - 1)
    assert certify_k_circulant(graph, 3, group, cap=order) == witnesses[3]
    # a call that raised keeps nothing: a later one under a larger cap walks
    group = automorphism_group(graph)
    walks = _count_walks(monkeypatch)
    with pytest.raises(CapExceeded, match=text):
        certify_k_circulant(graph, 3, group, cap=order - 1)
    with pytest.raises(CapExceeded, match=text):
        k_spectrum(graph, group, cap=order - 1)
    assert walks[0] == 0 and group._spectrum_hits is None
    assert certify_k_circulant(graph, 3, group, cap=2 ** 40) == witnesses[3]
    assert k_spectrum(graph, group, cap=2 ** 40).witnesses == witnesses
    assert walks[0] == 1


class _CountingList(list):
    """A list that counts its reads by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("group_kind", ["search", "arc"])
def test_cycle_walk_reads_each_cycle_through_0_once(monkeypatch, group_kind):
    # the walk follows each element's cycle through 0 on its uncomposed
    # word, one image of h per point of the cycle, and composes and fully
    # tests exactly the elements whose number of cycles is wanted; both
    # passes are read, so blocks read through their own representative (g
    # the identity) and through a parent's and a leaf's generator both
    # come; no element is the identity, so one that fixes 0 is never tested
    tested = []
    is_semiregular_images = kern.is_semiregular_images
    monkeypatch.setattr(kern, "is_semiregular_images",
                        lambda images: tested.append(images) or is_semiregular_images(images))
    graph, group = _certify_case("odd-3", group_kind)
    n = graph.n
    identity = list(range(n))
    minima, shallow, in_order = spectrum_passes(group)
    elements = list(shallow()) + list(in_order(minima))
    assert {g == identity for *_, g in elements} == {True, False}
    composed = [perm.Permutation(tuple(g[t[v[x]]] for x in h)) for _, h, v, t, g in elements]
    counted = [_CountingList(h) for _, h, *_ in elements]
    pairs = [(m, c, v, t, g) for c, (m, _, v, t, g) in zip(counted, elements)]
    # nothing is wanted, so only the cycle walk reads h
    assert not list(perm._semiregular_elements(n, pairs, lambda c, m: False))
    through_0 = []
    for e in composed:
        length, j = 1, e[0]
        while j:
            length, j = length + 1, e[j]
        through_0.append(length)
    assert [c.reads for c in counted] == through_0
    for k in range(1, n + 1):
        if n % k:
            continue
        tested.clear()
        hits = [(m, images) for m, c, images in perm._semiregular_elements(
            n, elements, lambda c, m: c == k)]
        assert len(tested) == (0 if k == n else through_0.count(n // k)), k
        assert hits == [(m, list(e.images)) for (m, *_), e in zip(elements, composed)
                        if is_semiregular(e) and len(cycle_structure(e).cycle_lengths) == k], k
    # no pass walks the identity: it is k = n's witness with no test
    assert not any(e.is_identity() for e in composed)
    tested.clear()
    report = k_spectrum(graph, group)
    assert report.witnesses[n].is_identity()
    assert tested and not any(images == identity for images in tested)


def _count_compositions(monkeypatch):
    calls = [0]
    compose_images = kern.compose_images

    def counting(p, q):
        calls[0] += 1
        return compose_images(p, q)

    monkeypatch.setattr(kern, "compose_images", counting)
    return calls


def test_spectrum_walk_composes_only_representatives_and_candidates(monkeypatch):
    # the walk follows each element's cycle through 0 on its uncomposed
    # word; composing every element would take 539 calls besides the
    # coset representatives
    graph = build_odd(9).graph
    group = automorphism_group(graph)
    calls = _count_compositions(monkeypatch)
    report = k_spectrum(graph, group)
    assert report.spectrum == (9, 18, 27, 54, 81, 162, 243, 486)
    spectrum_calls = calls[0]
    # |G_0| = 6: block 0 is not walked, since its one element that fixes
    # no base point is the identity, and two elements of the other blocks
    # fix a base point below the top level
    walked = sum(1 for _ in spectrum_passes(group)[1]())
    assert walked == 546 - 6 - 2
    assert spectrum_calls < walked


def test_a_shallow_first_pass_halves_the_compositions(monkeypatch):
    # odd k = 15: the search's tree has depth 88, and a walk over it alone
    # composes 1154 representatives on the paths to the 240 suborbit
    # minima; the shallow tree enters one point per suborbit, and the
    # second pass walks the search tree's paths to the witness blocks
    graph = build_odd(15).graph
    group = automorphism_group(graph)
    calls = _count_compositions(monkeypatch)
    report = k_spectrum(graph, group)
    assert report.spectrum[0] == 15
    assert calls[0] <= 1154 // 2


@pytest.mark.parametrize("build,params,count", [
    (build_odd, (9,), 96), (build_odd, (15,), 202),
    (build_even, (5, 13), 125), (build_even, (7, 13), 189)])
def test_the_walk_composes_a_representative_only_where_it_branches(
        monkeypatch, build, params, count):
    # a leaf of either pass's tree is read through its parent's
    # representative and its own generator, and a child of the first base
    # point takes its generator itself; composing every node's
    # representative made 150, 383, 291 and 528 compositions.  Of those
    # left at odd k = 9, 48 compose the first pass's random subproducts
    graph = build(*params).graph
    group = automorphism_group(graph)
    group.order()
    calls = _count_compositions(monkeypatch)
    k_spectrum(graph, group)
    assert calls[0] == count


@pytest.mark.parametrize("source", ["odd-5", "odd-7", "even-1-7", "even-2-7"])
def test_a_schreier_sims_group_makes_no_second_pass(monkeypatch, source):
    # every top-level representative is kept, so the group walks one block
    # per suborbit in chain order and takes each k's first hit: it makes no
    # shallow pass, and its certificates agree with the oracle
    graph, group = _certify_case(source, "arc")
    group.order()  # builds a Schreier-Sims chain first
    shallow = _count_walks(monkeypatch)
    in_order = _count_walks(monkeypatch, "_chain_pass")
    oracle = _first_hits_over_all_elements(graph.n, group)
    assert k_spectrum(graph, group).witnesses == oracle
    for d in range(1, graph.n + 1):
        if graph.n % d == 0:
            assert certify_k_circulant(graph, d, group) == oracle.get(d), d
    assert (shallow[0], in_order[0]) == (0, 1)
    # the searched group keeps no top-level representative, so it makes the
    # shallow pass, and then walks its witness blocks in chain order
    graph, group = _certify_case(source, "search")
    k_spectrum(graph, group)
    assert (shallow[0], in_order[0]) == (1, 2)


@pytest.mark.parametrize("source", ["odd-3", "even-2-7"])
def test_a_searched_group_that_keeps_every_top_representative_walks_in_chain_order(
        monkeypatch, source):
    # membership sifts that reach every point of the top orbit keep every
    # top-level representative, so the searched group takes the pass in
    # chain order alone, as a Schreier-Sims group does, and gives the
    # witnesses of a fresh search
    graph, group = _certify_case(source, "search")
    fresh = automorphism_group(graph)
    everything = list(chain_elements(group))
    b = group.base()[0]
    top = group._levels[0]
    assert len(top.reps) < len(top.tree)
    for pt in sorted(top.tree):
        assert group.contains(next(g for g in everything if g[b] == pt))
    assert len(top.reps) == len(top.tree)
    shallow = _count_walks(monkeypatch)
    witnesses = k_spectrum(graph, group).witnesses
    assert shallow[0] == 0
    assert witnesses == k_spectrum(graph, fresh).witnesses == _first_hits_over_all_elements(
        graph.n, group)
    assert shallow[0] == 1


@pytest.mark.parametrize("source,group_kind", [("odd-5", "arc"), ("odd-7", "arc")])
def test_a_schreier_sims_spectrum_composes_no_representative(monkeypatch, source, group_kind):
    # a Schreier-Sims chain keeps every top-level representative, so the
    # first pass reads every suborbit through a kept one, grows no shallow
    # tree and composes no subproduct, and keeps its first hits as the
    # witnesses, so there is no second pass
    graph, group = _certify_case(source, group_kind)
    group.order()  # builds a Schreier-Sims chain first
    calls = _count_compositions(monkeypatch)
    k_spectrum(graph, group)
    assert calls[0] == 0


def test_certify_composes_only_representatives_and_candidates(monkeypatch):
    # certify on a fresh group composes no more than one k_spectrum does
    # (k = 1 has no witness at odd k = 9), and later queries compose nothing
    graph = build_odd(9).graph
    first, group = automorphism_group(graph), automorphism_group(graph)
    calls = _count_compositions(monkeypatch)
    k_spectrum(graph, first)
    spectrum_calls = calls[0]
    calls[0] = 0
    assert certify_k_circulant(graph, 1, group) is None
    assert calls[0] <= spectrum_calls < sum(1 for _ in spectrum_passes(group)[1]()) == 538
    calls[0] = 0
    assert certify_k_circulant(graph, 9, group) is not None
    k_spectrum(graph, group)
    assert calls[0] == 0


def test_spectrum_walk_keeps_no_representative():
    # odd k = 15, n = 1350: the first pass composes the subproducts and the
    # shallow tree's branching nodes, and the second the branching nodes of
    # the search tree's paths to the witness blocks; each holds only the
    # representatives on one tree path, and the first drops its tree and
    # subproducts before the second starts
    graph = build_odd(15).graph
    group = automorphism_group(graph)
    group.order()
    gc.collect()
    tracemalloc.start()
    try:
        report = k_spectrum(graph, group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.spectrum[0] == 15
    assert peak < 3 * 2 ** 20
    # the walk over the search's tree alone peaks at 0.46 MiB, and keeping
    # the second pass's path representatives would take it past 1 MiB;
    # reading the leaves through their parents, it peaks at 0.37 MiB
    assert peak < 2 ** 20
    top = group._levels[0]
    assert list(top.reps) == [top.base]


def test_verified_agrees_with_the_sorted_cycle_list():
    # _verified reads the semiregularity walk and the cycle through 0,
    # which on n >= 1 points give the sorted cycle list's verdict
    graph = build_odd(3).graph
    n = graph.n
    group = PermGroup(n, build_odd(3).arc_group.generators)
    rng = random.Random(11)
    candidates = list(chain_elements(group))
    for w in rng.sample(candidates, 20):
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        conjugate = [0] * n
        for x in range(n):
            conjugate[shuffled[x]] = shuffled[w[x]]
        candidates.append(perm.Permutation(tuple(conjugate)))
    candidates += [perm.Permutation(tuple(rng.sample(range(n), n))) for _ in range(20)]
    lengths = [d for d in range(1, n + 1) if n % d == 0]
    for w in candidates:
        structure = cycle_structure(w)
        automorphism = all(w[v] in graph.adjacency[w[u]] for u, v in graph.edges())
        for length in lengths:
            want = (automorphism and structure.element_order == length
                    and all(c == length for c in structure.cycle_lengths))
            assert kcirc._verified(graph, w, length) is (w if want else None)


def test_certify_rejects_a_group_that_is_not_automorphisms():
    k33 = fixtures.load("k33")
    # semiregular with two cycles, but it breaks the edge 0-3
    breaker = from_cycle_string("(0 1 3)(2 4 5)", 6)
    with pytest.raises(GroupNotAutomorphisms):
        certify_k_circulant(k33, 2, PermGroup(6, [breaker]))
    with pytest.raises(GroupNotAutomorphisms):
        certify_k_circulant(k33, 2, PermGroup(7, []))


def test_spectrum_rejects_a_group_that_is_not_automorphisms():
    # neither generator preserves the edges of K3,3; the walk over this
    # group would report spectrum (1, 2, 3, 6) with the witnesses
    # (0 1 2 3 4 5) and (0 1 5)(2 3 4), neither an automorphism
    k33 = fixtures.load("k33")
    group = PermGroup(6, [from_cycle_string("(0 3)", 6), from_cycle_string("(0 1 2 3 4 5)", 6)])
    with pytest.raises(GroupNotAutomorphisms, match="does not preserve adjacency"):
        k_spectrum(k33, group)


@pytest.mark.parametrize("cycles, degree", [("(0 1 2)", 3), ("(0 1 2 3 4 5)", 6)])
def test_spectrum_rejects_a_group_of_another_degree(cycles, degree):
    # the walk would read the wrong group's cycles: (4,) and (2, 4) on K4
    k4 = fixtures.load("k4")
    with pytest.raises(GroupNotAutomorphisms, match=f"group degree {degree} differs from n = 4"):
        k_spectrum(k4, PermGroup(degree, [from_cycle_string(cycles, degree)]))


def test_is_squarefree():
    assert is_squarefree(1) and is_squarefree(5) and is_squarefree(35)
    assert not is_squarefree(9) and not is_squarefree(45) and not is_squarefree(4)


def test_order_bound_k33():
    report = k_spectrum(fixtures.load("k33"))
    findings = check_order_bound(report)
    by_k = {f.k: f for f in findings}
    assert set(by_k) == {1, 3}
    assert by_k[1].bound == 6 and by_k[1].passed and by_k[1].theorem_backed
    assert by_k[3].bound == 54 and by_k[3].passed and not by_k[3].theorem_backed


def test_order_bound_petersen_vacuous():
    report = k_spectrum(fixtures.load("petersen"))
    assert check_order_bound(report) == ()


def test_order_bound_equality_on_odd_construction():
    cons = build_odd(5)
    assert verify_construction(cons)["ok"]
    report = k_spectrum(cons.graph)
    findings = {f.k: f for f in check_order_bound(report)}
    assert 5 in findings
    assert findings[5].bound == 150 == cons.graph.n  # equality at the bound
    assert findings[5].passed and findings[5].theorem_backed


def test_edge_reversing_k33_part_swap():
    k33 = fixtures.load("k33")
    swap = from_cycle_string("(0 3)(1 4)(2 5)", 6)
    assert edge_reversing_involution_check(k33, swap)


def test_edge_reversing_k4_four_cycle():
    k4 = fixtures.load("k4")
    c = from_cycle_string("(0 1 2 3)", 4)
    assert edge_reversing_involution_check(k4, c)


def test_edge_reversing_precondition_even_orbits():
    petersen = fixtures.load("petersen")
    report = k_spectrum(petersen)
    five = report.witnesses[2]  # order-5 element, 2 orbits
    assert cycle_structure(five).element_order == 5
    with pytest.raises(PreconditionViolated):
        edge_reversing_involution_check(petersen, five)


def test_edge_reversing_precondition_even_degree():
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(PreconditionViolated):
        edge_reversing_involution_check(c4, from_cycle_string("(0 1 2 3)", 4))


def test_edge_reversing_precondition_not_semiregular():
    k4 = fixtures.load("k4")
    with pytest.raises(PreconditionViolated):
        edge_reversing_involution_check(k4, from_cycle_string("(0 1 2)", 4))


@pytest.mark.parametrize("cycles,degree,message", [
    ("(0 1 3)(2 4 5)", 6, "not an automorphism"),  # semiregular, breaks edge 0-3
    ("(0 3)(1 4)(2 5)", 7, "degree"),
])
def test_edge_reversing_precondition_bad_generator(cycles, degree, message):
    k33 = fixtures.load("k33")
    with pytest.raises(PreconditionViolated, match=message):
        edge_reversing_involution_check(k33, from_cycle_string(cycles, degree))


def test_edge_reversing_holds_across_corpus():
    # every hypothesis-satisfying semiregular witness must reverse an edge
    checked = 0
    for name in fixtures.NAMES:
        graph = fixtures.load(name)
        report = k_spectrum(graph)
        for k, w in report.witnesses.items():
            order = graph.n // k
            if k % 2 == 1 and order % 2 == 0:
                assert edge_reversing_involution_check(graph, w), (name, k)
                checked += 1
    assert checked > 0


def test_circulant_classification_over_fixtures():
    # cubic arc-transitive fixtures with 1 in the spectrum: exactly K4, K33
    names = []
    for name in fixtures.NAMES:
        report = k_spectrum(fixtures.load(name))
        if 1 in report.spectrum:
            names.append(name)
    assert sorted(names) == ["k33", "k4"]


def test_spectrum_report_json_shape():
    report = k_spectrum(fixtures.load("k33"))
    report.findings = check_order_bound(report)
    payload = report.to_json_dict(include_trivial=True)
    assert payload["n"] == 6
    assert payload["spectrum"] == [1, 2, 3, 6]
    assert set(payload["witnesses"]) == {"1", "2", "3", "6"}
    assert all(set(f) == {"k", "bound", "pass", "theorem_backed"} for f in payload["findings"])
    filtered = report.to_json_dict(include_trivial=False)
    assert filtered["spectrum"] == [1, 2, 3]


def _asymmetric_cubic_graph(rng, n):
    """A random cubic graph on n vertices whose automorphism group is trivial."""
    while True:
        graph = random_cubic_graph(rng, n)
        if is_connected(graph) and automorphism_group(graph).order() == 1:
            return graph


@pytest.mark.parametrize("base_n, seed", [(10, 1), (10, 2), (12, 1), (14, 2), (16, 3)])
def test_cfi_spectrum_matches_the_full_enumeration(base_n, seed):
    # a CFI graph's automorphisms flip the outer pairs over an even subgraph
    # of the base, 2^(m - n + 1) of them, times the base's own; its long
    # chain of orbits of size 2 is walked level by level, pruned at each
    # fixed base point
    base = random_cubic_graph(random.Random(seed), base_n)
    graph = cfi_graph(base)
    assert graph.n == 10 * base_n
    assert is_cubic(graph) and is_connected(graph)
    group = automorphism_group(graph)
    assert group.order() == 2 ** (base_n // 2 + 1) * automorphism_group(base).order()
    oracle = _first_hits_over_all_elements(graph.n, group)
    report = k_spectrum(graph, group)
    assert report.spectrum == tuple(sorted(oracle))
    assert report.witnesses == oracle
    for k in report.spectrum:
        assert certify_k_circulant(graph, k, group) == oracle[k]


def test_cfi_graph_with_400_vertices_is_analyzed_in_seconds(tmp_path, capsys):
    # |Aut| = 2^21: a walk over every element of the suborbit blocks took
    # about nine minutes
    base = _asymmetric_cubic_graph(random.Random(40), 40)
    graph = cfi_graph(base)
    path = tmp_path / "cfi400.edgelist"
    path.write_text(to_edgelist_text(graph))
    start = time.perf_counter()
    code = main(["analyze", str(path), "--include-trivial-k"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    order = payload["profile"]["aut_order"]
    assert order == 2 ** 21 and order & (order - 1) == 0
    assert payload["spectrum"]["spectrum"] == [400]
    assert elapsed < 60
