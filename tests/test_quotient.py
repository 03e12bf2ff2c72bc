"""Quotient graphs, regular covers, and the induced-action harness."""
import random

import pytest

from circulant_lab import fixtures
from circulant_lab.aut import _search, automorphism_group
from circulant_lab.cli import build_even, build_odd
from circulant_lab.cayley import left_translation
from circulant_lab.errors import (
    DoesNotPreservePartition,
    GroupNotAutomorphisms,
    HypothesisViolated,
)
from circulant_lab.graphio import from_edges, is_cubic
from circulant_lab.papergroups import even_group, odd_group
from circulant_lab.perm import PermGroup, from_cycle_string, identity
from circulant_lab.quotient import (
    induced_action,
    induced_semiregular_harness,
    quotient_graph,
)
from helpers import brute_force_isomorphic, generalized_petersen


def independent_cover_check(graph, result) -> bool:
    """Equal fibers + no intra-orbit edges + injective neighbor projection."""
    orbit_map = result.orbit_map
    sizes = {}
    for v in range(graph.n):
        sizes[orbit_map[v]] = sizes.get(orbit_map[v], 0) + 1
    if len(set(sizes.values())) > 1:
        return False
    for u, v in graph.edges():
        if orbit_map[u] == orbit_map[v]:
            return False
    for v in range(graph.n):
        nbr = [orbit_map[u] for u in graph.adjacency[v]]
        if len(set(nbr)) != len(nbr):
            return False
        if len(nbr) != len(result.quotient.adjacency[orbit_map[v]]):
            return False
    return True


def test_cube_antipodal_quotient_is_k4():
    cube = fixtures.load("cube3")
    antipodal = from_cycle_string("(0 7)(1 6)(2 5)(3 4)", 8)
    result = quotient_graph(cube, PermGroup(8, [antipodal]))
    assert result.quotient.n == 4
    assert brute_force_isomorphic(result.quotient, fixtures.load("k4"))
    assert result.is_regular_cover
    assert not result.has_intra_orbit_edges


def test_k33_part_swap_quotient_is_triangle():
    k33 = fixtures.load("k33")
    swap = from_cycle_string("(0 3)(1 4)(2 5)", 6)
    result = quotient_graph(k33, PermGroup(6, [swap]))
    assert result.quotient.n == 3
    assert result.quotient.edge_count == 3  # triangle: valency drops 3 -> 2
    assert not result.is_regular_cover
    assert result.has_intra_orbit_edges


def test_trivial_quotient():
    graph = fixtures.load("petersen")
    result = quotient_graph(graph, PermGroup(graph.n, []))
    assert result.quotient == graph
    assert result.is_regular_cover
    assert not result.has_intra_orbit_edges


def test_quotient_rejects_non_automorphisms():
    # swapping a single vertex across the parts of K33 breaks edges
    k33 = fixtures.load("k33")
    with pytest.raises(GroupNotAutomorphisms):
        quotient_graph(k33, PermGroup(6, [from_cycle_string("(0 3)", 6)]))
    for degree in (5, 7):  # no generators to check, but the wrong point set
        with pytest.raises(GroupNotAutomorphisms):
            quotient_graph(k33, PermGroup(degree, []))


def test_cover_flag_agrees_with_independent_check():
    cases = []
    cube = fixtures.load("cube3")
    cases.append((cube, PermGroup(8, [from_cycle_string("(0 7)(1 6)(2 5)(3 4)", 8)])))
    k33 = fixtures.load("k33")
    cases.append((k33, PermGroup(6, [from_cycle_string("(0 3)(1 4)(2 5)", 6)])))
    cases.append((k33, PermGroup(6, [])))
    # quotienting Heawood by <translation by w> collapses all three
    # neighbors into one orbit: two fibers but not a cover
    cons = build_even(1, 7)
    w = left_translation(even_group(1, 7), cons.labeling, even_group(1, 7).element(0, 0, 1, 0))
    cases.append((cons.graph, PermGroup(14, [w])))
    pappus = fixtures.load("pappus")
    from circulant_lab.kcirc import k_spectrum
    cases.append((pappus, PermGroup(18, [k_spectrum(pappus).witnesses[6]])))
    for graph, subgroup in cases:
        result = quotient_graph(graph, subgroup)
        assert result.is_regular_cover == independent_cover_check(graph, result)


def _orbit_map_by_generators(n, generators):
    """Orbit indices by smallest vertex, from a walk over the generators."""
    orbit = [None] * n
    count = 0
    for v in range(n):
        if orbit[v] is not None:
            continue
        orbit[v] = count
        todo = [v]
        for u in todo:
            for g in generators:
                if orbit[g[u]] is None:
                    orbit[g[u]] = count
                    todo.append(g[u])
        count += 1
    return orbit, count


def assert_quotient_is_its_definition(graph, subgroup, result):
    """The quotient, the intra-orbit flag and the cover flag against their
    definitions, read at every vertex; returns (cover, intra)."""
    orbit, count = _orbit_map_by_generators(graph.n, subgroup.generators)
    assert list(result.orbit_map) == orbit
    pairs = {frozenset((orbit[u], orbit[v])) for u, v in graph.edges()}
    want = [set() for _ in range(count)]
    for pair in pairs:
        if len(pair) == 2:
            a, b = pair
            want[a].add(b)
            want[b].add(a)
    intra = any(len(p) == 1 for p in pairs)
    cover = True
    for v, nbrs in enumerate(graph.adjacency):
        projected = [orbit[u] for u in nbrs]
        if len(set(projected)) != len(projected) or set(projected) != want[orbit[v]]:
            cover = False
    quotient = result.quotient
    assert quotient.n == count
    for o, nbrs in enumerate(quotient.adjacency):
        assert type(nbrs) is tuple and list(nbrs) == sorted(set(nbrs))
        assert set(nbrs) == want[o]
        assert all(o in quotient.adjacency[b] for b in nbrs)  # symmetric
    assert result.has_intra_orbit_edges == intra
    assert result.is_regular_cover == cover
    return cover, intra


def test_quotient_matches_its_definition_for_every_witness():
    # the edge set, the intra-orbit flag and the cover flag against their
    # definitions read at every vertex, while the quotient reads one vertex
    # per orbit: by every spectrum witness of small graphs (the witnesses
    # of small k put repeated and intra-orbit neighbours in some
    # quotients), by lattice translations with two generators, by vertex
    # stabilisers (not semiregular), by whole groups, and by trivial ones
    from circulant_lab.kcirc import k_spectrum
    graphs = [fixtures.load(name) for name in fixtures.NAMES]
    graphs += [build_odd(3).graph, build_even(2, 7).graph]
    cases = []
    for graph in graphs:
        cases += [(graph, PermGroup(graph.n, [w])) for w in k_spectrum(graph).witnesses.values()]
    for k in (5, 7):
        # translations by <u^d, v^d>, as the harness tests use them
        cons, G = build_odd(k), odd_group(k)
        for d in (1, k):
            gens = [left_translation(G, cons.labeling, G.element(d, 0, 0, 0)),
                    left_translation(G, cons.labeling, G.element(0, d, 0, 0))]
            cases.append((cons.graph, PermGroup(cons.graph.n, gens)))
    for n, k in ((5, 2), (8, 3), (10, 3), (12, 5)):
        graph = generalized_petersen(n, k)
        group = automorphism_group(graph)
        # the stabiliser of vertex 0 in the arc-transitive group, fresh so
        # that its generators are checked
        stabiliser = _search(graph, [1] + [0] * (graph.n - 1))
        cases.append((graph, PermGroup(graph.n, stabiliser.generators)))
        cases.append((graph, PermGroup(graph.n, group.generators)))
        cases.append((graph, group))
    for graph in graphs + [from_edges(0, []), from_edges(3, [(0, 1)])]:
        cases.append((graph, PermGroup(graph.n, [])))
    flags = set()
    for graph, subgroup in cases:
        result = quotient_graph(graph, subgroup)
        flags.add(assert_quotient_is_its_definition(graph, subgroup, result))
    assert flags == {(True, False), (False, True), (False, False)}
    null = quotient_graph(from_edges(0, []), PermGroup(0, []))
    assert null.quotient.n == 0 and null.orbit_map == () and null.is_regular_cover


def _labelled_orbit_cases():
    """(graph, group) pairs: trivial groups of degree 0, 1 and 2, every
    spectrum witness (the identity's, k = n, among them), the harness's
    normal subgroups (one even translation; two odd lattice translations)
    and groups of several generators (a searched Aut, an arc group)."""
    from circulant_lab.kcirc import k_spectrum
    cases = [(from_edges(0, []), PermGroup(0, [])), (from_edges(1, []), PermGroup(1, [])),
             (from_edges(2, [(0, 1)]), PermGroup(2, [])),
             (from_edges(2, [(0, 1)]), PermGroup(2, [identity(2)]))]
    for graph in (fixtures.load("pappus"), build_odd(3).graph, build_even(2, 7).graph):
        witnesses = k_spectrum(graph).witnesses
        assert graph.n in witnesses and len(witnesses) > 2
        cases += [(graph, PermGroup(graph.n, [w])) for w in witnesses.values()]
    cons, G = build_even(1, 13), even_group(1, 13)
    cases.append((cons.graph, PermGroup(cons.graph.n, [
        left_translation(G, cons.labeling, G.element(0, 0, 2, 0))])))
    cons, G = build_odd(5), odd_group(5)
    cases.append((cons.graph, PermGroup(cons.graph.n, [
        left_translation(G, cons.labeling, G.element(1, 0, 0, 0)),
        left_translation(G, cons.labeling, G.element(0, 1, 0, 0))])))
    cases.append((cons.graph, PermGroup(cons.graph.n, cons.arc_group.generators)))
    gp = generalized_petersen(8, 3)
    cases.append((gp, PermGroup(gp.n, automorphism_group(gp).generators)))
    return cases


def test_orbits_and_orbit_map_are_the_walk_over_generators():
    # orbits() and the quotient's orbit map both come from one labelled
    # walk: each must equal the plain walk over the generators, and the
    # labelled orbits list each orbit from its smallest point
    for graph, group in _labelled_orbit_cases():
        label, count = _orbit_map_by_generators(graph.n, group.generators)
        want = [[v for v in range(graph.n) if label[v] == c] for c in range(count)]
        assert group.orbits() == want
        assert list(quotient_graph(graph, group).orbit_map) == label
        classes, labels = group.labelled_orbits()
        assert labels == label and sorted(map(sorted, classes)) == want
        assert all(cls[0] == min(cls) and all(labels[v] == c for v in cls)
                   for c, cls in enumerate(classes))


def test_a_quotient_walks_its_points_once(monkeypatch):
    # the orbits and the orbit map of a quotient, and of the harness's
    # induced action, come from one labelled walk that steps from each
    # point once
    from circulant_lab import perm
    from circulant_lab.kcirc import k_spectrum

    cons = build_odd(5)
    graph, n = cons.graph, cons.graph.n
    witnesses = k_spectrum(graph).witnesses
    G = odd_group(5)
    normal = PermGroup(n, [left_translation(G, cons.labeling, G.element(1, 0, 0, 0)),
                           left_translation(G, cons.labeling, G.element(0, 1, 0, 0))])
    walks = []
    stepped = []
    components = perm.components

    def counting(degree, step):
        walks.append(degree)
        return components(degree, lambda v: stepped.append(v) or step(v))

    monkeypatch.setattr(perm, "components", counting)
    for w in witnesses.values():
        walks.clear()
        stepped.clear()
        quotient_graph(graph, PermGroup(n, [w]))
        assert walks == [n] and sorted(stepped) == list(range(n))
    walks.clear()
    stepped.clear()
    assert induced_semiregular_harness(graph, cons.witness, normal, cons.arc_group).passed
    assert walks == [n] and sorted(stepped) == list(range(n))


def test_regular_cover_of_cubic_is_cubic():
    # the antipodal quotient of the cube and any cover quotients of Pappus
    covers = 0
    cube = fixtures.load("cube3")
    result = quotient_graph(cube, PermGroup(8, [from_cycle_string("(0 7)(1 6)(2 5)(3 4)", 8)]))
    assert result.is_regular_cover
    assert is_cubic(result.quotient)
    covers += 1
    pappus = fixtures.load("pappus")
    from circulant_lab.kcirc import k_spectrum
    report = k_spectrum(pappus)
    for k, w in report.witnesses.items():
        if k == pappus.n:
            continue
        result = quotient_graph(pappus, PermGroup(18, [w]))
        if result.is_regular_cover:
            assert is_cubic(result.quotient)
            covers += 1
    assert covers >= 1


def test_induced_action_trivial_subgroup():
    c = from_cycle_string("(0 1 2 3 4)(5 6 7 8 9)", 10)
    induced = induced_action(c, PermGroup(10, []))
    assert induced == c


def test_induced_action_on_singleton_orbits_example():
    c = from_cycle_string("(0 1)(2 3)", 4)
    assert induced_action(c, PermGroup(4, [])) == c


def test_induced_action_rejects_split_orbits():
    n_group = PermGroup(4, [from_cycle_string("(0 1)", 4)])  # orbits {0,1},{2},{3}
    c = from_cycle_string("(1 2)", 4)
    with pytest.raises(DoesNotPreservePartition):
        induced_action(c, n_group)


def test_harness_even_1_7_instance():
    # C = N = <translation by w>: order 7, normal, coprime to |G_v| = 3
    cons = build_even(1, 7)
    G = even_group(1, 7)
    w = left_translation(G, cons.labeling, G.element(0, 0, 1, 0))
    n_group = PermGroup(14, [w])
    verdict = induced_semiregular_harness(cons.graph, w, n_group, cons.arc_group)
    assert verdict.passed
    assert verdict.k == 2 and verdict.k_prime == 2


def test_harness_trivial_subgroup():
    cons = build_odd(3)
    verdict = induced_semiregular_harness(
        cons.graph, cons.witness, PermGroup(cons.graph.n, []), cons.arc_group)
    assert verdict.passed
    assert verdict.k == 3 and verdict.k_prime == 3


def test_harness_rejects_non_normal_subgroup():
    k4 = fixtures.load("k4")
    sym4 = automorphism_group(k4)
    n_group = PermGroup(4, [from_cycle_string("(0 1)", 4)])
    c = from_cycle_string("(0 1 2 3)", 4)
    with pytest.raises(HypothesisViolated) as err:
        induced_semiregular_harness(k4, c, n_group, sym4)
    assert err.value.clause == "normality"


def test_harness_rejects_non_coprime():
    # N = <double transpositions> has order 4, |G_v| = 6: not coprime
    k4 = fixtures.load("k4")
    sym4 = automorphism_group(k4)
    n_group = PermGroup(4, [from_cycle_string("(0 1)(2 3)", 4),
                            from_cycle_string("(0 2)(1 3)", 4)])
    c = from_cycle_string("(0 1 2 3)", 4)
    with pytest.raises(HypothesisViolated) as err:
        induced_semiregular_harness(k4, c, n_group, sym4)
    assert err.value.clause == "coprimality"


def test_harness_rejects_non_automorphisms():
    k33 = fixtures.load("k33")
    bogus = PermGroup(6, [from_cycle_string("(0 3)", 6)])
    with pytest.raises(GroupNotAutomorphisms):
        induced_semiregular_harness(k33, identity(6), PermGroup(6, []), bogus)


def test_harness_rejects_intransitive_group():
    path = from_edges(3, [(0, 1), (1, 2)])
    group = automorphism_group(path)
    with pytest.raises(HypothesisViolated) as err:
        induced_semiregular_harness(path, identity(3), PermGroup(3, []), group)
    assert err.value.clause == "transitivity"


def test_harness_randomized_instances():
    """Hypothesis-satisfying instances built from both families never fail."""
    rng = random.Random(20260809)
    verdicts = []
    pool = []
    for m, p in ((1, 7), (2, 7), (1, 13), (2, 13)):
        pool.append(("even", m, p, build_even(m, p), even_group(m, p)))
    for k in (5, 7):
        pool.append(("odd", k, None, build_odd(k), odd_group(k)))

    for _ in range(100):
        family, a, b, cons, G = rng.choice(pool)
        if family == "even":
            # <translation by w^c>: order p, normal, coprime to |G_v| = 3
            n_elem = G.element(0, 0, rng.randrange(1, G.params.p), 0)
            n_gens = [left_translation(G, cons.labeling, n_elem)]
        else:
            # translations by <u^d, v^d>: y-, x- and sigma-invariant lattice
            k = a
            d = rng.choice([d for d in range(1, k)
                            if k % d == 0 and (k // d) % 3 != 0])
            n_gens = [left_translation(G, cons.labeling, G.element(d, 0, 0, 0)),
                      left_translation(G, cons.labeling, G.element(0, d, 0, 0))]
        n_group = PermGroup(cons.graph.n, n_gens)
        verdict = induced_semiregular_harness(cons.graph, cons.witness, n_group, cons.arc_group)
        assert verdict.passed, (family, a, b, verdict)
        verdicts.append(verdict)
    assert len(verdicts) == 100
