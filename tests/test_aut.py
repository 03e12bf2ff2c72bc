"""Automorphism search, arc-transitivity, and arc-type classification."""
import dataclasses
import gc
import hashlib
import math
import random
import sys
import weakref

import pytest
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from circulant_lab import fixtures
from circulant_lab.aut import (
    _search,
    arc_transitive_type,
    automorphism_group,
    bfs_order,
    is_arc_transitive,
    symmetry_profile,
    tutte_type,
)
from circulant_lab.cli import build_even, build_odd
from circulant_lab.errors import (
    CapExceeded,
    GroupNotAutomorphisms,
    NotArcTransitive,
    NotCubic,
    StabiliserNotOfForm,
)
from circulant_lab.graphio import Graph, from_edges
from circulant_lab.kcirc import certify_k_circulant, k_spectrum
from circulant_lab.perm import (
    DEFAULT_ENUMERATION_CAP,
    PermGroup,
    Permutation,
    compose,
    from_cycle_string,
    identity,
)
from helpers import (
    arc_orbit_of_tuples,
    brute_force_automorphisms,
    cfi_graph,
    chain_elements,
    chang_graph,
    generalized_petersen,
    random_cubic_graph,
    random_simple_graph,
    relabel,
    schreier_tree,
)


def test_k4_full_symmetric():
    assert automorphism_group(fixtures.load("k4")).order() == 24


def test_path_reflection_only():
    path = from_edges(3, [(0, 1), (1, 2)])
    group = automorphism_group(path)
    assert group.order() == 2


def test_matches_brute_force_on_fixtures():
    for name in ("k4", "k33", "cube3", "petersen"):
        graph = fixtures.load(name)
        want = len(brute_force_automorphisms(graph))
        assert automorphism_group(graph).order() == want, name


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randrange(1, 9)
        graph = random_simple_graph(rng, n, rng.random())
        want = len(brute_force_automorphisms(graph))
        got = automorphism_group(graph).order()
        assert got == want, (graph.adjacency, got, want)


def test_generators_preserve_edges_exhaustively():
    for name in ("petersen", "heawood", "pappus"):
        graph = fixtures.load(name)
        for g in automorphism_group(graph).generators:
            for u, v in graph.edges():
                assert g[v] in graph.adjacency[g[u]]
            for u in range(graph.n):
                for v in graph.adjacency[u]:
                    assert g[v] in graph.adjacency[g[u]]


def test_order_invariant_under_relabeling():
    rng = random.Random(5)
    graph = fixtures.load("petersen")
    order = automorphism_group(graph).order()
    for _ in range(5):
        images = list(range(graph.n))
        rng.shuffle(images)
        assert automorphism_group(relabel(graph, images)).order() == order


def test_arc_transitive_k4_with_sym4():
    k4 = fixtures.load("k4")
    sym4 = PermGroup(4, [from_cycle_string("(0 1 2 3)", 4), from_cycle_string("(0 1)", 4)])
    assert is_arc_transitive(k4, sym4)


def test_arc_transitive_path_false():
    path = from_edges(3, [(0, 1), (1, 2)])
    assert not is_arc_transitive(path, automorphism_group(path))


def test_arc_transitive_petersen():
    graph = fixtures.load("petersen")
    assert is_arc_transitive(graph, automorphism_group(graph))


def test_arc_transitive_rejects_non_automorphisms():
    k33 = fixtures.load("k33")
    bogus = PermGroup(6, [from_cycle_string("(0 3)", 6)])  # swaps across parts badly
    with pytest.raises(GroupNotAutomorphisms):
        is_arc_transitive(k33, bogus)


def test_a_group_is_checked_once_per_graph(monkeypatch):
    # check_all_automorphisms alone decides whether a group is checked: a
    # searched group is never checked again, a supplied one once per
    # Graph object, and a bad one is rejected by every analysis
    from circulant_lab import _kernels as kern

    cons = build_odd(3)
    graph = cons.graph
    searched = automorphism_group(graph)
    supplied = PermGroup(graph.n, cons.arc_group.generators)
    checked = []
    preserves = kern.preserves_edges
    monkeypatch.setattr(kern, "preserves_edges",
                        lambda index, images: checked.append(images)
                        or preserves(index, images))

    def generator_checks(group):
        # certify also re-verifies each witness it keeps, a new permutation
        return [im for im in checked if any(im is g.images for g in group.generators)]

    assert symmetry_profile(graph, searched).arc_transitive
    assert tutte_type(graph, searched) == 1
    assert k_spectrum(graph, searched).spectrum[0] == 3
    assert checked == []

    assert tutte_type(graph, supplied) == 0  # the arc group is Aut's index-2 subgroup
    assert symmetry_profile(graph, supplied).arc_transitive
    assert 3 in k_spectrum(graph, supplied).spectrum
    for k in range(1, graph.n + 1):
        if graph.n % k == 0:
            certify_k_circulant(graph, k, supplied)
    gens = [g.images for g in supplied.generators]
    assert generator_checks(supplied) == gens

    twin = Graph(graph.adjacency)
    assert twin == graph and twin is not graph
    assert is_arc_transitive(twin, supplied)
    assert generator_checks(supplied) == gens + gens

    bogus = PermGroup(graph.n, [from_cycle_string("(0 1)", graph.n)])
    for analysis in (is_arc_transitive, tutte_type, symmetry_profile, k_spectrum,
                     lambda graph, group: certify_k_circulant(graph, 3, group)):
        with pytest.raises(GroupNotAutomorphisms):
            analysis(graph, bogus)


def _tuple_walk_says_arc_transitive(graph, group):
    return len(arc_orbit_of_tuples(graph, group.generators)) == 2 * graph.edge_count


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_arc_walk_matches_the_tuple_walk_on_one_generator_subgroups(name):
    graph = fixtures.load(name)
    full = automorphism_group(graph)
    assert is_arc_transitive(graph, full) and _tuple_walk_says_arc_transitive(graph, full)
    gens = full.generators
    for g in list(gens) + [compose(gens[0], gens[-1])]:
        cyclic = PermGroup(graph.n, [g])
        assert len(arc_orbit_of_tuples(graph, [g])) < 2 * graph.edge_count
        assert not is_arc_transitive(graph, cyclic)


@pytest.mark.parametrize("build,params", [
    (build_odd, (3,)), (build_odd, (5,)), (build_even, (1, 7)),
], ids=["odd-3", "odd-5", "even-1-7"])
def test_arc_walk_matches_the_tuple_walk_on_arc_groups(build, params):
    cons = build(*params)
    assert _tuple_walk_says_arc_transitive(cons.graph, cons.arc_group)
    assert is_arc_transitive(cons.graph, cons.arc_group)
    # without the outer automorphism the translations are regular on the
    # vertices: one arc of every three is reached
    translations = PermGroup(cons.graph.n, cons.arc_group.generators[:-1])
    assert len(arc_orbit_of_tuples(cons.graph, translations.generators)) == cons.graph.n
    assert not is_arc_transitive(cons.graph, translations)


@pytest.mark.parametrize("edges,expected", [
    ([(1, 2), (2, 3), (3, 4), (4, 1)], True),   # a 4-cycle beside vertex 0
    ([(1, 2), (2, 3)], False),                  # a path beside vertex 0
], ids=["cycle", "path"])
def test_arc_walk_with_vertex_0_isolated(edges, expected):
    graph = from_edges(5, edges)
    assert next(graph.arcs())[0] != 0
    group = automorphism_group(graph)
    assert _tuple_walk_says_arc_transitive(graph, group) is expected
    assert is_arc_transitive(graph, group) is expected


def test_arc_walk_on_the_edgeless_graph_is_vacuously_true():
    graph = from_edges(4, [])
    assert arc_orbit_of_tuples(graph, []) == set()
    assert is_arc_transitive(graph, automorphism_group(graph))
    assert is_arc_transitive(graph, PermGroup(4, []))


def test_tutte_types():
    assert tutte_type(fixtures.load("k4")) == 1
    assert tutte_type(fixtures.load("k33")) == 2
    assert tutte_type(fixtures.load("cube3")) == 1
    assert tutte_type(fixtures.load("petersen")) == 2
    assert tutte_type(fixtures.load("heawood")) == 3
    assert tutte_type(fixtures.load("pappus")) == 2


def test_tutte_rejects_non_cubic():
    with pytest.raises(NotCubic):
        tutte_type(from_edges(3, [(0, 1), (1, 2)]))
    with pytest.raises(NotCubic):
        arc_transitive_type(from_edges(3, [(0, 1), (1, 2)]))


def test_tutte_rejects_non_arc_transitive():
    # the triangular prism is vertex- but not arc-transitive
    prism = from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                           (0, 3), (1, 4), (2, 5)])
    with pytest.raises(NotArcTransitive):
        tutte_type(prism)


def test_tutte_rejects_disconnected():
    two_k4 = from_edges(8, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                        + [(u + 4, v + 4) for u in range(4) for v in range(u + 1, 4)])
    with pytest.raises(NotArcTransitive):
        tutte_type(two_k4)
    with pytest.raises(NotArcTransitive):
        arc_transitive_type(two_k4)


def test_tutte_rejects_the_null_graph():
    # cubic, connected and arc-transitive, all vacuously, but with no vertex
    # stabiliser; the profile reports no arc type there
    null = from_edges(0, [])
    with pytest.raises(StabiliserNotOfForm):
        tutte_type(null)
    with pytest.raises(StabiliserNotOfForm):
        arc_transitive_type(null)
    assert symmetry_profile(null).tutte_t is None


def test_tutte_bound_on_fixture_corpus():
    for name in fixtures.NAMES:
        graph = fixtures.load(name)
        group = automorphism_group(graph)
        t = tutte_type(graph, group)
        assert 0 <= t <= 4
        assert group.order() == 3 * 2 ** t * graph.n


# a vertex, an arc, and an edge as a set, each colored apart from the rest
def _root_colorings(graph):
    for v in range(graph.n):
        yield [int(w == v) for w in range(graph.n)]
    for u, v in graph.arcs():
        colors = [0] * graph.n
        colors[u], colors[v] = 1, 2
        yield colors
        if u < v:
            colors = [0] * graph.n
            colors[u] = colors[v] = 1
            yield colors


def is_automorphism_of(graph, g):
    return all(g.images[v] in graph.adjacency[g.images[u]] for u, v in graph.edges())


_COLORED_SEARCH_GRAPHS = (
    [fixtures.load(name) for name in ("k4", "k33", "cube3", "petersen")]
    + [random_cubic_graph(random.Random(seed), n)
       for seed, n in ((1, 6), (2, 8), (3, 8), (4, 8), (5, 10))])


@pytest.mark.parametrize("graph", _COLORED_SEARCH_GRAPHS,
                         ids=["k4", "k33", "cube3", "petersen"]
                         + [f"random{i}" for i in range(1, 6)])
def test_colored_search_matches_brute_force(graph):
    automorphisms = brute_force_automorphisms(graph)
    for colors in _root_colorings(graph):
        want = sum(all(colors[p[v]] == colors[v] for v in range(graph.n))
                   for p in automorphisms)
        group = _search(graph, colors)
        assert group.order() == want, colors
        for g in group.generators:
            assert is_automorphism_of(graph, g)
            assert [colors[x] for x in g.images] == colors


# the family members on which the stabiliser recipe was first compared
_ARC_TYPE_MEMBERS = ([("odd", (k,)) for k in range(1, 22, 2)]
                     + [("even", mp) for mp in ((1, 7), (2, 7), (3, 7), (4, 7), (5, 13),
                                                (6, 7), (7, 13), (1, 13), (3, 13), (9, 7))])


@pytest.mark.parametrize("family,params", _ARC_TYPE_MEMBERS,
                         ids=[f"{f}-{'-'.join(map(str, p))}" for f, p in _ARC_TYPE_MEMBERS])
def test_arc_stabiliser_gives_the_full_search_arc_type(family, params):
    graph = (build_odd if family == "odd" else build_even)(*params).graph
    assert arc_transitive_type(graph) == tutte_type(graph)


def test_arc_stabiliser_gives_the_arc_type_of_the_fixtures():
    for name in fixtures.NAMES:
        graph = fixtures.load(name)
        group = automorphism_group(graph)
        assert is_arc_transitive(graph, group), name
        assert arc_transitive_type(graph) == tutte_type(graph, group), name


def test_arc_stabiliser_arc_type_survives_relabeling():
    rng = random.Random(25)
    for graph in (build_odd(5).graph, build_even(2, 7).graph):
        images = list(range(graph.n))
        rng.shuffle(images)
        relabeled = relabel(graph, images)
        assert relabeled != graph
        assert arc_transitive_type(relabeled) == tutte_type(graph)


def test_symmetry_profile_heawood():
    profile = symmetry_profile(fixtures.load("heawood"))
    assert profile.n == 14
    assert profile.aut_order == 336
    assert profile.vertex_transitive and profile.arc_transitive
    assert profile.tutte_t == 3
    assert profile.stabiliser_order == 24


def test_symmetry_profile_path():
    profile = symmetry_profile(from_edges(3, [(0, 1), (1, 2)]))
    assert profile.aut_order == 2
    assert not profile.vertex_transitive
    assert not profile.arc_transitive
    assert profile.tutte_t is None
    assert profile.stabiliser_order is None


def test_symmetry_profile_json_is_a_copy_of_its_fields_in_order():
    profile = symmetry_profile(fixtures.load("heawood"))
    report = profile.to_json_dict()
    assert list(report.items()) == [(f.name, getattr(profile, f.name))
                                    for f in dataclasses.fields(profile)]
    report["n"] = 0
    assert profile.n == 14 and profile.to_json_dict()["n"] == 14


def test_profile_deterministic():
    graph = fixtures.load("pappus")
    a = automorphism_group(graph)
    b = automorphism_group(graph)
    assert [g.images for g in a.generators] == [g.images for g in b.generators]
    assert [e.images for e in chain_elements(a)] == [e.images for e in chain_elements(b)]


def test_cap_ends_the_search_on_the_edgeless_graph(monkeypatch):
    # levels finish deepest first, and once the ten deepest of Sym(200)'s
    # are done, their basic orbits 2, 3, ..., 11 prove |Aut| >= 11! > 2^24:
    # the search stops there, not after the n(n+1)/2 nodes of the full tree
    from circulant_lab import _kernels as kern

    n = 200
    calls = [0]
    individualize = kern.individualize

    def counting(*args, **kwargs):
        calls[0] += 1
        return individualize(*args, **kwargs)

    monkeypatch.setattr(kern, "individualize", counting)
    with pytest.raises(CapExceeded,
                       match="^group order at least 39916800 exceeds cap 16777216$"):
        automorphism_group(from_edges(n, []), cap=2 ** 24)
    assert 0 < calls[0] < 2 * n


def test_cap_boundary_is_the_group_order():
    graph = cfi_graph(random_cubic_graph(random.Random(12), 12))
    full = automorphism_group(graph)
    assert full.order() == 2 ** 10
    with pytest.raises(CapExceeded, match="exceeds cap 1023$"):
        automorphism_group(graph, cap=1023)
    capped = automorphism_group(graph, cap=1024)
    assert capped.base() == full.base()
    assert [g.images for g in capped.generators] == [g.images for g in full.generators]


def test_the_default_cap_on_cfi_graphs_of_order_near_it():
    # the CFI graph over a cubic graph on m vertices has |Aut| = 2^(m/2 + 1)
    # here: 2^24 at m = 46 is the default cap itself, and 2^25 at m = 48 is
    # past it, which the search proves before it ends
    graph = cfi_graph(random_cubic_graph(random.Random(0), 46))
    assert automorphism_group(graph, cap=DEFAULT_ENUMERATION_CAP).order() == 2 ** 24
    graph = cfi_graph(random_cubic_graph(random.Random(0), 48))
    with pytest.raises(CapExceeded, match="at least 33554432 exceeds cap 16777216$"):
        automorphism_group(graph, cap=DEFAULT_ENUMERATION_CAP)


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_search_restores_recursion_limit(monkeypatch):
    # the search neither needs stack in proportion to n nor touches the
    # interpreter-wide limit: odd k = 5 has n = 150, and the edgeless graph
    # on 60 vertices has a principal path of 59 levels
    from circulant_lab.cli import build_odd

    def refuse(limit):
        raise AssertionError(f"setrecursionlimit({limit}) called")

    caller_limit = sys.getrecursionlimit()
    set_limit = sys.setrecursionlimit
    for graph, order in ((build_odd(5).graph, 900), (from_edges(60, []), math.factorial(60))):
        limit = _stack_depth() + 50
        set_limit(limit)
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        try:
            assert automorphism_group(graph).order() == order
            assert sys.getrecursionlimit() == limit
        finally:
            monkeypatch.undo()
            set_limit(caller_limit)


def test_search_frees_its_state():
    # with the cyclic collector off, reference counting alone must free the
    # search's state, generators included, once the returned group is dropped
    from circulant_lab.cli import build_odd

    graph = build_odd(11).graph
    gc.disable()
    try:
        group = automorphism_group(graph)
        generator = weakref.ref(group.generators[0])
        del group
        assert generator() is None
    finally:
        gc.enable()


def test_bfs_order_on_interleaved_components():
    # components {0, 3, 5}, {1, 2, 4, 6} and {7}: each is walked breadth-first
    # from its smallest vertex, components by ascending root; the order fixes
    # the search base and hence the witnesses
    graph = from_edges(8, [(0, 5), (3, 5), (1, 4), (1, 6), (2, 4)])
    assert bfs_order(graph) == [0, 5, 3, 1, 4, 6, 2, 7]
    assert bfs_order(from_edges(0, [])) == []
    # vertex 0 isolated: its component is the walk the graph keeps
    graph = from_edges(4, [(1, 2), (2, 3), (1, 3)])
    assert bfs_order(graph) == [0, 1, 2, 3] and graph.walk_from_0 == [0]
    # a connected graph's order is a new list, so the caller may change it
    graph = from_edges(4, [(0, 2), (1, 2), (1, 3)])
    order = bfs_order(graph)
    order.append(9)
    assert bfs_order(graph) == graph.walk_from_0 == [0, 2, 1, 3]


def test_trivial_graphs():
    assert automorphism_group(from_edges(0, [])).order() == 1
    assert automorphism_group(from_edges(1, [])).order() == 1
    assert automorphism_group(from_edges(2, [])).order() == 2


def test_enumeration_count_matches_order_on_fixture_groups():
    for name in fixtures.NAMES:
        group = automorphism_group(fixtures.load(name))
        assert sum(1 for _ in chain_elements(group)) == group.order() <= 10 ** 4


def test_arc_transitive_implies_vertex_transitive_on_corpus():
    for name in fixtures.NAMES:
        profile = symmetry_profile(fixtures.load(name))
        assert not profile.arc_transitive or profile.vertex_transitive


def test_heawood_fixture_matches_even_construction_fingerprint():
    # isomorphism above n = 10 is checked heuristically by the invariant
    # fingerprint (n, girth, |Aut|, spectrum); exact testing is out of scope
    from circulant_lab.cli import build_even
    from circulant_lab.graphio import girth
    from circulant_lab.kcirc import k_spectrum

    fixture = fixtures.load("heawood")
    built = build_even(1, 7).graph
    fp = lambda g: (g.n, girth(g), automorphism_group(g).order(), k_spectrum(g).spectrum)
    assert fp(fixture) == fp(built) == (14, 6, 336, (2, 7, 14))


# --- the stabilizer chain the search hands over -------------------------------

ARC_TRANSITIVE_GP = ((4, 1), (5, 2), (8, 3), (10, 2), (10, 3), (12, 5), (24, 5))


def _sympy_group(group):
    perms = [SympyPermutation(list(g.images)) for g in group.generators]
    return SympyGroup(perms or [SympyPermutation(list(range(group.degree)))])


def _oracle_graphs():
    from circulant_lab.cli import build_even, build_odd

    cases = [(name, fixtures.load(name)) for name in fixtures.NAMES]
    cases += [(f"odd-k{k}", build_odd(k).graph) for k in (3, 5, 7)]
    cases += [(f"even-{m}-{p}", build_even(m, p).graph) for m, p in ((2, 7), (4, 7))]
    cases += [(f"GP{n}-{k}", generalized_petersen(n, k)) for n, k in ARC_TRANSITIVE_GP]
    rng = random.Random(2016)
    cases += [(f"random-cubic-{i}", random_cubic_graph(rng, rng.randrange(8, 42, 2)))
              for i in range(20)]
    return [pytest.param(graph, id=name) for name, graph in cases]


@pytest.mark.parametrize("graph", _oracle_graphs())
def test_search_chain_order_matches_sympy_and_schreier_sims(graph):
    group = automorphism_group(graph)
    want = _sympy_group(group).order()
    assert group.order() == want
    assert PermGroup(graph.n, group.generators).order() == want


def _level_generators(group):
    """The generators fixing base[:i], for each level i of the search chain."""
    base = group.base()
    return [[g for g in group.generators if all(g[b] == b for b in base[:i])]
            for i in range(len(base))]


@pytest.mark.parametrize("name", fixtures.NAMES + ("GP8-3", "random-cubic"))
def test_search_chain_is_a_base_and_strong_generating_set(name):
    if name == "GP8-3":
        graph = generalized_petersen(8, 3)
    elif name == "random-cubic":
        graph = random_cubic_graph(random.Random(7), 12)
    else:
        graph = fixtures.load(name)
    group = automorphism_group(graph)
    base = group.base()
    oracle = _sympy_group(group)
    levels = _level_generators(group)
    # every generator belongs to a level: it moves some base point
    assert all(any(g[b] != b for b in base) for g in group.generators)
    order = 1
    for i in reversed(range(len(base))):
        for g in levels[i]:
            assert all(g[b] == b for b in base[:i])
        orbit = {base[i]}
        frontier = [base[i]]
        while frontier:
            pt = frontier.pop()
            for g in levels[i]:
                if g[pt] not in orbit:
                    orbit.add(g[pt])
                    frontier.append(g[pt])
        assert len(orbit) > 1
        order *= len(orbit)
        # the level's generators generate the whole pointwise stabiliser
        assert oracle.pointwise_stabilizer(list(base[:i])).order() == order
    assert order == group.order()
    assert oracle.pointwise_stabilizer(list(base)).order() == 1


@pytest.mark.parametrize("name", ("k4", "k33", "cube3", "petersen", "heawood"))
def test_search_chain_membership_and_enumeration(name):
    graph = fixtures.load(name)
    group = automorphism_group(graph)
    for g in group.generators:
        assert group.contains(g)
    elements = {e.images for e in chain_elements(group)}
    assert len(elements) == group.order()
    assert all(all(e[v] in graph.adjacency[e[u]] for u, v in graph.edges())
               for e in map(Permutation, elements))
    rng = random.Random(name)
    for _ in range(10):
        images = list(range(graph.n))
        rng.shuffle(images)
        assert group.contains(Permutation(tuple(images))) == (tuple(images) in elements)


# --- independent oracle and pinned search output ------------------------------

def _count_pruned(monkeypatch):
    """Count individualize calls ("calls") and the siblings the search
    drops: trace aborts (individualize returns None) and ball-profile
    rejections (ball_profile returns None)."""
    from circulant_lab import _kernels as kern

    pruned = {"calls": 0, "trace": 0, "profile": 0}
    individualize, ball_profile = kern.individualize, kern.ball_profile

    def counting_individualize(*args, **kwargs):
        colors = individualize(*args, **kwargs)
        pruned["calls"] += 1
        pruned["trace"] += colors is None
        return colors

    def counting_ball_profile(*args, **kwargs):
        profile = ball_profile(*args, **kwargs)
        pruned["profile"] += profile is None
        return profile

    monkeypatch.setattr(kern, "individualize", counting_individualize)
    monkeypatch.setattr(kern, "ball_profile", counting_ball_profile)
    return pruned


def test_order_matches_networkx_isomorphism_count(monkeypatch):
    # networkx's VF2 matcher counts automorphisms with no refinement at
    # all; on the random cubic graphs most siblings are dropped before a
    # leaf, by their ball profile or at the trace check, and on GP(29, 3),
    # with two vertex orbits, whole orbits of siblings are pruned after one
    # of them fails
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    pruned = _count_pruned(monkeypatch)
    rng = random.Random(2014)
    graphs = [random_cubic_graph(rng, rng.randrange(8, 26, 2)) for _ in range(20)]
    graphs += [generalized_petersen(n, k)
               for n, k in ((5, 2), (7, 2), (8, 3), (10, 2), (10, 3), (13, 5), (29, 3))]
    for graph in graphs:
        g = nx.Graph(list(graph.edges()))
        g.add_nodes_from(range(graph.n))
        want = sum(1 for _ in GraphMatcher(g, g).isomorphisms_iter())
        assert automorphism_group(graph).order() == want
    assert pruned["trace"] + pruned["profile"] > 100


def test_trace_check_prunes_what_profiles_cannot(monkeypatch):
    # the Chang graphs are strongly regular with parameters (28, 12, 6, 4),
    # so every vertex has the profile (1, 12, 15) and no sibling is
    # rejected by it; the trace check still drops 18, 15 and 19 siblings.
    # The orders are networkx VF2 automorphism counts (16 s), pinned here
    pruned = _count_pruned(monkeypatch)
    switches = {
        384: [(0, 1), (2, 3), (4, 5), (6, 7)],
        96: [(i, (i + 1) % 8) for i in range(8)],
        360: [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)],
    }
    for order, switch in switches.items():
        graph = chang_graph(switch)
        adjacency = [set(nbrs) for nbrs in graph.adjacency]
        for u in range(28):
            assert len(adjacency[u]) == 12
            for v in range(u + 1, 28):
                assert len(adjacency[u] & adjacency[v]) == (6 if v in adjacency[u] else 4)
        pruned.update(trace=0, profile=0)
        assert automorphism_group(graph).order() == order
        assert pruned["profile"] == 0
        assert pruned["trace"] >= 15
    # on this CFI graph the whole profiles reject all 153 siblings that
    # orbit pruning leaves, where profiles cut at radius 5 left 35 of them
    # to the trace check; its order is still checked
    graph = cfi_graph(random_cubic_graph(random.Random(40), 40))
    assert graph.n == 400
    assert automorphism_group(graph).order() == 2 ** 22


@pytest.mark.parametrize("n", (704, 2816))
def test_rigid_search_refines_only_the_principal_path(monkeypatch, n):
    # on rigid random cubic graphs the profiles, read to the end of the
    # graph, tell every sibling of the first target from it, so the one
    # individualization is the principal path's (a profile cut at radius 5
    # left 58 and 4 calls at n = 704, and 425 and 1632 at n = 2816)
    pruned = _count_pruned(monkeypatch)
    for seed in (0, 1):
        graph = random_cubic_graph(random.Random(seed), n)
        pruned["calls"] = 0
        assert automorphism_group(graph).order() == 1
        assert pruned["calls"] == 1


def test_a_search_walks_each_whole_profile_once(monkeypatch):
    # odd k = 9 has three levels; the targets of the two deeper ones are
    # siblings at the shallower ones, and a profile walked whole is kept
    # for the search, so the shallower levels compare it by its tuple:
    # four walks, where walking it again made six
    from circulant_lab import _kernels as kern

    walks = []
    ball_profile = kern.ball_profile

    def counting(adjacency, v, expected=None):
        walks.append(v)
        return ball_profile(adjacency, v, expected)

    monkeypatch.setattr(kern, "ball_profile", counting)
    graph = build_odd(9).graph
    assert automorphism_group(graph).order() == 6 * graph.n
    assert len(walks) == 4 and len(set(walks)) == 4


PINNED_SEARCH = {
    "odd-k3": (324, (0, 1, 2), (
        "(2 3)(4 5)(6 8)(7 9)(10 12)(11 13)(14 17)(15 18)(19 22)(20 23)(24 28)(25 29)"
        "(26 30)(31 35)(32 36)(33 37)(38 43)(39 44)(40 42)(41 45)(46 51)(47 52)"
        "(48 50)(49 53)",
        "(1 2)(4 6)(5 7)(8 9)(11 14)(12 16)(13 15)(17 18)(20 25)(21 24)(22 27)(23 26)"
        "(29 30)(31 32)(33 39)(34 38)(35 40)(36 42)(37 41)(44 45)(46 47)(48 51)"
        "(49 53)(50 52)",
        "(0 1)(2 4)(3 5)(6 10)(7 11)(8 12)(9 13)(14 19)(15 20)(16 21)(17 22)(18 23)"
        "(24 31)(25 32)(26 33)(27 34)(28 35)(29 36)(30 37)(38 46)(39 47)(40 48)"
        "(41 49)(42 50)(43 51)(44 52)(45 53)",
    )),
    "odd-k5": (900, (0, 1, 2), (
        "(2 3)(4 5)(6 8)(7 9)(10 12)(11 13)(14 17)(15 18)(19 22)(20 23)(24 28)(25 29)"
        "(26 30)(31 35)(32 36)(33 37)(38 43)(39 44)(40 42)(41 45)(46 51)(47 52)"
        "(48 50)(49 53)(54 60)(55 61)(56 62)(57 59)(58 63)(64 70)(65 71)(66 72)"
        "(67 69)(68 73)(74 81)(75 82)(76 83)(77 80)(79 84)(85 92)(86 93)(87 94)"
        "(88 91)(90 95)(96 104)(97 105)(98 106)(99 107)(100 103)(102 108)(109 117)"
        "(110 118)(111 119)(112 120)(113 116)(115 121)(122 131)(123 132)(124 133)"
        "(125 134)(126 128)(127 130)(129 135)(136 145)(137 146)(138 147)(139 148)"
        "(140 142)(141 144)(143 149)",
        "(1 2)(4 6)(5 7)(8 9)(11 14)(12 16)(13 15)(17 18)(20 25)(21 24)(22 27)(23 26)"
        "(29 30)(31 32)(33 39)(34 38)(35 40)(36 42)(37 41)(44 45)(46 47)(48 54)"
        "(49 56)(50 55)(51 57)(52 59)(53 58)(60 61)(62 63)(65 66)(67 74)(68 76)"
        "(69 75)(70 78)(71 77)(72 80)(73 79)(81 82)(83 84)(86 87)(88 97)(89 96)"
        "(90 99)(91 98)(92 101)(93 100)(94 103)(95 102)(105 106)(107 108)(109 110)"
        "(111 112)(113 123)(114 122)(115 125)(116 124)(117 126)(118 128)(119 127)"
        "(120 130)(121 129)(132 133)(134 135)(136 137)(138 139)(140 145)(141 147)"
        "(142 146)(143 149)(144 148)",
        "(0 1)(2 4)(3 5)(6 10)(7 11)(8 12)(9 13)(14 19)(15 20)(16 21)(17 22)(18 23)"
        "(24 31)(25 32)(26 33)(27 34)(28 35)(29 36)(30 37)(38 46)(39 47)(40 48)"
        "(41 49)(42 50)(43 51)(44 52)(45 53)(54 64)(55 65)(56 66)(57 67)(58 68)"
        "(59 69)(60 70)(61 71)(62 72)(63 73)(74 85)(75 86)(76 87)(77 88)(78 89)"
        "(79 90)(80 91)(81 92)(82 93)(83 94)(84 95)(96 109)(97 110)(98 111)(99 112)"
        "(100 113)(101 114)(102 115)(103 116)(104 117)(105 118)(106 119)(107 120)"
        "(108 121)(122 136)(123 137)(124 138)(125 139)(126 140)(127 141)(128 142)"
        "(129 143)(130 144)(131 145)(132 146)(133 147)(134 148)(135 149)",
    )),
    "GP10-2": (120, (0, 1, 9), (
        "(2 11)(3 13)(4 15)(7 16)(8 18)(9 10)(12 19)(14 17)",
        "(1 9)(2 8)(3 7)(4 6)(11 19)(12 18)(13 17)(14 16)",
        "(0 1)(2 9)(3 8)(4 7)(5 6)(10 11)(12 19)(13 18)(14 17)(15 16)",
    )),
    "GP24-5": (288, (0, 1, 23), (
        "(2 25)(3 44)(4 20)(5 21)(6 45)(7 40)(8 16)(9 17)(10 41)(11 36)(14 37)(15 32)"
        "(18 33)(19 28)(22 29)(23 24)(26 30)(27 39)(31 35)(34 46)(38 42)(43 47)",
        "(1 23)(2 22)(3 21)(4 20)(5 19)(6 18)(7 17)(8 16)(9 15)(10 14)(11 13)(25 47)"
        "(26 46)(27 45)(28 44)(29 43)(30 42)(31 41)(32 40)(33 39)(34 38)(35 37)",
        "(0 1)(2 23)(3 22)(4 21)(5 20)(6 19)(7 18)(8 17)(9 16)(10 15)(11 14)(12 13)"
        "(24 25)(26 47)(27 46)(28 45)(29 44)(30 43)(31 42)(32 41)(33 40)(34 39)"
        "(35 38)(36 37)",
    )),
}


def _pinned_graph(name):
    from circulant_lab.cli import build_odd

    return {
        "odd-k3": lambda: build_odd(3).graph,
        "odd-k5": lambda: build_odd(5).graph,
        "GP10-2": lambda: generalized_petersen(10, 2),
        "GP24-5": lambda: generalized_petersen(24, 5),
    }[name]()


@pytest.mark.parametrize("name", PINNED_SEARCH)
def test_search_output_is_pinned(name):
    # order, base and generators in the order the search finds them, as
    # given by the search that compared siblings by cell counts per id:
    # pruning by refinement trace drops only branches with no automorphism,
    # so it must change neither what the search finds nor its order
    graph = _pinned_graph(name)
    order, base, generators = PINNED_SEARCH[name]
    group = automorphism_group(graph)
    assert group.order() == order
    assert group.base() == base
    assert [g.images for g in group.generators] == [
        from_cycle_string(s, graph.n).images for s in generators]


# The sha256 of the search's base and generators, beyond the graphs pinned
# in full above and the family members pinned through the construct and
# analyze digests in test_cli.py: the seven arc-transitive GP graphs,
# GP(13, 5) (vertex-transitive, not arc-transitive), GP(29, 3) (two vertex
# orbits), random cubic graphs, most of them asymmetric, and a CFI graph.
# The generators the search finds depend on how refinement numbers its
# cells, so these pin the refinement too.  Taken when every splitter split
# its cells by a table of hit counts.
_SEARCH_PINS = {
    "GP4-1": "97491a35998f0c379528ccb66d260c8ad58fe7970d35020c964c0fded871c9fc",
    "GP5-2": "47dfcc731f34b1434f2b9d61c7ed489d99e241dd3f5d13e72101ec1aa1d9df4d",
    "GP8-3": "e642a9e398456a9d88c653f5535a8200ed31640a0474f778fc81ce8135fc27b7",
    "GP10-2": "9d09104688634e864ac3af57cb38633156dfcbbf3e130525352b55ad10ab9f30",
    "GP10-3": "63c06d56a84b309642198e08d105e1f17ceeb2bab7efeb997160f3e914aac6ad",
    "GP12-5": "29ce6337e6e9369e6ca118c910ff94169b7d69690aa217a134678e47e41f1571",
    "GP24-5": "cc0502fe68612c9b27227a763f1757d8aecc5d23be5be47741a10c188cb9c65d",
    "GP13-5": "682aa88928f54504deeab31b11e8e9cf3916646aae18eee5ead6a1f10cf397b1",
    "GP29-3": "88c27a5dff8f1b975cffdaeccb060a275d551793b082f7ddee80e03e21cc8dbd",
    "random-0": "ec4992621b9558107f40873ada81e59e33840a24af68db436c37ee19aceba51e",
    "random-1": "0a34b036b279b7a21ec6e1e85ad5b07e5bc5415e6326683db498344b53fbe290",
    "random-2": "8dce8f5aa3e2836cd62022d4f19487fa2c40e9fe215baed8f32e98bc33e39a83",
    "random-3": "068ba53caf4bb89bc84341e5e0a9e860e078799a9e9f3cd8f2b19c3fc4cec936",
    "random-4": "1632436a82ed06e12516a3d384376909915c51a4d9002b21d3fb09c7bfa8a235",
    "random-5": "068ba53caf4bb89bc84341e5e0a9e860e078799a9e9f3cd8f2b19c3fc4cec936",
    "random-6": "7b2c081daab73568f31731e0426294f3a51c2cde0ed6105df6f3419b891359ce",
    "random-7": "068ba53caf4bb89bc84341e5e0a9e860e078799a9e9f3cd8f2b19c3fc4cec936",
    "random-8": "068ba53caf4bb89bc84341e5e0a9e860e078799a9e9f3cd8f2b19c3fc4cec936",
    "random-9": "068ba53caf4bb89bc84341e5e0a9e860e078799a9e9f3cd8f2b19c3fc4cec936",
    "random-10": "068ba53caf4bb89bc84341e5e0a9e860e078799a9e9f3cd8f2b19c3fc4cec936",
    "random-11": "d380d054e2ab71301bfeb4a8c5fd3e9e803fc7a48f293952ee7022ab06d39a7a",
    "random-12": "068ba53caf4bb89bc84341e5e0a9e860e078799a9e9f3cd8f2b19c3fc4cec936",
    "random-13": "068ba53caf4bb89bc84341e5e0a9e860e078799a9e9f3cd8f2b19c3fc4cec936",
    "random-14": "068ba53caf4bb89bc84341e5e0a9e860e078799a9e9f3cd8f2b19c3fc4cec936",
    "random-15": "068ba53caf4bb89bc84341e5e0a9e860e078799a9e9f3cd8f2b19c3fc4cec936",
    "random-16": "068ba53caf4bb89bc84341e5e0a9e860e078799a9e9f3cd8f2b19c3fc4cec936",
    "random-17": "068ba53caf4bb89bc84341e5e0a9e860e078799a9e9f3cd8f2b19c3fc4cec936",
    "random-18": "068ba53caf4bb89bc84341e5e0a9e860e078799a9e9f3cd8f2b19c3fc4cec936",
    "random-19": "068ba53caf4bb89bc84341e5e0a9e860e078799a9e9f3cd8f2b19c3fc4cec936",
    "cfi-12": "8cab6dff59379833ad3c54c3ab957f1b2c78cb200875782d9d8e61151689291d",
}


def _search_pin_graph(name):
    kind, _, args = name.partition("-")
    if kind == "random":
        seed = int(args)
        return random_cubic_graph(random.Random(seed), 10 + 2 * seed)
    if kind == "cfi":
        return cfi_graph(random_cubic_graph(random.Random(int(args)), 12))
    return generalized_petersen(*map(int, (kind[2:], args)))


@pytest.mark.parametrize("name", list(_SEARCH_PINS))
def test_search_digest_is_pinned(name):
    group = automorphism_group(_search_pin_graph(name))
    record = (group.base(), [g.images for g in group.generators])
    assert hashlib.sha256(repr(record).encode()).hexdigest() == _SEARCH_PINS[name]


# GP(60, 14) has two vertex orbits, so at the top level every sibling in
# the inner rim fails; order, base and generators as the search without
# orbit pruning of failed siblings found them
GP60_14_SEARCH = (120, (0, 1), (
    "(1 59)(2 58)(3 57)(4 56)(5 55)(6 54)(7 53)(8 52)(9 51)(10 50)(11 49)(12 48)"
    "(13 47)(14 46)(15 45)(16 44)(17 43)(18 42)(19 41)(20 40)(21 39)(22 38)(23 37)"
    "(24 36)(25 35)(26 34)(27 33)(28 32)(29 31)(61 119)(62 118)(63 117)(64 116)"
    "(65 115)(66 114)(67 113)(68 112)(69 111)(70 110)(71 109)(72 108)(73 107)"
    "(74 106)(75 105)(76 104)(77 103)(78 102)(79 101)(80 100)(81 99)(82 98)(83 97)"
    "(84 96)(85 95)(86 94)(87 93)(88 92)(89 91)",
    "(0 1)(2 59)(3 58)(4 57)(5 56)(6 55)(7 54)(8 53)(9 52)(10 51)(11 50)(12 49)"
    "(13 48)(14 47)(15 46)(16 45)(17 44)(18 43)(19 42)(20 41)(21 40)(22 39)(23 38)"
    "(24 37)(25 36)(26 35)(27 34)(28 33)(29 32)(30 31)(60 61)(62 119)(63 118)"
    "(64 117)(65 116)(66 115)(67 114)(68 113)(69 112)(70 111)(71 110)(72 109)"
    "(73 108)(74 107)(75 106)(76 105)(77 104)(78 103)(79 102)(80 101)(81 100)"
    "(82 99)(83 98)(84 97)(85 96)(86 95)(87 94)(88 93)(89 92)(90 91)",
))


def test_a_failed_sibling_prunes_its_orbit(monkeypatch):
    # once one sibling fails, the rest of its orbit under the generators
    # found so far is skipped: the search without that pruning made 65
    # individualize calls here, 60 of them one per inner-rim sibling
    from circulant_lab import _kernels as kern

    individualize = kern.individualize
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return individualize(*args, **kwargs)

    monkeypatch.setattr(kern, "individualize", counting)
    graph = generalized_petersen(60, 14)
    order, base, generators = GP60_14_SEARCH
    group = automorphism_group(graph)
    assert calls <= 15
    assert group.order() == order
    assert group.base() == base
    assert [g.images for g in group.generators] == [
        from_cycle_string(s, graph.n).images for s in generators]


@pytest.mark.parametrize("seed", range(5))
def test_a_rigid_graph_is_searched_with_few_refinements(monkeypatch, seed):
    # on an asymmetric cubic graph every vertex of the root cell is a
    # sibling of the first target; without ball profiles each was sought
    # with an aborted refinement, 176 individualize calls here, and now
    # only those whose profile matches the target's are
    pruned = _count_pruned(monkeypatch)
    group = automorphism_group(random_cubic_graph(random.Random(seed), 176))
    assert group.order() == 1
    assert pruned["calls"] <= 10


# --- the handoff to the chain, and membership against sympy -------------------

def _capture_handoff(monkeypatch):
    """Record the base points each search hands to PermGroup.from_chain."""
    handed = []
    from_chain = PermGroup.from_chain.__func__

    def spy(cls, degree, generators, base):
        handed.append(tuple(base))
        return from_chain(cls, degree, generators, base)

    monkeypatch.setattr(PermGroup, "from_chain", classmethod(spy))
    return handed


@pytest.mark.parametrize("name", PINNED_SEARCH)
def test_from_chain_keeps_the_targets_with_a_nontrivial_orbit(name, monkeypatch):
    # every vertex in BFS order holds every search target, and each vertex
    # after the pinned base has a trivial orbit; the chain drops them all
    graph = _pinned_graph(name)
    order, base, generators = PINNED_SEARCH[name]
    gens = [from_cycle_string(s, graph.n) for s in generators]
    group = PermGroup.from_chain(graph.n, gens, bfs_order(graph))
    assert (group.order(), group.base()) == (order, base)
    handed = _capture_handoff(monkeypatch)
    assert automorphism_group(graph).base() == base == handed[0]


def test_from_chain_drops_a_trivial_target_above_a_nontrivial_one(monkeypatch):
    # on this graph the search's first target lies in a cell that holds no
    # image of it under Aut, while the second target has an orbit of two
    rng = random.Random(2016)
    graphs = [random_cubic_graph(rng, rng.randrange(8, 42, 2)) for _ in range(6)]
    handed = _capture_handoff(monkeypatch)
    group = automorphism_group(graphs[5])
    assert handed == [(0, 2)]
    assert (group.base(), group.order()) == ((2,), 2)
    assert group.order() == _sympy_group(group).order()
    assert PermGroup.from_chain(graphs[5].n, group.generators, [0]).base() == ()


def _naive_trees(degree, generators, base):
    """Each level's Schreier tree as from_chain grows it, by trying every
    strong generator at every point: (point, (parent, generator)) in FIFO
    order."""
    gens = [list(g.images) for g in generators if not g.is_identity()]
    trees = []
    for b in base:
        tree = schreier_tree(b, gens)
        if len(tree) > 1:
            trees.append(list(tree.items()))
        gens = [g for g in gens if g[b] == b]
    return trees


def _sym8():
    # Schreier-Sims gives Sym(8) seven levels, each with several strong generators
    return PermGroup(8, [from_cycle_string("(0 1 2 3 4 5 6 7)", 8),
                         from_cycle_string("(0 1)", 8)])


def _sym8_from_chain():
    # a Schreier-Sims chain handed over as a base and strong generating set
    sims = _sym8()
    base = sims.base()
    return PermGroup.from_chain(
        sims.degree, [Permutation(tuple(g)) for g in sims._levels[0].gens], base)


def test_from_chain_grows_the_trees_of_the_naive_growth():
    # every level's tree is one FIFO walk over its strong generators: it
    # must match helpers.schreier_tree, parent, generator and order alike
    from circulant_lab.cli import build_odd

    k4s = from_edges(80, [(4 * c + i, 4 * c + j) for c in range(20)
                          for i in range(4) for j in range(i + 1, 4)])
    groups = [automorphism_group(graph) for graph in (
        from_edges(60, []), generalized_petersen(60, 14), build_odd(5).graph, k4s)]
    # 20 disjoint copies of K4: the wreath product Sym(4) wr Sym(20), 60 levels
    assert groups[-1].order() == 24 ** 20 * math.factorial(20)
    assert len(groups[-1].base()) == 60
    groups.append(_sym8_from_chain())
    for group in groups:
        trees = [list(lvl.tree.items()) for lvl in group._levels]
        assert len(trees) > 1
        assert trees == _naive_trees(group.degree, group.generators, group.base())


def _chain_level_groups():
    from circulant_lab.cli import build_even, build_odd

    def arc_group(construction):
        # a fresh group on the same generators, so Schreier-Sims builds its chain
        return PermGroup(construction.graph.n, construction.arc_group.generators)

    handed_over = [(f"search-{name}", lambda name=name: automorphism_group(fixtures.load(name)))
                   for name in fixtures.NAMES]
    handed_over += [
        ("search-GP60-14", lambda: automorphism_group(generalized_petersen(60, 14))),
        ("search-edgeless-30", lambda: automorphism_group(from_edges(30, []))),
        ("from-chain-sym8", _sym8_from_chain),
    ]
    sifted = [
        ("schreier-sims-odd-k3", lambda: arc_group(build_odd(3))),
        ("schreier-sims-odd-k5", lambda: arc_group(build_odd(5))),
        ("schreier-sims-even-1-7", lambda: arc_group(build_even(1, 7))),
        ("schreier-sims-even-2-7", lambda: arc_group(build_even(2, 7))),
        ("schreier-sims-sym8", _sym8),
    ]
    return ([pytest.param(make, True, id=name) for name, make in handed_over]
            + [pytest.param(make, False, id=name) for name, make in sifted])


@pytest.mark.parametrize("make, handed_over", _chain_level_groups())
def test_each_level_keeps_the_strong_generators_fixing_the_base_above(make, handed_over):
    group = make()
    base = group.base()
    levels = group._levels
    strong = levels[0].gens
    assert [lvl.gens for lvl in levels] == [
        [g for g in strong if all(g[b] == b for b in base[:i])] for i in range(len(base))]
    # every strong generator moves a base point, so it belongs to a level
    assert all(any(g[b] != b for b in base) for g in strong)
    if handed_over:
        # a chain handed to from_chain keeps the generating set as it came
        assert strong == [list(g.images) for g in group.generators]


def test_order_and_base_of_a_searched_group_compose_nothing(monkeypatch):
    from circulant_lab import _kernels as kern
    from circulant_lab.cli import build_odd

    graph = build_odd(5).graph
    group = automorphism_group(graph)
    calls = 0
    compose_images = kern.compose_images

    def counting(p, q):
        nonlocal calls
        calls += 1
        return compose_images(p, q)

    monkeypatch.setattr(kern, "compose_images", counting)
    assert (group.order(), group.base()) == (900, (0, 1, 2))
    assert calls == 0
    # a sift composes the representatives on its tree paths, not a level's
    # whole transversal of n permutations
    assert group.contains(group.generators[-1])
    assert 0 < calls < graph.n


def test_one_graph_builds_its_csr_once(monkeypatch):
    # the search, every certificate's re-verification, the quotients by
    # fresh subgroups and the check of a fresh supplied group all read the
    # CSR arrays the graph keeps; a fresh Graph object, so that no earlier
    # use has built them
    from circulant_lab import _kernels as kern
    from circulant_lab.aut import check_all_automorphisms
    from circulant_lab.quotient import quotient_graph

    graph = Graph(build_odd(5).graph.adjacency)
    n = graph.n
    calls = 0
    build_csr = kern.build_csr

    def counting(adjacency):
        nonlocal calls
        calls += 1
        return build_csr(adjacency)

    monkeypatch.setattr(kern, "build_csr", counting)
    group = automorphism_group(graph)
    witnesses = [certify_k_circulant(graph, k, group) for k in range(1, n + 1) if n % k == 0]
    witnesses = [w for w in witnesses if w is not None]
    assert len(witnesses) > 1
    for w in witnesses:
        quotient_graph(graph, PermGroup(n, [w]))
    check_all_automorphisms(graph, PermGroup(n, group.generators))
    assert calls == 1


def test_one_graph_builds_its_edge_index_once(monkeypatch):
    # the search's leaf checks, every certificate's re-verification, the
    # quotients by fresh subgroups and the check of a fresh supplied group
    # all read the edge index the graph keeps; a fresh Graph object, so
    # that no earlier use has built it
    from circulant_lab import _kernels as kern
    from circulant_lab.aut import check_all_automorphisms
    from circulant_lab.quotient import quotient_graph

    graph = Graph(build_odd(5).graph.adjacency)
    n = graph.n
    builds = []
    checks = []
    build_edge_index = kern.build_edge_index
    preserves = kern.preserves_edges
    monkeypatch.setattr(kern, "build_edge_index",
                        lambda adjacency: builds.append(adjacency) or build_edge_index(adjacency))
    monkeypatch.setattr(kern, "preserves_edges",
                        lambda index, images: checks.append(index) or preserves(index, images))
    group = automorphism_group(graph)
    assert builds == [graph.adjacency] and len(checks) >= len(group.generators)
    searched = len(checks)
    witnesses = [certify_k_circulant(graph, k, group) for k in range(1, n + 1) if n % k == 0]
    witnesses = [w for w in witnesses if w is not None]
    assert len(witnesses) > 1
    for w in witnesses:
        quotient_graph(graph, PermGroup(n, [w]))
    check_all_automorphisms(graph, PermGroup(n, group.generators))
    assert len(builds) == 1
    assert all(index is graph.edge_index for index in checks)
    # one re-verification per witness and one check per fresh generator
    assert len(checks) >= searched + len(witnesses) + len(group.generators)


def test_one_graph_is_walked_from_vertex_0_once(monkeypatch, tmp_path):
    # the construction's checks, the search, the profile and the arc-type
    # all read the walk from vertex 0 that the graph keeps, and so does a
    # scan record of the graph parsed from a file: one walk per Graph object
    from circulant_lab import _bfs, cli
    from circulant_lab.graphio import serialize

    walked = []  # the object each walk's step reads
    reach = _bfs._reach

    def counting(starts, step, seen):
        walked.append(getattr(step, "__self__", None))
        return reach(starts, step, seen)

    monkeypatch.setattr(_bfs, "_reach", counting)
    cons = build_odd(3)
    graph = cons.graph
    assert cli.verify_construction(cons)["ok"]
    group = automorphism_group(graph)
    assert symmetry_profile(graph, group).vertex_transitive
    assert arc_transitive_type(graph) == 1
    path = tmp_path / "odd3.edgelist"
    path.write_text(serialize(graph, "edgelist"))
    [record] = cli._scan_file((str(path), DEFAULT_ENUMERATION_CAP, False, True, False))
    assert record["connected"] and record["skip"] is None and record["tutte_t"] == 1
    # orbit walks step through lists of images, not through this adjacency
    graphs = [adjacency for adjacency in walked if adjacency == graph.adjacency]
    assert len(graphs) == 2
    assert graphs[0] is graph.adjacency and graphs[1] is not graph.adjacency


def _membership_groups():
    from circulant_lab.cli import build_even, build_odd

    def arc_group(construction):
        # a fresh group on the same generators, so Schreier-Sims builds its chain
        return PermGroup(construction.graph.n, construction.arc_group.generators)

    def searched_generators(graph):
        # a fresh group on the generators the search found
        return PermGroup(graph.n, automorphism_group(graph).generators)

    cases = [
        ("schreier-sims-odd-k3", lambda: arc_group(build_odd(3))),
        ("schreier-sims-odd-k5", lambda: arc_group(build_odd(5))),
        ("schreier-sims-even-2-7", lambda: arc_group(build_even(2, 7))),
        ("search-GP10-3", lambda: automorphism_group(generalized_petersen(10, 3))),
        ("search-odd-k5", lambda: automorphism_group(build_odd(5).graph)),
        # deep chains from caller-supplied generators: 8 levels, and the 4
        # levels of a searched CFI group's generators handed to Schreier-Sims
        ("schreier-sims-sym9", lambda: PermGroup(9, [from_cycle_string("(0 1)", 9),
                                                     from_cycle_string("(0 1 2 3 4 5 6 7 8)", 9)])),
        ("schreier-sims-cfi-12", lambda: searched_generators(
            cfi_graph(random_cubic_graph(random.Random(12), 12)))),
    ]
    return [pytest.param(make, id=name) for name, make in cases]


@pytest.mark.parametrize("make", _membership_groups())
def test_membership_agrees_with_sympy(make):
    # members are random words in the generators; non-members are random
    # permutations, and members times a transposition, which share the
    # member's image of most points and so sift further down the chain
    group = make()
    n = group.degree
    oracle = _sympy_group(group)
    rng = random.Random(n)
    members, others = [], []
    for _ in range(12):
        w = identity(n)
        for _ in range(rng.randrange(1, 16)):
            w = compose(w, rng.choice(group.generators))
        members.append(w)
        images = list(w.images)
        i, j = rng.sample(range(n), 2)
        images[i], images[j] = images[j], images[i]
        others.append(Permutation(tuple(images)))
        images = list(range(n))
        rng.shuffle(images)
        others.append(Permutation(tuple(images)))
    verdicts = [group.contains(p) for p in members + others]
    assert verdicts == [oracle.contains(SympyPermutation(list(p.images)))
                        for p in members + others]
    assert all(verdicts[:len(members)])
    if group.order() < math.factorial(n):  # Sym(n) has no non-members
        assert not any(verdicts[len(members):])
