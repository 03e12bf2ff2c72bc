"""Cayley graph construction and induced vertex permutations."""
import random

import pytest

from circulant_lab import fixtures
from circulant_lab.cayley import (
    automorphism_from_group_automorphism,
    cayley_graph,
    left_translation,
)
from circulant_lab.errors import (
    ElementOutsideR,
    IdentityInS,
    NotInverseClosed,
    PhiDoesNotPreserveS,
)
from circulant_lab.graphio import girth, is_connected, is_cubic
from circulant_lab.papergroups import EvenGroup, EvenParams, OddGroup, even_group, odd_group
from circulant_lab.perm import cycle_structure, identity, is_semiregular
from helpers import (
    all_elements,
    automorphism_by_substitution,
    brute_force_isomorphic,
    cayley_graph_by_multiplication,
    element_of_vertex,
    left_translation_by_multiplication,
    r_elements,
    render,
    vertex_of_element,
)


def test_odd_k1_is_k33():
    G = odd_group(1)
    graph, labeling = cayley_graph(G, G.connection_set())
    assert graph.n == 6
    assert is_cubic(graph) and is_connected(graph)
    assert brute_force_isomorphic(graph, fixtures.load("k33"))
    assert element_of_vertex(labeling)[0] == G.identity()


def test_even_1_7_is_heawood_sized():
    G = even_group(1, 7)
    graph, _ = cayley_graph(G, G.connection_set())
    assert graph.n == 14
    assert is_cubic(graph) and is_connected(graph)
    assert girth(graph) == 6


@pytest.mark.parametrize("k,n", [(1, 6), (3, 54), (5, 150)])
def test_odd_orders(k, n):
    G = odd_group(k)
    graph, _ = cayley_graph(G, G.connection_set())
    assert graph.n == n == 6 * k * k


@pytest.mark.parametrize("m,p,n", [(1, 7, 14), (2, 7, 56), (3, 7, 42), (1, 13, 26)])
def test_even_orders(m, p, n):
    # index-3 subgroup shows up exactly when 3 | m
    G = even_group(m, p)
    graph, _ = cayley_graph(G, G.connection_set())
    assert graph.n == n


def test_left_translation_identity():
    G = odd_group(3)
    _, labeling = cayley_graph(G, G.connection_set())
    assert left_translation(G, labeling, G.identity()) == identity(labeling.n)


def test_left_translation_fixed_point_free():
    G = even_group(2, 7)
    graph, labeling = cayley_graph(G, G.connection_set())
    for g in list(all_elements(G))[:25]:
        if g == G.identity():
            continue
        perm = left_translation(G, labeling, g)
        assert all(perm[v] != v for v in range(graph.n))


def test_left_translation_by_y_at_k1():
    # at k = 1 translation by y is a perfect matching: order 2, semiregular
    G = odd_group(1)
    _, labeling = cayley_graph(G, G.connection_set())
    perm = left_translation(G, labeling, G.element(0, 0, 0, 1))
    cs = cycle_structure(perm)
    assert cs.element_order == 2
    assert is_semiregular(perm)


def test_left_translation_outside_r():
    G = odd_group(3)
    _, labeling = cayley_graph(G, G.connection_set())
    with pytest.raises(ElementOutsideR):
        left_translation(G, labeling, G.element(0, 0, 0, 1, 1))  # y sigma not in R


def test_induced_y_fixes_identity_vertex():
    G = even_group(1, 7)
    S = G.connection_set()
    _, labeling = cayley_graph(G, S)
    perm = automorphism_from_group_automorphism(G, labeling, G.apply_y)
    assert perm[0] == 0
    assert cycle_structure(perm).element_order == 3


def test_induced_sigma_rotates_neighbors_of_identity():
    G = odd_group(5)
    S = G.connection_set()
    graph, labeling = cayley_graph(G, S)
    perm = automorphism_from_group_automorphism(G, labeling, G.apply_sigma)
    assert perm[0] == 0
    nbrs = graph.adjacency[0]
    images = tuple(sorted(perm[v] for v in nbrs))
    assert images == nbrs
    assert all(perm[v] != v for v in nbrs)  # 3-cycle on the neighbors


def test_induced_identity_map():
    G = odd_group(3)
    S = G.connection_set()
    _, labeling = cayley_graph(G, S)
    perm = automorphism_from_group_automorphism(G, labeling, lambda g: g)
    assert perm == identity(labeling.n)


def test_translations_preserve_adjacency():
    G = even_group(2, 7)
    graph, labeling = cayley_graph(G, G.connection_set())
    for s in G.connection_set():
        perm = left_translation(G, labeling, s)
        for u, v in graph.edges():
            assert perm[v] in graph.adjacency[perm[u]]


def test_identity_in_s_rejected():
    G = odd_group(3)
    with pytest.raises(IdentityInS):
        cayley_graph(G, (G.identity(),) + G.connection_set()[:2])


def test_not_inverse_closed_rejected():
    # u has order 3 at k = 3, so {u} is not inverse-closed
    G = odd_group(3)
    with pytest.raises(NotInverseClosed):
        cayley_graph(G, (G.element(1, 0, 0, 0),))


def test_phi_not_preserving_s_rejected():
    G = odd_group(3)
    S = G.connection_set()
    _, labeling = cayley_graph(G, S)
    shift = G.element(1, 0, 0, 0)
    with pytest.raises(PhiDoesNotPreserveS):
        automorphism_from_group_automorphism(G, labeling, lambda g: G.mul(shift, g))


def test_deterministic_construction():
    G = odd_group(5)
    g1, l1 = cayley_graph(G, G.connection_set())
    g2, l2 = cayley_graph(G, G.connection_set())
    assert g1 == g2
    assert element_of_vertex(l1) == element_of_vertex(l2)


def test_repeated_connection_element_gives_the_same_graph():
    G = odd_group(3)
    S = G.connection_set()
    graph, labeling = cayley_graph(G, S)
    graph2, labeling2 = cayley_graph(G, S + (S[1],))
    assert graph2 == graph
    assert labeling2 == labeling


def test_phi_not_fixing_the_identity_rejected():
    # preserves S as a set but moves the identity: not a group automorphism
    G = odd_group(3)
    S = G.connection_set()
    _, labeling = cayley_graph(G, S)
    u = G.element(1, 0, 0, 0)
    swap = {G.identity(): u, u: G.identity()}
    with pytest.raises(PhiDoesNotPreserveS):
        automorphism_from_group_automorphism(G, labeling, lambda g: swap.get(g, g))


def test_phi_takes_the_connection_set_in_any_order():
    # the labeling keeps S sorted, so the order S is given in when the
    # Cayley graph is built does not change phi's permutation
    G = odd_group(5)
    S = G.connection_set()
    _, labeling = cayley_graph(G, S)
    expected = automorphism_from_group_automorphism(G, labeling, G.apply_sigma)
    for same in (tuple(reversed(S)), S + S[:1], sorted(S)):
        _, other = cayley_graph(G, same)
        assert automorphism_from_group_automorphism(G, other, G.apply_sigma) == expected


def _family_member(family, params):
    G = odd_group(*params) if family == "odd" else even_group(*params)
    outer = G.apply_sigma if family == "odd" else G.apply_y
    S = G.connection_set()
    _, labeling = cayley_graph(G, S)
    return G, outer, S, labeling


def _translation_members(G, S, labeling, seed):
    """S, the witness's r, and a seeded sample of the other vertices."""
    r, _ = G.split(G.semiregular_generator()[0])
    sample = random.Random(seed).sample(element_of_vertex(labeling)[1:], 12)
    members = list(S) + [r] + sample
    assert any(g not in S for g in sample)
    return members


def test_transported_translations_match_multiplication_at_every_element():
    G, _, _, labeling = _family_member("odd", (3,))
    elements = list(r_elements(G))
    assert len(elements) == labeling.n == 54
    for g in elements:
        assert left_translation(G, labeling, g).images == \
            left_translation_by_multiplication(G, labeling, g), render(g)


@pytest.mark.parametrize("family,params", [
    ("odd", (5,)), ("odd", (7,)), ("even", (1, 7)), ("even", (2, 7)), ("even", (4, 7)),
], ids=["odd-5", "odd-7", "even-1-7", "even-2-7", "even-4-7"])
def test_transported_translations_match_multiplication(family, params):
    G, _, S, labeling = _family_member(family, params)
    for g in _translation_members(G, S, labeling, seed=sum(params)):
        assert left_translation(G, labeling, g).images == \
            left_translation_by_multiplication(G, labeling, g), render(g)


@pytest.mark.parametrize("family,params", [
    ("odd", (3,)), ("odd", (5,)), ("odd", (7,)),
    ("even", (1, 7)), ("even", (2, 7)), ("even", (4, 7)),
], ids=["odd-3", "odd-5", "odd-7", "even-1-7", "even-2-7", "even-4-7"])
def test_transported_outer_automorphism_matches_substitution(family, params):
    G, outer, S, labeling = _family_member(family, params)
    perm = automorphism_from_group_automorphism(G, labeling, outer)
    assert perm.images == automorphism_by_substitution(labeling, outer)


WALK_MEMBERS = [("odd", (k,)) for k in range(1, 24, 2)] + [
    ("even", mp) for mp in ((1, 7), (2, 7), (3, 7), (4, 7), (5, 13), (6, 7), (7, 13), (9, 7))]


@pytest.mark.parametrize("family,params", WALK_MEMBERS,
                         ids=[f"{f}-{'-'.join(map(str, p))}" for f, p in WALK_MEMBERS])
def test_table_walk_matches_the_multiplication_walk(family, params):
    # odd k with 3 | k has delta = 1; even with 3 | m reaches index 3 in R
    G = odd_group(*params) if family == "odd" else even_group(*params)
    S = G.connection_set()
    graph, labeling = cayley_graph(G, S)
    want_graph, elements, step, parent, via = cayley_graph_by_multiplication(G, S)
    assert graph.adjacency == want_graph.adjacency
    assert element_of_vertex(labeling) == elements
    assert list(vertex_of_element(labeling)) == list(elements)
    assert (labeling.step, labeling.parent, labeling.via) == (step, parent, via)


def test_elements_outside_the_closure_are_not_vertices():
    # at (3, 7) the closure of S has index 3 in R: u has a code, no vertex
    G = even_group(3, 7)
    _, labeling = cayley_graph(G, G.connection_set())
    assert labeling.n * 3 == G.code_count
    u = G.element(1, 0, 0, 0)
    assert labeling.vertex(u) is None
    with pytest.raises(ElementOutsideR):
        left_translation(G, labeling, u)


@pytest.mark.parametrize("j", [1, 2])
def test_left_translation_by_an_element_without_a_code(j):
    G = odd_group(5)
    _, labeling = cayley_graph(G, G.connection_set())
    g = G.element(0, 0, 0, 1, j)
    assert G.code(g) is None
    with pytest.raises(ElementOutsideR):
        left_translation(G, labeling, g)


def test_connection_set_outside_r_rejected():
    G = odd_group(3)
    sigma = G.element(0, 0, 0, 0, 1)
    with pytest.raises(ElementOutsideR):
        cayley_graph(G, (sigma, G.inv(sigma)))


@pytest.mark.parametrize("family,params,products", [
    ("odd", (5,), 18), ("odd", (15,), 18), ("even", (2, 7), 6), ("even", (7, 13), 6),
], ids=["odd-5", "odd-15", "even-2-7", "even-7-13"])
def test_walk_makes_a_fixed_number_of_products(family, params, products, monkeypatch):
    # one product per generator and coset symbol, however large n is
    G = OddGroup(*params) if family == "odd" else EvenGroup(EvenParams.make(*params))
    S = G.connection_set()
    calls = []
    mul = G.mul
    monkeypatch.setattr(G, "mul", lambda a, b: calls.append(1) or mul(a, b))
    graph, _ = cayley_graph(G, S)
    assert graph.n > products
    assert len(calls) == products
