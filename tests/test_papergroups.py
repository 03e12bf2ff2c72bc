"""Normal-form arithmetic for the two structured group families.

The relator suites pin the multiplication rules to the presentations; the
named-value tests pin the distinguished automorphisms and generators.
"""
import random
from itertools import product

import pytest

from circulant_lab.errors import BadParams, ElementOutsideR
from circulant_lab.papergroups import (
    EvenElement,
    EvenParams,
    OddElement,
    even_group,
    find_alpha,
    odd_group,
)

EVEN_PARAM_SETS = [(1, 7), (1, 13), (2, 7), (2, 13), (3, 7), (4, 7), (6, 13)]
ODD_KS = [1, 3, 5, 7, 9]


# --- parameter validation ---

def test_find_alpha():
    assert find_alpha(7) == 2
    assert find_alpha(13) == 3
    assert find_alpha(5) is None
    assert find_alpha(3) is None
    assert find_alpha(31) == 5  # 25 + 5 + 1 = 31


def test_even_params_validation():
    with pytest.raises(BadParams):
        EvenParams.make(1, 5)     # 5 != 1 mod 3
    with pytest.raises(BadParams):
        EvenParams.make(1, 9)     # not prime
    with pytest.raises(BadParams):
        EvenParams.make(7, 7)     # p | m
    with pytest.raises(BadParams):
        EvenParams(1, 7, 3)       # wrong root
    with pytest.raises(BadParams):
        EvenParams.make(1, 3)     # p = 3 rejected
    params = EvenParams.make(2, 7)
    assert (params.m, params.p, params.alpha) == (2, 7, 2)


def test_odd_k_validation():
    with pytest.raises(BadParams):
        odd_group(0)


# --- even family ---

def even_from_word(G, word):
    """Evaluate a word over generators u, v, w, x, with U/V/W for inverses."""
    gens = {
        "u": G.element(1, 0, 0, 0), "U": G.element(-1, 0, 0, 0),
        "v": G.element(0, 1, 0, 0), "V": G.element(0, -1, 0, 0),
        "w": G.element(0, 0, 1, 0), "W": G.element(0, 0, -1, 0),
        "x": G.element(0, 0, 0, 1), "X": G.element(0, 0, 0, 1),
    }
    acc = G.identity()
    for ch in word:
        acc = G.mul(acc, gens[ch])
    return acc


@pytest.mark.parametrize("m,p", EVEN_PARAM_SETS)
def test_even_relators(m, p):
    G = even_group(m, p)
    ident = G.identity()
    relators = [
        "u" * m, "v" * m, "w" * p, "xx",
        "uvUV", "uwUW", "vwVW",     # commutators in A
        "Xuxu", "Xvxv", "Xwxw",     # x inverts u, v, w
    ]
    for word in relators:
        assert even_from_word(G, word) == ident, word


@pytest.mark.parametrize("m,p", EVEN_PARAM_SETS)
def test_even_y_is_homomorphism(m, p):
    G = even_group(m, p)
    elements = list(G.all_elements())
    if len(elements) <= 60:
        pairs = list(product(elements, repeat=2))
    else:
        rng = random.Random(1000 * m + p)
        pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(1000)]
    for g1, g2 in pairs:
        assert G.apply_y(G.mul(g1, g2)) == G.mul(G.apply_y(g1), G.apply_y(g2))


@pytest.mark.parametrize("m,p", EVEN_PARAM_SETS)
def test_even_y_cubed_is_identity_map(m, p):
    G = even_group(m, p)
    for g in G.all_elements():
        assert G.apply_y(G.apply_y(G.apply_y(g))) == g


def test_even_y_on_generators():
    G = even_group(2, 7)
    u, v = G.element(1, 0, 0, 0), G.element(0, 1, 0, 0)
    w, x = G.element(0, 0, 1, 0), G.element(0, 0, 0, 1)
    assert G.apply_y(u) == v
    assert G.apply_y(v) == G.mul(G.inv(u), G.inv(v))
    assert G.apply_y(w) == G.element(0, 0, G.params.alpha, 0)
    assert G.apply_y(x) == x


def test_even_y_on_s():
    # s = u w x maps to v w^alpha x
    G = even_group(2, 7)
    s = even_from_word(G, "uwx")
    assert G.apply_y(s) == G.element(0, 1, G.params.alpha, 1)


@pytest.mark.parametrize("m,p", EVEN_PARAM_SETS)
def test_even_connection_set_involutions(m, p):
    G = even_group(m, p)
    S = G.connection_set()
    assert len(set(S)) == 3
    for s in S:
        assert s != G.identity()
        assert G.mul(s, s) == G.identity()


def test_even_connection_set_m1_p7():
    # at m = 1 the u-part dies: S = {w x, w^2 x, w^4 x}
    G = even_group(1, 7)
    assert G.connection_set() == (
        EvenElement(0, 0, 1, 1), EvenElement(0, 0, 2, 1), EvenElement(0, 0, 4, 1))


@pytest.mark.parametrize("m,p", EVEN_PARAM_SETS)
def test_even_a_b_products(m, p):
    # a = s s^y = u v^-1 w^(1-alpha); b = s s^(y^2) = u^2 v w^(1-alpha^2)
    G = even_group(m, p)
    s, sy, syy = G.connection_set()
    alpha = G.params.alpha
    assert G.mul(s, sy) == G.element(1, -1, 1 - alpha, 0)
    assert G.mul(s, syy) == G.element(2, 1, 1 - alpha * alpha, 0)


@pytest.mark.parametrize("m,p,order", [(1, 7, 7), (3, 7, 7), (2, 7, 14), (2, 13, 26), (6, 13, 26)])
def test_even_semiregular_generator_order(m, p, order):
    G = even_group(m, p)
    gen, declared = G.semiregular_generator()
    assert declared == order
    assert G.element_order(gen) == order
    # 3 | m uses u^3 w, otherwise u w
    assert gen == G.element(3 if m % 3 == 0 else 1, 0, 1, 0)


@pytest.mark.parametrize("m,p", EVEN_PARAM_SETS)
def test_even_inverses(m, p):
    G = even_group(m, p)
    for g in G.all_elements():
        assert G.mul(g, G.inv(g)) == G.identity()
        assert G.mul(G.inv(g), g) == G.identity()


def test_even_order_by_exhaustive_enumeration():
    for m, p in [(1, 7), (2, 7), (3, 7), (4, 7), (1, 13), (2, 13)]:
        G = even_group(m, p)
        elements = set(G.all_elements())
        assert len(elements) == 2 * m * m * p == G.order
        # closure under multiplication spot-check
        rng = random.Random(m * p)
        sample = rng.sample(sorted(elements), min(20, len(elements)))
        for g1 in sample:
            for g2 in sample:
                assert G.mul(g1, g2) in elements


# --- odd family ---

def odd_from_word(G, word):
    gens = {
        "u": G.element(1, 0, 0, 0), "U": G.element(-1, 0, 0, 0),
        "v": G.element(0, 1, 0, 0), "V": G.element(0, -1, 0, 0),
        "x": G.element(0, 0, 1, 0), "X": G.element(0, 0, 2, 0),
        "y": G.element(0, 0, 0, 1), "Y": G.element(0, 0, 0, 1),
    }
    acc = G.identity()
    for ch in word:
        acc = G.mul(acc, gens[ch])
    return acc


@pytest.mark.parametrize("k", ODD_KS + [2, 6])
def test_odd_relators(k):
    G = odd_group(k)
    ident = G.identity()
    relators = [
        "u" * k, "v" * k, "xxx", "yy",
        "uvUV",     # [u, v]
        "XuxV",     # u^x v^-1
        "Xvxvu",    # v^x v u
        "Yuyv",     # u^y v
        "Yvyu",     # v^y u
        "Yxyx",     # x^y x
    ]
    for word in relators:
        assert odd_from_word(G, word) == ident, word


@pytest.mark.parametrize("k", ODD_KS + [2, 6])
def test_odd_sigma_is_homomorphism(k):
    G = odd_group(k)
    elements = list(G.all_elements())
    if len(elements) <= 200:
        pairs = list(product(elements, repeat=2))
    else:
        rng = random.Random(k)
        pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(1000)]
    for g1, g2 in pairs:
        assert G.apply_sigma(G.mul(g1, g2)) == G.mul(G.apply_sigma(g1), G.apply_sigma(g2))


@pytest.mark.parametrize("k", ODD_KS + [2, 6])
def test_odd_sigma_cubed_is_identity_map(k):
    G = odd_group(k)
    for g in G.all_elements():
        assert G.apply_sigma(G.apply_sigma(G.apply_sigma(g))) == g


@pytest.mark.parametrize("k", ODD_KS)
def test_odd_sigma_named_images(k):
    G = odd_group(k)
    delta = G.delta
    u, v = G.element(1, 0, 0, 0), G.element(0, 1, 0, 0)
    x, y = G.element(0, 0, 1, 0), G.element(0, 0, 0, 1)
    assert G.apply_sigma(u) == G.mul(G.inv(u), G.inv(v))
    assert G.apply_sigma(v) == u
    assert G.apply_sigma(x) == G.element(delta, delta, 1, 0)   # (uv)^delta x
    assert G.apply_sigma(y) == G.element(0, 0, 2, 1)           # x^2 y


@pytest.mark.parametrize("k", ODD_KS)
def test_odd_connection_set_values(k):
    # s = u v y; s^sigma = v^-1 x^2 y; s^sigma^2 = u^(delta-1) x y
    G = odd_group(k)
    s, ss, sss = G.connection_set()
    assert s == G.element(1, 1, 0, 1)
    assert ss == G.element(0, -1, 2, 1)
    assert sss == G.element(G.delta - 1, 0, 1, 1)
    for t in (s, ss, sss):
        assert G.mul(t, t) == G.identity()
        assert G.in_r(t)


def test_odd_connection_set_k1():
    # at k = 1 the translations die: S = {y, x^2 y, x y}
    G = odd_group(1)
    assert G.connection_set() == (
        OddElement(0, 0, 0, 1, 0), OddElement(0, 0, 2, 1, 0), OddElement(0, 0, 1, 1, 0))


@pytest.mark.parametrize("k", ODD_KS + [2, 6])
def test_odd_s_product_identity(k):
    # s s^sigma s s^sigma^2 = u^(3 - delta), the key connectivity element
    G = odd_group(k)
    s, ss, sss = G.connection_set()
    prod = G.mul(G.mul(G.mul(s, ss), s), sss)
    assert prod == G.element(3 - G.delta, 0, 0, 0)


@pytest.mark.parametrize("k", ODD_KS)
def test_odd_semiregular_generator(k):
    G = odd_group(k)
    gen, order = G.semiregular_generator()
    assert order == 6 * k
    assert not G.in_r(gen)
    if k % 3 == 0:
        assert gen == G.element(0, 0, 0, 1, 1)      # y sigma
    else:
        assert gen == G.element(1, -1, 2, 1, 1)     # u v^-1 y x sigma


def test_odd_y_sigma_powers_k3():
    # (y sigma)^3 = v^-1 x y and (y sigma)^6 = v^-2 u^-1
    G = odd_group(3)
    ys = G.element(0, 0, 0, 1, 1)
    p3 = G.mul(G.mul(ys, ys), ys)
    assert p3 == G.element(0, -1, 1, 1, 0)
    p6 = G.mul(p3, p3)
    assert p6 == G.element(-1, -2, 0, 0, 0)


def test_odd_commuting_parts_k5():
    # u v^-1, y and x sigma pairwise commute, with orders k, 2 and 3
    G = odd_group(5)
    parts = [G.element(1, -1, 0, 0, 0), G.element(0, 0, 0, 1, 0), G.element(0, 0, 1, 0, 1)]
    for a in parts:
        for b in parts:
            assert G.mul(a, b) == G.mul(b, a)
    assert G.element_order(parts[0]) == 5
    assert G.element_order(parts[1]) == 2
    assert G.element_order(parts[2]) == 3


@pytest.mark.parametrize("k", ODD_KS + [2, 6])
def test_odd_inverses(k):
    G = odd_group(k)
    rng = random.Random(k)
    elements = list(G.all_elements())
    sample = elements if len(elements) <= 200 else rng.sample(elements, 200)
    for g in sample:
        assert G.mul(g, G.inv(g)) == G.identity()
        assert G.mul(G.inv(g), g) == G.identity()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_odd_group_order_by_enumeration(k):
    G = odd_group(k)
    elements = set(G.all_elements())
    assert len(elements) == 18 * k * k == G.order
    assert sum(1 for g in elements if G.in_r(g)) == 6 * k * k == G.r_order


def test_element_rendering():
    G = even_group(2, 7)
    assert G.render(G.element(1, 0, 4, 1)) == "u^1 v^0 w^4 x^1"
    O = odd_group(5)
    assert O.render(O.element(2, 3, 2, 1, 1)) == "u^2 v^3 x^2 y sigma^1"
    assert O.render(O.identity()) == "u^0 v^0 1 sigma^0"


@pytest.mark.parametrize("k", [3, 5])
def test_odd_split_recomposes_every_element(k):
    G = odd_group(k)
    for g in G.all_elements():
        r, j = G.split(g)
        assert G.in_r(r) and 0 <= j < 3
        assert G.mul(r, G.element(0, 0, 0, 0, j)) == g


def test_even_split_is_the_element_itself():
    G = even_group(2, 7)
    for g in G.all_elements():
        assert G.split(g) == (g, 0)


# --- integer codes and right-multiplication tables ---

@pytest.mark.parametrize("family,params", [
    ("odd", (1,)), ("odd", (3,)), ("odd", (5,)), ("odd", (9,)),
    ("even", (1, 7)), ("even", (3, 7)), ("even", (2, 13)),
], ids=["odd-1", "odd-3", "odd-5", "odd-9", "even-1-7", "even-3-7", "even-2-13"])
def test_right_tables_match_multiplication(family, params):
    if family == "odd":
        G = odd_group(*params)
        elements = list(G.r_elements())
    else:
        G = even_group(*params)
        elements = list(G.all_elements())
    codes = [G.code(g) for g in elements]
    assert sorted(codes) == list(range(G.code_count))
    assert all(G.decode(c) == g for c, g in zip(codes, elements))
    # when 3 | m the closure of S has index 3 in R: the table covers all of R
    for s in G.connection_set() + (G.identity(),):
        table = G.right_table(s)
        assert len(table) == G.code_count
        for c, g in zip(codes, elements):
            assert G.decode(table[c]) == G.mul(g, s), (G.render(g), G.render(s))


def test_right_table_of_a_non_symbol_element():
    # s with a nonzero lattice part and a nontrivial coset symbol
    G = odd_group(5)
    s = G.element(2, 3, 1, 1)
    table = G.right_table(s)
    for g in G.r_elements():
        assert G.decode(table[G.code(g)]) == G.mul(g, s)
    E = even_group(2, 13)
    s = E.element(1, 0, 5, 0)
    table = E.right_table(s)
    for g in E.all_elements():
        assert E.decode(table[E.code(g)]) == E.mul(g, s)


@pytest.mark.parametrize("j", [1, 2])
def test_odd_elements_outside_r_have_no_code(j):
    G = odd_group(3)
    g = G.element(1, 2, 1, 0, j)
    assert G.code(g) is None
    with pytest.raises(ElementOutsideR):
        G.right_table(g)
