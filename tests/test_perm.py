"""Permutation arithmetic and stabilizer-chain queries."""
import gc
import hashlib
import random
import re
import weakref

import pytest
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup
from sympy.combinatorics.named_groups import (
    AlternatingGroup,
    DihedralGroup,
    RubikGroup,
    SymmetricGroup,
)

from circulant_lab import _kernels as kern
from circulant_lab import perm
from circulant_lab.aut import automorphism_group, is_automorphism
from circulant_lab.cli import build_even, build_odd
from circulant_lab.errors import CapExceeded, DegreeMismatch
from circulant_lab.kcirc import certify_k_circulant
from circulant_lab.perm import (
    PermGroup,
    Permutation,
    compose,
    cycle_structure,
    from_cycle_string,
    identity,
    inverse,
    is_semiregular,
    power,
    to_cycle_string,
)
from circulant_lab.graphio import from_edges
from helpers import (
    chain_elements,
    diamond_ring,
    generalized_petersen,
    random_cubic_graph,
    schreier_sims_by_inverses,
    spectrum_passes,
)


def P(cycles: str, degree: int) -> Permutation:
    return from_cycle_string(cycles, degree)


def test_from_images_rejects_non_permutations():
    assert Permutation.from_images([1, 2, 0]) == P("(0 1 2)", 3)
    assert Permutation.from_images([]) == identity(0)
    # bool is a subclass of int, but True and False are not points
    for images in ([True, False, 2], [0, True, 2], [1, 2, 2], [0, 3, 1], [0.0, 1]):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation.from_images(images)


def test_compose_identity():
    c4 = P("(0 1 2 3)", 4)
    assert compose(identity(4), c4) == c4
    assert compose(c4, identity(4)) == c4


def test_involution_squares_to_identity():
    inv = P("(0 1)(2 3)", 4)
    assert compose(inv, inv) == identity(4)


def test_compose_convention_pinned():
    # (0 1 2) then (0 1): 0->1->0, 1->2->2, 2->0->1; this test fixes the
    # left-to-right convention for the whole package
    p = P("(0 1 2)", 3)
    q = P("(0 1)", 3)
    assert compose(p, q).images == (0, 2, 1)
    # and the reverse order differs
    assert compose(q, p).images == (2, 1, 0)


def test_inverse_two_sided():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 30)
        images = list(range(n))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        assert compose(p, inverse(p)) == identity(n)
        assert compose(inverse(p), p) == identity(n)


def test_compose_associative_on_random_triples():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(1, 25)
        ps = []
        for _ in range(3):
            im = list(range(n))
            rng.shuffle(im)
            ps.append(Permutation(tuple(im)))
        a, b, c = ps
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        compose(identity(3), identity(4))


def test_cycle_structure_examples():
    assert cycle_structure(identity(6)) == (cycle_structure(identity(6)))
    cs = cycle_structure(identity(6))
    assert cs.cycle_lengths == (1,) * 6 and cs.element_order == 1
    cs = cycle_structure(P("(0 1 2)(3 4 5)", 6))
    assert cs.cycle_lengths == (3, 3) and cs.element_order == 3
    cs = cycle_structure(P("(0 1)", 4))
    assert cs.cycle_lengths == (1, 1, 2) and cs.element_order == 2
    # every cycle starts at its smallest point, cycles come in ascending
    # order of that point, and fixed points are cycles of their own
    p = P("(5 3)(4 1 2)", 7)
    assert list(kern.cycles(p.images)) == [[0], [1, 2, 4], [3, 5], [6]]
    assert cycle_structure(p).cycle_lengths == (1, 1, 2, 3)
    assert list(kern.cycles(identity(3).images)) == [[0], [1], [2]]
    assert list(kern.cycles(())) == []
    cs = cycle_structure(identity(0))
    assert cs.cycle_lengths == () and cs.element_order == 1


def test_is_semiregular_examples():
    assert is_semiregular(P("(0 1 2)(3 4 5)", 6))
    assert not is_semiregular(P("(0 1)", 4))
    assert is_semiregular(identity(5))


def orbit_length(images, point):
    """Applications of the permutation that bring point back to itself."""
    length, j = 1, images[point]
    while j != point:
        j = images[j]
        length += 1
    return length


def test_semiregular_matches_orbit_criterion():
    # oracle: the orbit length of every point by repeated application; odd
    # trials build a semiregular element from equal-length cycles
    rng = random.Random(3)
    for trial in range(100):
        n = rng.randrange(0, 20)
        points = list(range(n))
        rng.shuffle(points)
        if trial % 2 and n:
            d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
            im = [0] * n
            for i in range(0, n, d):
                cyc = points[i:i + d]
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    im[a] = b
        else:
            im = points
        p = Permutation(tuple(im))
        orbits = [orbit_length(im, i) for i in range(n)]
        assert is_semiregular(p) == (len(set(orbits)) <= 1)
        # a cycle of length ln holds ln points of orbit length ln
        lengths = [ln for ln in sorted(set(orbits)) for _ in range(orbits.count(ln) // ln)]
        assert cycle_structure(p).cycle_lengths == tuple(lengths)


def test_power():
    c = P("(0 1 2 3 4)", 5)
    assert power(c, 5) == identity(5)
    assert power(c, -1) == inverse(c)
    assert power(c, 7) == compose(c, c)


def test_cycle_string_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(0, 15)
        im = list(range(n))
        rng.shuffle(im)
        p = Permutation(tuple(im))
        text = to_cycle_string(p)
        assert from_cycle_string(text, n) == p
        # fixed points omitted; each cycle opens with its smallest point,
        # and the cycles come in ascending order of it
        cycles = [[int(t) for t in c.split()] for c in text[1:-1].split(")(") if c]
        assert sorted(x for c in cycles for x in c) == [i for i in range(n) if im[i] != i]
        assert all(c[0] == min(c) for c in cycles)
        assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
    assert to_cycle_string(identity(4)) == "()"
    assert to_cycle_string(identity(0)) == "()"
    assert to_cycle_string(Permutation((2, 0, 1, 4, 3))) == "(0 2 1)(3 4)"
    assert to_cycle_string(P("(3 4)(0 2 1)", 6)) == "(0 2 1)(3 4)"
    assert to_cycle_string(P("(6 2)(5 1 4)", 8)) == "(1 4 5)(2 6)"



def test_cycle_string_rejects_a_repeated_point():
    # a point may appear once: not twice in one cycle, and not in two
    # cycles, which would silently compose them into another permutation
    for text in ("(0 1 0)", "(0 1 2)(2 1 0)", "(0 1)(1 0)", "(0 1)(2 3)(3 0)"):
        with pytest.raises(ValueError, match="repeated point"):
            from_cycle_string(text, 4)
    assert from_cycle_string("(0 1)(2 3)", 4).images == (1, 0, 3, 2)


def test_cycle_string_accepts_ascii_digits_alone():
    # int() and str.split() alone would read "(1_0 2)" as (2 10), take a
    # sign or a non-ASCII digit, and split at a no-break space
    for text in ("(1_0 2)", "(+1 2)", "(0 -1)", "(\u0661 2)", "(0\u00a01)", "(0 1\u00a0)",
                 "(0 1) (2 3)", "(0 1)\u00a0"):
        with pytest.raises(ValueError):
            from_cycle_string(text, 12)
    # the error names the bad token
    for text, token in (("(1_0 2)", "1_0"), ("(+1 2)", "+1"), ("(\u0661 2)", "\u0661"),
                        ("(0\u00a01)", "0\u00a01")):
        with pytest.raises(ValueError, match=re.escape(f"bad point {token!r}")):
            from_cycle_string(text, 12)
    # ASCII spaces, tabs and commas separate points and pad the text
    for text in ("(0 1 2)(3 4)", "(0,1,2)(3,4)", "(0\t1\t2)(3 4)", " (0, 1 2)(3 4)\t",
                 "(0  1 2)( 3 4 )"):
        assert from_cycle_string(text, 5) == P("(0 1 2)(3 4)", 5)
    # a line read from a file parses: one "\n" at the end is dropped, with
    # one "\r" before it, and no other line end
    for text in ("(0 1 2)(3 4)\n", "(0 1 2)(3 4)\r\n", " (0 1 2)(3 4)\t\n"):
        assert from_cycle_string(text, 5) == P("(0 1 2)(3 4)", 5)
    assert from_cycle_string("\n", 5) == from_cycle_string("()\r\n", 5) == identity(5)
    for text in ("(0 1)\n\n", "(0 1)\r", "(0 1)\n\r", "\n(0 1)", "(0\n1)", "(0 1)\n(2 3)",
                 "(0 1)\r\r\n"):
        with pytest.raises(ValueError):
            from_cycle_string(text, 5)


def test_group_order_sym4():
    g = PermGroup(4, [P("(0 1 2 3)", 4), P("(0 1)", 4)])
    assert g.order() == 24


def test_group_order_trivial():
    assert PermGroup(5, []).order() == 1
    assert PermGroup(0, []).order() == 1
    assert PermGroup(1, []).order() == 1


def test_orbits():
    g = PermGroup(4, [P("(0 1)(2 3)", 4)])
    assert g.orbits() == [[0, 1], [2, 3]]
    assert PermGroup(3, []).orbits() == [[0], [1], [2]]
    g = PermGroup(5, [P("(0 1 2)", 5), P("(0 1)", 5)])
    assert g.orbits() == [[0, 1, 2], [3], [4]]
    # both generators send 0 to 1: the repeated image is visited once
    g = PermGroup(6, [P("(0 1)(4 5)", 6), P("(0 1 3)", 6)])
    assert g.orbits() == [[0, 1, 3], [2], [4, 5]]


def test_orbits_without_generators():
    # the identity generator is dropped, so both groups have no generators
    # and every point is its own orbit
    for group in (PermGroup(4, [identity(4)]), PermGroup(4, [])):
        assert group.generators == ()
        assert group.orbits() == [[0], [1], [2], [3]]
    assert PermGroup(0, []).orbits() == []
    assert PermGroup(0, [identity(0)]).orbits() == []
    assert PermGroup(1, []).orbits() == [[0]]
    # each call returns new lists, so a caller may modify them
    g = PermGroup(5, [P("(0 1 2)", 5), P("(3 4)", 5)])
    orbits = g.orbits()
    orbits[0].append(9)
    orbits.pop()
    assert g.orbits() == [[0, 1, 2], [3, 4]]


def test_membership():
    g = PermGroup(3, [P("(0 1 2)", 3)])
    assert identity(3) in g
    assert P("(0 1)", 3) not in g
    assert P("(0 2 1)", 3) in g


def test_membership_of_random_products():
    rng = random.Random(13)
    gens = [P("(0 1 2 3 4)", 5), P("(0 1)", 5)]
    g = PermGroup(5, gens)
    for _ in range(50):
        w = identity(5)
        for _ in range(rng.randrange(1, 12)):
            w = compose(w, rng.choice(gens))
        assert w in g


def test_enumeration_matches_order():
    cases = [
        PermGroup(3, [P("(0 1 2)", 3), P("(0 1)", 3)]),   # Sym(3)
        PermGroup(4, [P("(0 1 2 3)", 4)]),                # Z4
        PermGroup(6, [P("(0 1 2)(3 4 5)", 6), P("(0 3)(1 4)(2 5)", 6)]),
        PermGroup(6, [P("(0 1)", 6), P("(2 3 4 5)", 6), P("(2 3)", 6)]),  # small top orbit
        PermGroup(2, []),
    ]
    # a searched chain whose trees below the top level try only the
    # generators that move a point: orbits 14, 3, 2, 2, 2
    graph = build_even(1, 7).graph
    searched = automorphism_group(graph)
    assert [len(lvl.tree) for lvl in searched._levels] == [14, 3, 2, 2, 2]
    for g in cases + [searched]:
        elems = list(chain_elements(g))
        assert len(elems) == g.order()
        assert len(set(e.images for e in elems)) == g.order()
        for e in elems:
            assert e in g
    assert all(is_automorphism(graph, e) for e in chain_elements(searched))


def test_enumeration_deterministic():
    g = PermGroup(4, [P("(0 1 2 3)", 4), P("(0 1)", 4)])
    first = [e.images for e in chain_elements(g)]
    second = [e.images for e in chain_elements(g)]
    assert first == second
    assert first[0] == (0, 1, 2, 3)


SUBORBIT_GROUPS = [
    PermGroup(3, [P("(0 1 2)", 3), P("(0 1)", 3)]),   # Sym(3)
    PermGroup(4, [P("(0 1 2 3)", 4), P("(0 1)", 4)]),  # Sym(4): suborbits {0}, {1, 2, 3}
    PermGroup(4, [P("(0 1 2 3)", 4)]),                 # Z4: every suborbit a point
    PermGroup(6, [P("(0 1 2)(3 4 5)", 6), P("(0 3)(1 4)(2 5)", 6)]),
    PermGroup(6, [P("(0 1)", 6), P("(2 3 4 5)", 6), P("(2 3)", 6)]),  # small top orbit
    PermGroup(10, [P("(0 1 2 3 4)(5 6 7 8 9)", 10), P("(1 4)(2 3)(6 9)(7 8)", 10),
                   P("(0 5)(1 6)(2 7)(3 8)(4 9)", 10)]),
    # longer chains below the top level: Sym(6), and Sym(4) wr Z2 with
    # suborbits {0}, {1, 2, 3}, {4, 5, 6, 7}
    PermGroup(6, [P("(0 1 2 3 4 5)", 6), P("(0 1)", 6)]),
    PermGroup(8, [P("(0 1 2 3)", 8), P("(0 1)", 8), P("(0 4)(1 5)(2 6)(3 7)", 8)]),
]


def _composed(walked):
    """Each (pt, h, v, t, g) of either pass (spectrum_passes) as its
    element x -> g[t[v[h[x]]]]."""
    return [Permutation(tuple(g[t[v[x]]] for x in h)) for _, h, v, t, g in walked]


def _blocks(walked):
    """The walked elements by block point."""
    blocks = {}
    for item in walked:
        blocks.setdefault(item[0], []).extend(_composed([item]))
    return blocks


def _suborbit_minima(group, everything):
    """Each point of the first base point's orbit -> the smallest point of
    its suborbit."""
    b = group.base()[0]
    stabiliser = [g for g in everything if g[b] == b]
    return {pt: min(h[pt] for h in stabiliser) for pt in {g[b] for g in everything}}


def _check_suborbit_blocks(group):
    # the second pass over every suborbit minimum walks the blocks in
    # chain order
    base = group.base()
    b = base[0]
    everything = list(chain_elements(group))
    minima = sorted(set(_suborbit_minima(group, everything).values()))
    walked_minima, _, in_order = spectrum_passes(group)
    # block b, whose one element that fixes no base point is the identity,
    # is walked by neither pass
    assert walked_minima == [m for m in minima if m != b]
    blocks = _blocks(in_order(walked_minima))
    assert set(blocks) <= set(walked_minima)
    # the blocks, compared by point, each in chain order, without
    # exactly the elements that fix a base point
    for pt in minima:
        if pt == b:
            continue
        block = [g for g in everything if g[b] == pt and all(g[c] != c for c in base)]
        assert blocks.get(pt, []) == block, pt


@pytest.mark.parametrize("group", SUBORBIT_GROUPS)
def test_suborbit_pairs_are_the_smallest_block_of_each_suborbit(group):
    _check_suborbit_blocks(group)


SHALLOW_GROUPS = [automorphism_group(build_odd(7).graph),
                  automorphism_group(build_odd(9).graph)]


@pytest.mark.parametrize("group", SHALLOW_GROUPS + SUBORBIT_GROUPS)
def test_a_shallow_first_pass_walks_one_whole_block_per_suborbit(group):
    # any point of a suborbit and any representative will do: the block is
    # a coset as a set, and conjugation by the stabiliser keeps cycle types;
    # every suborbit is entered by the shallow tree, whatever
    # representatives the top level keeps, and the identity is not walked
    base = group.base()
    b = base[0]
    everything = list(chain_elements(group))
    least = _suborbit_minima(group, everything)
    blocks = _blocks(spectrum_passes(group)[1]())
    assert set(blocks) == set(least.values()) - {b}
    for m, block in blocks.items():
        points = {g[b] for g in block}
        assert len(points) == 1
        pt = points.pop()
        assert least[pt] == m
        whole = [g for g in everything if g[b] == pt and all(g[c] != c for c in base)]
        assert sorted(g.images for g in block) == sorted(g.images for g in whole)


@pytest.mark.parametrize("group", SHALLOW_GROUPS)
def test_the_second_pass_walks_blocks_in_chain_order(group):
    _check_suborbit_blocks(group)
    # only the blocks asked for
    _, shallow, in_order = spectrum_passes(group)
    some = sorted({item[0] for item in shallow()})[1::3]
    assert set(_blocks(in_order(some))) == set(some)


def _partly_kept(build, params):
    """A searched group whose membership sifts have kept the top-level
    representatives of every other suborbit minimum, but not all of them."""
    group = automorphism_group(build(*params).graph)
    everything = list(chain_elements(group))
    b = group.base()[0]
    minima = sorted(set(_suborbit_minima(group, everything).values()) - {b})
    for m in minima[::2]:
        assert group.contains(next(g for g in everything if g[b] == m))
    return group


@pytest.mark.parametrize("group", SHALLOW_GROUPS + SUBORBIT_GROUPS + [
    _partly_kept(build_odd, (3,)), _partly_kept(build_even, (2, 7))])
def test_the_first_pass_marks_the_blocks_it_reads_in_chain_order(group):
    # the mark is one per group, read off its chain: a top level that keeps
    # a representative for every point of its orbit, as Schreier-Sims
    # builds it, reads every block through its own, so the pass in chain
    # order over every suborbit composes nothing at the top level; a
    # searched group keeps only those its membership sifts composed
    top = group._levels[0]
    keeps = len(top.reps) == len(top.tree)
    assert keeps == (set(top.reps) == set(top.tree))
    assert keeps == (group in SUBORBIT_GROUPS)
    _check_suborbit_blocks(group)


def test_the_shallow_tree_bridges_a_suborbit_it_cannot_enter():
    # one generator, the cycle (0 1 2 3 4 5), and suborbits {0}, {1, 2},
    # {3, 4}, {5}: from 1 the tree reaches only 2, whose suborbit it has
    # entered, so 2 enters as a bridge, and so does 4 after 3
    cycle = [1, 2, 3, 4, 5, 0]
    least = [0, 1, 1, 3, 3, 5]
    tree, targets = perm._shallow_tree(0, [cycle], least, 3)
    assert targets == {1: 1, 3: 3, 5: 5}
    assert {q: pt for q, (pt, _) in tree.items()} == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}


def test_suborbit_pairs_of_the_trivial_group(monkeypatch):
    # the trivial group's one element is the identity, which no pass walks:
    # its hits are k = n alone, and none on no points
    passes = []
    for name in ("_shallow_pass", "_chain_pass"):
        monkeypatch.setattr(perm, name, lambda *args, name=name: passes.append(name))
    for degree, hits in ((3, {3: identity(3)}), (0, {})):
        group = PermGroup(degree, [])
        assert group.semiregular_hits() == hits
        assert group.semiregular_hits(cap=1) == hits
    assert passes == []


def test_suborbit_pairs_cap():
    g = PermGroup(4, [P("(0 1 2 3)", 4), P("(0 1)", 4)])
    with pytest.raises(CapExceeded, match="^group order 24 exceeds cap 23$"):
        g.semiregular_hits(cap=23)
    assert g._spectrum_hits is None  # raised before the walk
    assert list(g.semiregular_hits(cap=24)) == [1, 2, 4]
    # the cap is checked on every call, also once the hits are kept
    with pytest.raises(CapExceeded):
        g.semiregular_hits(cap=23)
    # block 1 alone: the six elements mapping 0 to 1, less the two that
    # fix the base point 2
    assert len(list(spectrum_passes(g)[1]())) == 4


def test_walks_do_not_keep_their_group_alive():
    # the transversals are n full permutations per level: a walk, finished or
    # abandoned, must let the group go without waiting for the cycle collector
    gc.disable()
    try:
        g = PermGroup(4, [P("(0 1 2 3)", 4), P("(0 1)", 4)])
        minima, shallow, in_order = spectrum_passes(g)
        next(shallow())
        next(in_order(minima))
        released = weakref.ref(g)
        del g
        assert released() is None
        # a spectrum walk on the uncomposed pairs, left at its first hit
        graph = build_odd(3).graph
        g = automorphism_group(graph)
        witness = certify_k_circulant(graph, 3, g)
        assert witness is not None and witness != _composed(spectrum_passes(g)[1]())[-1]
        released = weakref.ref(g)
        del g
        assert released() is None
        # the spectrum's hits, kept on the group after certificates for
        # several k, refer to nothing that refers back to it
        g = automorphism_group(graph)
        assert [certify_k_circulant(graph, k, g) is not None for k in (1, 3, 6, 54)] == [
            False, True, True, True]
        assert g._spectrum_hits
        released = weakref.ref(g)
        del g
        assert released() is None
    finally:
        gc.enable()


def test_generators_pass_membership():
    gens = [P("(0 1 2 3 4 5 6)", 7), P("(1 2 4)(3 6 5)", 7)]
    g = PermGroup(7, gens)
    for gen in gens:
        assert gen in g


def _chain_pin(group):
    """Base, basic orbit sizes and a digest of the elements in chain order."""
    base = group.base()
    elements = list(chain_elements(group))
    sizes = tuple(
        len({e[b] for e in elements if all(e[c] == c for c in base[:i])})
        for i, b in enumerate(base)
    )
    digest = hashlib.sha256()
    for e in elements:
        digest.update(repr(e.images).encode())
    return base, sizes, digest.hexdigest()


def _arc_group(construction):
    # a fresh group on the same generators, so Schreier-Sims builds its chain
    return PermGroup(construction.graph.n, construction.arc_group.generators)


@pytest.mark.parametrize("make, pinned", [
    (lambda: PermGroup(4, [P("(0 1 2 3)", 4), P("(0 1)", 4)]),
     ((0, 1, 2), (4, 3, 2),
      "e13746a049340a0ccbb99cbfb696a2526560ab6994493bd3101713270b4905bf")),
    (lambda: _arc_group(build_odd(3)),
     ((0, 1), (54, 3),
      "a6969045aed79c12053ca7847ccd3c1065092b59c1a4470eeffd00a5f2e6e852")),
    (lambda: _arc_group(build_odd(5)),
     ((0, 1), (150, 3),
      "9037d7b96d8178670f6d014d328858f88aebf69dcceee045249610d69bcd1bca")),
    (lambda: _arc_group(build_even(1, 7)),
     ((0, 1), (14, 3),
      "200d19ce7d1941ff7b64d5207f9d4285335b892460dfecba13a14111e92410db")),
    (lambda: _arc_group(build_even(2, 7)),
     ((0, 1), (56, 3),
      "e8f7f44a2c0e475f5a3ae19841c4fd89ad50b9f42e1b4f7844e7d40d2a3ba6fb")),
], ids=["sym4", "odd3", "odd5", "even1_7", "even2_7"])
def test_schreier_sims_chain_is_pinned(make, pinned):
    # the base, the orbits and the element order of a chain built from
    # caller-supplied generators are all deterministic; these are their values
    assert _chain_pin(make()) == pinned


def _random_groups(count):
    """count seeded random groups of degree at most 12 on 1-3 generators."""
    rng = random.Random(20)
    groups = []
    for _ in range(count):
        n = rng.randint(1, 12)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        groups.append(PermGroup(n, gens))
    return groups


QUERY_ARC_GROUPS = {
    "odd5": lambda: _arc_group(build_odd(5)),
    "odd7": lambda: _arc_group(build_odd(7)),
    "odd9": lambda: _arc_group(build_odd(9)),
    "even4_7": lambda: _arc_group(build_even(4, 7)),
    "even5_13": lambda: _arc_group(build_even(5, 13)),
}


def _from_sympy(group):
    return PermGroup(group.degree, [Permutation(tuple(g.array_form)) for g in group.generators])


def _sympy_order(group):
    if not group.generators:
        return 1
    return SympyGroup([SympyPermutation(list(g.images)) for g in group.generators]).order()


ORACLE_GROUPS = {
    **QUERY_ARC_GROUPS,
    "alt8": lambda: _from_sympy(AlternatingGroup(8)),
    "sym9": lambda: _from_sympy(SymmetricGroup(9)),
    "dihedral12": lambda: _from_sympy(DihedralGroup(12)),
    "rubik2": lambda: _from_sympy(RubikGroup(2)),
    "diamond_ring8": lambda: PermGroup(32, automorphism_group(diamond_ring(8)).generators),
    # the generator's cycle in the orbit of 0 is shorter than its order,
    # 6, so the Schreier generator closing it, g^3 = (3 4), is sifted: it
    # opens the second level, and skipping it would give order 3
    "short_cycles": lambda: PermGroup(5, [P("(0 1 2)(3 4)", 5)]),
}


@pytest.mark.parametrize("name", ["random300", *ORACLE_GROUPS])
def test_schreier_sims_matches_the_inverse_per_step_sift(name):
    # the sift that carries the product of its representatives, and skips
    # the Schreier generator closing each cycle of a generator's order,
    # builds the chain the inverse-per-step sift of every Schreier
    # generator built, and answers membership alike
    groups = _random_groups(300) if name == "random300" else [ORACLE_GROUPS[name]()]
    rng = random.Random(7)
    for group in groups:
        n = group.degree
        assert group.order() == _sympy_order(group)
        base, gens, parents, contains = schreier_sims_by_inverses(
            n, [g.images for g in group.generators])
        levels = group._ensure_chain()
        assert group.base() == base
        assert [[tuple(g) for g in lvl.gens] for lvl in levels] == gens
        assert [{pt: edge and edge[0] for pt, edge in lvl.tree.items()}
                for lvl in levels] == parents
        # members, members with two images swapped, and random permutations
        words = group.generators or (identity(n),)
        members, queries = [], []
        for _ in range(4):
            w = identity(n)
            for _ in range(rng.randrange(1, 8)):
                w = compose(w, rng.choice(words))
            members.append(w)
            images = list(w.images)
            i, j = rng.randrange(n), rng.randrange(n)
            images[i], images[j] = images[j], images[i]
            queries += [w, Permutation(tuple(images)), Permutation(tuple(rng.sample(range(n), n)))]
        assert all(group.contains(w) for w in members)
        assert [group.contains(p) for p in queries] == [contains(p.images) for p in queries]


@pytest.mark.parametrize("name, compositions", [
    ("odd5", 429), ("odd7", 837), ("odd9", 1381), ("even4_7", 638), ("even5_13", 1845),
])
def test_schreier_sims_skips_the_generator_closing_each_cycle(monkeypatch, name, compositions):
    # around a cycle of g whose length is g's order the Schreier generators
    # multiply to the identity, so the last one not on a tree edge is never
    # composed: sifting every one made 753, 1473, 2433, 1123 and 3253
    # compositions here (5.0n), and the chain is the same (above)
    group = QUERY_ARC_GROUPS[name]()
    calls = [0]
    compose_images = kern.compose_images

    def counted_compose(p, q):
        calls[0] += 1
        return compose_images(p, q)

    monkeypatch.setattr(kern, "compose_images", counted_compose)
    assert group.order() == 3 * group.degree
    assert calls[0] == compositions


def test_sifts_invert_only_residues_they_adjoin(monkeypatch):
    # a sift picks each representative by a preimage under the product of
    # those chosen so far, so membership never inverts, and chain building
    # inverts at most once per adjoined residue
    cons = build_odd(5)
    n = cons.graph.n
    rng = random.Random(5)
    members = [cons.witness] + [
        compose(rng.choice(cons.arc_group.generators), rng.choice(cons.arc_group.generators))
        for _ in range(6)]
    others = [Permutation(tuple(rng.sample(range(n), n))) for _ in range(6)]
    for w in members[1:4]:
        images = list(w.images)
        images[0], images[1] = images[1], images[0]
        others.append(Permutation(tuple(images)))
    calls = {"compose": 0, "inverse": 0}
    compose_images, inverse_images = kern.compose_images, kern.inverse_images

    def counted_compose(p, q):
        calls["compose"] += 1
        return compose_images(p, q)

    def counted_inverse(p):
        calls["inverse"] += 1
        return inverse_images(p)

    monkeypatch.setattr(kern, "compose_images", counted_compose)
    monkeypatch.setattr(kern, "inverse_images", counted_inverse)
    group = _arc_group(cons)
    assert group.order() == 3 * n
    # each adjoined residue is one more strong generator of the top level
    assert calls["inverse"] <= len(group._levels[0].gens)
    # the inverse-per-step sift made 1055 compositions here (about 7n)
    assert calls["compose"] <= 3 * n
    calls.update(compose=0, inverse=0)
    assert all(group.contains(w) for w in members)
    assert not any(group.contains(w) for w in others)
    assert calls["inverse"] == 0
    # Sym(9) adjoins residues of Schreier generators on 8 levels: the
    # inverse-per-step sift made 2411 inversions building it
    symmetric = PermGroup(9, [P("(0 1)", 9), P("(0 1 2 3 4 5 6 7 8)", 9)])
    calls.update(compose=0, inverse=0)
    assert symmetric.order() == 362880
    assert 0 < calls["inverse"] <= len(symmetric._levels[0].gens)
    calls.update(compose=0, inverse=0)
    assert all(symmetric.contains(Permutation(tuple(rng.sample(range(9), 9))))
               for _ in range(20))
    assert calls["inverse"] == 0


def _two_k4():
    return from_edges(8, [(4 * c + i, 4 * c + j) for c in range(2)
                          for i in range(4) for j in range(i + 1, 4)])


TRANSITIVITY_GROUPS = {
    **ORACLE_GROUPS,
    "schreier-sims-odd3": lambda: _arc_group(build_odd(3)),
    "schreier-sims-even1_7": lambda: _arc_group(build_even(1, 7)),
    "search-odd5": lambda: automorphism_group(build_odd(5).graph),
    "search-even2_7": lambda: automorphism_group(build_even(2, 7).graph),
    "search-GP10-3": lambda: automorphism_group(generalized_petersen(10, 3)),
    # two vertex orbits, and two components
    "search-GP29-3": lambda: automorphism_group(generalized_petersen(29, 3)),
    "search-two-k4": lambda: automorphism_group(_two_k4()),
    "search-diamond_ring8": lambda: automorphism_group(diamond_ring(8)),
    # the claw's centre 0 is a singleton cell, so the search's first level
    # is at a leaf; a rigid graph's search opens no level
    "search-claw": lambda: automorphism_group(from_edges(4, [(0, 1), (0, 2), (0, 3)])),
    "search-rigid": lambda: automorphism_group(random_cubic_graph(random.Random(0), 20)),
    "fixes-0-cyclic": lambda: PermGroup(5, [P("(1 2 3 4)", 5)]),
    "fixes-0-two-orbits": lambda: PermGroup(6, [P("(1 2 3)(4 5)", 6), P("(1 2)", 6)]),
    "trivial0": lambda: PermGroup(0, []),
    "trivial1": lambda: PermGroup(1, []),
    "trivial2": lambda: PermGroup(2, [identity(2)]),
}


@pytest.mark.parametrize("name", ["random300", *TRANSITIVITY_GROUPS])
def test_is_transitive_is_read_off_the_chain(name):
    # the top level's tree is the orbit of a moved point, so a group is
    # transitive exactly when that tree holds every point; a group with no
    # level is transitive only on one point
    groups = (_random_groups(300) if name == "random300"
              else [TRANSITIVITY_GROUPS[name]()])
    for group in groups:
        n = group.degree
        want = len(group.orbits()) == 1
        assert group.is_transitive() == want
        if n:
            gens = [SympyPermutation(list(g.images)) for g in group.generators]
            assert SympyGroup(gens or [SympyPermutation(n - 1)]).is_transitive() == want
    if name == "search-claw":
        assert group.base()[0] != 0 and not group.is_transitive()
    if name == "search-rigid":
        assert group.order() == 1 and not group.is_transitive()
