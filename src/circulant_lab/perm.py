"""Exact permutation arithmetic and permutation-group queries.

Permutations act on {0..n-1} and compose left-to-right:
``compose(p, q)`` applies p first, so ``compose(p, q)[i] == q[p[i]]``.
Groups answer order/membership/orbit queries through a deterministic
stabilizer chain with two producers.  For generators the caller supplies,
Schreier-Sims builds it (base points are smallest moved points).  The
automorphism search hands over the base and strong generating set it found
(``PermGroup.from_chain``), so nothing is sifted.  Either way each level is
the Schreier tree of one FIFO orbit walk, the order is the product of the
tree sizes, and a coset representative a sift needs is composed along its
tree path on first request and kept, so repeated runs make identical
choices.  The suborbit partition the spectrum walks is likewise computed
on first use and kept, so repeated queries on one group share it.  A sift, for membership or for Schreier-Sims,
inverts no representative: it carries the product of the representatives
it has chosen and reads the next one off a preimage under that product,
and the residue (the sifted element times the inverse of that product)
is formed only to adjoin it to the chain.  Schreier-Sims verifies a level
by sifting its Schreier generators in ascending point order, and skips in
each cycle of a strong generator whose length is the generator's order
the one at the largest point off the tree's edges: the generators around
such a cycle multiply to the identity, so that one lies in the group the
earlier ones already sifted into, and the chain is the one the full loop
builds (_verify_level).
``suborbit_pairs`` is the one walk over elements, the spectrum's, in two
passes; its docstring gives the account and the reasons.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from circulant_lab import _kernels as kern
from circulant_lab._bfs import components
from circulant_lab.errors import CapExceeded, DegreeMismatch

DEFAULT_ENUMERATION_CAP = 2 ** 24

# An element of the spectrum walk, (m, ordered, h, v, t, g), as
# PermGroup.suborbit_pairs yields it
WalkElement = tuple[int, bool, list[int], list[int], list[int], list[int] | None]


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0..n-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    @staticmethod
    def from_images(images: Iterable[int]) -> "Permutation":
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for x in images:
            if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < n or seen[x]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
            seen[x] = True
        return Permutation(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __getitem__(self, point: int) -> int:
        return self.images[point]

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def __repr__(self) -> str:
        return f"Permutation({to_cycle_string(self)!r}, degree={self.degree})"


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p, then q."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degrees {p.degree} and {q.degree}")
    return Permutation(tuple(kern.compose_images(p.images, q.images)))


def inverse(p: Permutation) -> Permutation:
    return Permutation(tuple(kern.inverse_images(p.images)))


def power(p: Permutation, e: int) -> Permutation:
    """p composed with itself e times (e may be negative)."""
    if e < 0:
        return power(inverse(p), -e)
    result = list(range(p.degree))
    square = list(p.images)
    while e:
        if e & 1:
            result = kern.compose_images(result, square)
        e >>= 1
        if e:
            square = kern.compose_images(square, square)
    return Permutation(tuple(result))


@dataclass(frozen=True)
class CycleStructure:
    cycle_lengths: tuple[int, ...]
    element_order: int


def cycle_structure(p: Permutation) -> CycleStructure:
    lengths = tuple(kern.cycle_lengths(p.images))
    return CycleStructure(lengths, math.lcm(*lengths) if lengths else 1)


def is_semiregular(p: Permutation) -> bool:
    """True iff every cycle of p has length equal to the element order."""
    return kern.is_semiregular_images(p.images)


@functools.lru_cache(maxsize=8)
def _point_names(n: int) -> tuple[str, ...]:
    """The decimal names of the points 0..n-1, built once per degree."""
    return tuple(map(str, range(n)))


def to_cycle_string(p: Permutation) -> str:
    """Cycle notation with fixed points omitted, e.g. ``(0 1 2)(3 4)``.

    A cycle starts at its smallest point, and cycles come in ascending
    order of that point, as kern.cycles lists them; the walk is inline,
    and the points' names come from one table per degree."""
    images = p.images
    names = _point_names(len(images))
    seen = bytearray(len(images))
    out: list[str] = []
    add = out.append
    for i, j in enumerate(images):
        if j == i or seen[i]:
            continue
        add("(")
        add(names[i])
        while j != i:
            seen[j] = 1
            add(" ")
            add(names[j])
            j = images[j]
        add(")")
    return "".join(out) or "()"


def from_cycle_string(text: str, degree: int) -> Permutation:
    """Parse cycle notation like ``(0 1 2)(3 4)`` into a permutation.

    A point is ASCII decimal digits alone, and points are separated, and
    the text padded, by ASCII spaces, tabs and commas alone: int() would
    also take signs, underscores and non-ASCII digits, so "(1_0 2)" would
    read as (2 10), and str.split() would also split at other whitespace.
    The text may end a line: one "\n" at its end is dropped, with one "\r"
    before it, as graphio.text_lines ends a line.
    Raises ValueError on malformed text, a bad token (named), a point
    outside the degree, or a point that appears twice, in one cycle or in
    two."""
    images = list(range(degree))
    line = text[:-2] if text.endswith("\r\n") else text.removesuffix("\n")
    body = line.replace("\t", " ").replace(",", " ").strip(" ")
    if body in ("", "()"):
        return Permutation(tuple(images))
    if not body.startswith("(") or not body.endswith(")"):
        raise ValueError(f"bad cycle string: {text!r}")
    seen: set[int] = set()
    for chunk in body[1:-1].split(")("):
        tokens = [tok for tok in chunk.split(" ") if tok]
        for tok in tokens:
            if tok.strip("0123456789"):
                raise ValueError(f"bad point {tok!r} in cycle string {text!r}")
        points = [int(tok) for tok in tokens]
        if len(points) != len(set(points)):
            raise ValueError(f"repeated point in cycle: {chunk!r}")
        if not seen.isdisjoint(points):
            raise ValueError(f"repeated point in cycles: {text!r}")
        seen.update(points)
        for a, b in zip(points, points[1:] + points[:1]):
            if not 0 <= a < degree:
                raise ValueError(f"point {a} outside degree {degree}")
            images[a] = b
    return Permutation.from_images(images)


class _Level:
    """A base point, its strong generators (gens: those fixing every base
    point above, in the order of the strong generating set) and its
    Schreier tree: each point of its orbit under gens, in FIFO order, maps
    to the point it was reached from and the generator that reached it (the
    base point to None).  A coset representative is composed along its tree
    path on first request and kept in reps, so the tree fixes the chain
    order (PermGroup.suborbit_pairs, whose walk adds none to reps).
    A sift through the levels carries the product of the representatives
    it chose rather than their inverses, and forms a residue only to
    adjoin it (PermGroup._sift_images).
    """

    __slots__ = ("base", "gens", "tree", "reps")

    def __init__(self, base: int, gens: list[list[int]], degree: int):
        self.base = base
        self.gens = gens
        self.tree = tree = {base: None}
        orbit = [base]
        for pt in orbit:  # orbit grows while it is walked: it is the FIFO queue
            for g in gens:
                q = g[pt]
                if q not in tree:
                    tree[q] = (pt, g)
                    orbit.append(q)
        self.reps = {base: list(range(degree))}

    def rep(self, pt: int) -> list[int]:
        """The coset representative mapping the base point to pt."""
        reps, tree = self.reps, self.tree
        path = []
        while pt not in reps:
            path.append(pt)
            pt = tree[pt][0]
        t = reps[pt]
        for q in reversed(path):
            t = reps[q] = kern.compose_images(t, tree[q][1])
        return t


class PermGroup:
    """Permutation group given by generators, queried via a stabilizer chain.

    Immutable after construction.  A group built from caller-supplied
    generators runs Schreier-Sims on its first query; one built by
    ``from_chain`` already knows its base and strong generating set.  All
    chain-building choices are deterministic.  Order and transitivity are
    read off the chain (``order``, ``is_transitive``); only
    ``labelled_orbits`` (and ``orbits``, which reads it) walks the
    generators.
    """

    def __init__(self, degree: int, generators: Sequence[Permutation]):
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(f"generator degree {g.degree}, group degree {degree}")
        self.degree = degree
        self.generators = tuple(g for g in generators if not g.is_identity())
        self._levels: list[_Level] | None = None
        # the suborbit partition, computed on first use and kept as the
        # chain is (_suborbit_partition)
        self._suborbits: tuple[list[list[int]], list[tuple[int, list[int], _Level]]] | None = None
        # the graph whose automorphisms the generators are known to be:
        # read and set only by aut.check_all_automorphisms, aut.subgroup
        # and the search
        self._automorphisms_of = None
        # k -> the spectrum's witness: read and set only by kcirc._first_hits
        self._spectrum_hits = None

    @classmethod
    def from_chain(cls, degree: int, generators: Sequence[Permutation],
                   base: Sequence[int]) -> "PermGroup":
        """A group whose base and strong generating set are already known.

        base lists the base points, top level first: the strong generators
        of level i are the generators fixing the points before it.  Each
        level's Schreier tree is grown at once, with no composition, and a
        point whose orbit is itself alone opens no level.  No Schreier
        generator is sifted: order() is the product of the tree sizes.
        """
        group = cls(degree, generators)
        gens = [list(g.images) for g in group.generators]
        group._levels = []
        for b in base:
            lvl = _Level(b, gens, degree)
            if len(lvl.tree) > 1:
                group._levels.append(lvl)
            gens = [g for g in gens if g[b] == b]
        return group

    # --- chain construction ---

    def _ensure_chain(self) -> list[_Level]:
        if self._levels is None:
            self._build_chain()
        return self._levels

    def _build_chain(self) -> None:
        self._levels = []
        for g in self.generators:
            found = self._residue(list(g.images), 0)
            if found is not None:
                self._adjoin(*found)
        # every _adjoin rebuilds the trees it can change, so each level is
        # current when it is verified
        i = len(self._levels) - 1
        while i >= 0:
            stuck = self._verify_level(i)
            if stuck is None:
                i -= 1
            else:
                i = stuck

    def _sift_images(self, images: Sequence[int], start: int, product: list[int] | None = None
                     ) -> tuple[int, list[int] | None]:
        """Sift images * product^-1 from level start without forming it.

        Returns the level where the sift stopped (len(levels) when every
        base image landed in its level's tree) and P, the representatives
        chosen so far composed in front of product: P = u * P at each
        choice, where None stands for the identity.  The residue is
        images * P^-1, so it fixes a base point b exactly when images[b] ==
        P[b], and the preimage under P of images[b] picks the next
        representative: one scan of P, never an inversion.  The residue is
        the identity exactly when the sift passed every level and P equals
        images.
        """
        levels = self._levels
        for i in range(start, len(levels)):
            lvl = levels[i]
            pt = images[lvl.base]
            if product is not None:
                pt = product.index(pt)
            if pt not in lvl.tree:
                return i, product
            if pt != lvl.base:
                u = lvl.rep(pt)
                product = u if product is None else kern.compose_images(u, product)
        return len(levels), product

    def _residue(self, images: list[int], start: int, product: list[int] | None = None
                 ) -> tuple[list[int], int] | None:
        """The residue of images * product^-1 sifted from level start and
        the level where its sift stopped, or None when it is the identity.
        Only a residue to adjoin is formed, with the one inversion it needs.
        product None stands for the identity, and images is then a
        generator, never the identity.
        """
        level, product = self._sift_images(images, start, product)
        if product is None:  # no representative chosen: the residue is images
            return images, level
        if level == len(self._levels) and product == images:
            return None
        return kern.compose_images(images, kern.inverse_images(product)), level

    def _adjoin(self, residue: list[int], level: int) -> None:
        """Adjoin a nontrivial residue whose sift stopped at level.

        A residue that passed every level opens a new one at its smallest
        moved point.  It fixes the base points above level and moves
        base[level], so it joins the strong generators of levels 0..level,
        whose trees are rebuilt.
        """
        levels = self._levels
        if level == len(levels):
            base = next(i for i, x in enumerate(residue) if i != x)
            levels.append(_Level(base, [], self.degree))
        for j in range(level + 1):
            levels[j] = _Level(levels[j].base, levels[j].gens + [residue], self.degree)

    def _verify_level(self, level: int) -> int | None:
        """Sift the Schreier generators of this level; report where one sticks.

        The Schreier generator s(pt, g) = t_pt * g * t_{g(pt)}^-1 is trivial
        exactly when t_pt * g equals t_{g(pt)}, so only nontrivial ones are
        sifted, and a tree edge, where g reached g(pt) from pt, gives a
        trivial one by construction.  The sift starts from the product
        t_{g(pt)}, so no representative is inverted unless a residue is
        adjoined.

        Around a cycle p_0 -> ... -> p_{l-1} -> p_0 of g in the orbit, the
        Schreier generators multiply to t_p0 * g^l * t_p0^-1, the identity
        when l is g's order.  In such a cycle the pair with the largest
        point that is not a tree edge is skipped (_closing_points): its
        generator is the inverse of the product of the cycle's others, each
        a tree edge or sifted to the identity earlier in this loop's
        ascending order, so it lies in the group of the levels below, whose
        chain is already verified, and sifts to the identity too.  A skipped
        generator therefore never sticks, and the first one that does, with
        everything that follows from it (residues, strong generating set,
        trees, representatives, base), is the one the full loop finds.
        Every point's representative is still composed, as its own pt.
        """
        lvl = self._levels[level]
        tree = lvl.tree
        closing = [_closing_points(tree, g) for g in lvl.gens]
        for pt in sorted(tree):
            tp = lvl.rep(pt)
            for g, skip in zip(lvl.gens, closing):
                if pt in skip or _is_tree_edge(tree, pt, g):
                    continue
                q = g[pt]
                tg = kern.compose_images(tp, g)
                t2 = lvl.rep(q)
                if tg == t2:
                    continue
                found = self._residue(tg, level + 1, t2)
                if found is not None:
                    self._adjoin(*found)
                    return found[1]
        return None

    # --- queries ---

    def order(self) -> int:
        return math.prod(len(lvl.tree) for lvl in self._ensure_chain())

    def base(self) -> tuple[int, ...]:
        return tuple(lvl.base for lvl in self._ensure_chain())

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(f"degrees {p.degree} and {self.degree}")
        levels = self._ensure_chain()
        images = list(p.images)
        level, product = self._sift_images(images, 0)
        if level < len(levels):
            return False
        return images == (list(range(self.degree)) if product is None else product)

    def check_cap(self, cap: int | None) -> None:
        """Raise CapExceeded if the order exceeds cap (None: the default)."""
        if cap is None:
            cap = DEFAULT_ENUMERATION_CAP
        order = self.order()
        if order > cap:
            raise CapExceeded(f"group order {order} exceeds cap {cap}")

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def is_transitive(self) -> bool:
        """True iff the group has exactly one orbit, read off the chain:
        the top level's tree is the orbit of its base point, a moved
        point.  A group with no level is trivial, and transitive only on
        one point."""
        levels = self._ensure_chain()
        if not levels:
            return self.degree == 1
        return len(levels[0].tree) == self.degree

    def orbits(self) -> list[list[int]]:
        """Orbit partition of {0..n-1} under the group, each orbit sorted,
        ordered by smallest point; new lists on each call.  Only orbits of
        more than one point need sorting."""
        return [sorted(orbit) if len(orbit) > 1 else orbit
                for orbit in self.labelled_orbits()[0]]

    def labelled_orbits(self) -> tuple[list[list[int]], list[int]]:
        """The orbits, ordered by smallest point, each in FIFO order from
        it, and for each point the index of its orbit, from one labelled
        walk over the generators (_orbit_classes); new lists on each call."""
        return _orbit_classes(self.degree, [g.images for g in self.generators])

    def _suborbit_partition(self) -> tuple[list[list[int]], list[tuple[int, list[int], _Level]]]:
        """The suborbits the walk reads, those of the first base point's
        stabiliser on its orbit but {b}, each in FIFO order from its smallest
        point and ordered by it, and _steps of the levels below the top.
        Neither depends on the representatives the top level keeps, so both
        are computed on first use and kept."""
        if self._suborbits is None:
            top, *below = self._ensure_chain()
            stabiliser = below[0].gens if below else []
            suborbits = [cls for cls in _orbit_classes(self.degree, stabiliser)[0]
                         if cls[0] in top.tree and cls[0] != top.base]
            self._suborbits = suborbits, _steps(below)
        return self._suborbits

    def suborbit_pairs(self, cap: int | None = None) -> Iterator[WalkElement]:
        """The first of the spectrum's two passes; chain_pairs is the
        second.  It yields (m, ordered, h, v, t, g): the element maps x to
        t[v[h[x]]], or to g[t[v[h[x]]]] when g is not None, uncomposed; m is
        the smallest point of its suborbit, and ordered says that the
        element's block comes in chain order.  So a caller that reads a few
        images of each element (kcirc follows one cycle) composes only the
        candidates it keeps.

        The chain order, which witnesses follow: an element is
        g = t_{L-1} * ... * t_1 * t_0, one coset representative per level,
        so g(x) = t_0[t_1[...[x]]], and t_i, composed along its level's
        Schreier-tree path, maps base point b_i to p_i.  Elements come
        lexicographically by (p_0, ..., p_{L-1}), the top level most
        significant and each transversal by ascending orbit point, so in
        blocks: block pt holds the |G_b| elements that map the first base
        point b to pt.

        A suborbit is an orbit of the stabiliser G_b on b's orbit.  Block pt
        is the coset t * G_b of any element t mapping b to pt, as a set,
        whatever the tree that composed t; conjugating by G_b maps block pt
        onto block h(pt) and keeps cycle types.  So a conjugacy-invariant
        question is answered by one block per suborbit, read through any
        representative, and only the order inside a block, and so which
        element comes first, depends on the search's tree.  A question
        about semiregular elements needs fewer elements still: one that
        fixes a point is the identity or not semiregular.  So the walk
        yields the identity first, as block b's only element (m = b), and
        then one block per other suborbit, dropping only elements that fix a
        base point.  g(b_j) = t_0[...t_j[b_j]] is known once levels 0..j are
        chosen.  Below the top level the representatives are tried level by
        level in ascending point order, and a choice at which g fixes b_j
        drops its whole subtree.  h and v are the representatives of the
        last two levels, read as the levels keep them (the identity where
        the chain is shorter), and t is a top-level representative with
        those of the levels between composed into it.  So a stabiliser
        chain of one or two levels, as in the construction's families,
        costs no composition per element, while an element is at most four
        lists, each read at every step of a cycle (a word of every level's
        representative, uncomposed, made analyze of a CFI graph with
        n = 400 and 19 levels below the top four times slower).

        A suborbit whose smallest point has a representative the top level
        keeps (Schreier-Sims keeps them all, a membership sift those on its
        paths) is read through it, with no composition, and its block comes
        in chain order: ordered is true there, as for the identity, so the
        caller can take such a block's first hit as final.  The others are
        read through a shallow tree, not in chain order; the second pass
        composes the search's tree for the few of those blocks whose first
        element the caller needs (the spectrum's witnesses).  The shallow
        tree's generators are the top level's strong generators and random
        subproducts of them (each the product of a random subset of the
        generators and the subproducts before it), from a fixed seed, two
        per bit of the orbit length (Seress, Permutation Group Algorithms,
        2003, 4.4, after Babai, Cooperman, Finkelstein, Luks and Seress,
        1991).  It enters one point of each of those suborbits
        (_shallow_tree), and is not grown, nor a subproduct composed, when
        there are none.  Blocks come in an order of the walk's own: depth
        first along that tree (_walk_blocks), and a representative is
        composed only where the walk branches, so the walk holds one tree
        path and adds none to the level.  The subproducts and the tree are
        dropped with the walk.

        The suborbits, and each lower level's sorted orbit, depend on the
        chain alone, not on the representatives the top level keeps, so the
        group computes them on its first walk and keeps them
        (_suborbit_partition).

        The trivial group yields (0, True, identity, identity, identity,
        None).  The lists may be shared with the group and with other
        elements, so they must not be modified.  Raises CapExceeded before
        the first element if the group order exceeds the cap (check_cap).
        """
        self.check_cap(cap)
        if not self._levels:
            identity = list(range(self.degree))
            yield 0, True, identity, identity, identity, None
            return
        top = self._levels[0]
        b = top.base
        identity = top.reps[b]
        yield b, True, identity, identity, identity, None
        suborbits, steps = self._suborbit_partition()
        targets = {cls[0]: cls[0] for cls in suborbits if cls[0] in top.reps}
        tree: dict[int, tuple[int, list[int]]] = {}
        if len(targets) < len(suborbits):
            least = identity[:]  # each point of the top orbit -> the smallest of its suborbit
            for cls in suborbits:
                for p in cls:
                    least[p] = cls[0]
            picks = _subproduct_picks(len(top.gens), 2 * len(top.tree).bit_length())
            tree, entered = _shallow_tree(b, _subproducts(top.gens, picks), least,
                                          len(suborbits), targets.keys())
            targets = dict(sorted({**targets, **entered}.items(), key=itemgetter(1)))
        yield from _walk_blocks(tree, top.reps, targets, steps, identity, False)

    def chain_pairs(self, points: Iterable[int]) -> Iterator[WalkElement]:
        """The second pass: (pt, True, h, v, t, g) for the elements of the
        blocks of the given points of the first base point's orbit as
        suborbit_pairs yields them, each block in chain order along the top
        level's Schreier tree.  The first base point's block is skipped: its
        one element, the identity, is the first that suborbit_pairs yields.
        The representatives are composed along the paths to those points
        only, from the nearest kept one, and only where the paths branch
        (_walk_blocks), depth first, holding one path, and none is kept.
        The lower levels' orbits are the ones the group keeps
        (_suborbit_partition)."""
        levels = self._ensure_chain()
        if not levels:
            return
        top = levels[0]
        targets = {pt: pt for pt in sorted(points) if pt != top.base}
        steps = self._suborbit_partition()[1]
        yield from _walk_blocks(top.tree, top.reps, targets, steps, top.reps[top.base], True)


def _is_tree_edge(tree: dict, pt: int, g: list[int]) -> bool:
    """True iff g reached g(pt) from pt in the Schreier tree."""
    edge = tree[g[pt]]
    return edge is not None and edge[1] is g and edge[0] == pt


def _closing_points(tree: dict, g: list[int]) -> set[int]:
    """In each cycle of g in the tree's orbit whose length is g's order
    (the lcm of all its cycle lengths), the largest point pt whose pair
    (pt, g) is not a tree edge: the pairs whose Schreier generators
    _verify_level skips.  A cycle of g's order has at least two points,
    and the tree has no cycle, so some pair in it is not a tree edge."""
    cycles = list(kern.cycles(g))
    order = math.lcm(*map(len, cycles))
    return {max(p for p in cycle if not _is_tree_edge(tree, p, g))
            for cycle in cycles if len(cycle) == order and cycle[0] in tree}


def _orbit_classes(degree: int, gens: Sequence[Sequence[int]]
                   ) -> tuple[list[list[int]], list[int]]:
    """The orbits of the group gens generate and each point's orbit index
    (_bfs.components), each point's images read from one tuple precomputed
    for it."""
    images = list(zip(*gens)) if gens else [()] * degree
    return components(degree, images.__getitem__)


@functools.cache
def _subproduct_picks(count: int, rounds: int) -> tuple[tuple[int, ...], ...]:
    """For each random subproduct of count generators, the indices of its
    factors among the generators and the subproducts before it, drawn from
    a fixed seed: each is in with probability 1/2, and a draw of fewer than
    two factors, which composes nothing new, is dropped.  So the number of
    compositions is known before any is made.  The picks depend on the two
    counts alone, so they are drawn once per pair (a draw costs as much as
    the rest of the walk on a small group)."""
    rng = random.Random(0)
    picks: list[tuple[int, ...]] = []
    for _ in range(rounds):
        pick = tuple(i for i in range(count + len(picks)) if rng.random() < 0.5)
        if len(pick) > 1:
            picks.append(pick)
    return tuple(picks)


def _subproducts(gens: list[list[int]], picks: Iterable[Sequence[int]]) -> list[list[int]]:
    """The generators followed by the subproducts the picks describe."""
    pool = list(gens)
    for first, *rest in picks:
        z = pool[first]
        for i in rest:
            z = kern.compose_images(z, pool[i])
        pool.append(z)
    return pool


def _shallow_tree(b: int, gens: list[list[int]], least: list[int], suborbits: int,
                  entered: Iterable[int]
                  ) -> tuple[dict[int, tuple[int, list[int]]], dict[int, int]]:
    """Pass 1's tree, grown breadth first from b over gens, and the point it
    enters of each of the suborbits other than {b} (suborbits of them) that
    are not entered already (entered holds their smallest points), mapped to
    the suborbit's smallest point (least).  A point enters as the first
    reached of its suborbit.  Only when no entered point is left to expand
    does a point of an entered suborbit enter, as a bridge: the first
    reached, found by a scan of the (point, generator) steps that resumes
    where the last one stopped.  The tree maps each entered point but b to
    the point it was reached from and the generator that reached it."""
    tree: dict[int, tuple[int, list[int]]] = {}
    targets: dict[int, int] = {}
    entered = set(entered)
    reached = bytearray(len(least))
    reached[b] = 1
    queue = [b]
    expanded = scanned = 0
    while len(entered) < suborbits:
        if expanded == len(queue):
            while True:
                pt, g = queue[scanned // len(gens)], gens[scanned % len(gens)]
                scanned += 1
                q = g[pt]
                if q != b and q not in tree:
                    break
            tree[q] = pt, g
            queue.append(q)
        pt = queue[expanded]
        expanded += 1
        for g in gens:
            q = g[pt]
            if reached[q]:
                continue
            reached[q] = 1
            m = least[q]
            if m not in entered:
                entered.add(m)
                targets[q] = m
                tree[q] = pt, g
                queue.append(q)
    return tree, targets


def _steps(below: list[_Level]) -> list[tuple[int, list[int], _Level]]:
    """Each level below the top: its base point, its sorted orbit and the level."""
    return [(lvl.base, sorted(lvl.tree), lvl) for lvl in below]


def _paths(tree: dict, kept: dict, targets: dict[int, int]
           ) -> tuple[dict[int, list[int]], list[int]]:
    """The tree's paths to the targets (point -> key, by ascending key) from
    the nearest kept representative: each node's children on the paths,
    and the kept nodes the paths start from, roots and children by
    ascending smallest key below them."""
    seen: set[int] = set()
    children: dict[int, list[int]] = {}
    roots = []
    for pt in targets:
        while pt not in seen:
            seen.add(pt)
            if pt in kept:
                roots.append(pt)
                break
            parent = tree[pt][0]
            children.setdefault(parent, []).append(pt)
            pt = parent
    return children, roots


def _walk_blocks(tree: dict, kept: dict, targets: dict[int, int],
                 steps: list[tuple[int, list[int], _Level]],
                 identity: list[int], chain: bool) -> Iterator[WalkElement]:
    """(m, ordered, h, v, t, g) for the elements of each target's block, m
    its key, depth first along the tree's paths (_paths).  identity is
    the top base point's kept representative.  A node's representative is
    composed only when the node has children on the paths, and a child of
    the top base point takes its generator itself.  A leaf's block is read through its
    parent's representative t and its own generator g (x -> g[t[...]]),
    so a node read by no child costs no composition; with the
    representatives composed at branches only, the walk holds one path.
    ordered is true for every block when the tree is the top level's
    Schreier tree (chain), and otherwise for the blocks read through a
    representative the top level keeps, each at its own key."""
    children, roots = _paths(tree, kept, targets)
    stack = [(pt, identity) for pt in reversed(roots)]
    while stack:
        pt, parent_rep = stack.pop()
        kids = children.get(pt)
        t = kept.get(pt)
        g = None
        if t is None:
            t = tree[pt][1]
            if parent_rep is not identity:
                if kids:
                    t = kern.compose_images(parent_rep, t)
                else:
                    t, g = parent_rep, t
        m = targets.get(pt)
        if m is not None:
            ordered = chain or (m == pt and pt in kept)
            triples = (_pruned_triples(steps, 0, identity, t, g) if steps
                       else [(identity, identity, t)])
            for h, v, u in triples:
                yield m, ordered, h, v, u, g
        if kids:
            stack.extend(zip(reversed(kids), repeat(t)))


def _pruned_triples(steps: list[tuple[int, list[int], _Level]], i: int, v: list[int],
                    t: list[int], g: list[int] | None
                    ) -> Iterator[tuple[list[int], list[int], list[int]]]:
    """For each element e of the chain from level i down, in chain order
    (PermGroup.suborbit_pairs), the map x -> t[v[e[x]]] as a triple
    (h', v', t') of lists with x -> t'[v'[h'[x]]], less the maps that fix a
    base point of these levels once g, when not None, is applied after
    them; steps holds each level's base point, its sorted orbit and the
    level.  A representative chosen above the last two levels is composed
    into t, one chosen at the second last is v', and one at the last is
    h'; v is the identity until then.  The representative of a point pt of
    level i maps its base point to pt and the levels below fix it, so the
    map sends the base point to t[v[pt]] (g[t[v[pt]]]) whatever is chosen
    below.
    """
    b, points, lvl = steps[i]
    last = i + 1 == len(steps)
    for pt in points:
        if (t[v[pt]] if g is None else g[t[v[pt]]]) == b:
            continue
        if last:
            yield lvl.rep(pt), v, t
        elif i + 2 < len(steps):
            below = t if pt == b else kern.compose_images(lvl.rep(pt), t)
            yield from _pruned_triples(steps, i + 1, v, below, g)
        else:
            yield from _pruned_triples(steps, i + 1, lvl.rep(pt), t, g)
