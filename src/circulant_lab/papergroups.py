"""Exact normal-form arithmetic for the two structured group families.

Even family: the generalised dihedral group on Z_m^2 x Z_p (generators
u, v, w, all inverted by the involution x), together with its order-3
automorphism y: u -> v, v -> (uv)^-1, w -> w^alpha, x -> x, where
alpha^2 + alpha + 1 = 0 (mod p).  Elements are u^a v^b w^c x^e.

Odd family: R = Z_k^2 x| Sym(3) with generators u, v, x, y subject to
u^x = v, v^x = (uv)^-1, u^y = v^-1, v^y = u^-1, x^y = x^-1, extended by the
order-3 automorphism sigma: u -> (uv)^-1, v -> u, x -> (uv)^delta x,
y -> x^2 y (delta = 1 iff 3 | k).  Elements are u^a v^b x^hx y^hy sigma^j;
the ambient group has order 18 k^2.

All arithmetic reduces products to these normal forms via conjugation rules
derived once from the relators; the relator test suite pins them down.

Both R are A x| H, A abelian (Z_k^2 in the odd group, Z_m^2 x Z_p in the
even one) and H a handful of coset symbols (the six x^hx y^hy, or x^e).
An element t h of R has the integer code index(t) * |H| + index(h), where
index(t) reads t's exponents as mixed-radix digits; code() and decode()
convert, and code() is None outside R (sigma^j with j != 0).  Right
multiplication by s is (t, h) -> (t + delta, h'), where (delta, h') is the
one product h * s, so right_table(s), the list code(g) -> code(g*s) over
R, costs one mul() per coset symbol and a lattice shift for the rest: the
Cayley walk steps through it without group arithmetic per vertex.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from circulant_lab.errors import BadParams, DegenerateS, ElementOutsideR


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def find_alpha(p: int) -> int | None:
    """Smallest alpha in [1, p) with alpha^2 + alpha + 1 = 0 (mod p).

    Exists iff p = 1 (mod 3); returns None otherwise (p = 3 included).
    """
    if not is_prime(p):
        raise BadParams(f"p = {p} is not prime")
    if p % 3 != 1:
        return None
    for alpha in range(1, p):
        if (alpha * alpha + alpha + 1) % p == 0:
            return alpha
    return None  # unreachable for p = 1 (mod 3)


class _FamilyGroup:
    """What both family groups derive from identity(), mul() and code().

    A subclass lists its lattice radices (_radices, one per exponent of A)
    and its coset symbols (_symbols, the elements 0 h in code order).
    """

    _radices: tuple[int, ...]
    _symbols: tuple

    @property
    def code_count(self) -> int:
        """The number of codes, |R|: codes run over range(code_count)."""
        size = len(self._symbols)
        for r in self._radices:
            size *= r
        return size

    def _lattice_shift(self, delta: int) -> list[int]:
        """index(t + delta) for every lattice index t, in index order."""
        digits = []
        for r in reversed(self._radices):
            delta, d = divmod(delta, r)
            digits.append(d)
        out = [0]
        for r, d in zip(self._radices, reversed(digits)):
            column = [(i + d) % r for i in range(r)]
            out = [x * r + c for x in out for c in column]
        return out

    def right_table(self, s) -> list[int]:
        """The list code(g) -> code(g*s) over R, for s in R.

        (t h) s = t (h s) = (t + delta) h', where delta h' = h s is one
        product per coset symbol h; the rest is a shift of the lattice.
        """
        if self.code(s) is None:
            raise ElementOutsideR(f"{s} is not an element of R")
        width = len(self._symbols)
        table = [0] * self.code_count
        for h, symbol in enumerate(self._symbols):
            delta, h2 = divmod(self.code(self.mul(symbol, s)), width)
            table[h::width] = [t * width + h2 for t in self._lattice_shift(delta)]
        return table

    def element_order(self, g) -> int:
        ident = self.identity()
        acc = g
        order = 1
        while acc != ident:
            acc = self.mul(acc, g)
            order += 1
        return order


# ---------------------------------------------------------------------------
# even family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvenParams:
    """Parameters (m, p, alpha) of the even-family group; k = 2m."""

    m: int
    p: int
    alpha: int

    def __post_init__(self):
        if self.m < 1:
            raise BadParams(f"m must be positive, got {self.m}")
        if not is_prime(self.p):
            raise BadParams(f"p = {self.p} is not prime")
        if self.p % 3 != 1:
            raise BadParams(f"p = {self.p} is not 1 mod 3")
        if self.m % self.p == 0:
            raise BadParams(f"p = {self.p} divides m = {self.m}")
        if not 1 <= self.alpha < self.p:
            raise BadParams(f"alpha = {self.alpha} outside [1, {self.p})")
        if (self.alpha ** 2 + self.alpha + 1) % self.p != 0:
            raise BadParams(f"alpha = {self.alpha} is not a root of x^2+x+1 mod {self.p}")

    @staticmethod
    def make(m: int, p: int) -> "EvenParams":
        alpha = find_alpha(p)
        if alpha is None:
            raise BadParams(f"p = {p} is not 1 mod 3")
        return EvenParams(m, p, alpha)


@dataclass(frozen=True, order=True)
class EvenElement:
    """Normal form u^a v^b w^c x^e."""

    a: int
    b: int
    c: int
    e: int


class EvenGroup(_FamilyGroup):
    """Normal-form arithmetic for the even-family group of order 2 m^2 p."""

    _symbols = (EvenElement(0, 0, 0, 0), EvenElement(0, 0, 0, 1))

    def __init__(self, params: EvenParams):
        self.params = params
        self._radices = (params.m, params.m, params.p)

    @property
    def order(self) -> int:
        m, p = self.params.m, self.params.p
        return 2 * m * m * p

    def identity(self) -> EvenElement:
        return EvenElement(0, 0, 0, 0)

    def element(self, a: int, b: int, c: int, e: int) -> EvenElement:
        m, p = self.params.m, self.params.p
        return EvenElement(a % m, b % m, c % p, e % 2)

    def mul(self, g1: EvenElement, g2: EvenElement) -> EvenElement:
        # x inverts the abelian part, so a leading x flips the signs of g2
        s = -1 if g1.e else 1
        return self.element(g1.a + s * g2.a, g1.b + s * g2.b, g1.c + s * g2.c, g1.e + g2.e)

    def code(self, g: EvenElement) -> int:
        """((a m + b) p + c) 2 + e: every element lies in R."""
        m, p = self.params.m, self.params.p
        return ((g.a * m + g.b) * p + g.c) * 2 + g.e

    def decode(self, code: int) -> EvenElement:
        m, p = self.params.m, self.params.p
        rest, e = divmod(code, 2)
        rest, c = divmod(rest, p)
        a, b = divmod(rest, m)
        return EvenElement(a, b, c, e)

    def inv(self, g: EvenElement) -> EvenElement:
        if g.e:
            return g  # every element of the A-coset of x is an involution
        return self.element(-g.a, -g.b, -g.c, 0)

    def apply_y(self, g: EvenElement) -> EvenElement:
        """The order-3 automorphism y: u -> v, v -> (uv)^-1, w -> w^alpha."""
        return self.element(-g.b, g.a - g.b, self.params.alpha * g.c, g.e)

    def connection_set(self) -> tuple[EvenElement, EvenElement, EvenElement]:
        """{s, s^y, s^y^2} with s = u w x: three distinct involutions."""
        s = self.element(1, 0, 1, 1)
        sy = self.apply_y(s)
        syy = self.apply_y(sy)
        out = (s, sy, syy)
        if len(set(out)) != 3:
            raise DegenerateS(f"connection set collapsed for params {self.params}")
        return out

    def split(self, g: EvenElement) -> tuple[EvenElement, int]:
        """(r, j) with g = r y^j: every element lies in R, so j = 0."""
        return g, 0

    def semiregular_generator(self) -> tuple[EvenElement, int]:
        """Generator of C (u^3 w if 3 | m, else u w) and its verified order.

        C has mp/3 or mp elements respectively, and 2m orbits on the Cayley
        graph either way.
        """
        m, p = self.params.m, self.params.p
        gen = self.element(3 if m % 3 == 0 else 1, 0, 1, 0)
        expected = m * p // 3 if m % 3 == 0 else m * p
        order = self.element_order(gen)
        if order != expected:
            raise AssertionError(f"generator order {order} != expected {expected}")
        return gen, order

    def all_elements(self) -> Iterator[EvenElement]:
        m, p = self.params.m, self.params.p
        for a in range(m):
            for b in range(m):
                for c in range(p):
                    for e in range(2):
                        yield EvenElement(a, b, c, e)

    @staticmethod
    def render(g: EvenElement) -> str:
        return f"u^{g.a} v^{g.b} w^{g.c} x^{g.e}"


# ---------------------------------------------------------------------------
# odd family
# ---------------------------------------------------------------------------

_H_SYMBOLS = {(0, 0): "1", (1, 0): "x", (2, 0): "x^2",
              (0, 1): "y", (1, 1): "x y", (2, 1): "x^2 y"}


@dataclass(frozen=True, order=True)
class OddElement:
    """Normal form u^a v^b x^hx y^hy sigma^j."""

    a: int
    b: int
    hx: int
    hy: int
    j: int


def _s3_mul(h1: tuple[int, int], h2: tuple[int, int]) -> tuple[int, int]:
    i1, e1 = h1
    i2, e2 = h2
    return ((i1 + (i2 if e1 == 0 else -i2)) % 3, (e1 + e2) % 2)


def _s3_inv(h: tuple[int, int]) -> tuple[int, int]:
    i, e = h
    return h if e else ((-i) % 3, 0)


class OddGroup(_FamilyGroup):
    """Normal-form arithmetic for G = R x| <sigma>, |G| = 18 k^2."""

    _symbols = tuple(OddElement(0, 0, hx, hy, 0) for hx in range(3) for hy in range(2))

    def __init__(self, k: int):
        if k < 1:
            raise BadParams(f"k must be positive, got {k}")
        self.k = k
        self._radices = (k, k)
        self.delta = 1 if k % 3 == 0 else 0
        self._sigma_h = self._sigma_h_images()

    @property
    def r_order(self) -> int:
        return 6 * self.k * self.k

    @property
    def order(self) -> int:
        return 18 * self.k * self.k

    def identity(self) -> OddElement:
        return OddElement(0, 0, 0, 0, 0)

    def element(self, a: int, b: int, hx: int, hy: int, j: int = 0) -> OddElement:
        k = self.k
        return OddElement(a % k, b % k, hx % 3, hy % 2, j % 3)

    def in_r(self, g: OddElement) -> bool:
        return g.j == 0

    def code(self, g: OddElement) -> int | None:
        """(a k + b) 6 + 2 hx + hy for g in R, None for g outside R."""
        if g.j:
            return None
        return (g.a * self.k + g.b) * 6 + g.hx * 2 + g.hy

    def decode(self, code: int) -> OddElement:
        rest, h = divmod(code, 6)
        a, b = divmod(rest, self.k)
        hx, hy = divmod(h, 2)
        return OddElement(a, b, hx, hy, 0)

    # conjugation action of Sym(3) on the translation lattice:
    # t^x: (a, b) -> (-b, a-b);  t^y: (a, b) -> (-b, -a)
    def _uv_conj(self, a: int, b: int, h: tuple[int, int]) -> tuple[int, int]:
        k = self.k
        i, e = h
        for _ in range(i):
            a, b = (-b) % k, (a - b) % k
        if e:
            a, b = (-b) % k, (-a) % k
        return a, b

    def _r_mul(self, g1: OddElement, g2: OddElement) -> OddElement:
        # u^a1 v^b1 h1 . u^a2 v^b2 h2 = u^a1 v^b1 (u^a2 v^b2)^(h1^-1) h1 h2
        h1 = (g1.hx, g1.hy)
        a3, b3 = self._uv_conj(g2.a, g2.b, _s3_inv(h1))
        hx, hy = _s3_mul(h1, (g2.hx, g2.hy))
        return self.element(g1.a + a3, g1.b + b3, hx, hy)

    def mul(self, g1: OddElement, g2: OddElement) -> OddElement:
        """Product in G; sigma-parts collected on the right.

        (r1 sigma^j1)(r2 sigma^j2) = r1 . sigma^(-j1)(r2) . sigma^(j1+j2),
        matching the conjugation convention r^sigma = sigma^-1 r sigma.
        """
        r2 = OddElement(g2.a, g2.b, g2.hx, g2.hy, 0)
        for _ in range((3 - g1.j) % 3):
            r2 = self.apply_sigma(r2)
        prod = self._r_mul(g1, r2)
        return self.element(prod.a, prod.b, prod.hx, prod.hy, g1.j + g2.j)

    def inv(self, g: OddElement) -> OddElement:
        # (t h)^-1 = (t^-1)^h h^-1 inside R; sigma-part via
        # (r sigma^j)^-1 = sigma^j(r^-1) sigma^-j
        h = (g.hx, g.hy)
        a, b = self._uv_conj(-g.a % self.k, -g.b % self.k, h)
        hx, hy = _s3_inv(h)
        r_inv = self.element(a, b, hx, hy)
        for _ in range(g.j):
            r_inv = self.apply_sigma(r_inv)
        return self.element(r_inv.a, r_inv.b, r_inv.hx, r_inv.hy, -g.j)

    def _sigma_h_images(self) -> dict[tuple[int, int], OddElement]:
        """sigma's image of the six Sym(3) coset symbols, precomputed."""
        x_img = OddElement(self.delta % self.k, self.delta % self.k, 1, 0, 0)
        y_img = OddElement(0, 0, 2, 1, 0)
        imgs = {}
        for i in range(3):
            for e in range(2):
                g = OddElement(0, 0, 0, 0, 0)
                for _ in range(i):
                    g = self._r_mul(g, x_img)
                if e:
                    g = self._r_mul(g, y_img)
                imgs[(i, e)] = g
        return imgs

    def apply_sigma(self, g: OddElement) -> OddElement:
        """The order-3 automorphism sigma; fixes the sigma-part of g."""
        k = self.k
        a, b = (g.b - g.a) % k, (-g.a) % k  # sigma on u^a v^b
        head = OddElement(a, b, 0, 0, 0)
        out = self._r_mul(head, self._sigma_h[(g.hx, g.hy)])
        return self.element(out.a, out.b, out.hx, out.hy, g.j)

    def connection_set(self) -> tuple[OddElement, OddElement, OddElement]:
        """{s, s^sigma, s^sigma^2} with s = u v y: three involutions in R."""
        s = self.element(1, 1, 0, 1)
        ss = self.apply_sigma(s)
        sss = self.apply_sigma(ss)
        out = (s, ss, sss)
        if len(set(out)) != 3:
            raise DegenerateS(f"connection set collapsed for k = {self.k}")
        for t in out:
            if not self.in_r(t):
                raise AssertionError(f"connection element {t} left R")
        return out

    def split(self, g: OddElement) -> tuple[OddElement, int]:
        """(r, j) with g = r sigma^j and r in R."""
        return OddElement(g.a, g.b, g.hx, g.hy, 0), g.j

    def semiregular_generator(self) -> tuple[OddElement, int]:
        """Generator of the cyclic semiregular C of order 6k.

        u v^-1 y x sigma when 3 does not divide k, y sigma otherwise; the
        order is verified by element arithmetic.  Note both lie outside R.
        """
        if self.k % 3 == 0:
            gen = self.element(0, 0, 0, 1, 1)  # y sigma
        else:
            # y x = x^2 y, so u v^-1 y x = u v^-1 x^2 y
            gen = self.element(1, -1, 2, 1, 1)
        order = self.element_order(gen)
        if order != 6 * self.k:
            raise AssertionError(f"generator order {order} != {6 * self.k}")
        return gen, order

    def r_elements(self) -> Iterator[OddElement]:
        for a in range(self.k):
            for b in range(self.k):
                for hx in range(3):
                    for hy in range(2):
                        yield OddElement(a, b, hx, hy, 0)

    def all_elements(self) -> Iterator[OddElement]:
        for r in self.r_elements():
            for j in range(3):
                yield OddElement(r.a, r.b, r.hx, r.hy, j)

    @staticmethod
    def render(g: OddElement) -> str:
        h = _H_SYMBOLS[(g.hx, g.hy)]
        return f"u^{g.a} v^{g.b} {h} sigma^{g.j}"


@lru_cache(maxsize=None)
def even_group(m: int, p: int) -> EvenGroup:
    return EvenGroup(EvenParams.make(m, p))


@lru_cache(maxsize=None)
def odd_group(k: int) -> OddGroup:
    return OddGroup(k)
