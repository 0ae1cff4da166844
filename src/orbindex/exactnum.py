"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every angle in the model catalogue is a rational multiple of a full turn, so
all index values live in some Q(zeta_N).  An element is a polynomial in zeta_N
reduced modulo the N-th cyclotomic polynomial Phi_N, stored as a tuple of
integer numerators over one positive denominator, in lowest terms, so equal
numbers of one order have equal tuples.  Phi_N is monic with integer
coefficients, so the reduction tables are integer and every operation runs in
Python ints; an inverse is the product of the other Galois conjugates over
the rational norm, and a root of unity over its divisor 1 - w takes none
(`Cyclo.unit_over_divisor`).  Order N = 4 recovers the Gaussian rationals Q(i).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial, exact."""
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    # x^n - 1 divided by the monic Phi_d of every proper divisor d of n
    rem = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        phi = cyclotomic_polynomial(d)
        deg = len(phi) - 1
        quot = [0] * (len(rem) - deg)
        for s in reversed(range(len(quot))):
            c = quot[s] = rem[s + deg]
            if c:
                for j, p in enumerate(phi):
                    rem[s + j] -= c * p
        if any(rem):
            raise ArithmeticError("cyclotomic division left a remainder")
        rem = quot
    return tuple(rem)


class _Context:
    """Integer reduction tables for Z[x]/Phi_N(x)."""

    def __init__(self, order: int):
        phi = cyclotomic_polynomial(order)
        deg = self.degree = len(phi) - 1
        self.order = order
        # powers[k]: the nonzero (j, c) of zeta^k = sum c x^j mod Phi_N, k < N
        self.powers: list[tuple[tuple[int, int], ...]] = []
        cur = [1] + [0] * (deg - 1)
        for _ in range(order):
            self.powers.append(tuple((j, c) for j, c in enumerate(cur) if c))
            top, cur = cur[-1], [0] + cur[:-1]
            if top:
                cur = [c - top * p for c, p in zip(cur, phi)]
        # x^k for deg <= k < 2 deg - 1, the terms a product folds back
        self.high = [self.powers[k % order] for k in range(deg, 2 * deg - 1)]
        # the Galois automorphisms zeta -> zeta^k other than the identity
        self.units = [k for k in range(2, order) if math.gcd(k, order) == 1]
        # Tr(zeta^k) = deg * mu(n) / phi(n), n = N / gcd(N, k); the mean of
        # the primitive n-th roots is minus Phi_n's next-to-leading coefficient
        # over its degree, and phi(n) divides phi(N)
        self.traces = []
        for k in range(deg):
            phi_n = cyclotomic_polynomial(order // math.gcd(order, k))
            self.traces.append(-phi_n[-2] * (deg // (len(phi_n) - 1)))
        self.root = cmath.exp(2j * math.pi / order)


@lru_cache(maxsize=None)
def _context(order: int) -> _Context:
    return _Context(order)


def _substitute(ctx: _Context, num: Sequence[int], mult: int, shift: int = 0) -> list[int]:
    """sum_i num[i] zeta^(i * mult + shift), reduced; zeta of ctx's order."""
    out = [0] * ctx.degree
    powers, n = ctx.powers, ctx.order
    for i, a in enumerate(num):
        if a:
            for j, c in powers[(i * mult + shift) % n]:
                out[j] += a * c
    return out


def _mulmod(ctx: _Context, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two reduced integer polynomials, reduced mod Phi_N."""
    deg = ctx.degree
    prod = [0] * (2 * deg - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                prod[i + j] += x * y
    out = prod[:deg]
    for c, row in zip(prod[deg:], ctx.high):
        if c:
            for j, r in row:
                out[j] += c * r
    return out


def _lowest(den: int, num: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    num = tuple(num)
    g = math.gcd(den, *num)
    if g == 1:
        return den, num
    return den // g, tuple(x // g for x in num)


def _exponent(turns: Rat, order: int) -> int:
    """k with e^{2 pi i turns} = zeta_order^k, 0 <= k < order."""
    t = Fraction(turns)
    t -= math.floor(t)
    if order % t.denominator:
        raise ValueError(f"angle {t} does not live in Q(zeta_{order})")
    return (order // t.denominator) * t.numerator


def _make(order: int, den: int, num: Iterable[int]) -> "Cyclo":
    """sum_j num[j] zeta^j / den for a positive den, in lowest terms."""
    out = Cyclo.__new__(Cyclo)
    out.order = order
    out.den, out.num = _lowest(den, num)
    return out


class Cyclo:
    """An exact element of Q(zeta_N): sum_j num[j] zeta_N^j / den."""

    __slots__ = ("order", "den", "num")

    def __init__(self, order: int, coeffs: Iterable[Rat]):
        ctx = _context(order)
        c = [Fraction(x) for x in coeffs]
        den = math.lcm(*(x.denominator for x in c))
        num = _substitute(ctx, [x.numerator * (den // x.denominator) for x in c], 1)
        self.order = order
        self.den, self.num = _lowest(den, num)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients of 1, zeta, ..., zeta^(deg - 1)."""
        return tuple(Fraction(a, self.den) for a in self.num)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rational(value: Rat, order: int = 1) -> "Cyclo":
        f = Fraction(value)
        return _make(order, f.denominator, (f.numerator,) + (0,) * (_context(order).degree - 1))

    @staticmethod
    def zeta(order: int, k: int = 1) -> "Cyclo":
        return _make(order, 1, _substitute(_context(order), (1,), 1, k))

    @staticmethod
    def unit(turns: Rat, order: int | None = None) -> "Cyclo":
        """e^{2 pi i turns} for a rational number of turns."""
        if order is None:
            order = Fraction(turns).denominator
        return Cyclo.zeta(order, _exponent(turns, order))

    @staticmethod
    def unit_over_divisor(twist: Rat, normal: Rat, order: int) -> "Cyclo":
        """e^{2 pi i twist} / (1 - w), w = e^{-2 pi i normal}, with no inverse.

        w is a primitive m-th root of unity, m the denominator of `normal`, and
        (1 - w) sum_{j<m} j w^j = -m, so the quotient is
        -(1/m) sum_j j e^{2 pi i twist} w^j: one substitution over m.
        """
        n = Fraction(normal)
        step, shift = _exponent(-n, order), _exponent(twist, order)
        m = n.denominator
        if m == 1:
            raise ZeroDivisionError(f"divisor 1 - e^(-2 pi i {n}) is zero")
        return _make(order, m, _substitute(_context(order), range(0, -m, -1), step, shift))

    # -- promotion ---------------------------------------------------------

    def promote(self, order: int) -> "Cyclo":
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot promote from order {self.order} to {order}")
        return _make(order, self.den, _substitute(_context(order), self.num, order // self.order))

    def _match(self, other: "CycloLike") -> tuple["Cyclo", "Cyclo"]:
        if isinstance(other, (int, Fraction)):
            return self, Cyclo.from_rational(other, self.order)
        if not isinstance(other, Cyclo):
            return NotImplemented, NotImplemented  # type: ignore[return-value]
        if other.order == self.order:
            return self, other
        n = math.lcm(self.order, other.order)
        return self.promote(n), other.promote(n)

    # -- arithmetic ---------------------------------------------------------

    def _combine(self, other: "CycloLike", sign: int) -> "Cyclo":
        a, b = self._match(other)
        if a is NotImplemented:
            return NotImplemented
        if a.den == b.den:
            return _make(a.order, a.den, [x + sign * y for x, y in zip(a.num, b.num)])
        g = math.gcd(a.den, b.den)
        fa, fb = b.den // g, sign * (a.den // g)
        return _make(a.order, a.den * fa, [x * fa + y * fb for x, y in zip(a.num, b.num)])

    def __add__(self, other: "CycloLike") -> "Cyclo":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return _make(self.order, self.den, [-x for x in self.num])

    def __sub__(self, other: "CycloLike") -> "Cyclo":
        return self._combine(other, -1)

    def __rsub__(self, other: "CycloLike") -> "Cyclo":
        return (-self).__add__(other)

    def __mul__(self, other: "CycloLike") -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            return _make(self.order, self.den * other.denominator,
                         [x * other.numerator for x in self.num])
        a, b = self._match(other)
        if a is NotImplemented:
            return NotImplemented
        return _make(a.order, a.den * b.den, _mulmod(_context(a.order), a.num, b.num))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if not any(self.num):
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        ctx = _context(self.order)
        # x * prod_{k != 1} sigma_k(x) = N(x), the rational norm of x
        others = [1] + [0] * (ctx.degree - 1)
        for k in ctx.units:
            others = _mulmod(ctx, others, _substitute(ctx, self.num, k))
        norm = _mulmod(ctx, self.num, others)[0]
        scale = self.den if norm > 0 else -self.den
        return _make(self.order, abs(norm), [x * scale for x in others])

    def __truediv__(self, other: "CycloLike") -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of a cyclotomic number by zero")
            scale = other.denominator if other > 0 else -other.denominator
            return _make(self.order, self.den * abs(other.numerator),
                         [x * scale for x in self.num])
        a, b = self._match(other)
        if a is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other: "CycloLike") -> "Cyclo":
        return self.inverse() * other

    def __pow__(self, n: int) -> "Cyclo":
        if n < 0:
            return self.inverse() ** (-n)
        out = Cyclo.from_rational(1, self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "Cyclo":
        return _make(self.order, self.den, _substitute(_context(self.order), self.num, -1))

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def is_integer(self) -> bool:
        return self.is_rational() and self.den == 1

    def is_real(self) -> bool:
        return self == self.conjugate()

    def real_imag_parts(self) -> tuple["Cyclo", "Cyclo"]:
        """(re, im) as exact real elements of Q(zeta_lcm(4, N))."""
        n = math.lcm(4, self.order)
        ctx = _context(n)
        z = _substitute(ctx, self.num, n // self.order)
        conj = _substitute(ctx, z, -1)
        re = _make(n, 2 * self.den, [x + y for x, y in zip(z, conj)])
        # (z - conj) / 2i: times zeta^(3n/4) = -i
        im = _make(n, 2 * self.den,
                   _substitute(ctx, [x - y for x, y in zip(z, conj)], 1, 3 * n // 4))
        return re, im

    def to_complex(self) -> complex:
        re, im = self.real_imag_parts()
        # int / int is correctly rounded, so it is float(rational_value())
        return complex(
            re.num[0] / re.den if re.is_rational() else re._horner_eval().real,
            im.num[0] / im.den if im.is_rational() else im._horner_eval().real)

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def _horner_eval(self) -> complex:
        ctx = _context(self.order)
        acc = 0j
        for a in reversed(self.num):
            acc = acc * ctx.root + complex(a / self.den)
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        if isinstance(other, Cyclo):
            a, b = self._match(other)
            return a.den == b.den and a.num == b.num
        return NotImplemented

    def __hash__(self) -> int:
        # equal numbers of different orders share their mean traces; a
        # rational hashes like its Fraction
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self._mean_trace(), (self * self.conjugate())._mean_trace()))

    def _mean_trace(self) -> Fraction:
        """Tr(x) / [Q(zeta_N) : Q], which does not depend on the order N.

        The trace of zeta_N^k is the sum of the primitive n-th roots of unity,
        n = N / gcd(N, k), counted [Q(zeta_N) : Q(zeta_n)] times.
        """
        ctx = _context(self.order)
        return Fraction(sum(a * t for a, t in zip(self.num, ctx.traces)), self.den * ctx.degree)

    def __repr__(self) -> str:
        terms = []
        for i, a in enumerate(self.num):
            if a:
                c = Fraction(a, self.den)
                terms.append(f"{c}" if i == 0 else f"{c}*z{self.order}^{i}")
        return " + ".join(terms) if terms else "0"


CycloLike = Union[Cyclo, int, Fraction]


class Scalars:
    """Arithmetic context: exact cyclotomic values or floating complex.

    `order` is the root-of-unity order every angle divides into; it is
    ignored in float mode.  A model's context is `QuotientModel.scalars`.
    """

    def __init__(self, mode: str = "exact", order: int = 4):
        if mode not in ("exact", "float"):
            raise ValueError(f"unknown arithmetic mode {mode!r}")
        self.mode = mode
        self.order = order if mode == "exact" else 0

    def zero(self):
        return Cyclo.from_rational(0, self.order) if self.mode == "exact" else 0j

    def one(self):
        return Cyclo.from_rational(1, self.order) if self.mode == "exact" else 1 + 0j

    def from_rational(self, value: Rat):
        if self.mode == "exact":
            return Cyclo.from_rational(value, self.order)
        return complex(Fraction(value))

    def unit(self, turns: Rat):
        """e^{2 pi i turns}, turns rational."""
        if self.mode == "exact":
            return Cyclo.unit(turns, self.order)
        return cmath.exp(2j * math.pi * float(Fraction(turns)))

    def unit_over_divisor(self, twist_turns: Rat, normal_turns: Rat):
        """e^{2 pi i twist} / (1 - e^{-2 pi i normal}): a fixed point's twist
        character over its divisor, in closed form when exact."""
        if self.mode == "exact":
            return Cyclo.unit_over_divisor(twist_turns, normal_turns, self.order)
        return self.unit(twist_turns) / (self.one() - self.unit(-normal_turns))

    @staticmethod
    def to_complex(x) -> complex:
        if isinstance(x, Cyclo):
            return x.to_complex()
        return complex(x)

    def is_zero(self, x, tol: float = 0.0) -> bool:
        if isinstance(x, Cyclo):
            return x.is_zero()
        return abs(complex(x)) <= tol

    def is_integer(self, x, tol: float = 0.0) -> bool:
        if isinstance(x, Cyclo):
            return x.is_integer()
        z = complex(x)
        return abs(z.imag) <= tol and abs(z.real - round(z.real)) <= tol
