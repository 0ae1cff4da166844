"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every angle in the model catalogue is a rational multiple of a full turn, so
all index values live in some Q(zeta_N).  Elements are stored as polynomials
in zeta_N reduced modulo the N-th cyclotomic polynomial, with Fraction
coefficients; equality, inversion and conjugation are exact.  Order N = 4
recovers the Gaussian rationals Q(i).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj != 0:
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [_ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    r = _poly_trim(a)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        coeff = r[-1] * inv_lead
        q[shift] = coeff
        for j, bj in enumerate(b):
            r[shift + j] -= coeff * bj
        r = _poly_trim(r)
    return _poly_trim(q), r


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial, exact."""
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    if n == 1:
        return (Fraction(-1), Fraction(1))
    num: list[Fraction] = [_ZERO] * (n + 1)
    num[0], num[n] = Fraction(-1), Fraction(1)
    den: list[Fraction] = [_ONE]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    q, r = _poly_divmod(num, den)
    if r:
        raise ArithmeticError("cyclotomic division left a remainder")
    return tuple(q)


class _Context:
    """Reduction tables for Q[x]/Phi_N(x)."""

    def __init__(self, order: int):
        self.order = order
        self.phi = list(cyclotomic_polynomial(order))
        self.degree = len(self.phi) - 1
        # reduced representations of zeta^k for k = 0 .. order-1
        self.powers: list[tuple[Fraction, ...]] = []
        cur = [_ONE]
        for _ in range(order):
            self.powers.append(self._pad(cur))
            cur = self._reduce(_poly_mul(cur, [_ZERO, _ONE]))
        self.root = cmath.exp(2j * math.pi / order)

    def _pad(self, c: Sequence[Fraction]) -> tuple[Fraction, ...]:
        out = list(c) + [_ZERO] * (self.degree - len(c))
        return tuple(out[: self.degree])

    def _reduce(self, c: Sequence[Fraction]) -> list[Fraction]:
        _, r = _poly_divmod(c, self.phi)
        return r


@lru_cache(maxsize=None)
def _context(order: int) -> _Context:
    return _Context(order)


class Cyclo:
    """An exact element of Q(zeta_N)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Fraction]):
        ctx = _context(order)
        c = [Fraction(x) for x in coeffs]
        if len(c) > ctx.degree:
            c = ctx._reduce(c)
        self.order = order
        self.coeffs = ctx._pad(c)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rational(value: Rat, order: int = 1) -> "Cyclo":
        return Cyclo(order, [Fraction(value)])

    @staticmethod
    def zeta(order: int, k: int = 1) -> "Cyclo":
        ctx = _context(order)
        return Cyclo(order, ctx.powers[k % order])

    @staticmethod
    def unit(turns: Rat, order: int | None = None) -> "Cyclo":
        """e^{2 pi i turns} for a rational number of turns."""
        t = Fraction(turns)
        t -= math.floor(t)
        n = t.denominator
        if order is None:
            order = n
        if order % n:
            raise ValueError(f"angle {t} does not live in Q(zeta_{order})")
        return Cyclo.zeta(order, (order // n) * t.numerator)

    # -- promotion ---------------------------------------------------------

    def promote(self, order: int) -> "Cyclo":
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot promote from order {self.order} to {order}")
        step = order // self.order
        ctx = _context(order)
        out = [_ZERO] * ctx.degree
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(ctx.powers[(i * step) % order]):
                out[j] += a * b
        return Cyclo(order, out)

    def _match(self, other: "CycloLike") -> tuple["Cyclo", "Cyclo"]:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(other, 1)
        if not isinstance(other, Cyclo):
            return NotImplemented, NotImplemented  # type: ignore[return-value]
        n = math.lcm(self.order, other.order)
        return self.promote(n), other.promote(n)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "CycloLike") -> "Cyclo":
        a, b = self._match(other)
        if a is NotImplemented:
            return NotImplemented
        return Cyclo(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.order, [-x for x in self.coeffs])

    def __sub__(self, other: "CycloLike") -> "Cyclo":
        a, b = self._match(other)
        if a is NotImplemented:
            return NotImplemented
        return Cyclo(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other: "CycloLike") -> "Cyclo":
        return (-self).__add__(other)

    def __mul__(self, other: "CycloLike") -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Cyclo(self.order, [x * f for x in self.coeffs])
        a, b = self._match(other)
        if a is NotImplemented:
            return NotImplemented
        return Cyclo(a.order, _poly_mul(a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        ctx = _context(self.order)
        # extended Euclid in Q[x]; invariant r_i = s_i * self (mod Phi_N)
        r0, r1 = list(ctx.phi), _poly_trim(list(self.coeffs))
        if not r1:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        s0: list[Fraction] = []
        s1: list[Fraction] = [_ONE]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            qs = _poly_mul(q, s1)
            width = max(len(s0), len(qs))
            s_next = _poly_trim([(s0[i] if i < len(s0) else _ZERO) -
                                 (qs[i] if i < len(qs) else _ZERO)
                                 for i in range(width)])
            r0, r1 = r1, r
            s0, s1 = s1, s_next
            if not r1:
                raise ArithmeticError("element shares a factor with Phi_N")
        scale = 1 / r1[0]
        return Cyclo(self.order, [x * scale for x in s1])

    def __truediv__(self, other: "CycloLike") -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Cyclo(self.order, [x / f for x in self.coeffs])
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
        ctx = _context(self.order)
        out = [_ZERO] * ctx.degree
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(ctx.powers[(-i) % self.order]):
                out[j] += a * b
        return Cyclo(self.order, out)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    def is_rational(self) -> bool:
        return all(x == 0 for x in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def is_integer(self) -> bool:
        return self.is_rational() and self.coeffs[0].denominator == 1

    def is_real(self) -> bool:
        return self == self.conjugate()

    def real_imag_parts(self) -> tuple["Cyclo", "Cyclo"]:
        """(re, im) as exact real elements of Q(zeta_lcm(4, N))."""
        n = math.lcm(4, self.order)
        z = self.promote(n)
        conj = z.conjugate()
        i = Cyclo.zeta(n, n // 4)
        re = (z + conj) / 2
        im = (z - conj) * i.conjugate() / 2  # division by i
        return re, im

    def to_complex(self) -> complex:
        re, im = self.real_imag_parts()
        return complex(
            float(re.rational_value()) if re.is_rational() else re._horner_eval().real,
            float(im.rational_value()) if im.is_rational() else im._horner_eval().real)

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def _horner_eval(self) -> complex:
        ctx = _context(self.order)
        acc = 0j
        for a in reversed(self.coeffs):
            acc = acc * ctx.root + complex(a)
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, Cyclo):
            a, b = self._match(other)
            return a.coeffs == b.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        # equal numbers of different orders share their mean traces; a
        # rational hashes like its Fraction
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self._mean_trace(), (self * self.conjugate())._mean_trace()))

    def _mean_trace(self) -> Fraction:
        """Tr(x) / [Q(zeta_N) : Q], which does not depend on the order N.

        The trace of zeta_N^k is the sum of the primitive n-th roots of unity,
        n = N / gcd(N, k), and their mean is minus the next-to-leading
        coefficient of Phi_n over its degree.
        """
        total = _ZERO
        for k, a in enumerate(self.coeffs):
            if a:
                phi = cyclotomic_polynomial(self.order // math.gcd(self.order, k))
                total += a * -phi[-2] / (len(phi) - 1)
        return total

    def __repr__(self) -> str:
        terms = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            terms.append(f"{a}" if i == 0 else f"{a}*z{self.order}^{i}")
        return " + ".join(terms) if terms else "0"


CycloLike = Union[Cyclo, int, Fraction]


class Scalars:
    """Arithmetic context: exact cyclotomic values or floating complex.

    `order` is the root-of-unity order every angle of the model divides into;
    it is ignored in float mode.
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


def scalars_for_order(order: int, mode: str = "exact") -> Scalars:
    """Context whose exact field contains i and all order-th roots of unity."""
    return Scalars(mode, math.lcm(4, order))
