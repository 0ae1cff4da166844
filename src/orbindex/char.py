"""Truncated graded series algebra for characteristic forms.

All generators have degree 2 (curvature classes); a TruncForm is a finite sum
of monomials in the generators, truncated above the component dimension, with
coefficients from the active arithmetic context (exact cyclotomic or complex).
Genus series are generated with exact rational coefficients and materialized
through the context, so exact mode stays exact end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import StructuralError
from .exactnum import Scalars
from .sectors import FiberEigenData, SectorComponent

Monomial = tuple[str, ...]   # sorted generator names with repetition; degree = 2*len


@dataclass(frozen=True)
class ComponentCurvature:
    """Curvature generators of one sector component.

    `tangent_roots` are the Chern-root generators of the tangent bundle (empty
    for flat components), `integrals` maps each degree-2 generator to its
    integral over the component: the sphere carries the Gauss-Bonnet value 2
    for its tangent root.
    """

    dimension: int
    tangent_roots: tuple[str, ...] = ()
    twist_line: Optional[str] = None
    integrals: dict = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "integrals", dict(self.integrals or {}))


class TruncForm:
    """Element of the graded commutative truncated series algebra."""

    __slots__ = ("trunc", "coeffs")

    def __init__(self, trunc: int, coeffs: dict | None = None):
        self.trunc = trunc
        self.coeffs: dict[Monomial, object] = {}
        for mono, c in (coeffs or {}).items():
            if 2 * len(mono) <= trunc and not _zeroish(c):
                self.coeffs[tuple(sorted(mono))] = c

    @staticmethod
    def constant(value, trunc: int) -> "TruncForm":
        return TruncForm(trunc, {(): value})

    def degree_part(self, degree: int) -> dict:
        return {m: c for m, c in self.coeffs.items() if 2 * len(m) == degree}

    def coefficient(self, mono: Sequence[str]):
        return self.coeffs.get(tuple(sorted(mono)))

    def __add__(self, other: "TruncForm") -> "TruncForm":
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out[m] + c if m in out else c
        return TruncForm(self.trunc, out)

    def __sub__(self, other: "TruncForm") -> "TruncForm":
        return self + other.scale(-1)

    def scale(self, factor) -> "TruncForm":
        return TruncForm(self.trunc, {m: c * factor for m, c in self.coeffs.items()})

    def __mul__(self, other: "TruncForm") -> "TruncForm":
        self._check(other)
        out: dict[Monomial, object] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                if 2 * (len(m1) + len(m2)) > self.trunc:
                    continue
                m = tuple(sorted(m1 + m2))
                term = c1 * c2
                out[m] = out[m] + term if m in out else term
        return TruncForm(self.trunc, out)

    def _check(self, other: "TruncForm") -> None:
        if self.trunc != other.trunc:
            raise StructuralError("forms bound to different truncation degrees")

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*{'.'.join(m) if m else '1'}"
                          for m, c in sorted(self.coeffs.items()))


def _zeroish(c) -> bool:
    try:
        return c == 0
    except TypeError:
        return False


# ---------------------------------------------------------------------------
# Exact genus series
# ---------------------------------------------------------------------------

def _series_inverse(c: list[Fraction], order: int) -> list[Fraction]:
    if c[0] == 0:
        raise StructuralError("series has no inverse")
    inv = [Fraction(1) / c[0]] + [Fraction(0)] * order
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, min(n, len(c) - 1) + 1):
            acc += c[k] * inv[n - k]
        inv[n] = -acc / c[0]
    return inv


@lru_cache(maxsize=None)
def ahat_series(order: int) -> tuple[Fraction, ...]:
    """Coefficients of (u/2)/sinh(u/2) up to u^order; vanishes in odd degrees."""
    denom = [Fraction(0)] * (order + 1)
    for k in range(0, order // 2 + 1):
        denom[2 * k] = Fraction(1, 4 ** k * math.factorial(2 * k + 1))
    return tuple(_series_inverse(denom, order))


@lru_cache(maxsize=None)
def todd_series(order: int) -> tuple[Fraction, ...]:
    """Coefficients of u/(1 - e^{-u}) up to u^order."""
    denom = [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(order + 1)]
    return tuple(_series_inverse(denom, order))


@lru_cache(maxsize=None)
def exp_series(order: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1, math.factorial(k)) for k in range(order + 1))


def _univariate(series: Sequence[Fraction], gen: str, trunc: int,
                scalars: Scalars) -> TruncForm:
    coeffs = {}
    for k, a in enumerate(series):
        if 2 * k > trunc:
            break
        if a != 0:
            coeffs[(gen,) * k] = scalars.from_rational(a)
    return TruncForm(trunc, coeffs)


# ---------------------------------------------------------------------------
# Characteristic forms
# ---------------------------------------------------------------------------

def a_hat_form(curv: ComponentCurvature, scalars: Scalars) -> TruncForm:
    """A-hat genus of the tangent roots; no degree-2 term ever appears."""
    order = curv.dimension // 2
    out = TruncForm.constant(scalars.one(), curv.dimension)
    for root in curv.tangent_roots:
        out = out * _univariate(ahat_series(order), root, curv.dimension, scalars)
    return out


def todd_form(curv: ComponentCurvature, scalars: Scalars) -> TruncForm:
    """Todd genus of the tangent roots; degree-2 coefficient is c1/2."""
    order = curv.dimension // 2
    out = TruncForm.constant(scalars.one(), curv.dimension)
    for root in curv.tangent_roots:
        out = out * _univariate(todd_series(order), root, curv.dimension, scalars)
    return out


def chern_char(lines: Sequence[str], trunc: int, scalars: Scalars) -> TruncForm:
    """Chern character of a sum of line bundles: sum of e^{x_i}."""
    order = trunc // 2
    total = TruncForm(trunc, {})
    for gen in lines:
        total = total + _univariate(exp_series(order), gen, trunc, scalars)
    return total


def exp_line(gen: str, trunc: int, scalars: Scalars, half: bool = False) -> TruncForm:
    """e^{x} or e^{x/2} of a single degree-2 generator."""
    order = trunc // 2
    series = list(exp_series(order))
    if half:
        series = [a / (2 ** k) for k, a in enumerate(series)]
    return _univariate(series, gen, trunc, scalars)


def deloc_chern(data: FiberEigenData, trunc: int, scalars: Scalars) -> TruncForm:
    """Graded delocalized Chern character of flat eigenlines: sum of
    e^{2 pi i theta} over E+ angles minus the same sum over E- angles (the
    index pairing demands the supertrace)."""
    total = TruncForm(trunc, {})
    one = TruncForm.constant(scalars.one(), trunc)
    for turns in data.plus_turns:
        total = total + one.scale(scalars.unit(turns))
    for turns in data.minus_turns:
        total = total - one.scale(scalars.unit(turns))
    return total


# ---------------------------------------------------------------------------
# Orbifold integration
# ---------------------------------------------------------------------------

def surface_integral(form: TruncForm, curv: ComponentCurvature, scalars: Scalars):
    """Integral of a bound form over a surface: its degree-2 coefficients
    paired with the generators' integrals."""
    total = scalars.zero()
    for mono, c in form.degree_part(2).items():
        total = total + c * scalars.from_rational(curv.integrals.get(mono[0], Fraction(0)))
    return total


def orbifold_integrate(form: TruncForm, component: SectorComponent,
                       curv: ComponentCurvature, scalars: Scalars):
    """Integrate a bound form over one full sector component: the surface
    integral times the orbit weight 1/localGroupOrder.
    """
    return surface_integral(form, curv, scalars) * \
        scalars.from_rational(Fraction(1, component.local_group_order))


def component_curvature(tangent_chern: int, twist: int) -> ComponentCurvature:
    """Curvature of a full component from the two numbers that fix its
    integral: the tangent line's Chern number, whose root `t` is taken only
    when it is nonzero, and the twist degree of the line `w`."""
    return ComponentCurvature(dimension=2, tangent_roots=("t",) if tangent_chern else (),
                              twist_line="w",
                              integrals={"t": Fraction(tangent_chern), "w": Fraction(twist)})
