"""Surface Riemann-Roch: degree-2 Todd, A-hat and Chern forms, and the one
fiber supertrace, a function of a rotation's turn and the twist's turn.

Every full sector component is a surface, so only the degree-2 part of its
index density is ever integrated.  A Form is a constant plus one coefficient
per degree-2 generator: `t` = c1(T), taken only when the tangent Chern number
is nonzero, and `w` = c1(L).  To that degree each genus series is its linear
term: Td = 1 + t/2, A-hat = 1, e^{x/2} = 1 + x/2 and ch(L) = 1 + w.
Coefficients come from the active arithmetic context (exact cyclotomic or
complex), so exact mode stays exact end to end.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactnum import Scalars
from .sectors import SectorComponent


@dataclass(frozen=True)
class ComponentCurvature:
    """The integral of each degree-2 generator over one full component: the
    sphere carries the Gauss-Bonnet value 2 for its tangent root `t`."""

    integrals: dict


class Form:
    """A constant plus one coefficient per degree-2 generator; a product
    drops its degree-4 part."""

    __slots__ = ("const", "coeffs")

    def __init__(self, const, coeffs: dict | None = None):
        self.const = const
        self.coeffs = coeffs or {}

    def __mul__(self, other: "Form") -> "Form":
        coeffs = {g: c * other.const for g, c in self.coeffs.items()}
        for g, c in other.coeffs.items():
            term = self.const * c
            coeffs[g] = coeffs[g] + term if g in coeffs else term
        return Form(self.const * other.const, coeffs)


# ---------------------------------------------------------------------------
# Characteristic forms
# ---------------------------------------------------------------------------

def a_hat_form(curv: ComponentCurvature, scalars: Scalars) -> Form:
    """A-hat genus of the tangent line: it has no degree-2 term."""
    return Form(scalars.one())


def todd_form(curv: ComponentCurvature, scalars: Scalars) -> Form:
    """Todd genus of the tangent line: its degree-2 coefficient is c1/2."""
    half = {"t": scalars.from_rational(Fraction(1, 2))} if "t" in curv.integrals else {}
    return Form(scalars.one(), half)


def chern_char(lines: Sequence[str], scalars: Scalars) -> Form:
    """Chern character of a sum of line bundles: the rank plus each c1."""
    return Form(scalars.from_rational(len(lines)),
                {g: scalars.from_rational(n) for g, n in Counter(lines).items()})


def exp_line(gen: str, scalars: Scalars, half: bool = False) -> Form:
    """e^{x} or e^{x/2} of a single degree-2 generator."""
    return Form(scalars.one(), {gen: scalars.from_rational(Fraction(1, 2 if half else 1))})


def deloc_chern(rotation_turns: Fraction, twist_turns: Fraction, scalars: Scalars):
    """Graded fiber character of a rotation on flat eigenlines, the package's
    one fiber supertrace: e^{2 pi i a} at the E+ angle minus the same at the
    E- angle (the index pairing demands the supertrace).  E+, the degree-0
    part, carries the twist angle and E-, the degree-(0,1) part, the twist
    angle minus the rotation; both operator kinds see these angles.
    """
    total = scalars.zero() + scalars.unit(twist_turns % 1)
    return total - scalars.unit((twist_turns - rotation_turns) % 1)


# ---------------------------------------------------------------------------
# Orbifold integration
# ---------------------------------------------------------------------------

def surface_integral(form: Form, curv: ComponentCurvature, scalars: Scalars):
    """Integral of a form over a surface: its degree-2 coefficients paired
    with the generators' integrals."""
    total = scalars.zero()
    for g, c in form.coeffs.items():
        total = total + c * scalars.from_rational(curv.integrals[g])
    return total


def orbifold_integrate(form: Form, component: SectorComponent,
                       curv: ComponentCurvature, scalars: Scalars):
    """Integrate a form over one full sector component: the surface integral
    times the orbit weight 1/localGroupOrder.
    """
    return surface_integral(form, curv, scalars) * \
        scalars.from_rational(Fraction(1, component.local_group_order))


def component_curvature(tangent_chern: int, twist: int) -> ComponentCurvature:
    """Curvature of a full component from the two numbers that fix its
    integral: the tangent line's Chern number, whose root `t` is taken only
    when it is nonzero, and the twist degree of the line `w`."""
    integrals = {"t": Fraction(tangent_chern)} if tangent_chern else {}
    integrals["w"] = Fraction(twist)
    return ComponentCurvature(integrals)
