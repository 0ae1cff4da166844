"""Finitely supported group-algebra elements with convolution and localized traces.

Coefficients may be exact (Cyclo, Fraction, int) or floating complex; exact
Gaussian-rational coefficients are the default in the acceptance suite.  Only
finitely supported elements are represented; the continuity bound against the
L1 norm is checked as an inequality on these.
"""

from __future__ import annotations

from .errors import StructuralError
from .exactnum import Cyclo, Scalars
from .groups import (
    ConjugacyClassHandle,
    CrystGroup,
    FiniteGroupTable,
    GroupLike,
)


def _mul(group: GroupLike, x, y):
    if isinstance(group, FiniteGroupTable):
        return group.mul(x, y)
    return x.compose(y)


def _same_group(a: "GroupAlgebraElement", b: "GroupAlgebraElement") -> None:
    ga, gb = a.group, b.group
    if ga is gb:
        return
    if isinstance(ga, FiniteGroupTable) and isinstance(gb, FiniteGroupTable) \
            and ga.product == gb.product:
        return
    raise StructuralError("group algebra elements live over different groups")


class GroupAlgebraElement:
    """An element of C[G] with finite support; zero coefficients are dropped."""

    def __init__(self, group: GroupLike, coeffs: dict | None = None):
        self.group = group
        self.coeffs = {}
        for g, c in (coeffs or {}).items():
            if not _is_zero(c):
                self.coeffs[g] = c

    def support(self):
        return self.coeffs.keys()

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        _same_group(self, other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out[g] + c if g in out else c
        return GroupAlgebraElement(self.group, out)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + other.scale(-1)

    def scale(self, factor) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.group,
                                   {g: c * factor for g, c in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.group is other.group and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = [f"({c})*{g!r}" for g, c in list(self.coeffs.items())[:6]]
        more = "..." if len(self.coeffs) > 6 else ""
        return " + ".join(terms) + more if terms else "0"


def delta(group: GroupLike, element, coeff=1) -> GroupAlgebraElement:
    """coeff * delta_element."""
    if isinstance(group, FiniteGroupTable):
        if not (0 <= element < group.order):
            raise StructuralError("element index outside the group")
    elif isinstance(group, CrystGroup):
        if not group.contains(element):
            raise StructuralError("element does not belong to the group")
    return GroupAlgebraElement(group, {element: coeff})


def _is_zero(c) -> bool:
    if isinstance(c, Cyclo):
        return c.is_zero()
    return c == 0


def convolve(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """(a * b)(k) = sum_h a(k h^{-1}) b(h)."""
    _same_group(a, b)
    out: dict = {}
    for g1, c1 in a.coeffs.items():
        for g2, c2 in b.coeffs.items():
            k = _mul(a.group, g1, g2)
            term = c1 * c2
            out[k] = out[k] + term if k in out else term
    return GroupAlgebraElement(a.group, out)


def localized_trace(a: GroupAlgebraElement, cls: ConjugacyClassHandle):
    """tau^{(g)}(a): the sum of coefficients over support members of the class."""
    if cls.group is not a.group:
        if not (isinstance(cls.group, FiniteGroupTable)
                and isinstance(a.group, FiniteGroupTable)
                and cls.group.product == a.group.product):
            raise StructuralError("class and element live over different groups")
    total = None
    for g, c in a.coeffs.items():
        if cls.contains(g):
            total = c if total is None else total + c
    return 0 if total is None else total


def rho(a: GroupAlgebraElement):
    """Sum of all coefficients: the trivial-representation trace."""
    total = None
    for c in a.coeffs.values():
        total = c if total is None else total + c
    return 0 if total is None else total


def l1_norm(a: GroupAlgebraElement) -> float:
    return float(sum(abs(Scalars.to_complex(c)) for c in a.coeffs.values()))
