"""Degree-2 characteristic forms and the fiber supertrace.

A surface integrates only the degree-2 part of a form, so the package keeps
each genus series to its linear term.  The full series come from a test-local
Fraction reference, which is cross-checked against an independent symbolic
expansion (sympy); the closed form's coefficients are then checked against
that reference's linear terms.
"""

import math
from fractions import Fraction

import pytest
import sympy

from orbindex.char import (
    ComponentCurvature,
    Form,
    a_hat_form,
    chern_char,
    deloc_chern,
    exp_line,
    orbifold_integrate,
    surface_integral,
    todd_form,
)
from orbindex.engine import point_term
from orbindex.exactnum import Cyclo, Scalars
from orbindex.groups import ConjugacyClassHandle, FiniteGroupTable
from orbindex.sectors import FullComponentGeometry, SectorComponent

SX = Scalars("exact", 4)
SPHERE = ComponentCurvature({"t": Fraction(2), "w": Fraction(0)})


# ---------------------------------------------------------------------------
# Test-local series reference
# ---------------------------------------------------------------------------

def _series_inverse(c: list, order: int) -> list:
    inv = [Fraction(1) / c[0]] + [Fraction(0)] * order
    for n in range(1, order + 1):
        inv[n] = -sum(c[k] * inv[n - k] for k in range(1, n + 1)) / c[0]
    return inv


def todd_series(order: int) -> list:
    """Coefficients of u/(1 - e^{-u}) up to u^order."""
    return _series_inverse([Fraction((-1) ** k, math.factorial(k + 1))
                            for k in range(order + 1)], order)


def ahat_series(order: int) -> list:
    """Coefficients of (u/2)/sinh(u/2) up to u^order."""
    return _series_inverse([Fraction(1, 2 ** k * math.factorial(k + 1)) if k % 2 == 0
                            else Fraction(0) for k in range(order + 1)], order)


def exp_half_series(order: int) -> list:
    """Coefficients of e^{u/2} up to u^order."""
    return [Fraction(1, 2 ** k * math.factorial(k)) for k in range(order + 1)]


def sympy_series(expr, var, order):
    poly = sympy.Poly(sympy.series(expr, var, 0, order + 1).removeO(), var)
    return [Fraction(str(poly.coeff_monomial(var ** k))) for k in range(order + 1)]


def two_root_todd() -> dict:
    """Td(x) Td(y) in degree 4: (i, j) -> coefficient of x^i y^j."""
    td = todd_series(2)
    return {(i, j): td[i] * td[j] for i in range(3) for j in range(3) if i + j == 2}


class TestSeriesReference:
    @pytest.mark.parametrize("reference, expr", [
        (todd_series, lambda u: u / (1 - sympy.exp(-u))),
        (ahat_series, lambda u: (u / 2) / sympy.sinh(u / 2)),
        (exp_half_series, lambda u: sympy.exp(u / 2)),
    ], ids=["todd", "a_hat", "exp_half"])
    def test_against_sympy_to_u6(self, reference, expr):
        u = sympy.Symbol("u")
        assert reference(6) == sympy_series(expr(u), u, 6)

    def test_ahat_degree4_is_minus_p1_over_24(self):
        # single Chern root: -p1/24 = -x^2/24
        assert ahat_series(4)[2] == Fraction(-1, 24)

    def test_todd_degree4_is_c1sq_plus_c2_over_12(self):
        # (c1^2 + c2)/12 with c1 = x + y, c2 = xy: (x^2 + y^2)/12 + 3xy/12
        assert two_root_todd() == {(2, 0): Fraction(1, 12), (1, 1): Fraction(3, 12),
                                   (0, 2): Fraction(1, 12)}


# ---------------------------------------------------------------------------
# Degree-2 forms
# ---------------------------------------------------------------------------

class TestClosedForm:
    def test_coefficients_are_the_linear_terms(self):
        one = SX.one()
        td, ah = todd_form(SPHERE, SX), a_hat_form(SPHERE, SX)
        half, ch = exp_line("t", SX, half=True), chern_char(["w"], SX)
        assert td.const == ah.const == half.const == ch.const == one
        assert todd_series(1) == [1, Fraction(1, 2)]
        assert td.coeffs == {"t": SX.from_rational(todd_series(1)[1])}
        assert ahat_series(1) == [1, 0] and ah.coeffs == {}
        assert half.coeffs == {"t": SX.from_rational(exp_half_series(1)[1])}
        assert ch.coeffs == {"w": one}
        assert exp_line("w", SX).coeffs == ch.coeffs

    def test_product_drops_degree4_and_commutes(self):
        f = Form(SX.one(), {"a": SX.one(), "b": SX.one()})
        g = Form(SX.from_rational(3), {"b": SX.from_rational(2)})
        prod = f * f
        assert prod.const == 1 and prod.coeffs == {"a": 2, "b": 2}
        assert (f * g).const == (g * f).const == 3
        assert (f * g).coeffs == (g * f).coeffs == {"a": 3, "b": 5}

    def test_flat_component_trivial(self):
        flat = ComponentCurvature({"w": Fraction(0)})
        assert a_hat_form(flat, SX).coeffs == todd_form(flat, SX).coeffs == {}

    def test_sphere_todd_integral_is_one(self):
        assert surface_integral(todd_form(SPHERE, SX), SPHERE, SX) == 1

    def test_chern_char_additivity(self):
        two_lines = chern_char(["a", "b"], SX)
        assert two_lines.const == 2
        assert two_lines.coeffs["a"] == two_lines.coeffs["b"] == chern_char(["a"], SX).coeffs["a"]
        assert chern_char(["a", "a"], SX).coeffs == {"a": 2}


class TestPointDivisor:
    @pytest.mark.parametrize("turns, want", [
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 4), (1 - Cyclo.zeta(4)) / 2),
    ], ids=["half_turn", "quarter_turn"])
    def test_todd_point_divisor(self, turns, want):
        # 1/(1 - e^{-i theta}) at the stored normal angle, untwisted
        assert point_term(turns, Fraction(0), SX, False) == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12, 24])
    def test_spinc_and_dolbeault_point_terms_agree(self, n):
        # the fiber supertrace over the real determinant equals the twist
        # character over the complex divisor at every normal angle j/n and
        # twist angle k/n: exactly in exact mode, to rounding in float mode
        exact, flt = Scalars("exact", math.lcm(4, n)), Scalars("float", math.lcm(4, n))
        for j in range(1, n):
            for k in range(n):
                normal, twist = Fraction(j, n), Fraction(k, n)
                assert point_term(normal, twist, exact, True) == \
                    point_term(normal, twist, exact, False), (j, k)
                spin = point_term(normal, twist, flt, True)
                dolbeault = point_term(normal, twist, flt, False)
                assert abs(spin - dolbeault) <= 1e-14 * abs(dolbeault), (j, k)


class TestDelocChern:
    def test_dolbeault_rule(self):
        # E+ carries the twist angle and E- the twist angle minus the rotation
        s12 = Scalars("exact", 12)
        for twist in (Fraction(0), Fraction(1, 3)):
            assert deloc_chern(Fraction(1, 4), twist, s12) == \
                s12.unit(twist) - s12.unit(twist - Fraction(1, 4))

    def test_rank_one_rotation(self):
        assert deloc_chern(Fraction(1, 4), Fraction(0), SX) == 1 + Cyclo.zeta(4)  # 1 - e^{-i pi/2}

    def test_half_turn_gives_two(self):
        # E- carries e^{-i pi} = -1
        assert deloc_chern(Fraction(1, 2), Fraction(0), SX) == 2

    def test_flat_eigenlines_cancel(self):
        # at rotation 0 both lines carry the twist angle, at any twist
        for twist in (Fraction(0), Fraction(1, 4), Fraction(3, 4)):
            assert deloc_chern(Fraction(0), twist, SX) == 0


def _identity_component(n: int, geometry: FullComponentGeometry) -> SectorComponent:
    handle = ConjugacyClassHandle(group=FiniteGroupTable.cyclic(n), representative=0,
                                  kind_tag="finite-class", label="e")
    return SectorComponent(handle, "full", geometry, None, n)


class TestOrbifoldIntegrate:
    def test_degree_d_line_over_torus(self):
        d = 3
        comp = _identity_component(1, FullComponentGeometry(1.0, 0))
        curv = ComponentCurvature({"w": Fraction(d)})
        assert orbifold_integrate(chern_char(["w"], SX), comp, curv, SX) == d

    def test_untwisted_sphere_sector_todd(self):
        # (e)-sector of [S2/Z_n] with the Todd form integrates to 1/n
        n = 3
        comp = _identity_component(n, FullComponentGeometry(12.566, 2))
        assert orbifold_integrate(todd_form(SPHERE, SX), comp, SPHERE, SX) == Fraction(1, n)
