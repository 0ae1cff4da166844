"""Truncated series algebra and delocalized characteristic forms.

The genus series are cross-checked against an independent symbolic expansion
(sympy), not against the package's own coefficient generator.
"""

from fractions import Fraction

import pytest
import sympy

from orbindex.char import (
    ComponentCurvature,
    TruncForm,
    a_hat_form,
    ahat_series,
    chern_char,
    deloc_chern,
    exp_line,
    todd_form,
    todd_series,
)
from orbindex.engine import point_term
from orbindex.errors import StructuralError
from orbindex.exactnum import Cyclo, Scalars
from orbindex.sectors import FiberEigenData

SX = Scalars("exact", 4)


def sympy_series(expr, var, order):
    return [Fraction(str(c)) for c in
            sympy.Poly(sympy.series(expr, var, 0, order + 1).removeO(), var
                       ).all_coeffs()[::-1]]


class TestSeriesAgainstSympy:
    def test_ahat_series(self):
        u = sympy.Symbol("u")
        expr = (u / 2) / sympy.sinh(u / 2)
        want = sympy_series(expr, u, 6)
        got = list(ahat_series(6))
        assert got[:len(want)] == want

    def test_todd_series(self):
        u = sympy.Symbol("u")
        expr = u / (1 - sympy.exp(-u))
        want = sympy_series(expr, u, 6)
        got = list(todd_series(6))
        assert got[:len(want)] == want

    def test_ahat_degree4_is_minus_p1_over_24(self):
        # single Chern root: -p1/24 = -x^2/24
        assert ahat_series(4)[2] == Fraction(-1, 24)

    def test_todd_degree4_is_c1sq_plus_c2_over_12(self):
        # two roots: coefficient of x^2 and of xy in Td(x)Td(y) reassemble to
        # (c1^2 + c2)/12 with c1 = x + y, c2 = xy
        curv = ComponentCurvature(dimension=4, tangent_roots=("x", "y"))
        td = todd_form(curv, SX)
        cxx = td.coefficient(("x", "x"))
        cxy = td.coefficient(("x", "y"))
        # (c1^2 + c2)/12 = (x^2 + y^2)/12 + (2xy + xy)/12
        assert cxx == SX.from_rational(Fraction(1, 12))
        assert cxy == SX.from_rational(Fraction(3, 12))


class TestTruncForm:
    def test_truncation_soundness(self):
        f = TruncForm(2, {("a",): SX.one(), ("b",): SX.one()})
        prod = f * f
        assert prod.degree_part(4) == {}
        assert prod.coefficient(("a", "b")) is None

    def test_graded_commutativity(self):
        f = TruncForm(4, {("a",): SX.one()})
        g = TruncForm(4, {("b",): SX.from_rational(2)})
        assert (f * g).coeffs == (g * f).coeffs

    def test_mismatched_truncation_rejected(self):
        with pytest.raises(StructuralError):
            TruncForm(2, {}) * TruncForm(4, {})


class TestGenusForms:
    def test_flat_component_trivial(self):
        curv = ComponentCurvature(dimension=2)
        assert a_hat_form(curv, SX).coeffs == {(): SX.one()}
        assert todd_form(curv, SX).coeffs == {(): SX.one()}

    def test_ahat_has_no_degree2_term(self):
        curv = ComponentCurvature(dimension=2, tangent_roots=("t",),
                                  integrals={"t": Fraction(2)})
        ah = a_hat_form(curv, SX)
        assert ah.coefficient(("t",)) is None

    def test_sphere_todd_integral_is_one(self):
        curv = ComponentCurvature(dimension=2, tangent_roots=("t",),
                                  integrals={"t": Fraction(2)})
        td = todd_form(curv, SX)
        total = td.coefficient(("t",)) * SX.from_rational(curv.integrals["t"])
        assert total == 1

    def test_trivial_line_is_one(self):
        flat = chern_char(["a"], 0, SX)  # point truncation kills curvature
        assert flat.coeffs == {(): SX.one()}

    def test_chern_char_additivity(self):
        one_line = chern_char(["a"], 2, SX)
        two_lines = chern_char(["a", "b"], 2, SX)
        assert two_lines.coefficient(()) == 2
        assert two_lines.coefficient(("a",)) == one_line.coefficient(("a",))

    def test_degree_k_line_on_sphere(self):
        # ch(O(k)) degree-2 part integrates to k under the integral table
        k = 7
        ch = chern_char(["w"], 2, SX)
        assert ch.coefficient(("w",)) == 1  # times integral k gives k


class TestPointDivisor:
    @pytest.mark.parametrize("turns, want", [
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 4), (1 - Cyclo.zeta(4)) / 2),
    ], ids=["half_turn", "quarter_turn"])
    def test_todd_point_divisor(self, turns, want):
        # 1/(1 - e^{-i theta}) at the stored normal angle, untwisted
        assert point_term(turns, Fraction(0), SX, "todd") == want


def test_exp_line_half():
    f = exp_line("t", 2, SX, half=True)
    assert f.coefficient(("t",)) == SX.from_rational(Fraction(1, 2))


class TestDelocChern:
    def test_trivial_action_is_graded_rank(self):
        # all angles zero: ch(E+) - ch(E-) at a point is rank difference
        data = FiberEigenData((Fraction(0), Fraction(0)), (Fraction(0),))
        f = deloc_chern(data, 0, SX)
        assert f.coefficient(()) == 1  # 2 - 1

    def test_rank_one_rotation(self):
        data = FiberEigenData((Fraction(0),), (Fraction(-1, 4) % 1,))
        f = deloc_chern(data, 0, SX)
        i = Cyclo.zeta(4)
        assert f.coefficient(()) == 1 + i  # 1 - e^{-i pi/2}

    def test_half_turn_gives_two(self):
        data = FiberEigenData((Fraction(0),), (Fraction(1, 2),))
        f = deloc_chern(data, 0, SX)
        assert f.coefficient(()) == 2

    def test_full_component_with_lines(self):
        # trivial fiber action over a surface: the flat eigenlines cancel in
        # every degree, and the line classes come from chern_char, whose
        # difference keeps the degree-2 difference of the classes
        data = FiberEigenData((Fraction(0),), (Fraction(0),))
        assert deloc_chern(data, 2, SX).coeffs == {}
        f = chern_char(["a"], 2, SX) - chern_char(["b"], 2, SX)
        assert f.coefficient(()) is None  # ranks cancel
        assert f.coefficient(("a",)) == 1
        assert f.coefficient(("b",)) == SX.from_rational(-1)


class TestOrbifoldIntegrate:
    def test_degree_d_line_over_torus(self):
        from orbindex.char import orbifold_integrate
        from orbindex.sectors import FullComponentGeometry, SectorComponent
        from orbindex.groups import ConjugacyClassHandle, FiniteGroupTable

        d = 3
        handle = ConjugacyClassHandle(group=FiniteGroupTable.cyclic(1),
                                      representative=0, kind_tag="finite-class",
                                      label="e")
        comp = SectorComponent(
            handle, "full", FullComponentGeometry(1.0, 0), None, 1)
        curv = ComponentCurvature(dimension=2, twist_line="w",
                                  integrals={"w": Fraction(d)})
        ch = chern_char(["w"], 2, SX)
        assert orbifold_integrate(ch, comp, curv, SX) == d

    def test_untwisted_sphere_sector_todd(self):
        # (e)-sector of [S2/Z_n] with the Todd form integrates to 1/n
        from orbindex.char import orbifold_integrate, todd_form
        from orbindex.sectors import FullComponentGeometry, SectorComponent
        from orbindex.groups import ConjugacyClassHandle, FiniteGroupTable

        n = 3
        handle = ConjugacyClassHandle(group=FiniteGroupTable.cyclic(n),
                                      representative=0, kind_tag="finite-class",
                                      label="e")
        comp = SectorComponent(
            handle, "full", FullComponentGeometry(12.566, 2), None, n)
        curv = ComponentCurvature(dimension=2, tangent_roots=("t",),
                                  integrals={"t": Fraction(2)})
        td = todd_form(curv, SX)
        assert orbifold_integrate(td, comp, curv, SX) == Fraction(1, n)
