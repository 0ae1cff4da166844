"""Heat lab: kernels, localized heat traces, orbital integrals."""

import math
from fractions import Fraction

import numpy as np
import pytest

from orbindex.errors import DomainError, ResolutionError, StructuralError
from orbindex.exactnum import Scalars
from orbindex.engine import localized_index
from orbindex.groups import AffineIsometry, CrystGroup
from orbindex import heat
from orbindex.heat import (
    QuadratureSpec,
    class_sum_tail_bound,
    g_heat_trace,
    heat_traces,
    mckean_singer_compare,
    orbital_integral_euclidean,
    t_independence,
)
from orbindex.sectors import (
    _bump_np,
    build_cutoff,
    cryst_fixed_classes,
    translation_class,
    wallpaper_model,
)

ROT = ((0, -1), (1, 0))


def make_p4():
    r = AffineIsometry.of(ROT, (0, 0))
    t1 = AffineIsometry.of(((1, 0), (0, 1)), (1, 0))
    return wallpaper_model(CrystGroup([[1, 0], [0, 1]], [r, t1]), "p4")


P4 = make_p4()
CLASSES = {c.label: c for c in cryst_fixed_classes(P4.group)}
QUAD = QuadratureSpec.for_model(P4, t_max=0.2, tolerance=1e-6)


class TestKernel:
    def test_nonpositive_time_rejected(self):
        with pytest.raises(DomainError):
            orbital_integral_euclidean(P4, CLASSES["r_origin"], 0.0, QUAD)

    def test_torus_model_rejected(self):
        from orbindex.sectors import square_torus_rotation_model

        model = square_torus_rotation_model(4, "e_z4")
        cls = {c.label: c.class_handle for c in model.sectors}["r1"]
        with pytest.raises(StructuralError):
            heat_traces(model, cls, [0.1], QUAD)

    def test_uniform_class_sum_bound(self):
        # sum over bounded-norm elements of |K_t(x, gx)| stays below the
        # explicit lattice Gaussian bound, uniformly over the cell
        t = 0.1

        def kernel(x, y):
            # the flat heat kernel of the unit square lattice
            d2 = (float(x[0]) - y[0]) ** 2 + (float(x[1]) - y[1]) ** 2
            return math.exp(-d2 / (4 * t)) / (4 * math.pi * t)

        pool = P4.group.elements_in_ball(Fraction(4))
        # explicit bound: (4 pi t)^{-1} * |P| * sum over the lattice window of
        # the worst-case Gaussian (distance shrunk by the cell diameter)
        lam_bound = 0.0
        for m in range(-5, 6):
            for n in range(-5, 6):
                d = max(max(abs(m), abs(n)) - 1, 0)
                lam_bound += math.exp(-d * d / (4 * t))
        bound = 4 * lam_bound / (4 * math.pi * t)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = tuple(rng.uniform(0, 1, size=2))
            total = 0.0
            for g in pool:
                gx = g.apply((Fraction(x[0]).limit_denominator(10 ** 6),
                              Fraction(x[1]).limit_denominator(10 ** 6)))
                total += kernel(gx, x)
            assert total <= bound


class TestQuadratureSpec:
    def test_tail_bound_below_tolerance_tenth(self):
        assert QUAD.tail_bound < 1e-6 / 10

    def test_tail_bound_monotone(self):
        b1 = class_sum_tail_bound(P4, 0.2, 4)
        b2 = class_sum_tail_bound(P4, 0.2, 8)
        assert b2 < b1

    def test_bound_dominates_doubling_effect(self):
        cls = CLASSES["r_origin"]
        small = QuadratureSpec(QUAD.resolution, 4, 1e-6,
                               class_sum_tail_bound(P4, 0.2, 4))
        big = QuadratureSpec(QUAD.resolution, 8, 1e-6,
                             class_sum_tail_bound(P4, 0.2, 8))
        v_small = g_heat_trace(P4, cls, 0.2, small)
        v_big = g_heat_trace(P4, cls, 0.2, big)
        assert abs(v_small - v_big) <= small.tail_bound


class TestHeatTrace:
    def test_rotation_classes_match_localized(self):
        for label in ("r2_edge", "r_origin", "r2_origin", "r_center"):
            cls = CLASSES[label]
            want = Scalars.to_complex(localized_index(P4, cls))
            got = g_heat_trace(P4, cls, 0.1, QUAD)
            assert abs(got - want) < 1e-6, label

    def test_translation_class_vanishes(self):
        cls = translation_class(P4.group, (Fraction(1), Fraction(0)))
        assert abs(g_heat_trace(P4, cls, 0.1, QUAD)) < 1e-12

    def test_identity_class_supertrace_cancels(self):
        assert abs(g_heat_trace(P4, CLASSES["e"], 0.1, QUAD)) < 1e-12

    def test_t_independence(self):
        rep = t_independence(P4, CLASSES["r2_edge"], [0.05, 0.1, 0.2], QUAD)
        assert rep.max_t_variation < 1e-6

    def test_t_independence_across_a_decade(self):
        quad = QuadratureSpec.for_model(P4, t_max=0.5, tolerance=1e-6, resolution=128)
        for label in ("r_origin", "r2_edge"):
            rep = t_independence(P4, CLASSES[label], [0.05, 0.15, 0.5], quad)
            assert rep.max_t_variation < 1e-6, label

    def test_truncated_radius_flagged_by_t_variation(self):
        # a deliberately tiny radius loses t-dependent tail mass
        bad = QuadratureSpec(128, 1, 1e-5, class_sum_tail_bound(P4, 0.4, 1))
        rep = t_independence(P4, CLASSES["r_origin"], [0.05, 0.4], bad)
        assert rep.max_t_variation > 1e-6

    def test_resolution_error_suggests_refinement(self):
        rough = QuadratureSpec(4, QUAD.truncation_radius, 1e-9, QUAD.tail_bound)
        with pytest.raises(ResolutionError) as info:
            g_heat_trace(P4, CLASSES["r_origin"], 0.002, rough)
        assert info.value.suggested_resolution == 16

    def test_cutoff_kind_independence(self):
        smooth = build_cutoff(P4, "smooth")
        for label in ("r_origin", "r2_edge"):
            v_i = g_heat_trace(P4, CLASSES[label], 0.1, QUAD)
            v_s = g_heat_trace(P4, CLASSES[label], 0.1, QUAD, cutoff=smooth)
            assert abs(v_i - v_s) < 1e-8

    def test_nonpositive_time_rejected(self):
        with pytest.raises(DomainError):
            g_heat_trace(P4, CLASSES["r_origin"], -0.1, QUAD)
        with pytest.raises(DomainError):
            heat_traces(P4, CLASSES["r_origin"], [0.1, 0.0], QUAD)

    def test_one_pass_equals_one_t_at_a_time(self):
        smooth = build_cutoff(P4, "smooth")
        for label, cutoff in (("r_center", None), ("r2_edge", smooth)):
            ts = [0.05, 0.1, 0.2]
            values = heat_traces(P4, CLASSES[label], ts, QUAD, cutoff)
            assert list(values) == ts
            for t in ts:
                assert values[t] == g_heat_trace(P4, CLASSES[label], t, QUAD, cutoff)

    def test_resolution_error_in_t_order(self):
        # the first t in the list that misses the tolerance decides the message
        rough = QuadratureSpec(4, QUAD.truncation_radius, 1e-9, QUAD.tail_bound)
        with pytest.raises(ResolutionError) as one:
            g_heat_trace(P4, CLASSES["r_origin"], 0.002, rough)
        with pytest.raises(ResolutionError) as many:
            heat_traces(P4, CLASSES["r_origin"], [0.002, 0.001], rough)
        assert str(many.value) == str(one.value)
        assert many.value.suggested_resolution == 16

    def test_error_estimate_gates_values_near_zero(self, monkeypatch):
        # coarse 2 tol and fine tol/2 extrapolate to 0 with error estimate 1.5 tol
        tol = QUAD.tolerance
        sums = iter([[2 * tol], [tol / 2]])
        monkeypatch.setattr(heat, "_midpoint_sums", lambda *args: next(sums))
        with pytest.raises(ResolutionError):
            heat_traces(P4, CLASSES["r_origin"], [0.1], QUAD)


def _cutoff_grid_windowed(cutoff, gx, gy):
    """Reference smooth cut-off: the periodized denominator summed over every
    lattice shift in a window around the points."""
    from orbindex.groups import mat_inv

    group = cutoff.group
    num = _bump_np(gx) * _bump_np(gy)
    total = np.zeros_like(gx)
    for a in group.point_parts:
        ainv = mat_inv(a)
        s = group.coset_vectors[a]
        vx, vy = gx - float(s[0]), gy - float(s[1])
        bx = float(ainv[0][0]) * vx + float(ainv[0][1]) * vy
        by = float(ainv[1][0]) * vx + float(ainv[1][1]) * vy
        for m in range(math.floor(bx.min()) - 2, math.floor(bx.max()) + 3):
            for k in range(math.floor(by.min()) - 2, math.floor(by.max()) + 3):
                total += _bump_np(bx - m) * _bump_np(by - k)
    return np.where(num > 0, num / np.where(total > 0, total, 1.0), 0.0)


def test_periodized_smooth_cutoff_matches_window_sum():
    rng = np.random.default_rng(3)
    gx, gy = rng.uniform(-1.5, 2.5, size=(2, 40, 40))
    for model in (P4, wallpaper_model(
            CrystGroup([[2, 1], [0, 3]], [AffineIsometry.of(((-1, 0), (0, -1)), (0, 0)),
                                          AffineIsometry.of(((1, 0), (0, 1)), (1, 0))]),
            "p2_lattice")):
        cutoff = build_cutoff(model, "smooth")
        want = _cutoff_grid_windowed(cutoff, gx, gy)
        assert np.max(np.abs(cutoff.grid(gx, gy) - want)) < 1e-14


class TestMcKeanSinger:
    def test_r2_edge(self):
        assert mckean_singer_compare(P4, CLASSES["r2_edge"], 0.1, QUAD) < 1e-6

    def test_r_origin(self):
        assert mckean_singer_compare(P4, CLASSES["r_origin"], 0.1, QUAD) < 1e-6

    def test_translation(self):
        cls = translation_class(P4.group, (Fraction(1), Fraction(0)))
        assert mckean_singer_compare(P4, cls, 0.1, QUAD) < 1e-12


class TestOrbitalIntegral:
    def test_rotation_matches_heat_trace(self):
        for label in ("r_origin", "r2_edge", "r2_origin"):
            cls = CLASSES[label]
            orb = orbital_integral_euclidean(P4, cls, 0.1, QUAD)
            trace = g_heat_trace(P4, cls, 0.1, QUAD)
            assert abs(orb - trace) < 1e-6

    def test_identity_vanishes(self):
        assert abs(orbital_integral_euclidean(P4, CLASSES["e"], 0.1, QUAD)) < 1e-12

    def test_translation_vanishes(self):
        cls = translation_class(P4.group, (Fraction(1), Fraction(0)))
        assert abs(orbital_integral_euclidean(P4, cls, 0.1, QUAD)) < 1e-12

    def test_equality_under_both_cutoff_kinds(self):
        smooth = build_cutoff(P4, "smooth")
        cls = CLASSES["r_origin"]
        orb = orbital_integral_euclidean(P4, cls, 0.1, QUAD)
        assert abs(orb - g_heat_trace(P4, cls, 0.1, QUAD)) < 1e-6
        assert abs(orb - g_heat_trace(P4, cls, 0.1, QUAD, cutoff=smooth)) < 1e-6
