"""Heat lab: kernels, localized heat traces, orbital integrals."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbindex.cli import FIXTURE_DIR, load_model
from orbindex.errors import DomainError, ResolutionError, StructuralError
from orbindex.exactnum import Scalars
from orbindex.engine import localized_index
from orbindex.groups import (
    IDENTITY_MAT, AffineIsometry, CrystGroup, mat_det, mat_inv, mat_sub, mat_vec,
)
from orbindex import heat, sectors
from orbindex.heat import (
    KERNEL_FLOOR,
    QuadratureSpec,
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


def make_p4(lattice=((1, 0), (0, 1)), shift=(0, 0)):
    r = AffineIsometry.of(ROT, shift)
    t1 = AffineIsometry.of(((1, 0), (0, 1)), (1, 0))
    return wallpaper_model(CrystGroup([list(row) for row in lattice], [r, t1]), "p4")


def make_p2(lattice=((1, 0), (0, 1)), shift=(0, 0)):
    half_turn = AffineIsometry.of(((-1, 0), (0, -1)), shift)
    t1 = AffineIsometry.of(((1, 0), (0, 1)), (1, 0))
    return wallpaper_model(CrystGroup([list(row) for row in lattice], [half_turn, t1]),
                           "p2_lattice")


P4 = make_p4()
CLASSES = {c.label: c for c in cryst_fixed_classes(P4.group)}
QUAD = QuadratureSpec.for_model(P4, t_max=0.2, tolerance=1e-6)
# rotation generators translated off the lattice points: the rotation centres
# and the translations of the class members are fractional
P4_SHIFT = make_p4(shift=(Fraction(1, 5), Fraction(2, 7)))
P2_SHIFT = make_p2(shift=(Fraction(1, 3), Fraction(1, 5)))


class TestKernel:
    def test_nonpositive_time_rejected(self):
        with pytest.raises(DomainError):
            orbital_integral_euclidean(P4, CLASSES["r_origin"], 0.0)

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

    @pytest.mark.parametrize("t", [100, 1e20])
    def test_time_beyond_the_reach_refused_before_enumeration(self, monkeypatch, t):
        # the quarter turn's centres would be searched beyond MAX_REACH lattice
        # units of the box: no tail bound, and no member is built
        monkeypatch.setattr(heat, "_members_in_reach", lambda *args: pytest.fail("enumerated"))
        assert heat._reach(P4.group, ROT, t) > heat.MAX_REACH
        assert heat.truncation_bound(P4, t) == math.inf
        with pytest.raises(ResolutionError, match="tail bound does not reach tolerance/10"):
            QuadratureSpec.for_model(P4, t)

    @pytest.mark.parametrize("model, label, t, kind", [
        (P4, "r_origin", 0.2, "indicator"),
        # fractional centres and translations
        (P2_SHIFT, "r_pt0", 0.005, "smooth"),
    ])
    def test_bound_dominates_doubling_effect(self, model, label, t, kind):
        # a spec for 4 t enumerates out to twice the floor's reach at t, yet
        # t sums the same prefix of members in the same order, so the value
        # does not move; the bound for 4 t covers t as well
        cls = {c.label: c for c in cryst_fixed_classes(model.group)}[label]
        cutoff = build_cutoff(model, kind)
        small = QuadratureSpec.for_model(model, t, 1e-6)
        big = QuadratureSpec.for_model(model, 4 * t, 1e-6)
        assert (len(heat._members_in_reach(cls, cutoff, 4 * t)[0])
                > len(heat._members_in_reach(cls, cutoff, t)[0]))
        v_small = g_heat_trace(model, cls, t, small, cutoff)
        assert g_heat_trace(model, cls, t, big, cutoff) == v_small
        assert small.tail_bound <= big.tail_bound < 1e-7


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
        quad = QuadratureSpec.for_model(P4, t_max=0.5, tolerance=1e-6)
        for label in ("r_origin", "r2_edge"):
            rep = t_independence(P4, CLASSES[label], [0.05, 0.15, 0.5], quad)
            assert rep.max_t_variation < 1e-6, label

    def test_truncated_radius_flagged_by_the_error_gate(self, monkeypatch):
        # a spec built for a t_max below the largest t enumerates too few
        # members for it, and its bound does not cover t: refused before any
        # member is built, whether the lost tail would part the two grid sums
        # (0.01 -> 0.4) or only move the value by 8e-7 (0.02 -> 0.1); the
        # spec for the largest t passes
        monkeypatch.setattr(heat, "_members_in_reach", lambda *args: pytest.fail("enumerated"))
        for t_max, ts, label in ((0.01, [0.05, 0.4], "r_origin"), (0.02, [0.1], "r_center")):
            bad = QuadratureSpec.for_model(P4, t_max, 1e-5)
            with pytest.raises(DomainError, match="exceeds the quadrature spec's t_max"):
                t_independence(P4, CLASSES[label], ts, bad)
        monkeypatch.undo()
        good = QuadratureSpec.for_model(P4, 0.4, 1e-5)
        assert t_independence(P4, CLASSES["r_origin"], [0.05, 0.4], good).max_t_variation < 1e-6

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
        # the first t in the list that misses the tolerance decides the message;
        # both times take n = 64, and each misses by its own estimate
        messages = {}
        for ts in ([1.5e-4], [1e-4], [1.5e-4, 1e-4]):
            with pytest.raises(ResolutionError) as info:
                heat_traces(P4, CLASSES["r_origin"], ts, QUAD)
            messages[len(ts), ts[0]] = str(info.value)
        assert messages[2, 1.5e-4] == messages[1, 1.5e-4] != messages[1, 1e-4]

    def test_time_below_grid_refused_before_summing(self, monkeypatch):
        # a Gaussian narrower than the finest spacing can fall between the
        # points of both grids: both sums 0, error estimate 0
        monkeypatch.setattr(heat, "_grid_sums", lambda *args: pytest.fail("summed"))
        with pytest.raises(ResolutionError) as info:
            heat_traces(P4, CLASSES["r_center"], [0.1, 1e-12, 1e-14], QUAD)
        assert "1.000e-12" in str(info.value)
        # the width is taken along the Gram matrix's stiffest direction: for
        # [[4, 2], [2, 10]], sqrt(4e-4 / 10.61) is below the fine spacing 1/128
        # and sqrt(4e-4 / 3.39) is not
        oblique = make_p2([[2, 1], [0, 3]])
        cls = {c.label: c for c in cryst_fixed_classes(oblique.group)}["r_center"]
        with pytest.raises(ResolutionError, match="below the grid"):
            heat_traces(oblique, cls, [4e-4], QUAD)

    def test_time_between_grid_spacings_left_to_the_error_gate(self):
        # sqrt(1e-4) lies between the fine spacing 1/128 and the coarse 1/64:
        # the fine grid resolves the Gaussian, and |fine - coarse| measures
        # what the coarse one misses
        with pytest.raises(ResolutionError, match="quadrature error estimate"):
            heat_traces(P4, CLASSES["r_center"], [1e-4], QUAD)

    def test_error_estimate_gates_values_near_zero(self, monkeypatch):
        # coarse 2 tol and fine tol/2: a value of tol/2 with error estimate 1.5 tol
        tol = QUAD.tolerance
        monkeypatch.setattr(heat, "_grid_sums", lambda *args: [(2 * tol, tol / 2)])
        with pytest.raises(ResolutionError):
            heat_traces(P4, CLASSES["r_origin"], [0.1], QUAD)


def _cutoff_grid_windowed(cutoff, gx, gy):
    """Reference smooth cut-off: the periodized denominator summed over every
    lattice shift in a window around the points."""
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
    for model in (P4, make_p2([[2, 1], [0, 3]])):
        cutoff = build_cutoff(model, "smooth")
        want = _cutoff_grid_windowed(cutoff, gx, gy)
        assert np.max(np.abs(cutoff.grid(gx, gy) - want)) < 1e-14


def _cutoff_grid_full(cutoff, gx, gy):
    """Reference smooth cut-off: every coefficient of A^{-1} applied, zeros
    included, at equal-shape arrays of points."""
    group = cutoff.group
    num = _bump_np(gx) * _bump_np(gy)
    total = np.zeros_like(gx)
    for a in group.point_parts:
        ainv = mat_inv(a)
        s = group.coset_vectors[a]
        vx, vy = gx - float(s[0]), gy - float(s[1])
        bx = float(ainv[0][0]) * vx + float(ainv[0][1]) * vy
        by = float(ainv[1][0]) * vx + float(ainv[1][1]) * vy
        total += sectors._periodized_bump(bx) * sectors._periodized_bump(by)
    return np.where(num > 0, num / np.where(total > 0, total, 1.0), 0.0)


# p4 on a sheared basis of the unit lattice: its quarter turn's inverse
# [[1, 2], [-1, -1]] mixes the two axes
SHEARED_P4 = wallpaper_model(CrystGroup(
    [[1, 1], [0, 1]], [AffineIsometry.of(((-1, -2), (1, 1)), (0, 0)),
                       AffineIsometry.of(((1, 0), (0, 1)), (1, 0))]), "p4_sheared")
GRID_MODELS = {
    "p4": P4,
    "p2": make_p2(),
    "p4_lattice_8I": make_p4([[2, -2], [2, 2]]),
    "p2_lattice_2_1_0_3": make_p2([[2, 1], [0, 3]]),
    "p4_sheared": SHEARED_P4,
}


@pytest.mark.parametrize("kind", ["indicator", "smooth"])
@pytest.mark.parametrize("name", sorted(GRID_MODELS))
def test_grid_on_axes_equals_grid_on_points(name, kind):
    # an axis column times an axis row gives the same bits as the flattened
    # meshgrid, midpoints and quarter points on and beyond the box alike
    cutoff = build_cutoff(GRID_MODELS[name], kind)
    lo, hi = cutoff.support
    xs = np.concatenate([lo + (hi - lo) * (np.arange(60) + 0.5) / 60,
                         np.linspace(lo - 0.25, hi + 0.25, 4 * (hi - lo) + 3)])
    ys = xs[::-1] + 1 / 7
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    on_axes = cutoff.grid(xs[:, None], ys[None, :])
    on_points = cutoff.grid(gx.ravel(), gy.ravel())
    assert on_axes.shape == gx.shape
    assert np.array_equal(on_axes.ravel(), on_points)
    if kind == "smooth":
        assert np.array_equal(on_points, _cutoff_grid_full(cutoff, gx.ravel(), gy.ravel()))


def _smooth_bump_sizes(monkeypatch, model, label):
    """Per grid size of `heat --t 0.1 --cutoff smooth` on the class, the
    number of points per axis of the one grid it builds, the 2n grid, and the
    sizes of the bumps it evaluates."""
    cls = {c.label: c for c in cryst_fixed_classes(model.group)}[label]
    quad = QuadratureSpec.for_model(model, 0.1)
    seen = []
    real_sums, real_bump = heat._grid_sums, sectors._bump_np

    def sums_spy(*args):
        seen.append((3 * 2 * args[-1], []))
        return real_sums(*args)

    def bump_spy(u):
        seen[-1][1].append(u.size)
        return real_bump(u)

    monkeypatch.setattr(heat, "_grid_sums", sums_spy)
    monkeypatch.setattr(sectors, "_bump_np", bump_spy)
    heat_traces(model, cls, [0.1], quad, build_cutoff(model, "smooth"))
    return seen


def test_smooth_cutoff_bumps_run_on_axis_vectors(monkeypatch):
    # p4 r_center as `heat --t 0.1 --cutoff smooth` runs it: per row block,
    # 2 bumps for the numerator and 3 per coordinate per point part, each on
    # at most one axis of n grid points, never on the rows x n block; t = 0.1
    # takes 8 points per unit, and the cut-off runs on the 16 per unit grid
    # alone, as the 8 per unit one is its sub-grid
    seen = _smooth_bump_sizes(monkeypatch, P4, "r_center")
    assert [n for n, _ in seen] == [48]
    for n, sizes in seen:
        blocks = -(-n // (heat.HEAT_BLOCK // n))
        assert len(sizes) == (2 + 4 * 2 * 3) * blocks
        assert max(sizes) <= n


def test_smooth_grid_on_sheared_p4_is_sized_by_t(monkeypatch):
    # the sheared quarter turn is no signed permutation, but it is integral
    # and maps the grid anchored at its centre onto itself, so the sheared
    # lattice takes the same small grid as the square one
    seen = _smooth_bump_sizes(monkeypatch, SHEARED_P4, "r_origin")
    assert [n for n, _ in seen] == [48]
    for n, sizes in seen:
        assert len(sizes) == (2 + 4 * 2 * 3) * -(-n // (heat.HEAT_BLOCK // n))


@pytest.mark.parametrize("t", [0.0036, 0.0139, 0.0363])
def test_smooth_grid_follows_the_tolerance(t):
    # a half turn's coarse sum misses by about exp(-(pi n w)^2): 1e-11 to 3e-9
    # at n w just above 1.4, which a tolerance of 1e-12 would refuse; the
    # grid grows until that estimate is below tolerance / 10
    quad = QuadratureSpec.for_model(P4, t, 1e-12)
    smooth = build_cutoff(P4, "smooth")
    n = heat._grid_size(P4, t, quad.tolerance)
    assert math.exp(-(math.pi * n * math.sqrt(t)) ** 2) <= quad.tolerance / 10
    want = Scalars.to_complex(localized_index(P4, CLASSES["r2_edge"]))
    assert abs(g_heat_trace(P4, CLASSES["r2_edge"], t, quad, smooth) - want) < 1e-13


# p2/p4 models on the unit lattice and on lattices with a non-scalar Gram
# matrix ([[2, 1], [0, 3]]) or a larger one ([[2, -2], [2, 2]], 8 I); p4 does
# not preserve the Gram matrix of [[2, 1], [0, 3]]
BOX_MODELS = (P4, make_p4([[2, -2], [2, 2]]), make_p2(), make_p2([[2, 1], [0, 3]]))


@settings(max_examples=200, deadline=None)
@given(model=st.sampled_from(BOX_MODELS), kind=st.sampled_from(["indicator", "smooth"]),
       data=st.data())
def test_box_min_d2_is_the_minimum_over_the_box(model, kind, data):
    # kappa dist_G(q, box)^2 for the centre q against the minimum of
    # |hx - x|^2_G over a fine grid of the box, formed from the affine map
    group = model.group
    rotations = [a for a in group.point_parts if a != IDENTITY_MAT]
    shift = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    members = []
    for a, (m, k) in data.draw(st.lists(st.tuples(st.sampled_from(rotations), shift),
                                        min_size=1, max_size=6)):
        s = group.coset_vectors[a]
        members.append(AffineIsometry.of(a, (s[0] + m, s[1] + k)))
    cutoff = build_cutoff(model, kind)
    lo, hi = cutoff.support
    # the rotation centres (I - A)^{-1} b, exactly
    centres = [mat_vec(mat_inv(mat_sub(IDENTITY_MAT, h.point_part)), h.translation)
               for h in members]
    dist2 = heat._box_dist2(group.gram, np.array(centres, dtype=float), lo, hi)
    gf = np.array(group.gram, dtype=float)
    xs = np.linspace(lo, hi, 241)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    for h, centre, d2 in zip(members, centres, dist2):
        a, b = h.point_part, h.translation
        d2_min = heat._kappa(a) * d2
        if all(lo <= c <= hi for c in centre):
            assert d2_min == 0.0
        dx = (a[0][0] - 1) * gx + a[0][1] * gy + float(b[0])
        dy = a[1][0] * gx + (a[1][1] - 1) * gy + float(b[1])
        grid_min = float(np.min(gf[0, 0] * dx * dx + 2 * gf[0, 1] * dx * dy
                                + gf[1, 1] * dy * dy))
        assert 0.0 <= d2_min <= grid_min * (1 + 1e-12) + 1e-12


def _members_around(cls, cutoff, t):
    """Centres (N x 2, float) of every member of a rotation class whose
    kernel reaches KERNEL_FLOOR on the cut-off box at t, and more: the
    members (A, (I - A) q) for the centres q = B p0 + s_B + lambda of the
    group's orbit of the representative's centre p0, over every lambda in a
    box beyond the floor's reach, as integers over one denominator."""
    group = cls.group
    a, rep = cls.representative.point_part, cls.representative.translation
    m = mat_sub(IDENTITY_MAT, a)
    p0 = mat_vec(mat_inv(m), rep)
    lo, hi = cutoff.support
    reach = math.ceil(heat._reach(group, a, t)) + 2
    starts = [tuple(x + y for x, y in zip(mat_vec(b, p0), s))
              for b, s in group.coset_vectors.items()]
    den = math.lcm(*(x.denominator for c in starts for x in c))
    qs = []
    for c in starts:
        axes = [np.arange(math.floor(lo - reach - x), math.ceil(hi + reach - x) + 1) + x
                for x in c]
        qx, qy = (np.array([int(v * den) for v in axis]) for axis in axes)
        qs.append(np.stack(np.broadcast_arrays(qx[:, None], qy[None, :]), axis=-1).reshape(-1, 2))
    return np.unique(np.concatenate(qs), axis=0) / den


def _heat_traces_unpruned(model, cls, ts, quad, cutoff, centres):
    """Reference heat traces: every member (A, b = (I - A) q) of the class for
    the rows q of centres, each over the whole fine grid by its affine map
    hx - x = (A - I) x + b, S_2n on the anchored grid as in heat_traces."""
    g = model.group.gram
    gf = np.array(g, dtype=float)
    vol = math.sqrt(float(abs(mat_det(g))))
    a = cls.representative.point_part
    tau = heat._supertrace_factor(model, a)
    m = np.array(mat_sub(IDENTITY_MAT, a), dtype=float)
    translations = centres @ m.T
    values = {}
    x0 = heat._grid_anchor(model.group)
    for t in ts:
        n = 2 * heat._grid_size(model, t, quad.tolerance)
        gx, gy = np.meshgrid(*heat._grid_axes(cutoff, x0, n), indexing="ij")
        c = cutoff.grid(gx, gy)
        total = 0j
        for b0, b1 in translations:
            dx = (a[0][0] - 1) * gx + a[0][1] * gy + b0
            dy = a[1][0] * gx + (a[1][1] - 1) * gy + b1
            d2 = gf[0, 0] * dx * dx + 2 * gf[0, 1] * dx * dy + gf[1, 1] * dy * dy
            total += tau * np.sum(c * np.exp(-d2 / (4 * t)))
        values[t] = total * vol / (n * n * 4 * math.pi * t)
    return values


THREE_T = [0.05, 0.1, 0.2]
PRUNE_CASES = {
    "p4_r_center_3t": (P4, "r_center", THREE_T, "indicator"),
    "p4_r_center_smooth": (P4, "r_center", [0.1], "smooth"),
    "p4_lattice_8I_r2_edge_3t": (make_p4([[2, -2], [2, 2]]), "r2_edge", THREE_T, "indicator"),
    "p2_lattice_2_1_0_3_r_center_3t": (make_p2([[2, 1], [0, 3]]), "r_center", THREE_T,
                                       "indicator"),
}


@pytest.mark.parametrize("case", sorted(PRUNE_CASES))
def test_pruned_sum_matches_every_member(case):
    model, label, ts, kind = PRUNE_CASES[case]
    cls = {c.label: c for c in cryst_fixed_classes(model.group)}[label]
    quad = QuadratureSpec.for_model(model, max(ts), 1e-6)
    cutoff = build_cutoff(model, kind)
    got = heat_traces(model, cls, ts, quad, cutoff)
    want = _heat_traces_unpruned(model, cls, ts, quad, cutoff,
                                 _members_around(cls, cutoff, 2 * max(ts)))
    for t in ts:
        assert abs(got[t] - want[t]) < 1e-13, t


@pytest.mark.parametrize("ts, kind, summed", [
    (THREE_T, "indicator", (69, [21, 37, 69])),
    ([0.1], "smooth", (69, [69])),
])
def test_members_summed_per_t(monkeypatch, ts, kind, summed):
    # p4 r_center as the CLI runs it: the members that reach 2^-60 on the
    # cut-off box at t_max are all built, and each t sums the prefix that
    # reaches it on both grids of its size, in one kernel call; the smooth
    # kind's box is larger
    seen = []
    real = heat._grid_sums

    def spy(cutoff, x0, tau, kappa, centres, kept, ts, n_per_unit):
        seen.append((len(centres), kept))
        return real(cutoff, x0, tau, kappa, centres, kept, ts, n_per_unit)

    monkeypatch.setattr(heat, "_grid_sums", spy)
    quad = QuadratureSpec.for_model(P4, max(ts), 1e-6)
    heat_traces(P4, CLASSES["r_center"], ts, quad, build_cutoff(P4, kind))
    assert seen == [summed]


P2 = make_p2()


@pytest.mark.parametrize("label", ["r_center", "r_edge", "r_edge2", "r_origin"])
def test_summed_members_are_those_that_reach_the_floor(monkeypatch, label):
    # p2 as `heat --cutoff smooth --t 0.1` runs it: the members summed are,
    # in order, the class members of a large group ball (by membership
    # tests) with d2_min <= 4 t ln(1/KERNEL_FLOOR), by their centres sorted
    # by d2_min and then by the centre
    t, radius = 0.1, 12
    cls = {c.label: c for c in cryst_fixed_classes(P2.group)}[label]
    cutoff = build_cutoff(P2, "smooth")
    ball = [h for h in P2.group.elements_in_ball(Fraction(radius)) if cls.contains(h)]
    assert all(h.point_part == ((-1, 0), (0, -1)) for h in ball)
    centres = np.array([[x / 2 for x in h.translation] for h in ball], dtype=float)
    # kappa = det(2 I) = 4 for the half turn
    d2_min = 4 * heat._box_dist2(P2.group.gram, centres, *cutoff.support)
    reach = [(d2, tuple(q)) for d2, q in zip(d2_min, centres)
             if d2 <= 4 * t * math.log(1 / KERNEL_FLOOR)]
    want = np.array([q for _, q in sorted(reach)])
    # the translations 2 q of the members wanted lie well inside the ball
    assert 2 * np.max(np.abs(want)) < radius - 2
    seen = []
    real = heat._grid_sums

    def spy(cutoff, x0, tau, kappa, centres, kept, ts, n_per_unit):
        seen.append(centres[:kept[0]])
        return real(cutoff, x0, tau, kappa, centres, kept, ts, n_per_unit)

    monkeypatch.setattr(heat, "_grid_sums", spy)
    heat_traces(P2, cls, [t], QuadratureSpec.for_model(P2, t), cutoff)
    assert len(seen) == 1
    for got in seen:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("t", [0.005, 0.1])
def test_translation_class_is_zero_without_members_or_grid(monkeypatch, t):
    # (I, (1, 0)) acts on the fiber by the identity, whose graded character
    # rank E+ - rank E- is 0: the class sums to 0 with no member enumeration
    # and no grid
    monkeypatch.setattr(heat, "_members_in_reach", lambda *args: pytest.fail("enumerated"))
    monkeypatch.setattr(heat, "_grid_sums", lambda *args: pytest.fail("summed"))
    cls = translation_class(P4.group, (Fraction(1), Fraction(0)))
    assert g_heat_trace(P4, cls, t, QuadratureSpec.for_model(P4, t, 1e-9)) == 0


def _dense_grid_sums(cutoff, x0, tau, kappa, centres, kept, ts, n_per_unit):
    """Reference grid sums, one per t, on the grid of size n alone: every
    member's d^2 at every point as one product of the member rows kappa (1,
    -2 G q, |q|^2_G) with the point monomials (|x|^2_G, x, y, 1), about the
    box's middle, and one exp per member per point."""
    gram = cutoff.group.gram
    g00, g01, g11 = (float(x) for x in (gram[0][0], gram[0][1], gram[1][1]))
    lo, hi = cutoff.support
    mid = (lo + hi) / 2
    qx, qy = (centres - mid).T
    wx, wy = g00 * qx + g01 * qy, g01 * qx + g11 * qy
    coef = kappa * np.stack([np.ones_like(qx), -2 * wx, -2 * wy, qx * wx + qy * wy], axis=1)
    xs, ys = heat._grid_axes(cutoff, x0, n_per_unit)
    gx, gy = (g.ravel() - mid for g in np.meshgrid(xs, ys, indexing="ij"))
    cvals = cutoff.grid(xs[:, None], ys[None, :]).ravel()
    monomials = np.stack([g00 * gx * gx + 2 * g01 * gx * gy + g11 * gy * gy,
                          gx, gy, np.ones_like(gx)])
    weight = tau * cutoff.group.torus.area * n_per_unit ** -2
    return [weight * float(np.sum(np.exp((coef[:m] @ monomials) * (-1.0 / (4 * t))) @ cvals))
            / (4 * math.pi * t) for m, t in zip(kept, ts)]


KERNEL_MODELS = {
    "p4": P4,
    "p2": make_p2(),
    "p4_sheared": SHEARED_P4,
    "p2_lattice_2_1_0_3": make_p2([[2, 1], [0, 3]]),
    "p4_lattice_8I": make_p4([[2, -2], [2, 2]]),
}
KERNEL_TIMES = (0.005, 0.05, 0.1, 0.2, 1.0)


@pytest.mark.parametrize("cross_limit", [heat.CROSS_LIMIT, 0.0], ids=["strips", "row_strips"])
@pytest.mark.parametrize("kind", ["indicator", "smooth"])
@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_separable_kernel_matches_the_dense_sum(monkeypatch, name, kind, cross_limit):
    # both sums of the separable kernel against one exp per member per point,
    # each on its own grid, for every rotation class and t, with each t's
    # kept prefix of the members enumerated for the largest t.  A cross limit
    # of 0 makes every row its own strip, on the diagonal lattices as well.
    # The coarse sum, read off every other point of the fine grid, also
    # equals the fine sum of the kernel at half the size
    monkeypatch.setattr(heat, "CROSS_LIMIT", cross_limit)
    model = KERNEL_MODELS[name]
    cutoff = build_cutoff(model, kind)
    x0 = heat._grid_anchor(model.group)
    rotations = [c.class_handle for c in model.sectors
                 if not c.class_handle.representative.is_translation]
    for cls in rotations:
        a = cls.representative.point_part
        tau, kappa = heat._supertrace_factor(model, a), heat._kappa(a)
        centres, d2_min = heat._members_in_reach(cls, cutoff, max(KERNEL_TIMES))
        for t in KERNEL_TIMES:
            kept = [int(np.count_nonzero(np.exp(d2_min / (-4 * t)) >= KERNEL_FLOOR))]
            n = heat._grid_size(model, t, 1e-6)
            [(coarse, fine)] = heat._grid_sums(cutoff, x0, tau, kappa, centres, kept, [t], n)
            [want_coarse] = _dense_grid_sums(cutoff, x0, tau, kappa, centres, kept, [t], n)
            [want_fine] = _dense_grid_sums(cutoff, x0, tau, kappa, centres, kept, [t], 2 * n)
            assert abs(coarse - want_coarse) < 1e-13, (cls.label, t)
            assert abs(fine - want_fine) < 1e-13, (cls.label, t)
            [(_, half_fine)] = heat._grid_sums(cutoff, x0, tau, kappa, centres, kept, [t], n // 2)
            assert abs(coarse - half_fine) < 1e-13, (cls.label, t)


def test_kernel_memory_is_bounded_by_the_block_on_the_largest_grid():
    # p4 smooth at t = 6e-4 takes n = 64, the largest grid heat forms: 384
    # points per axis on the fine grid, 147,456 in all.  The kernel's peak
    # allocation stays within eight arrays of HEAT_BLOCK floats, as the grid
    # is walked in row blocks and the members in chunks
    t = 6e-4
    cutoff = build_cutoff(P4, "smooth")
    assert heat._grid_size(P4, t, 1e-6) == heat.GRID_SIZES[-1]
    x0 = heat._grid_anchor(P4.group)
    for label in ("r_origin", "r_center", "r2_edge"):
        cls = CLASSES[label]
        a = cls.representative.point_part
        centres, _ = heat._members_in_reach(cls, cutoff, t)
        tracemalloc.start()
        try:
            heat._grid_sums(cutoff, x0, 1.0, heat._kappa(a), centres, [len(centres)], [t],
                            heat.GRID_SIZES[-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * heat.HEAT_BLOCK * 8, (label, peak)


TAIL_MODELS = {
    "p2_shift_1d3_1d5": P2_SHIFT,
    "p4_sheared": SHEARED_P4,
    "p2_lattice_2_1_0_3": make_p2([[2, 1], [0, 3]]),
    "p4_lattice_3I": make_p4([[3, 0], [0, 3]]),
}


@pytest.mark.parametrize("kind", ["indicator", "smooth"])
@pytest.mark.parametrize("name", sorted(TAIL_MODELS))
def test_truncation_bound_bounds_every_omitted_member(name, kind):
    # sum, per rotation class, |contribution| on the fine grid of every
    # member the floor leaves out at t, out to sqrt 2 times its reach
    # (beyond, each term is below 2^-120); the spec's one bound for t covers
    # it.  Far from the box on a large lattice the terms underflow to 0
    model = TAIL_MODELS[name]
    cutoff = build_cutoff(model, kind)
    x0 = heat._grid_anchor(model.group)
    rotations = [c.class_handle for c in model.sectors
                 if not c.class_handle.representative.is_translation]
    seen_positive = False
    for t in (0.005, 0.2, 1.0):
        quad = QuadratureSpec.for_model(model, t, 1e-6)
        n = heat._grid_size(model, t, quad.tolerance)
        for cls in rotations:
            a = cls.representative.point_part
            kappa = heat._kappa(a)
            around = _members_around(cls, cutoff, 2 * t)
            d2_min = kappa * heat._box_dist2(model.group.gram, around, *cutoff.support)
            kept = np.exp(d2_min / (-4 * t)) >= KERNEL_FLOOR
            assert kept.sum() == len(heat._members_in_reach(cls, cutoff, t)[0])
            omitted = ~kept & (d2_min <= 8 * t * math.log(1 / KERNEL_FLOOR))
            tau = abs(heat._supertrace_factor(model, a))
            # the fine sum S_2n of the kernel at size n
            total = heat._grid_sums(cutoff, x0, tau, kappa, around[omitted],
                                    [int(omitted.sum())], [t], n)[0][1].real
            assert total <= quad.tail_bound, (cls.label, t)
            seen_positive |= total > 0
    assert seen_positive


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
            orb = orbital_integral_euclidean(P4, cls, 0.1)
            trace = g_heat_trace(P4, cls, 0.1, QUAD)
            assert abs(orb - trace) < 1e-12

    def test_identity_vanishes(self):
        assert abs(orbital_integral_euclidean(P4, CLASSES["e"], 0.1)) < 1e-12

    def test_translation_vanishes(self):
        cls = translation_class(P4.group, (Fraction(1), Fraction(0)))
        assert abs(orbital_integral_euclidean(P4, cls, 0.1)) < 1e-12

    def test_equality_under_both_cutoff_kinds(self):
        smooth = build_cutoff(P4, "smooth")
        cls = CLASSES["r_origin"]
        orb = orbital_integral_euclidean(P4, cls, 0.1)
        assert abs(orb - g_heat_trace(P4, cls, 0.1, QUAD)) < 1e-12
        assert abs(orb - g_heat_trace(P4, cls, 0.1, QUAD, cutoff=smooth)) < 1e-12


CLOSED_FORM_MODELS = {
    "p4_lattice_3I": make_p4([[3, 0], [0, 3]]),
    "p4_lattice_2_-1_1_2": make_p4([[2, -1], [1, 2]]),
    "p2_lattice_2_0_0_3": make_p2([[2, 0], [0, 3]]),
    "p2_lattice_2_1_0_3": make_p2([[2, 1], [0, 3]]),
    "p4_sheared": SHEARED_P4,
}


@pytest.mark.parametrize("name", ["p4", "p2", "p4_spinc"] + sorted(CLOSED_FORM_MODELS))
def test_orbital_integral_is_the_localized_index_at_every_t(name):
    # tau(A) / (|Z_Gamma(g)| det(I - A)) shares no code with the sector sum,
    # and holds from a Gaussian far below any grid to one far wider than the cell
    model = CLOSED_FORM_MODELS.get(name) or load_model(FIXTURE_DIR / f"{name}.json")
    rotations = [c.class_handle for c in model.sectors
                 if not c.class_handle.representative.is_identity]
    assert rotations
    for cls in rotations:
        want = Scalars.to_complex(localized_index(model, cls))
        for t in (1e-12, 0.1, 1e3):
            assert abs(orbital_integral_euclidean(model, cls, t) - want) < 1e-15, (cls.label, t)


ANCHOR_MODELS = {
    "p4_sheared": SHEARED_P4,
    "p4_shift_1d5_2d7": P4_SHIFT,
    "p2_shift_1d3_1d5": P2_SHIFT,
}


@pytest.mark.parametrize("kind", ["indicator", "smooth"])
@pytest.mark.parametrize("name", sorted(ANCHOR_MODELS))
def test_anchored_grid_is_gamma_invariant(name, kind):
    # exactly: at every listed n, each coset element (A, s_A) maps every
    # point of the anchored grid onto x0 + (Z/n)^2, and the float axes are
    # those points
    model = ANCHOR_MODELS[name]
    group, cutoff = model.group, build_cutoff(model, kind)
    lo, hi = cutoff.support
    x0 = heat._grid_anchor(group)
    for n in heat.GRID_SIZES:
        axes = [[lo + (x - lo) % Fraction(1, n) + Fraction(k, n) for k in range((hi - lo) * n)]
                for x in x0]
        for got, want in zip(heat._grid_axes(cutoff, x0, n), axes):
            assert np.max(np.abs(got - np.array(want, dtype=float))) <= 1e-15
            assert lo <= min(want) and max(want) < hi
        # the points as integers over a common denominator d
        d = math.lcm(n, *(x.denominator for x in x0),
                     *(x.denominator for s in group.coset_vectors.values() for x in s))
        px, py = np.meshgrid(*([int(p * d) for p in axis] for axis in axes), indexing="ij")
        for a, s in group.coset_vectors.items():
            qx = a[0][0] * px + a[0][1] * py + int(s[0] * d) - int(x0[0] * d)
            qy = a[1][0] * px + a[1][1] * py + int(s[1] * d) - int(x0[1] * d)
            assert not np.any(qx % (d // n)) and not np.any(qy % (d // n)), (a, n)


HEAT_RULE_MODELS = {
    "p4_lattice_3I": make_p4([[3, 0], [0, 3]]),
    "p2_lattice_2_1_0_3": make_p2([[2, 1], [0, 3]]),
    "p4_sheared": SHEARED_P4,
    "p4_shift_1d5_2d7": P4_SHIFT,
    "p2_shift_1d3_1d5": P2_SHIFT,
}


@pytest.mark.parametrize("kind", ["indicator", "smooth"])
@pytest.mark.parametrize("t_values", [pytest.param([0.005], id="t0.005"),
                                      pytest.param(THREE_T, id="three_t")])
@pytest.mark.parametrize("name", ["p4", "p2", "p4_spinc"] + sorted(HEAT_RULE_MODELS))
def test_heat_is_the_localized_index(name, t_values, kind):
    # S_2n on the anchored grid sized by t, as `heat` computes it for either
    # cut-off kind, at a Gaussian far narrower than the cell and at the
    # default times
    model = HEAT_RULE_MODELS.get(name) or load_model(FIXTURE_DIR / f"{name}.json")
    quad = QuadratureSpec.for_model(model, max(t_values))
    cutoff = build_cutoff(model, kind)
    for comp in model.sectors:
        cls = comp.class_handle
        if cls.representative.is_identity:
            continue
        want = Scalars.to_complex(localized_index(model, cls))
        for t, got in heat_traces(model, cls, t_values, quad, cutoff).items():
            assert abs(got - want) < 1e-13, (cls.label, t)
