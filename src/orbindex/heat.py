"""Numerical heat-kernel verification on flat plane models.

Only models whose action is a CrystGroup are heat-verified: on the plane the
heat kernel is the exact Gaussian (4 pi t)^{-n/2} e^{-d^2/4t} with identity
fiber transport, so quadrature checks the index identities without curved
parametrices.  A rotation member h = (A, (I - A) q) is the Gaussian about its
centre q, |hx - x|^2_G = kappa |x - q|^2_G with kappa = det(I - A), and
`groups.rotation_centre` solves every centre a class or grid needs.  At each
t exactly the members whose kernel reaches 2^-60 on the cut-off box are
summed; their centres are enumerated out to that reach at the largest t, and
one closed-form lattice Gaussian tail bound covers the rest.  Both cut-off
kinds take the finer of two sums, on the grids x0 + (Z/n)^2 and x0 +
(Z/2n)^2 with n sized by t, anchored at a rotation centre x0 so that the
group maps them onto themselves; the cut-off drops out of such a sum, the
spectrally convergent periodic rule of the Gamma-invariant class sum.  Only
the 2n grid is built, as the n grid is its sub-grid of every other point, and
on it each member's Gaussian is separable: a row factor and a column factor
per member and one cross factor shared by all, so a sum takes exponentials
per row and per column, not per point.  A t whose Gaussian is narrower than
the finest grid's spacing, and two sums further apart than the tolerance,
raise.  A class with no rotation has fiber supertrace 0, so it needs no grid,
and neither does the Euclidean orbital integral, tau(A) / (|Z_Gamma(g)|
kappa) at every t.  The kernel is untwisted, so a model with a twist is
refused.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .char import deloc_chern
from .errors import DomainError, ResolutionError, StructuralError
from .exactnum import Scalars
from .groups import (
    ConjugacyClassHandle,
    CrystGroup,
    IDENTITY_MAT,
    mat_det,
    mat_sub,
    orbit_split,
    rotation_centre,
)
from .sectors import (
    CutoffFunction,
    QuotientModel,
    build_cutoff,
    class_components,
)

FLOAT = Scalars("float")


# ---------------------------------------------------------------------------
# Quadrature specification: the kernel floor's reach and its tail bound
# ---------------------------------------------------------------------------

# A member is summed at time t only if its kernel exp(-|hx - x|^2 / 4t)
# reaches this fraction of its peak somewhere on the cut-off box.
KERNEL_FLOOR = 2.0 ** -60
LOG_FLOOR = -math.log(KERNEL_FLOOR)

# Rotation centres are searched at most this far from the box, in lattice units.
MAX_REACH = 48


@dataclass
class QuadratureSpec:
    t_max: float
    tolerance: float
    tail_bound: float

    @staticmethod
    def for_model(model: QuotientModel, t_max: float,
                  tolerance: float = 1e-6) -> "QuadratureSpec":
        """The spec for times up to t_max: each class's members are enumerated
        out to the kernel floor's reach at t_max, and truncation_bound, which
        covers every time up to t_max, must be below tolerance/10."""
        bound = truncation_bound(model, t_max)
        if not bound < tolerance / 10:
            raise ResolutionError("tail bound does not reach tolerance/10")
        return QuadratureSpec(t_max, tolerance, bound)


def _gram_eigs(group: CrystGroup) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the lattice Gram matrix, or a
    DomainError when they are not finite positive floats."""
    g = group.gram
    try:
        a, b, c = float(g[0][0]), float(g[0][1]), float(g[1][1])
    except OverflowError:
        a = b = c = math.inf
    tr, det = a + c, a * c - b * b
    root = math.sqrt(max(tr * tr - 4 * det, 0.0))
    lo, hi = (tr - root) / 2, (tr + root) / 2
    if not 0 < lo <= hi < math.inf:
        raise DomainError("heat needs a lattice whose Gram eigenvalues are finite positive floats")
    return lo, hi


def _kappa(a) -> int:
    """det(I - A), 1 to 4 for a rotation and 0 for A = I: a member h = (A, (I -
    A) q) has |hx - x|^2_G = kappa |x - q|^2_G, as A is a G-isometry."""
    return int(mat_det(mat_sub(IDENTITY_MAT, a)))


def _reach(group: CrystGroup, a, t: float) -> float:
    """The largest sup-norm distance from the box of the centre q of a member h
    that reaches the floor at t: kappa |x - q|^2_G <= 4 t ln(1/floor), and
    |v|_G >= sqrt(lambda_min) |v|_sup."""
    return math.sqrt(4 * t * LOG_FLOOR / (_kappa(a) * _gram_eigs(group)[0]))


def truncation_bound(model: QuotientModel, t: float) -> float:
    """Upper bound for the total |contribution| of the members the kernel floor
    leaves out, for any class of the model, either cut-off kind and every time
    up to t; inf when a rotation's reach at t exceeds MAX_REACH.

    With 0 <= c <= 1 on the convex box K (the smooth kind's, which holds the
    indicator's), a rotation member about q contributes at most
    |tau| erfc(d sqrt(s)) / 2 kappa, its Gaussian's mass beyond a line at
    d = dist_G(q, K), s = kappa / 4t.  The centres lie on at most |P| lattice
    cosets, each with at most a0 + a1 r + a2 r^2 points within r of K
    (Steiner: area(K + disc(r + rho)) / vol, rho a cell's circumradius).  The
    members left out have d > R, s R^2 = ln(1/floor); integrating by parts
    from R gives the closed form below, which grows with t.  A class with no
    rotation has tau = 0 and leaves nothing out, so a model without a rotation
    has bound 0."""
    if not isinstance(model.group, CrystGroup):
        raise StructuralError("heat verification supports flat plane models only")
    if model.bundle.twist_degree:
        raise StructuralError("$.bundle.twistDegree: heat verification takes no twist, "
                              "as its kernel is the untwisted Gaussian")
    group: CrystGroup = model.group
    lam_min = _gram_eigs(group)[0]
    g00, g01, g11 = (float(x) for x in (group.gram[0][0], group.gram[0][1], group.gram[1][1]))
    vol = group.torus.area
    lo, hi = CutoffFunction("smooth", group).support
    perimeter = 2 * (hi - lo) * (math.sqrt(g00) + math.sqrt(g11))
    rho = math.sqrt(g00 + g11 + 2 * abs(g01)) / 2
    a0 = ((hi - lo) ** 2 * vol + perimeter * rho + math.pi * rho ** 2) / vol
    a1 = (perimeter + 2 * math.pi * rho) / vol
    a2 = math.pi / vol
    erfc_floor = math.erfc(math.sqrt(LOG_FLOOR))
    bounds = []
    for a in group.point_parts:
        if a == IDENTITY_MAT:
            continue
        tau = abs(_supertrace_factor(model, a))
        reach = _reach(group, a, t)
        if reach > MAX_REACH:
            return math.inf
        s = _kappa(a) / (4 * t)
        tail = ((a0 + a2 / (2 * s)) * erfc_floor
                + (a1 + a2 * math.sqrt(lam_min) * reach) * KERNEL_FLOOR / math.sqrt(math.pi * s))
        bounds.append(tau * group.point_group_order * tail / (8 * t * s))
    return max(bounds, default=0.0)


# ---------------------------------------------------------------------------
# Localized heat traces
# ---------------------------------------------------------------------------

# Grid points per row block, and entries per member x row or member x column
# array, in the heat pass; bounds its memory whatever the class and grid size.
HEAT_BLOCK = 1 << 15


@dataclass
class HeatTraceReport:
    per_t: dict                      # t -> complex value
    truncation_bound: float
    max_t_variation: float


def g_heat_trace(model: QuotientModel, cls: ConjugacyClassHandle, t: float,
                 quad: QuadratureSpec, cutoff: Optional[CutoffFunction] = None) -> complex:
    """Localized heat supertrace by quadrature at one t; see heat_traces."""
    return heat_traces(model, cls, [t], quad, cutoff)[t]


def heat_traces(model: QuotientModel, cls: ConjugacyClassHandle, t_list: Sequence[float],
                quad: QuadratureSpec, cutoff: Optional[CutoffFunction] = None) -> dict:
    """Localized heat supertraces by quadrature, t -> value for every t in t_list.

    Sums, over the members of the class, the integrals of c(x) Tr_s[h^{-1}
    K_t(hx, x)]; with identity transport the supertrace factors into the fiber
    eigen-character tau, one per class, times the scalar Gaussian.  A rotation
    class's centres are those of _members_in_reach for the spec's t_max, built
    once; at time t the prefix with exp(-d2_min / 4t) >= KERNEL_FLOOR, exactly
    the members that reach the floor, is summed.  The grid anchor x0 is solved
    once per call.  The times that share a grid size are accumulated in one
    pass of _grid_sums, the separable kernel, over the one grid it builds, at
    2n: each t takes the grid sums S_n, S_2n at n = _grid_size per unit on
    the grids of _grid_axes, for either cut-off kind, and is valued S_2n.  A t
    above t_max, whose members were not all enumerated, or below the grid
    raises before any sum, and |S_2n - S_n| above the tolerance after.
    """
    if not isinstance(model.group, CrystGroup):
        raise StructuralError("heat verification supports flat plane models only")
    if any(t <= 0 for t in t_list):
        raise DomainError("heat time must be positive")
    if any(t > quad.t_max for t in t_list):
        raise DomainError(f"heat time {max(t_list):.3e} exceeds the quadrature spec's "
                          f"t_max {quad.t_max:.3e}")
    cutoff = cutoff or build_cutoff(model, "indicator")
    ts = list(dict.fromkeys(t_list))
    a = cls.representative.point_part
    tau = _supertrace_factor(model, a)
    if not tau:
        # every class with no rotation: its fiber supertrace is 0
        return {t: 0j for t in ts}
    centres, d2_min = _members_in_reach(cls, cutoff, quad.t_max)
    sizes = {t: _grid_size(model, t, quad.tolerance) for t in ts}
    # every grid point lies in the box, so one count per t serves every grid;
    # exp is monotone, so the kept members are a prefix
    kept = {t: int(np.count_nonzero(np.exp(d2_min * (-1.0 / (4 * t))) >= KERNEL_FLOOR))
            for t in ts}
    x0 = _grid_anchor(model.group)
    sums = {}
    for n in dict.fromkeys(sizes.values()):
        batch = [t for t in ts if sizes[t] == n]
        sums.update(zip(batch, _grid_sums(cutoff, x0, tau, _kappa(a), centres,
                                          [kept[t] for t in batch], batch, n)))
    for t in ts:
        err = abs(sums[t][1] - sums[t][0])
        if err > quad.tolerance:
            raise ResolutionError(f"quadrature error estimate {err:.3e} exceeds tolerance")
    return {t: sums[t][1] for t in ts}


def _members_in_reach(cls: ConjugacyClassHandle, cutoff: CutoffFunction,
                      t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """The centres q, as rows (N x 2), of the members h = (A, (I - A) q) of a
    rotation class with exp(-d2_min(h) / 4 t_max) >= KERNEL_FLOOR, and their
    d2_min = kappa dist_G(q, box)^2, the minimum of |hx - x|^2_G over the
    cut-off box; sorted by d2_min, then by the centre.

    Conjugation by (B, s_B + lambda) moves the centre p0 of the representative
    to B p0 + s_B + lambda, so each point of the P-orbit of p0 mod Z^2 is
    searched once, in integers over one denominator, over the lambda that put
    the centre within _reach of the box.
    """
    group: CrystGroup = cls.group
    a, t = cls.representative.point_part, cls.representative.translation
    p0 = rotation_centre(a, t)
    lo, hi = cutoff.support
    reach = _reach(group, a, t_max) + 1
    torus = group.torus
    den = math.lcm(torus.den, p0[0].denominator, p0[1].denominator)
    x0 = tuple(x.numerator * (den // x.denominator) % den for x in p0)
    [(_, cosets)] = orbit_split([x0], torus.pairs_over(den), den)
    qs = []
    for p in cosets:
        axes = [x + den * np.arange(math.ceil(lo - reach - x / den),
                                    math.floor(hi + reach - x / den) + 1)
                for x in p]
        qs.append(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2))
    q = np.concatenate(qs)
    d2_min = _kappa(a) * _box_dist2(group.gram, q / den, lo, hi)
    keep = np.exp(d2_min * (-1.0 / (4 * t_max))) >= KERNEL_FLOOR
    q, d2_min = q[keep], d2_min[keep]
    order = np.lexsort((q[:, 1], q[:, 0], d2_min))
    return q[order] / den, d2_min[order]


# Grid sizes per unit, coarsest first.
GRID_SIZES = (8, 12, 16, 24, 32, 48, 64)


def _grid_size(model: QuotientModel, t: float, tolerance: float) -> int:
    """Grid size per unit at t: the smallest listed n with n w >= 1.4 and
    exp(-(pi n w)^2) <= tolerance/10, w = sqrt(t / lambda_max(G)), else the
    largest.  The grid of _grid_axes is Gamma-invariant, so its sum of c F is
    the periodic rule of the Gamma-invariant class sum F, as c is a partition
    of unity: the sum at n aliases F's Fourier modes at n k, k != 0, down by
    exp(-(pi n w)^2), and c drops out.  A w, the kernel's scale along the
    stiffest direction, below the finest spacing 1 / 128 could fall between
    the points of both grids and pass the error gate as 0, so it raises."""
    width = math.sqrt(t / _gram_eigs(model.group)[1])
    finest = 2 * GRID_SIZES[-1]
    if finest * width < 1:
        raise ResolutionError(
            f"heat time {t:.3e} is below the grid: Gaussian width {width:.3e} "
            f"under the fine spacing {1 / finest:.3e}")
    reach = max(1.4, math.sqrt(max(math.log(10 / tolerance), 0.0)) / math.pi)
    return next((n for n in GRID_SIZES if n * width >= reach), GRID_SIZES[-1])


def _grid_anchor(group: CrystGroup) -> tuple[Fraction, Fraction]:
    """x0 = (I - A)^-1 s_A, the fixed point of the point-group generator
    (A, s_A), A the point part of largest order; only rotation classes are
    summed on a grid, so the point group has one.  The point group is cyclic
    and the translations are exactly Z^2, so every element is a power of
    (A, s_A) times a lattice translation and maps x0 + (Z/n)^2 onto itself
    for every n."""
    a = max(group.point_parts, key=lambda a: group.torus.turns[a].denominator)
    return rotation_centre(a, group.coset_vectors[a])


def _grid_axes(cutoff: CutoffFunction, x0, n_per_unit: int) -> list[np.ndarray]:
    """The grid x0 + (Z/n)^2 in the cut-off box [lo, hi)^2, one axis per
    coordinate: the (hi - lo) n points lo + ((x0_i - lo) mod 1/n) + k/n, a
    whole number of periods, each point in the closed box."""
    lo, hi = cutoff.support
    steps = np.arange((hi - lo) * n_per_unit) / n_per_unit
    return [lo + float((x - lo) % Fraction(1, n_per_unit)) + steps for x in x0]


def _box_dist2(gram, q: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Per row q, dist_G(q, box)^2, the minimum of |x - q|^2_G over the closed
    box [lo, hi]^2: 0 when q lies in the box, and otherwise on an edge, where
    |x - q|^2_G is a parabola minimised at its vertex clamped to the edge."""
    g00, g01, g11 = (float(x) for x in (gram[0][0], gram[0][1], gram[1][1]))
    qx, qy = q.T

    def d2(x, y):
        dx, dy = x - qx, y - qy
        return g00 * dx * dx + 2 * g01 * dx * dy + g11 * dy * dy

    edges = []
    for e in (lo, hi):
        edges.append(d2(e, np.clip(qy - g01 * (e - qx) / g11, lo, hi)))
        edges.append(d2(np.clip(qx - g01 * (e - qy) / g00, lo, hi), e))
    inside = (lo <= qx) & (qx <= hi) & (lo <= qy) & (qy <= hi)
    return np.where(inside, 0.0, np.min(edges, axis=0))


# The largest |cross exponent| 2 s kappa g01 |delta_i Y_j| a row strip of the
# separable kernel may reach; strips are narrowed to keep below it.
CROSS_LIMIT = 40.0


def _grid_sums(cutoff: CutoffFunction, x0, tau: complex, kappa: int, centres: np.ndarray,
               kept: list, ts: list, n_per_unit: int) -> list[tuple[complex, complex]]:
    """(S_n, S_2n) per t: the sums of tau sum_h c(x) k_t(hx, x) over the grids
    of _grid_axes anchored at x0 at sizes n and 2n, for the members about the
    rows of centres.

    The members come sorted by their box minimum of d^2, and at the k-th t only
    the first kept[k] are summed; truncation_bound covers the rest.  Only the
    2n grid is built, and the cut-off is evaluated once on it, per row block
    of at most HEAT_BLOCK points on its axis vectors (the rows as a column,
    the axis as a row).  The n grid is its sub-grid of every other point,
    starting on each axis at the parity read off the exact anchor.

    About the box's middle, with points (X_i, Y_j) and a row strip of centre
    Xc, X_i = Xc + delta_i, the exponent -s kappa |x - q|^2_G, s = 1/4t,
    splits into a row factor per member, -s kappa (g00 (X_i - qx)^2 - 2 g01
    delta_i qy), a column factor per member, -s kappa (2 g01 (Xc - qx) (Y_j -
    qy) + g11 (Y_j - qy)^2), and a cross factor -2 s kappa g01 delta_i Y_j
    shared by every member.  A member's strip sum is then one product, rows @
    (c o cross) . columns, and takes exponentials per row and per column, not
    per point.  Strips are narrow enough that |cross exponent| < CROSS_LIMIT
    (a diagonal Gram matrix gives one per block); each member's row factor is
    divided by its maximum over the strip and its column factor multiplied by
    it, so no factor overflows, and a factor that underflows only drops terms
    far below the kernel floor.  Members are taken in chunks so that no array
    exceeds HEAT_BLOCK entries.
    """
    gram = cutoff.group.gram
    g00, g01, g11 = (float(x) for x in (gram[0][0], gram[0][1], gram[1][1]))
    lo, hi = cutoff.support
    mid = (lo + hi) / 2
    fine = 2 * n_per_unit
    xs, ys = _grid_axes(cutoff, x0, fine)
    # the n grid's points are the 2n grid's with indices p, p + 2, ... on each axis
    px, py = (math.floor((x - lo) * fine) % 2 for x in x0)
    big_x, big_y = xs - mid, ys - mid
    qx, qy = (centres - mid).T
    rows = max(1, HEAT_BLOCK // ys.size)
    # the cross exponent grows by at most this per row of a strip, at s kappa = 1
    spread = abs(g01) * float(np.max(np.abs(big_y))) / fine
    sums = np.zeros((len(ts), 2))
    for r0 in range(0, xs.size, rows):
        cvals = cutoff.grid(xs[r0:r0 + rows, None], ys[None, :])
        block_x = big_x[r0:r0 + rows]
        for k, (t, m) in enumerate(zip(ts, kept)):
            sk = kappa / (4 * t)
            height = _strip_height(sk * spread, block_x.size)
            chunk = max(1, HEAT_BLOCK // max(ys.size, height))
            for s0 in range(0, block_x.size, height):
                strip_x = block_x[s0:s0 + height]
                mid_x = (strip_x[0] + strip_x[-1]) / 2
                delta = strip_x - mid_x
                weights = cvals[s0:s0 + height]
                if g01:
                    weights = weights * np.exp(np.outer(delta * (-2 * sk * g01), big_y))
                coarse_rows = slice((px - r0 - s0) % 2, None, 2)
                coarse_weights = weights[coarse_rows, py::2]
                for c0 in range(0, m, chunk):
                    cx, cy = qx[c0:min(c0 + chunk, m), None], qy[c0:min(c0 + chunk, m), None]
                    dx = strip_x - cx
                    row_exp = (-sk) * (g00 * dx * dx - 2 * g01 * delta * cy)
                    row_max = row_exp.max(axis=1, keepdims=True)
                    row = np.exp(row_exp - row_max)
                    dy = big_y - cy
                    col = np.exp((-sk) * (2 * g01 * (mid_x - cx) * dy + g11 * dy * dy) + row_max)
                    sums[k, 1] += np.vdot(row @ weights, col)
                    sums[k, 0] += np.vdot(row[:, coarse_rows] @ coarse_weights, col[:, py::2])
    area = cutoff.group.torus.area
    return [tuple(tau * area * float(v) / (size * size * 4 * math.pi * t)
                  for v, size in zip(pair, (n_per_unit, fine)))
            for pair, t in zip(sums, ts)]


def _strip_height(spread: float, rows: int) -> int:
    """Rows per strip of a block of `rows`: the most h with spread h <
    CROSS_LIMIT, which bounds the strip's |cross exponent|, and at least 1."""
    if spread * rows < CROSS_LIMIT:
        return rows
    return max(1, math.ceil(CROSS_LIMIT / spread) - 1) if spread else 1


def _supertrace_factor(model: QuotientModel, point_part) -> complex:
    return _turn_supertrace(model.group.torus.turns[point_part])


@functools.cache
def _turn_supertrace(turns: Fraction) -> complex:
    """The untwisted fiber supertrace tau of a rotation by `turns`, a pure
    function of the turn."""
    return Scalars.to_complex(deloc_chern(turns, Fraction(0), FLOAT))


def t_independence(model: QuotientModel, cls: ConjugacyClassHandle,
                   t_list: Sequence[float], quad: QuadratureSpec,
                   cutoff: Optional[CutoffFunction] = None) -> HeatTraceReport:
    """Max pairwise deviation of the localized heat trace across t values."""
    values = heat_traces(model, cls, t_list, quad, cutoff)
    vs = list(values.values())
    deviation = max((abs(a - b) for a in vs for b in vs), default=0.0)
    return HeatTraceReport(values, quad.tail_bound, deviation)


def mckean_singer_compare(model: QuotientModel, cls: ConjugacyClassHandle,
                          t: float, quad: QuadratureSpec,
                          cutoff: Optional[CutoffFunction] = None) -> float:
    """|heat trace - localized index| at one t."""
    from .engine import localized_index

    heat = g_heat_trace(model, cls, t, quad, cutoff)
    ind = Scalars.to_complex(localized_index(model, cls))
    return abs(heat - ind)


# ---------------------------------------------------------------------------
# Euclidean orbital integrals
# ---------------------------------------------------------------------------

def orbital_integral_euclidean(model: QuotientModel, cls: ConjugacyClassHandle,
                               t: float) -> complex:
    """vol(Z_G(g)/Z_Gamma(g)) times the integral of the kernel over the
    conjugation orbit, in the Lebesgue-times-counting Haar normalization.

    For a rotation class the coset space is parametrized by the rotation
    center u, and the integral is exact: h_u(0) = (I - A) u, so
    vol (4 pi t)^-1 int exp(-|(I - A) u|^2_G / 4t) du = 1 / det(I - A) and
    the value is tau(A) / (|Z_Gamma(g)| det(I - A)) at every t (the Gaussian
    integral behind Atiyah-Bott).  For the identity and the translations the
    graded fiber character, rank E+ - rank E- = 0, kills the integrand.
    """
    if t <= 0:
        raise DomainError("heat time must be positive")
    if not isinstance(model.group, CrystGroup):
        raise StructuralError("orbital integrals need a crystallographic plane model")
    g = cls.representative

    if g.point_part == IDENTITY_MAT:
        return 0j

    # rotation class: weight 1/|Z_Gamma(g)|, the local group order of the
    # class's sector component
    zq = class_components(model, cls)[0].local_group_order
    return _supertrace_factor(model, g.point_part) / (zq * _kappa(g.point_part))
