"""Numerical heat-kernel verification on flat plane models.

Only models whose action is a CrystGroup are heat-verified: on the plane the
heat kernel is the exact Gaussian (4 pi t)^{-n/2} e^{-d^2/4t} with identity
fiber transport, so quadrature checks the index identities without curved
parametrices.  Class sums are truncated at a radius derived from the Gaussian
tail estimate, never adaptively, so reports are reproducible bit for bit for a
fixed spec.  A quadrature whose Richardson error estimate |fine - coarse|
exceeds the tolerance raises, whatever the size of the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ResolutionError, StructuralError
from .exactnum import Scalars
from .groups import (
    ConjugacyClassHandle,
    CrystGroup,
    IDENTITY_MAT,
    mat_det,
    mat_sub,
)
from .sectors import (
    CutoffFunction,
    QuotientModel,
    build_cutoff,
    class_components,
    fiber_eigendata,
    supertrace_turns,
)

FLOAT = Scalars("float")


# ---------------------------------------------------------------------------
# Quadrature specification with tail-derived truncation
# ---------------------------------------------------------------------------

@dataclass
class QuadratureSpec:
    resolution: int
    truncation_radius: int
    tolerance: float
    tail_bound: float

    @staticmethod
    def for_model(model: QuotientModel, t_max: float, tolerance: float = 1e-6,
                  resolution: int = 64) -> "QuadratureSpec":
        """Pick the class-sum radius from the explicit Gaussian tail estimate."""
        radius = 2
        while radius < 64:
            bound = class_sum_tail_bound(model, t_max, radius)
            if bound < tolerance / 10:
                return QuadratureSpec(resolution, radius, tolerance, bound)
            radius += 1
        raise ResolutionError("tail bound does not reach tolerance/10", resolution)


def _gram_min_eig(model: QuotientModel) -> float:
    g = model.group.gram
    a, b, c = float(g[0][0]), float(g[0][1]), float(g[1][1])
    tr, det = a + c, a * c - b * b
    return (tr - math.sqrt(max(tr * tr - 4 * det, 0.0))) / 2


def class_sum_tail_bound(model: QuotientModel, t: float, radius: int) -> float:
    """Upper bound for the class-sum terms with translation sup-norm > radius.

    For a rotation h by angle theta about center p, |hx - x| >= 2 sin(theta/2)
    |x - p| and the center norm grows linearly with the translation norm, so
    shell m contributes at most (shell count) x sup of the Gaussian.  The sum
    over shells converges super-exponentially and is evaluated to negligible
    remainder.
    """
    if not isinstance(model.group, CrystGroup):
        raise StructuralError("heat verification supports flat plane models only")
    group: CrystGroup = model.group
    sin_min = 1.0
    opnorm_inv = 1.0
    for a in group.point_parts:
        if a == IDENTITY_MAT:
            continue
        turns = float(group.rotation_turns(a))
        sin_min = min(sin_min, abs(math.sin(math.pi * turns)))
        m = mat_sub(IDENTITY_MAT, a)
        opnorm = max(abs(m[0][0]) + abs(m[0][1]), abs(m[1][0]) + abs(m[1][1]))
        opnorm_inv = min(opnorm_inv, 1.0 / float(opnorm))
    metric = math.sqrt(_gram_min_eig(model))
    p = group.point_group_order
    pref = (4 * math.pi * t) ** -1 * 2.0 * math.sqrt(float(abs(mat_det(group.gram))))
    total = 0.0
    m = radius + 1
    while m < radius + 10_000:
        # center sup-norm >= m * opnorm_inv; distance to the unit cell >= that - 2
        d = metric * 2 * sin_min * max(m * opnorm_inv - 2.0, 0.0)
        shell_count = (8 * m + 4) * p
        term = shell_count * pref * math.exp(-d * d / (4 * t))
        total += term
        if term < 1e-300 and d > 0:
            break
        m += 1
    return total


# ---------------------------------------------------------------------------
# Localized heat traces
# ---------------------------------------------------------------------------

# Grid points per row block, and member x point entries per array, in the heat
# pass; bounds its memory whatever the class size and resolution.
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

    Sums, over class members within the truncation radius, the integrals of
    c(x) Tr_s[h^{-1} K_t(hx, x)]; with identity transport the supertrace
    factors into the fiber eigen-character times the scalar Gaussian.
    Members, supertrace factors, grids and cut-off values do not depend on t
    and are built once; every t is accumulated in the same pass.  Richardson
    refinement of the midpoint rule; unreachable tolerance raises with a
    suggested resolution.
    """
    if not isinstance(model.group, CrystGroup):
        raise StructuralError("heat verification supports flat plane models only")
    if any(t <= 0 for t in t_list):
        raise DomainError("heat time must be positive")
    cutoff = cutoff or build_cutoff(model, "indicator")
    ts = list(dict.fromkeys(t_list))
    # the supertrace factor depends on the point part alone
    factors = {a: _supertrace_factor(model, a) for a in model.group.point_parts}
    members = [h for h in cls.members_in_ball(quad.truncation_radius)
               if factors[h.point_part] != 0]
    taus = [factors[h.point_part] for h in members]
    if not members:
        return {t: 0j for t in ts}
    coarse = _midpoint_sums(cutoff, members, taus, ts, quad.resolution)
    fine = _midpoint_sums(cutoff, members, taus, ts, 2 * quad.resolution)
    values = {}
    for t, c, f in zip(ts, coarse, fine):
        value = (4 * f - c) / 3
        err = abs(f - c)
        if err > quad.tolerance:
            raise ResolutionError(
                f"quadrature error estimate {err:.3e} exceeds tolerance",
                suggested_resolution=4 * quad.resolution)
        values[t] = value
    return values


def _midpoint_sums(cutoff: CutoffFunction, members: list, taus: list, ts: list,
                   n_per_unit: int) -> list[complex]:
    """Midpoint sums of sum_h tau_h c(x) k_t(hx, x) at one resolution, one per t.

    The grid is walked in row blocks of at most HEAT_BLOCK points, with the
    cut-off evaluated once per block, and the members in chunks so that no
    member x point array exceeds HEAT_BLOCK entries; d^2 is formed once per
    chunk and shared by every t.
    """
    lo, hi = cutoff.support
    n = int(round((hi - lo) * n_per_unit))
    xs = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    # h x - x = p.v and q.v with v = (x, y, 1), so d^2 = v^T S v with
    # S = g00 p p^T + g01 (p q^T + q p^T) + g11 q q^T; one product with the
    # block's monomials (x^2, y^2, 1, 2xy, 2x, 2y) forms d^2 for a whole chunk
    p = np.array([[float(h.point_part[0][0]) - 1, float(h.point_part[0][1]),
                   float(h.translation[0])] for h in members])
    q = np.array([[float(h.point_part[1][0]), float(h.point_part[1][1]) - 1,
                   float(h.translation[1])] for h in members])
    g = cutoff.group.gram
    g00, g01, g11 = float(g[0][0]), float(g[0][1]), float(g[1][1])
    i, j = [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]
    quad_coef = (g00 * p[:, i] * p[:, j] + g01 * (p[:, i] * q[:, j] + q[:, i] * p[:, j])
                 + g11 * q[:, i] * q[:, j])
    tau = np.array(taus, dtype=complex)
    scales = [-1.0 / (4 * t) for t in ts]
    sums = np.zeros(len(ts), dtype=complex)
    rows = max(1, HEAT_BLOCK // n)
    for r0 in range(0, n, rows):
        gx, gy = np.meshgrid(xs[r0:r0 + rows], xs, indexing="ij")
        cvals = cutoff.grid(gx, gy).ravel()
        gx, gy = gx.ravel(), gy.ravel()
        monomials = np.stack([gx * gx, gy * gy, np.ones_like(gx),
                              2 * gx * gy, 2 * gx, 2 * gy])
        chunk = max(1, HEAT_BLOCK // gx.size)
        for k0 in range(0, len(members), chunk):
            d2 = quad_coef[k0:k0 + chunk] @ monomials
            for k, scale in enumerate(scales):
                sums[k] += tau[k0:k0 + chunk] @ (np.exp(d2 * scale) @ cvals)
    vol = math.sqrt(float(abs(mat_det(g))))
    cell = ((hi - lo) / n) ** 2
    return [complex(v) * vol * cell / (4 * math.pi * t) for v, t in zip(sums, ts)]


def _supertrace_factor(model: QuotientModel, point_part) -> complex:
    if point_part == IDENTITY_MAT:
        turns = Fraction(0)
    else:
        turns = model.group.rotation_turns(point_part)
    data = fiber_eigendata(turns, model.bundle)
    return Scalars.to_complex(supertrace_turns(data, FLOAT))


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
                               t: float, quad: QuadratureSpec) -> complex:
    """vol(Z_G(g)/Z_Gamma(g)) times the integral of the kernel over the
    conjugation orbit, in the Lebesgue-times-counting Haar normalization.

    For a rotation class the coset space is parametrized by the rotation
    center; for translations it is the compact rotation factor, where the
    graded fiber character kills the integrand; for the identity it is the
    quotient volume times the supertrace of the kernel at the origin.
    """
    if t <= 0:
        raise DomainError("heat time must be positive")
    if not isinstance(model.group, CrystGroup):
        raise StructuralError("orbital integrals need a crystallographic plane model")
    group = model.group
    g = cls.representative
    covol = math.sqrt(float(abs(mat_det(group.gram))))

    if g.is_identity:
        vol = covol / group.point_group_order
        return vol * _supertrace_factor(model, g.point_part) / (4 * math.pi * t)

    if g.is_translation:
        # Z_G = translations, Z_Gamma = lattice: the integral runs over the
        # rotation factor, where the graded fiber character of a translation
        # vanishes
        return 0j

    # rotation class: integrate over centers u, weight 1/|Z_Gamma(g)|, the
    # local group order of the class's sector component
    zq = class_components(model, cls)[0].local_group_order
    tau = _supertrace_factor(model, g.point_part)
    radius = float(quad.truncation_radius)
    n = 2 * quad.resolution
    xs = -radius + 2 * radius * (np.arange(n) + 0.5) / n
    ux, uy = np.meshgrid(xs, xs, indexing="ij")
    # h_u(0) = (I - R) u for the rotation R about center u
    a = g.point_part
    dx = (1 - float(a[0][0])) * ux - float(a[0][1]) * uy
    dy = -float(a[1][0]) * ux + (1 - float(a[1][1])) * uy
    gm = group.gram
    d2 = (float(gm[0][0]) * dx * dx + 2 * float(gm[0][1]) * dx * dy
          + float(gm[1][1]) * dy * dy)
    vol = math.sqrt(float(abs(mat_det(gm))))
    integral = float(np.sum(np.exp(-d2 / (4 * t)))) / (4 * math.pi * t) \
        * (2 * radius / n) ** 2 * vol
    return tau * integral / zq
