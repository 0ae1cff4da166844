"""Scene models, twisted-sector enumeration and cut-off functions.

A QuotientModel is an isometric group action and an equivariant bundle
specification, and it fixes its own arithmetic: `scalars` is the model's
mode over the field of the N-th roots of unity, N = lcm(4, every rotation
order), and every value of the model is computed in it.  Each action type
fixes its space: a CrystGroup acts on the plane, a TorusAction on the flat
torus of its Gram matrix and a SphereRotationAction on the round sphere of
its radius, so every scene-kind decision is one isinstance check on the
action.  Both flat actions come from `groups`: a CrystGroup carries its
point group's action on the torus plane/lattice as a TorusAction, and that
action is the spectral oracle's induced torus model.  Sectors are enumerated
per connected component: each fixed-point-bearing conjugacy class
contributes one component per centralizer-orbit of isolated fixed points, or
one full component.  On both flat actions one pass over the closure's
integer pairs (A, u) over one denominator, `TorusAction.pairs`, through
`groups.torus_fixed_points` and `groups.orbit_split`, gives the classes and
their components (labels, centres, weights, representatives and local group
orders); a Fraction is built once for each value a component hands out.
`QuotientModel.classes` indexes that table by class label, and every reader
of a class's components looks them up there.

Angle convention used throughout: `normal_angle_turns` of a component is the
rotation angle of the *inverse* of the class representative on the normal
plane, normalized to (0, 1) turns.  This is the angle of the automorphism that
enters the delocalized divisors and equals the eigen-angle carried by the
antiholomorphic normal line, so the divisor formulas, the fiber supertrace
(`char.deloc_chern`) and the heat-kernel supertrace all agree without
per-call sign fixups.  Every rule that depends on the operator kind reads
one flag, `BundleSpec.spin`, from `OPERATOR_KINDS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import groupby
from typing import Optional, Union

import numpy as np

from .errors import DomainError, StructuralError
from .exactnum import Scalars
from .groups import (
    AffineIsometry,
    ConjugacyClassHandle,
    CrystGroup,
    FiniteGroupTable,
    IDENTITY_MAT,
    IMat,
    TorusAction,
    Vec,
    adjugate,
    centralizer,
    enumerate_classes_finite,
    fixed_set,
    mat,
    mat_sub,
    mat_vec,
    matrix_order,
    orbit_split,
    torus_fixed_points,
    vec_add,
    vec_over,
)

# ---------------------------------------------------------------------------
# Group actions on compact spaces
# ---------------------------------------------------------------------------

class SphereRotationAction:
    """Z_n acting on the round sphere of `radius` by rotations about the
    polar axis."""

    def __init__(self, order: int, radius: Fraction):
        if order < 1:
            raise StructuralError("rotation order must be positive")
        self.order = order
        self.radius = radius
        self.table = FiniteGroupTable.cyclic(order)

    @property
    def area(self) -> float:
        return 4 * math.pi * float(self.radius) ** 2


GroupAction = Union[CrystGroup, TorusAction, SphereRotationAction]


# ---------------------------------------------------------------------------
# Bundles and models
# ---------------------------------------------------------------------------

# operator kind -> is it the spin^c Dirac operator?
OPERATOR_KINDS = {"dolbeault": False, "spinc_dirac": True}


@dataclass(frozen=True)
class BundleSpec:
    """Operator kind plus twist: together they fix every fiber character,
    by the one rule of `char.deloc_chern`.

    `twist_degree` is also the first Chern number of the twist over the
    compact model (k for O(k) on the sphere).
    """

    operator_kind: str = "dolbeault"
    twist_degree: int = 0

    def __post_init__(self):
        if self.operator_kind not in OPERATOR_KINDS:
            raise StructuralError(f"unknown operator kind {self.operator_kind!r}")

    @property
    def spin(self) -> bool:
        """Is the operator the spin^c Dirac operator?"""
        return OPERATOR_KINDS[self.operator_kind]


@dataclass(frozen=True)
class QuotientModel:
    """Group action + bundle: the scene every computation consumes.

    Frozen, so the sector list cached on first use cannot go stale.
    """

    group: GroupAction
    bundle: BundleSpec
    name: str = "model"
    mode: str = "exact"
    tolerance: float = 1e-8

    def __post_init__(self):
        # flat fixed points carry no twist character yet, so such a model
        # would print untwisted point terms
        if isinstance(self.group, (TorusAction, CrystGroup)) and self.bundle.twist_degree \
                and self.group.point_parts != (IDENTITY_MAT,):
            raise StructuralError(
                "$.bundle.twistDegree: a flat model with a rotation takes no twist, "
                "as its fixed points carry no twist data")

    @cached_property
    def sectors(self) -> tuple[SectorComponent, ...]:
        """Every sector component, sorted by label: the one table that every
        command reads."""
        return tuple(enumerate_sectors(self))

    @cached_property
    def classes(self) -> dict[str, tuple[SectorComponent, ...]]:
        """label -> the class's sector components, in table order: the one
        class index, read off the table, which is sorted by label."""
        return {label: tuple(comps) for label, comps in groupby(self.sectors, lambda c: c.label)}

    @cached_property
    def scalars(self) -> Scalars:
        """The model's arithmetic: its mode over Q(zeta_N), N = lcm(4, every
        rotation order), so that every model angle is a multiple of 1/N turns."""
        if isinstance(self.group, SphereRotationAction):
            return Scalars(self.mode, math.lcm(4, self.group.order))
        return Scalars(self.mode, math.lcm(4, *map(matrix_order, self.group.point_parts)))


# ---------------------------------------------------------------------------
# Sector components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointOrbit:
    """A centralizer-orbit of isolated fixed points, with its rational weight."""

    representative: Vec
    weight: Fraction           # 1 / |stabilizer of the representative in Z_G(g)|
    orbit_size: int
    twist_turns: Fraction = Fraction(0)   # fiber angle of the twist line at the point


@dataclass(frozen=True)
class FullComponentGeometry:
    """A whole surface as a sector component: its area and the integral of
    c1 of its tangent line, 2 on the sphere and 0 on a flat space."""

    area: float
    tangent_chern: int = 0


def full_geometry(group: GroupAction) -> FullComponentGeometry:
    """The space the action acts on, as a full component."""
    return FullComponentGeometry(group.area,
                                 2 if isinstance(group, SphereRotationAction) else 0)


@dataclass
class SectorComponent:
    """One connected component of a twisted sector."""

    class_handle: ConjugacyClassHandle
    component_tag: str
    geometry: Union[PointOrbit, FullComponentGeometry]
    normal_angle_turns: Optional[Fraction]   # in (0,1); None for full components
    local_group_order: int

    @property
    def is_full(self) -> bool:
        return isinstance(self.geometry, FullComponentGeometry)

    @property
    def label(self) -> str:
        return self.class_handle.label


# ---------------------------------------------------------------------------
# Cut-off functions
# ---------------------------------------------------------------------------

def _bump_np(u: np.ndarray) -> np.ndarray:
    """C^infty bump supported on (-1, 2), positive on the closed unit interval."""
    s = (2.0 * u - 1.0) / 3.0
    out = np.zeros_like(u)
    mask = np.abs(s) < 1.0
    out[mask] = np.exp(-1.0 / (1.0 - s[mask] ** 2))
    return out


def _periodized_bump(u: np.ndarray) -> np.ndarray:
    """sum over integers m of bump(u - m)."""
    f = u - np.floor(u)
    return _bump_np(f - 1.0) + _bump_np(f) + _bump_np(f + 1.0)


@dataclass
class CutoffFunction:
    """Nonnegative compactly supported c with sum_g c(g^{-1} x) = 1 over orbits.

    Kinds: "constant" (finite group, c = 1/|G|), "indicator" (scaled unit-cell
    indicator, exact on rational points), "smooth" (normalized bump).  Both
    crystallographic kinds vanish outside the box `support`^2.
    """

    kind: str
    group: GroupAction

    @property
    def support(self) -> tuple[int, int]:
        """(lo, hi): c vanishes outside [lo, hi)^2, and the smooth kind on its
        boundary too."""
        return (0, 1) if self.kind == "indicator" else (-1, 2)

    def __call__(self, x: Vec):
        if self.kind == "constant":
            return Fraction(1, self.group.table.order)
        exact_pt = isinstance(x[0], (int, Fraction)) and isinstance(x[1], (int, Fraction))
        if self.kind == "indicator" and exact_pt:
            inside = 0 <= x[0] < 1 and 0 <= x[1] < 1
            return Fraction(1, self.group.point_group_order) if inside else Fraction(0)
        lo, hi = self.support
        if self.kind == "smooth" and not (lo < x[0] < hi and lo < x[1] < hi):
            return 0.0
        return float(self.grid(np.array([float(x[0])]), np.array([float(x[1])]))[0])

    def grid(self, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
        """c at the points of two broadcastable float arrays, such as an axis
        column and an axis row: the one float evaluator of both
        crystallographic kinds."""
        group: CrystGroup = self.group
        if self.kind == "indicator":
            inside = (gx >= 0) & (gx < 1) & (gy >= 0) & (gy < 1)
            return inside.astype(float) / group.point_group_order
        # smooth kind: bump(x) bump(y) over its sum along the orbit, where
        # g^{-1} x = A^{-1}(x - s) - mu with mu running over the lattice; the
        # bump is supported on (-1, 2), so its lattice periodization at u is
        # bump(f - 1) + bump(f) + bump(f + 1), f = u - floor(u)
        num = _bump_np(gx) * _bump_np(gy)
        preimages = (self._preimage(a, gx, gy) for a in group.point_parts)
        total = sum(_periodized_bump(bx) * _periodized_bump(by) for bx, by in preimages)
        return np.where(num > 0, num / np.where(total > 0, total, 1.0), 0.0)

    def _preimage(self, a: IMat, xs: np.ndarray, ys: np.ndarray) -> list[np.ndarray]:
        """b = A^{-1}(x - s_A), A^{-1} the adjugate as det A = 1, without the
        terms whose coefficient is 0: exact, as each is +-0.0, and a coordinate
        that depends on one axis stays a vector along it, so on p2 and p4
        every bump runs on axis vectors."""
        s = self.group.coset_vectors[a]
        v = (xs - float(s[0]), ys - float(s[1]))
        return [sum(float(c) * vi for c, vi in zip(row, v) if c != 0) for row in adjugate(a)]

    def partition_residual(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """|sum_g c(g^{-1} x) - 1| at arrays of float points.

        Per point part A, g^{-1} x = b - mu with b = A^{-1}(x - s_A) and mu
        in the lattice; b - mu lies in the support box [lo, hi)^2 only for
        floor(b) - hi < mu <= floor(b) - lo, and each term is masked to the
        points it moves into the box.
        """
        group: CrystGroup = self.group
        lo, hi = self.support
        total = np.zeros_like(xs, dtype=float)
        for a in group.point_parts:
            bx, by = self._preimage(a, xs, ys)
            for m in range(math.floor(bx.min()) - hi + 1, math.floor(bx.max()) - lo + 1):
                for k in range(math.floor(by.min()) - hi + 1, math.floor(by.max()) - lo + 1):
                    zx, zy = bx - m, by - k
                    mask = (zx >= lo) & (zx < hi) & (zy >= lo) & (zy < hi)
                    if mask.any():
                        total[mask] += self.grid(zx[mask], zy[mask])
        return np.abs(total - 1.0)


def build_cutoff(model: QuotientModel, kind: str = "indicator") -> CutoffFunction:
    """A cut-off function for the model's action.

    Finite groups always get the constant 1/|G|.  Crystallographic groups get
    either the scaled unit-cell indicator (exact) or a normalized smooth bump.
    """
    if isinstance(model.group, (TorusAction, SphereRotationAction)):
        return CutoffFunction("constant", model.group)
    if kind not in ("indicator", "smooth"):
        raise StructuralError(f"unknown cut-off kind {kind!r}")
    return CutoffFunction(kind, model.group)


@dataclass
class FixedSetCutoff:
    """c^{(g)} on the fixed set: orbit weights for discrete sets, or c itself."""

    kind: str                                   # "discrete" | "full"
    orbit_weights: list[tuple[Vec, Fraction]]   # empty in the full case
    cutoff: Optional[CutoffFunction] = None     # the original c when kind == "full"


def fixed_set_cutoff(cutoff: CutoffFunction, cls: ConjugacyClassHandle,
                     model: QuotientModel) -> FixedSetCutoff:
    """The section-averaged cut-off on the fixed set, reduced to weights.

    For discrete fixed sets the partition identity over Z_G(g) forces the
    total weight of an orbit to be the reciprocal of the representative's
    stabilizer order in Z_G(g); this is independent of the section K and of
    the cut-off kind, which is what the independence tests exercise.  For the
    identity class, K = {e} and c^{(e)} = c.  Both are read off the class's
    sector components.
    """
    comps = class_components(model, cls)
    if not comps:
        raise DomainError(f"class {cls.label} has an empty fixed set")
    if comps[0].is_full:
        return FixedSetCutoff("full", [], cutoff)
    return FixedSetCutoff("discrete", sorted((c.geometry.representative, c.geometry.weight)
                                             for c in comps))


def cutoff_on_fixed_set_direct(cutoff: CutoffFunction, cls: ConjugacyClassHandle,
                               y: Vec):
    """Directly evaluate c^{(g)}(y) = sum_{k in K} c(k y), K a section of the
    left cosets of the centralizer Z_G(g) in a wallpaper group.

    For the identity class K = {e}, so this is c(y).  A rotation g fixes one
    point y, and Z_G(g) is the stabilizer of y, so k -> k y maps K one to one
    onto the orbit of y: the sum is sum_{p in orbit} c(p), whatever the
    section.  The orbit points are B y + s_B + m with m in the lattice, and
    per point part B only the shifts that land in the support box [lo, hi)^2
    are taken.  Used by tests to confirm the group-theoretic weights.
    """
    if not isinstance(cls.group, CrystGroup):
        raise DomainError("direct section sums need a crystallographic group")
    g = cls.representative
    if g.is_identity:
        return cutoff(y)
    if g.is_translation:
        raise DomainError(f"class {cls.label} has an empty fixed set")
    if g.apply(y) != y:
        raise DomainError(f"class {cls.label} does not fix {y}")
    lo, hi = cutoff.support
    # different point parts can reach one orbit point, so collect a set
    points = set()
    for a, s in cls.group.coset_vectors.items():
        b = vec_add(mat_vec(a, y), s)
        for m in range(math.ceil(lo - b[0]), math.ceil(hi - b[0])):
            for n in range(math.ceil(lo - b[1]), math.ceil(hi - b[1])):
                points.add((b[0] + m, b[1] + n))
    return sum(cutoff(p) for p in sorted(points))


# ---------------------------------------------------------------------------
# Sector enumeration
# ---------------------------------------------------------------------------

def enumerate_sectors(model: QuotientModel) -> list[SectorComponent]:
    """All connected components of all nonempty twisted sectors, sorted by label."""
    if isinstance(model.group, CrystGroup):
        comps = _sectors_cryst(model.group)
    elif isinstance(model.group, TorusAction):
        comps = _sectors_torus(model.group)
    else:
        comps = _sectors_sphere(model)
    comps.sort(key=lambda c: (c.class_handle.label, c.component_tag))
    return comps


def class_components(model: QuotientModel,
                     cls: ConjugacyClassHandle) -> tuple[SectorComponent, ...]:
    """The sector components of class `cls`, looked up in the class index,
    or () after checking that its fixed set really is empty."""
    comps = model.classes.get(cls.label, ())
    if not comps and isinstance(model.group, CrystGroup) \
            and fixed_set(cls.representative).kind != "empty":
        raise StructuralError(f"class {cls.label} missing from the sector list")
    return comps


def _full_component(action: GroupAction, handle: ConjugacyClassHandle,
                    order: int) -> SectorComponent:
    return SectorComponent(handle, "full", full_geometry(action), None, order)


def _point_component(handle, tag, point, stabilizer, orbit_size, normal_turns,
                     twist_turns=Fraction(0)) -> SectorComponent:
    """A point orbit whose points have `stabilizer` elements fixing them,
    weight 1 / stabilizer."""
    return SectorComponent(handle, tag,
                           PointOrbit(point, Fraction(1, stabilizer), orbit_size, twist_turns),
                           normal_turns, stabilizer)


def _sectors_torus(action: TorusAction) -> list[SectorComponent]:
    table = action.table
    comps: list[SectorComponent] = []
    for handle in _torus_class_handles(action):
        g = handle.representative
        a, u = action.pairs[g]
        if a == IDENTITY_MAT:
            # the pairs are distinct mod D, so only the identity is (I, 0)
            if u == (0, 0):
                comps.append(_full_component(action, handle, table.order))
            continue
        den, points = torus_fixed_points(a, u, action.den)
        moves = action.pairs_over(den)
        zc = [moves[z] for z in centralizer(g, table)]
        normal = action.normal_turns(a)
        for i, (x, orbit) in enumerate(orbit_split(points, zc, den)):
            comps.append(_point_component(handle, _center_tag(x, den, i), vec_over(x, den),
                                          len(zc) // len(orbit), len(orbit), normal))
    return comps


def _sectors_sphere(model: QuotientModel) -> list[SectorComponent]:
    action: SphereRotationAction = model.group
    n = action.order
    k = model.bundle.twist_degree
    comps = []
    for handle in _sphere_class_handles(action):
        j = handle.representative
        if j == 0:
            comps.append(_full_component(action, handle, n))
            continue
        # north pole: rotation by +j/n, normal angle -j/n, untwisted fiber
        # weight; south pole: rotation by -j/n, twist weight j*k/n
        comps.append(_point_component(handle, "north", (Fraction(0), Fraction(0)),
                                      n, 1, Fraction(n - j, n)))
        comps.append(_point_component(handle, "south", (Fraction(1), Fraction(0)),
                                      n, 1, Fraction(j, n), Fraction(j * k % n, n)))
    return comps


def _sectors_cryst(group: CrystGroup) -> list[SectorComponent]:
    """One component per class with a nonempty fixed set, in closure order.

    The plane mod the lattice is a torus on which the point group P acts by
    the pairs (B, s_B).  The point group is cyclic and conjugation fixes
    point parts, so a rotation class is a rotation part A with one P-orbit
    of its centers: the fixed points of (A, s_A) on that torus, in integers
    over the closure's pairs.  The centralizer of a rotation is the
    stabilizer of its center q in Gamma, and taking point parts maps it one
    to one onto q's stabilizer in P, of order |P| / |orbit|; the class's
    representative is (A, (I - A) q) and its component is the point q.  The
    identity class's component is the whole plane.
    """
    identity = ConjugacyClassHandle(group=group, representative=AffineIsometry.identity(),
                                    kind_tag="infinite-class", label="e")
    comps = [_full_component(group, identity, group.point_group_order)]
    torus = group.torus
    for a, u in torus.pairs:
        if a == IDENTITY_MAT:
            continue
        power = _rotation_power(torus, a)
        part_name = f"r{power}" if power > 1 else "r"
        m = mat_sub(IDENTITY_MAT, a)
        normal = torus.normal_turns(a)
        used_tags: dict[str, int] = {}
        den, centers = torus_fixed_points(a, u, torus.den)
        for ordinal, (x, orbit) in enumerate(orbit_split(centers, torus.pairs_over(den), den)):
            tag = _center_tag(x, den, ordinal)
            if tag in used_tags:
                used_tags[tag] += 1
                tag = f"{tag}{used_tags[tag]}"
            else:
                used_tags[tag] = 1
            rep = AffineIsometry(a, vec_over(mat_vec(m, x), den))
            handle = ConjugacyClassHandle(group=group, representative=rep,
                                          kind_tag="infinite-class", label=f"{part_name}_{tag}")
            comps.append(_point_component(handle, "p0", vec_over(x, den),
                                          len(torus.pairs) // len(orbit), 1, normal))
    return comps


# ---------------------------------------------------------------------------
# Class handles with model-level labels
# ---------------------------------------------------------------------------

def _center_tag(x: tuple[int, int], den: int, ordinal: int) -> str:
    """The tag of the point x / den of [0, 1)^2."""
    doubled = (2 * x[0], 2 * x[1])
    if doubled == (0, 0):
        return "origin"
    if doubled == (den, den):
        return "center"
    if doubled in ((den, 0), (0, den)):
        return "edge"
    return f"pt{ordinal}"


def _torus_class_handles(action: TorusAction) -> list[ConjugacyClassHandle]:
    table = action.table
    out = enumerate_classes_finite(table)
    for h in out:
        g = h.representative
        if g != table.identity:
            iso = action.isometries[g]
            if iso.point_part == IDENTITY_MAT:
                t = iso.translation
                h.label = f"t{t[0]}_{t[1]}".replace("/", "d")
            else:
                h.label = f"r{_rotation_power(action, iso.point_part)}"
    # disambiguate duplicate labels deterministically
    seen: dict[str, int] = {}
    for h in out:
        if h.label in seen:
            seen[h.label] += 1
            h.label = f"{h.label}_{seen[h.label]}"
        else:
            seen[h.label] = 0
    return out


def _rotation_power(action: TorusAction, a) -> int:
    """A's angle over the smallest positive angle of the action: the point
    parts form a cyclic group of order |P|, whose smallest angle is 1 / |P|."""
    t = action.turns[a]
    return t.numerator * len(action.point_parts) // t.denominator


def _sphere_class_handles(action: SphereRotationAction) -> list[ConjugacyClassHandle]:
    out = []
    for j in range(action.order):
        label = "e" if j == 0 else f"r{j}"
        out.append(ConjugacyClassHandle(group=action.table, representative=j,
                                        kind_tag="finite-class", label=label))
    return out


def cryst_fixed_classes(group: CrystGroup) -> list[ConjugacyClassHandle]:
    """Conjugacy classes of a wallpaper group with nonempty fixed sets,
    sorted by label: the handles of the plane sector pass."""
    return sorted((c.class_handle for c in _sectors_cryst(group)), key=lambda h: h.label)


def translation_class(group: CrystGroup, t: Vec) -> ConjugacyClassHandle:
    """The (finite) conjugacy class of a nonzero lattice translation."""
    if not any(t):
        raise StructuralError("the zero translation is the identity, whose class is e")
    rep = group.element(IDENTITY_MAT, t)
    label = f"t{t[0]}_{t[1]}".replace("/", "d")
    return ConjugacyClassHandle(group=group, representative=rep,
                                kind_tag="finite-class", label=label)


# ---------------------------------------------------------------------------
# Model builders for the catalogue
# ---------------------------------------------------------------------------

def square_torus_rotation_model(n: int, name: str, mode: str = "exact") -> QuotientModel:
    """Z_n (n in {1,2,4}) acting on C/Z[i] by multiplication by i^(4/n)... powers."""
    if n not in (1, 2, 4):
        raise StructuralError("square torus admits rotation orders 1, 2, 4")
    rot = {1: IDENTITY_MAT, 2: ((-1, 0), (0, -1)), 4: ((0, -1), (1, 0))}[n]
    gram = mat([[1, 0], [0, 1]])
    action = TorusAction([AffineIsometry(rot, (Fraction(0), Fraction(0)))], gram)
    return QuotientModel(action, BundleSpec("dolbeault", 0), name=name, mode=mode)


def sphere_model(n: int, k: int, name: str, mode: str = "exact") -> QuotientModel:
    return QuotientModel(SphereRotationAction(n, Fraction(1)), BundleSpec("dolbeault", k),
                         name=name, mode=mode)


def wallpaper_model(group: CrystGroup, name: str, mode: str = "exact",
                    operator_kind: str = "dolbeault") -> QuotientModel:
    return QuotientModel(group, BundleSpec(operator_kind, 0), name=name, mode=mode)


def induced_torus_model(model: QuotientModel) -> QuotientModel:
    """The finite model P acting on lattice\\plane induced by a plane model,
    whose action is the plane group's own `torus`.

    The quotient of the plane by the wallpaper group equals the quotient of
    this torus by the induced point-group action, which is what the spectral
    oracle understands.
    """
    if not isinstance(model.group, CrystGroup):
        raise StructuralError("induced torus model needs a crystallographic group")
    return QuotientModel(model.group.torus, model.bundle, name=model.name + "_torus",
                         mode=model.mode, tolerance=model.tolerance)
