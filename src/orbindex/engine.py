"""Assembly of equivariant Lefschetz numbers, Kawasaki and localized indices.

Convention fixed by oracle agreement and recorded in every report header:
the pointwise term of a dolbeault-kind operator at a fixed point where the
group element rotates the tangent plane by theta (counterclockwise) is

    twist character / (1 - e^{i theta}),

equivalently the reciprocal Todd divisor evaluated at the component's stored
normal angle.  In exact mode that quotient is a closed form with no field
inverse (`Scalars.unit_over_divisor`).  The operator kind is one flag,
`BundleSpec.spin`, and each function that depends on it takes that flag.  The
spin^c Dirac operator computes the same point term as the fiber supertrace
(`char.deloc_chern`) over the real determinant det(1 - R_theta), through the
general field inverse, and must agree; a full component integrates Td
(dolbeault) or A-hat times the half determinant line (spin^c), which
coincide in degree 2, the one degree a surface integrates.  On a torus a
rotation's Lefschetz number is its point term times det(I - A), the number
of its fixed points, so it shares no fixed-point code with the sector table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import StructuralError
from .exactnum import Scalars
from .char import (
    ComponentCurvature,
    Form,
    a_hat_form,
    chern_char,
    component_curvature,
    deloc_chern,
    exp_line,
    orbifold_integrate,
    surface_integral,
    todd_form,
)
from .groups import (
    IDENTITY_MAT,
    ConjugacyClassHandle,
    CrystGroup,
    adjugate,
    centralizer,
    enumerate_classes_finite,
    mat_det,
    mat_sub,
)
from .sectors import (
    PointOrbit,
    QuotientModel,
    SectorComponent,
    SphereRotationAction,
    TorusAction,
    class_components,
    full_geometry,
)


# ---------------------------------------------------------------------------
# Pointwise Lefschetz terms
# ---------------------------------------------------------------------------

def point_term(normal_turns: Fraction, twist_turns: Fraction, scalars: Scalars, spin: bool):
    """Contribution of one isolated fixed point, before orbit weights; the
    package's one implementation of the fixed-point divisor.

    Dolbeault: twist character over the complex divisor 1 - e^{-i theta_N}.
    Spin^c: the fiber supertrace of the point's rotation, -theta_N, and its
    twist, over the real determinant of 1 - R.
    """
    if not spin:
        return scalars.unit_over_divisor(twist_turns, normal_turns)
    det_r = (scalars.one() - scalars.unit(normal_turns)) * \
            (scalars.one() - scalars.unit(-normal_turns))
    return deloc_chern(-normal_turns, twist_turns, scalars) / det_r


def component_value(component: SectorComponent, model: QuotientModel):
    """Orbifold integral of the delocalized index density over one component."""
    scalars, spin = model.scalars, model.bundle.spin
    if isinstance(component.geometry, PointOrbit):
        term = point_term(component.normal_angle_turns, component.geometry.twist_turns,
                          scalars, spin)
        return term * scalars.from_rational(component.geometry.weight)
    curv = component_curvature(component.geometry.tangent_chern, model.bundle.twist_degree)
    form = _full_component_form(curv, scalars, spin)
    return orbifold_integrate(form, component, curv, scalars)


def _full_component_form(curv: ComponentCurvature, scalars: Scalars, spin: bool) -> Form:
    ch_w = chern_char(["w"], scalars)
    if not spin:
        return todd_form(curv, scalars) * ch_w
    # spin^c normalization: A-hat times the square root of the determinant line
    form = a_hat_form(curv, scalars)
    if "t" in curv.integrals:
        form = form * exp_line("t", scalars, half=True)
    return form * ch_w


# ---------------------------------------------------------------------------
# Equivariant Lefschetz numbers on compact models
# ---------------------------------------------------------------------------

def equivariant_lefschetz(model: QuotientModel, g: int):
    """L(g) = supertrace of g on the kernel pair, from local fixed-point data.

    Fixed-point-free elements return 0; the identity returns the ordinary
    index of the compact model.
    """
    if isinstance(model.group, CrystGroup):
        raise StructuralError("Lefschetz evaluator requires a compact model")
    scalars, spin = model.scalars, model.bundle.spin

    if isinstance(model.group, SphereRotationAction):
        n = model.group.order
        j = g % n
        k = model.bundle.twist_degree
        if j == 0:
            return _ordinary_index(model, scalars, spin)
        rot = Fraction(j, n)
        north = point_term((-rot) % 1, Fraction(0), scalars, spin)
        south = point_term(rot, Fraction(j * k, n) % 1, scalars, spin)
        return north + south

    action: TorusAction = model.group
    a, u = action.pairs[g]
    if a == IDENTITY_MAT:
        return _ordinary_index(model, scalars, spin) if u == (0, 0) else scalars.zero()
    # a rotation has det(I - A) fixed points on the torus, each with one term
    term = point_term(action.normal_turns(a), Fraction(0), scalars, spin)
    return term * scalars.from_rational(mat_det(mat_sub(IDENTITY_MAT, a)))


def _ordinary_index(model: QuotientModel, scalars: Scalars, spin: bool):
    curv = component_curvature(full_geometry(model.group).tangent_chern,
                               model.bundle.twist_degree)
    return surface_integral(_full_component_form(curv, scalars, spin), curv, scalars)


# ---------------------------------------------------------------------------
# Kawasaki index and finite assembly
# ---------------------------------------------------------------------------

def kawasaki_index(model: QuotientModel):
    """Index of the quotient operator: sum of sector integrals."""
    total = model.scalars.zero()
    for comp in model.sectors:
        total = total + component_value(comp, model)
    return total


@dataclass
class AssemblyResult:
    average_total: object       # (1/|H|) sum over elements of L
    class_total: object         # sum over classes of L / |Z|
    per_element: dict


def finite_assembly(model: QuotientModel) -> AssemblyResult:
    """Both groupings of the finite averaging identity, asserted equal."""
    if isinstance(model.group, CrystGroup):
        raise StructuralError("finite assembly requires a finite acting group")
    scalars = model.scalars
    table = model.group.table
    per_element = {g: equivariant_lefschetz(model, g) for g in table.elements()}
    avg = scalars.zero()
    for v in per_element.values():
        avg = avg + v
    avg = avg * scalars.from_rational(Fraction(1, table.order))

    ctotal = scalars.zero()
    for cls in enumerate_classes_finite(table):
        z = len(centralizer(cls.representative, table))
        ctotal = ctotal + per_element[cls.representative] * scalars.from_rational(Fraction(1, z))

    if not scalars.is_zero(avg - ctotal, 1e-10):
        raise StructuralError("assembly groupings disagree")
    return AssemblyResult(avg, ctotal, per_element)


# ---------------------------------------------------------------------------
# Localized indices
# ---------------------------------------------------------------------------

def localized_index(model: QuotientModel, cls: ConjugacyClassHandle):
    """The class's share of the index: cut-off-weighted fixed-point data.

    Empty fixed sets give 0; discrete fixed sets give the weighted pointwise
    terms; the identity class gives the cut-off-weighted characteristic
    integral over the quotient.
    """
    total = model.scalars.zero()
    for comp in class_components(model, cls):
        total = total + component_value(comp, model)
    return total


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class IndexReport:
    per_class: dict                      # label -> value (scalar)
    kawasaki_total: object
    assembly_total: object
    residuals: dict = field(default_factory=dict)
    psc_obstruction: Optional[bool] = None
    psc_note: str = ""
    integrality_verdict: bool = False
    pair_reality: dict = field(default_factory=dict)


def sum_identity(model: QuotientModel, oracle_value=None) -> IndexReport:
    """Per-class localized indices, their sum against the quotient index, and
    the conjugate-pair reality checks."""
    scalars = model.scalars
    # per class in table order: the additions of the localized_index and the
    # kawasaki_index sums, in their order, so float reports stay bit-identical
    per_class = {}
    kawasaki_total = scalars.zero()
    for label, comps in model.classes.items():
        value = scalars.zero()
        for c in comps:
            v = component_value(c, model)
            value = value + v
            kawasaki_total = kawasaki_total + v
        per_class[label] = value

    assembly_total = scalars.zero()
    for v in per_class.values():
        assembly_total = assembly_total + v

    residuals = {
        "sum_vs_kawasaki": abs(Scalars.to_complex(assembly_total)
                               - Scalars.to_complex(kawasaki_total)),
    }
    if oracle_value is not None:
        residuals["total_vs_oracle"] = abs(Scalars.to_complex(assembly_total)
                                           - Scalars.to_complex(oracle_value))

    # every class's inverse is a class of the table too
    inverse_label = _inverse_class_labels(model)
    pair_reality = {label: abs((Scalars.to_complex(value)
                                + Scalars.to_complex(per_class[inverse_label[label]])).imag)
                    for label, value in per_class.items()}

    integrality = scalars.is_integer(kawasaki_total, model.tolerance)

    report = IndexReport(
        per_class=per_class,
        kawasaki_total=kawasaki_total,
        assembly_total=assembly_total,
        residuals=residuals,
        integrality_verdict=integrality,
        pair_reality=pair_reality,
    )
    report.psc_obstruction, report.psc_note = psc_flag(report, model)
    return report


def _inverse_class_labels(model: QuotientModel) -> dict:
    """label -> label of the class of the inverse representative, by lookup.

    On a finite group the inverse is read off the table and its class off the
    class members.  A plane class is a point part A with one P-orbit of
    centres mod Z^2, stored by its least centre q.  The rotation
    (A, (I - A) q) and its inverse (A^-1, (I - A^-1) q) fix the same points
    mod Z^2, which split into the same orbits, so the inverse's class is the
    one of A^-1 with the same least centre.
    """
    group = model.group
    firsts = {label: comps[0] for label, comps in model.classes.items()}
    if not isinstance(group, CrystGroup):
        class_of = {m: label for label, c in firsts.items() for m in c.class_handle.members()}
        return {label: class_of[group.table.inv(c.class_handle.representative)]
                for label, c in firsts.items()}
    # a plane class has one component: the whole plane, or its least centre
    keys = {label: (c.class_handle.representative.point_part,
                    None if c.is_full else c.geometry.representative)
            for label, c in firsts.items()}
    label_of = {key: label for label, key in keys.items()}
    # det A = 1, so A^-1 is the adjugate
    return {label: label_of[adjugate(a), q]
            for label, (a, q) in keys.items()}


def psc_flag(report: IndexReport, model: QuotientModel) -> tuple[Optional[bool], str]:
    """Obstruction flag: some localized index nonzero, where Lichnerowicz applies.

    Positive scalar curvature makes the localized indices of a spin Dirac
    operator twisted by a flat line vanish.  The spin^c operator here is the
    spin one twisted by K^{-1/2} (x) L, which is flat only on a flat model at
    twist 0 and on the sphere at twist -1 (K^{1/2} = O(-1)).  Elsewhere, and
    for dolbeault-kind input, the flag is suppressed with a note rather than
    reported false.
    """
    if not model.bundle.spin:
        return None, "flag suppressed: operator kind is not spin-type"
    flat_twist = -1 if isinstance(model.group, SphereRotationAction) else 0
    if model.bundle.twist_degree != flat_twist:
        return None, "flag suppressed: the twisting line is not flat"
    tol = model.tolerance
    nonzero = any(abs(Scalars.to_complex(v)) > tol for v in report.per_class.values())
    return nonzero, ""
