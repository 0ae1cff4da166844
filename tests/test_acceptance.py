"""Acceptance criteria, one test per criterion.

Every criterion runs at its stated tolerance and prints one PASS/FAIL line;
exact-mode criteria assert with plain equality on exact values (zero residual),
floating criteria at the stated tolerances.  Run with `pytest -s` to see the
per-criterion lines.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from orbindex import oracle
from orbindex.exactnum import Cyclo, Scalars
from orbindex.engine import (
    equivariant_lefschetz,
    finite_assembly,
    kawasaki_index,
    localized_index,
    sum_identity,
)
from orbindex.group_algebra import convolve, l1_norm, localized_trace, rho
from orbindex.group_algebra import GroupAlgebraElement
from orbindex.groups import (
    AffineIsometry,
    ConjugacyClassHandle,
    CrystGroup,
    FiniteGroupTable,
    centralizer,
    conjugate_test,
    enumerate_classes_finite,
)
from orbindex.heat import (
    QuadratureSpec,
    g_heat_trace,
    orbital_integral_euclidean,
    t_independence,
)
from orbindex.sectors import (
    build_cutoff,
    cryst_fixed_classes,
    cutoff_on_fixed_set_direct,
    sphere_model,
    square_torus_rotation_model,
    translation_class,
    wallpaper_model,
)

I = Cyclo.zeta(4)
ROT = ((0, -1), (1, 0))


def _report(num: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} [{description}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {description}"


def make_p4(kind="dolbeault"):
    r = AffineIsometry.of(ROT, (0, 0))
    t1 = AffineIsometry.of(((1, 0), (0, 1)), (1, 0))
    return wallpaper_model(CrystGroup([[1, 0], [0, 1]], [r, t1]), "p4",
                           operator_kind=kind)


def test_acceptance_1_elliptic_z4():
    """[E/Z4]: Lefschetz set {0, 2, 1+i, 1-i}; assembly = Kawasaki = 1; exact."""
    start = time.perf_counter()
    model = square_torus_rotation_model(4, "e_z4")
    values = [equivariant_lefschetz(model, g) for g in range(4)]
    want = [Cyclo.from_rational(0, 4), 2 + 0 * I, 1 + I, 1 - I]
    set_ok = all(any(v == w for v in values) for w in want) and len(values) == 4
    asm = finite_assembly(model)
    kaw = kawasaki_index(model)
    exact_ok = (asm.average_total == 1 and asm.class_total == 1 and kaw == 1)
    elapsed = time.perf_counter() - start
    _report(1, f"E/Z4 exact, {elapsed:.3f}s",
            set_ok and exact_ok and elapsed < 1.0)


def test_acceptance_2_sphere_z3_o7():
    """[S2/Z3, O(7)]: Kawasaki = 3 = monomial count; per-j characters; exact."""
    start = time.perf_counter()
    model = sphere_model(3, 7, "s2_z3_o7")
    order = model.scalars.order
    kaw = kawasaki_index(model)
    count = oracle.sphere_invariant_monomial_count(7, 3).value
    kaw_ok = (kaw == 3) and (count == 3)
    chars_ok = True
    for j in range(3):
        lef = equivariant_lefschetz(model, j)
        want = oracle.sphere_equivariant_character(7, 3, j).value
        chars_ok = chars_ok and (lef == want.promote(order))
    elapsed = time.perf_counter() - start
    _report(2, f"S2/Z3 O(7) exact, {elapsed:.3f}s",
            kaw_ok and chars_ok and elapsed < 1.0)


def test_acceptance_3_p4_sum_identity():
    """p4: 8 classes; sum = 1 exactly; pair sums real; independence exact."""
    model = make_p4()
    classes = cryst_fixed_classes(model.group)
    count_ok = len(classes) == 8
    report = sum_identity(model)
    sum_ok = (report.assembly_total == 1 and report.kawasaki_total == 1
              and max(report.residuals.values(), default=0.0) == 0.0)
    reality_ok = all(v == 0.0 for v in report.pair_reality.values()) \
        and len(report.pair_reality) == 8

    # section independence: direct section sums with the canonical and a
    # centralizer-twisted section agree exactly, per class
    indicator = build_cutoff(model, "indicator")
    smooth = build_cutoff(model, "smooth")
    section_ok = True
    cutoff_ok = True
    from itertools import islice
    from orbindex.sectors import enumerate_sectors, PointOrbit

    for comp in enumerate_sectors(model):
        if not isinstance(comp.geometry, PointOrbit):
            continue
        cls = comp.class_handle
        y = comp.geometry.representative
        weight = comp.geometry.weight
        direct = cutoff_on_fixed_set_direct(indicator, cls, y)
        zs = centralizer(cls.representative, model.group)
        twisted = Fraction(0)
        for n, k in enumerate(islice(cls.coset_section(), 400)):
            twisted += indicator(k.compose(zs[n % len(zs)]).apply(y))
        section_ok = section_ok and (direct == twisted == weight)
        smooth_val = cutoff_on_fixed_set_direct(smooth, cls, y)
        cutoff_ok = cutoff_ok and abs(float(smooth_val) - float(weight)) < 1e-12

    # alternate representatives give identical exact localized indices
    rep_ok = True
    for cls in classes:
        if cls.representative.is_identity:
            continue
        k = model.group.element(ROT, (1, 1))
        alt_rep = k.compose(cls.representative).compose(k.inverse())
        alt = ConjugacyClassHandle(group=model.group, representative=alt_rep,
                                   kind_tag=cls.kind_tag, label=cls.label)
        rep_ok = rep_ok and (localized_index(model, cls)
                             == localized_index(model, alt))

    _report(3, "p4 sum identity exact",
            count_ok and sum_ok and reality_ok and section_ok and cutoff_ok and rep_ok)


def test_acceptance_4_heat_verification():
    """Heat on p4: r2-edge, r-origin, a translation; 1e-6 everywhere; < 30 s."""
    start = time.perf_counter()
    model = make_p4()
    classes = {c.label: c for c in cryst_fixed_classes(model.group)}
    quad = QuadratureSpec.for_model(model, t_max=0.2, tolerance=1e-6)
    targets = [classes["r2_edge"], classes["r_origin"],
               translation_class(model.group, (Fraction(1), Fraction(0)))]
    ok = True
    for cls in targets:
        trace = t_independence(model, cls, [0.05, 0.1, 0.2], quad)
        ind = Scalars.to_complex(localized_index(model, cls))
        match_ok = all(abs(v - ind) < 1e-6 for v in trace.per_t.values())
        orbital = orbital_integral_euclidean(model, cls, 0.05)
        orb_ok = abs(orbital - trace.per_t[0.05]) < 1e-6
        ok = ok and match_ok and orb_ok and trace.max_t_variation < 1e-6
    elapsed = time.perf_counter() - start
    _report(4, f"p4 heat verification, {elapsed:.1f}s", ok and elapsed < 30.0)


def _random_exact_element(group, pool, rng, size=4):
    coeffs = {}
    for _ in range(size):
        g = pool[rng.randrange(len(pool))]
        c = Cyclo(4, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                      Fraction(rng.randint(-3, 3), rng.randint(1, 4))])
        coeffs[g] = coeffs[g] + c if g in coeffs else c
    return GroupAlgebraElement(group, coeffs)


def test_acceptance_5_group_algebra_properties():
    """Trace property on 10^3 pairs per group; continuity bound; rho = sum tau."""
    suites = []
    s3 = FiniteGroupTable.symmetric(3)
    suites.append(("S3", s3, list(s3.elements()), enumerate_classes_finite(s3)))
    z4 = FiniteGroupTable.cyclic(4)
    suites.append(("Z4", z4, list(z4.elements()), enumerate_classes_finite(z4)))
    p4 = make_p4().group
    p4_classes = [
        ConjugacyClassHandle(group=p4, representative=p4.element(ROT, (0, 0)),
                             kind_tag="infinite-class", label="r_origin"),
        ConjugacyClassHandle(group=p4, representative=p4.element(((-1, 0), (0, -1)), (1, 0)),
                             kind_tag="infinite-class", label="r2_edge"),
        translation_class(p4, (Fraction(1), Fraction(0))),
    ]
    suites.append(("p4", p4, p4.elements_in_ball(Fraction(1)), p4_classes))

    ok = True
    rng = random.Random(42)
    for name, group, pool, classes in suites:
        for _ in range(1000):
            a = _random_exact_element(group, pool, rng)
            b = _random_exact_element(group, pool, rng)
            ab, ba = convolve(a, b), convolve(b, a)
            for cls in classes:
                if localized_trace(ab, cls) != localized_trace(ba, cls):
                    ok = False
            # continuity bound |tau(a)| <= ||a||_1
            n = l1_norm(a)
            for cls in classes:
                t = localized_trace(a, cls)
                tval = abs(t.to_complex()) if isinstance(t, Cyclo) else abs(t)
                if tval > n + 1e-9:
                    ok = False

    # rho decomposes into localized traces over the classes meeting the support
    for name, group, pool, classes in suites[:2]:
        for _ in range(200):
            a = _random_exact_element(group, pool, rng)
            total = Cyclo.from_rational(0, 4)
            for cls in classes:
                total = total + localized_trace(a, cls)
            if total != rho(a) + Cyclo.from_rational(0, 4):
                ok = False
    # crystallographic case: group the support by conjugacy and compare
    for _ in range(100):
        a = _random_exact_element(p4, p4.elements_in_ball(Fraction(1)), rng)
        remaining = list(a.support())
        total = Cyclo.from_rational(0, 4)
        while remaining:
            g = remaining[0]
            handle = ConjugacyClassHandle(group=p4, representative=g,
                                          kind_tag="infinite-class", label="tmp")
            total = total + localized_trace(a, handle)
            remaining = [h for h in remaining if not conjugate_test(g, h, p4)]
        if total != rho(a) + Cyclo.from_rational(0, 4):
            ok = False
    _report(5, "group algebra traces exact on 3x1000 pairs", ok)


def test_acceptance_6_cutoff_suite():
    """Partition residual < 1e-12 at 10^4 points; Z_G(g)-partition exact;
    indices across cut-off kinds within 1e-8."""
    model = make_p4()
    rng = np.random.default_rng(123)
    xs = rng.uniform(-3.0, 3.0, size=10_000)
    ys = rng.uniform(-3.0, 3.0, size=10_000)
    smooth_res = build_cutoff(model, "smooth").partition_residual(xs, ys)
    smooth_ok = float(smooth_res.max()) < 1e-12
    ind_res = build_cutoff(model, "indicator").partition_residual(xs, ys)
    indicator_ok = float(ind_res.max()) == 0.0

    # Z_G(g)-partition property, exactly, for every point class
    indicator = build_cutoff(model, "indicator")
    from orbindex.sectors import enumerate_sectors, PointOrbit

    zg_ok = True
    for comp in enumerate_sectors(model):
        if not isinstance(comp.geometry, PointOrbit):
            continue
        cls = comp.class_handle
        y0 = comp.geometry.representative
        total = Fraction(0)
        for l in centralizer(cls.representative, model.group):
            total += cutoff_on_fixed_set_direct(indicator, cls, l.apply(y0))
        zg_ok = zg_ok and total == 1

    # all indices agree across cut-off kinds within 1e-8: heat traces are the
    # cut-off-sensitive route, so compare them per class
    quad = QuadratureSpec.for_model(model, 0.1, 1e-6)
    smooth = build_cutoff(model, "smooth")
    classes = {c.label: c for c in cryst_fixed_classes(model.group)}
    kinds_ok = True
    for label in ("r_origin", "r2_edge", "r2_origin"):
        vi = g_heat_trace(model, classes[label], 0.1, quad)
        vs = g_heat_trace(model, classes[label], 0.1, quad, cutoff=smooth)
        kinds_ok = kinds_ok and abs(vi - vs) < 1e-8
    _report(6, "cut-off suite", smooth_ok and indicator_ok and zg_ok and kinds_ok)


def test_acceptance_7_series_engine():
    """A-hat degree 4 = -p1/24, Td degree 4 = (c1^2+c2)/12 vs sympy; the surface
    forms are the series' linear terms; flat A-hat at e is 1."""
    import sympy

    from orbindex.char import ComponentCurvature, a_hat_form, todd_form
    from test_char import ahat_series, two_root_todd

    u = sympy.Symbol("u")
    sym_ahat = sympy.series((u / 2) / sympy.sinh(u / 2), u, 0, 5).removeO()
    want_ahat = Fraction(str(sym_ahat.coeff(u, 2)))
    ahat_ok = ahat_series(4)[2] == want_ahat == Fraction(-1, 24)

    sym_td = sympy.series(u / (1 - sympy.exp(-u)), u, 0, 5).removeO()
    td1 = [Fraction(str(sym_td.coeff(u, k))) for k in range(5)]
    # reassemble (c1^2 + c2)/12 from the two-root product of the sympy series
    td2 = two_root_todd()
    td_ok = (td2[2, 0] == td1[2] == Fraction(1, 12)          # coefficient of x^2
             and td2[1, 1] == td1[1] * td1[1] == Fraction(1, 4))   # coefficient of x y

    # a surface integrates degree 2 alone: Td = 1 + t/2 and A-hat = 1
    sx = Scalars("exact", 4)
    sphere = ComponentCurvature({"t": Fraction(2), "w": Fraction(0)})
    linear_ok = (todd_form(sphere, sx).coeffs == {"t": sx.from_rational(td1[1])}
                 and a_hat_form(sphere, sx).coeffs == {} and ahat_series(1)[1] == 0)

    # A-hat of a flat identity-class component reduces to 1
    ahat_e = a_hat_form(ComponentCurvature({"w": Fraction(0)}), sx)
    flat_ok = ahat_e.const == sx.one() and ahat_e.coeffs == {}
    _report(7, "series engine vs symbolic expansion", ahat_ok and td_ok and linear_ok and flat_ok)


def test_readme_library_use_runs_as_written():
    # the README's "Library use" block, executed as printed: it builds p4,
    # checks the sum identity and reaches the r2_edge heat trace, ~ 0.25
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1]
    scope: dict = {}
    exec(block.split("```", 1)[0], scope)
    assert abs(scope["value"] - 0.25) < 1e-6
