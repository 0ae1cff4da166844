"""Sector enumeration, cut-off functions and fixed-set weights."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from orbindex.cli import FIXTURE_DIR, load_model
from orbindex.errors import DomainError, StructuralError
from orbindex.groups import (
    AffineIsometry,
    ConjugacyClassHandle,
    CrystGroup,
    FiniteGroupTable,
    centralizer,
    vec_supnorm,
)
from orbindex.sectors import (
    OPERATOR_KINDS,
    BundleSpec,
    CutoffFunction,
    TorusAction,
    build_cutoff,
    class_components,
    cryst_fixed_classes,
    cutoff_on_fixed_set_direct,
    enumerate_sectors,
    fixed_set_cutoff,
    induced_torus_model,
    sphere_model,
    square_torus_rotation_model,
    translation_class,
    wallpaper_model,
)

ROT = ((0, -1), (1, 0))


def make_p4_model(generators=None):
    r = AffineIsometry.of(ROT, (0, 0))
    t1 = AffineIsometry.of(((1, 0), (0, 1)), (1, 0))
    t2 = AffineIsometry.of(((1, 0), (0, 1)), (0, 1))
    gens = generators or [r, t1, t2]
    return wallpaper_model(CrystGroup([[1, 0], [0, 1]], gens), "p4")


class TestEnumeration:
    def test_torus_z4_sector_counts(self):
        model = square_torus_rotation_model(4, "e_z4")
        comps = enumerate_sectors(model)
        by_label = {}
        for c in comps:
            by_label.setdefault(c.label, []).append(c)
        assert set(by_label) == {"e", "r1", "r2", "r3"}
        # the quarter-turn sector has 2 isolated points
        assert sum(c.geometry.orbit_size for c in by_label["r1"]) == 2
        assert sum(c.geometry.orbit_size for c in by_label["r2"]) == 4

    def test_p4_has_eight_fixed_classes(self):
        model = make_p4_model()
        labels = [c.label for c in cryst_fixed_classes(model.group)]
        assert len(labels) == 8
        assert labels == sorted(labels)
        assert set(labels) == {"e", "r_origin", "r_center", "r3_origin", "r3_center",
                               "r2_origin", "r2_center", "r2_edge"}

    def test_class_components_look_up_the_class_index(self):
        model = make_p4_model()
        for handle in cryst_fixed_classes(model.group):
            assert class_components(model, handle) == model.classes[handle.label]
        # a translation fixes nothing, so its class has no components
        assert class_components(model, translation_class(model.group, (1, 0))) == ()
        # a rotation whose label the table lacks is a table fault, not an empty set
        rotation = {c.label: c for c in cryst_fixed_classes(model.group)}["r_center"]
        with pytest.raises(StructuralError, match="missing from the sector list"):
            class_components(model, dataclasses.replace(rotation, label="r_nowhere"))

    def test_trivial_group_single_full_sector(self):
        model = square_torus_rotation_model(1, "free")
        comps = enumerate_sectors(model)
        assert len(comps) == 1 and comps[0].is_full

    def test_generator_relabeling_invariance(self):
        base = make_p4_model()
        r = AffineIsometry.of(ROT, (0, 0))
        t1 = AffineIsometry.of(((1, 0), (0, 1)), (1, 0))
        t2 = AffineIsometry.of(((1, 0), (0, 1)), (0, 1))
        # different generating sets for the same group
        r_shift = AffineIsometry.of(ROT, (1, 0))
        alt = make_p4_model([t2, r_shift, t1, r])
        base_data = [(c.label, c.component_tag, c.normal_angle_turns,
                      getattr(c.geometry, "weight", None))
                     for c in enumerate_sectors(base)]
        alt_data = [(c.label, c.component_tag, c.normal_angle_turns,
                     getattr(c.geometry, "weight", None))
                    for c in enumerate_sectors(alt)]
        assert base_data == alt_data

    def test_weights(self):
        model = make_p4_model()
        comps = {c.label: c for c in enumerate_sectors(model)}
        assert comps["r_origin"].geometry.weight == Fraction(1, 4)
        assert comps["r2_edge"].geometry.weight == Fraction(1, 2)
        assert comps["r2_origin"].geometry.weight == Fraction(1, 4)
        assert comps["e"].local_group_order == 4

    def test_normal_angles_are_inverse_rotation(self):
        model = make_p4_model()
        comps = {c.label: c for c in enumerate_sectors(model)}
        assert comps["r_origin"].normal_angle_turns == Fraction(3, 4)
        assert comps["r3_origin"].normal_angle_turns == Fraction(1, 4)
        assert comps["r2_edge"].normal_angle_turns == Fraction(1, 2)

    def test_sphere_components(self):
        model = sphere_model(3, 7, "s2")
        comps = [c for c in enumerate_sectors(model) if c.label == "r1"]
        assert {c.component_tag for c in comps} == {"north", "south"}
        south = [c for c in comps if c.component_tag == "south"][0]
        assert south.geometry.twist_turns == Fraction(1, 3)  # 7/3 mod 1

    def test_reflection_group_rejected(self):
        refl = AffineIsometry.of(((1, 0), (0, -1)), (0, 0))
        t1 = AffineIsometry.of(((1, 0), (0, 1)), (1, 0))
        t2 = AffineIsometry.of(((1, 0), (0, 1)), (0, 1))
        with pytest.raises(StructuralError):
            CrystGroup([[1, 0], [0, 1]], [refl, t1, t2])

    def test_reflection_torus_action_rejected(self):
        refl = AffineIsometry.of(((1, 0), (0, -1)), (0, 0))
        gram = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        with pytest.raises(StructuralError):
            TorusAction([refl], gram)


class TestOperatorKinds:
    def test_spin_is_the_kind_table_bit(self):
        assert {kind: BundleSpec(kind).spin for kind in OPERATOR_KINDS} == \
            {"dolbeault": False, "spinc_dirac": True}

    def test_unknown_kind_rejected(self):
        with pytest.raises(StructuralError, match="unknown operator kind"):
            BundleSpec("bogus")


class TestCutoffs:
    def test_finite_group_constant(self):
        model = square_torus_rotation_model(4, "e_z4")
        c = build_cutoff(model)
        assert c((Fraction(1, 3), Fraction(0))) == Fraction(1, 4)

    def test_indicator_partition_exact(self):
        model = make_p4_model()
        c = build_cutoff(model, "indicator")
        rng = random.Random(0)
        points = [(Fraction(rng.randint(-300, 300), 101),
                   Fraction(rng.randint(-300, 300), 103)) for _ in range(60)]
        xs = np.array([float(x) for x, _ in points])
        ys = np.array([float(y) for _, y in points])
        assert np.all(c.partition_residual(xs, ys) == 0.0)

    def test_smooth_partition_residual_batch(self):
        model = make_p4_model()
        rng = np.random.default_rng(5)
        xs = rng.uniform(-3, 3, size=2000)
        ys = rng.uniform(-3, 3, size=2000)
        res = build_cutoff(model, "smooth").partition_residual(xs, ys)
        assert float(res.max()) < 1e-12
        res = build_cutoff(model, "indicator").partition_residual(xs, ys)
        assert float(res.max()) == 0.0

    @pytest.mark.parametrize("kind", ["indicator", "smooth"])
    def test_partition_residual_matches_ball_scan(self, kind):
        # reference: sum c(g^{-1} x) over every group element in a ball that
        # holds all g with g^{-1} x in the support box
        model = make_p4_model()
        c = build_cutoff(model, kind)
        rng = np.random.default_rng(11)
        xs, ys = rng.uniform(-3, 3, size=(2, 8))
        want = []
        for x in zip(xs.tolist(), ys.tolist()):
            radius = Fraction(math.ceil(max(abs(x[0]), abs(x[1]))) + 4)
            total = sum(c(g.inverse().apply(x)) for g in model.group.elements_in_ball(radius))
            want.append(abs(total - 1))
        assert np.max(np.abs(c.partition_residual(xs, ys) - want)) <= 1e-15

    def test_fixed_set_cutoff_weights(self):
        model = make_p4_model()
        classes = {c.label: c for c in cryst_fixed_classes(model.group)}
        cutoff = build_cutoff(model, "indicator")
        fsc = fixed_set_cutoff(cutoff, classes["r_origin"], model)
        assert fsc.kind == "discrete"
        assert fsc.orbit_weights == [((Fraction(0), Fraction(0)), Fraction(1, 4))]
        fsc = fixed_set_cutoff(cutoff, classes["r2_edge"], model)
        assert fsc.orbit_weights[0][1] == Fraction(1, 2)

    def test_identity_class_returns_cutoff_itself(self):
        model = make_p4_model()
        classes = {c.label: c for c in cryst_fixed_classes(model.group)}
        cutoff = build_cutoff(model, "indicator")
        fsc = fixed_set_cutoff(cutoff, classes["e"], model)
        assert fsc.kind == "full" and fsc.cutoff is cutoff

    def test_empty_fixed_set_domain_error(self):
        model = make_p4_model()
        cutoff = build_cutoff(model, "indicator")
        tcls = translation_class(model.group, (Fraction(1), Fraction(0)))
        with pytest.raises(DomainError):
            fixed_set_cutoff(cutoff, tcls, model)

    def test_direct_section_sum_matches_weight(self):
        # sum over K of c(k^{-1} y) at a centralizer-fixed point equals the
        # group-theoretic weight, for both cut-off kinds
        model = make_p4_model()
        classes = {c.label: c for c in cryst_fixed_classes(model.group)}
        for kind, tol in (("indicator", 0.0), ("smooth", 1e-12)):
            cutoff = build_cutoff(model, kind)
            val = cutoff_on_fixed_set_direct(cutoff, classes["r_origin"],
                                             (Fraction(0), Fraction(0)))
            assert abs(float(val) - 0.25) <= tol
            val = cutoff_on_fixed_set_direct(cutoff, classes["r2_edge"],
                                             (Fraction(0), Fraction(1, 2)))
            assert abs(float(val) - 0.5) <= tol

    def test_zg_partition_property_exact(self):
        # sum over Z_G(g) of c^{(g)}(l y) = 1 on the fixed set
        from orbindex.groups import centralizer

        model = make_p4_model()
        classes = {c.label: c for c in cryst_fixed_classes(model.group)}
        cutoff = build_cutoff(model, "indicator")
        for label, point in (("r_origin", (Fraction(0), Fraction(0))),
                             ("r2_edge", (Fraction(0), Fraction(1, 2)))):
            cls = classes[label]
            z = centralizer(cls.representative, model.group)
            total = Fraction(0)
            for l in z:
                y = l.apply(point)
                total += cutoff_on_fixed_set_direct(cutoff, cls, y)
            assert total == 1


def test_induced_torus_model_matches_point_group():
    model = make_p4_model()
    torus = induced_torus_model(model)
    assert torus.group.table.order == 4
    comps = enumerate_sectors(torus)
    assert {c.label for c in comps} == {"e", "r1", "r2", "r3"}
    # the oracle's model is each plane group's own action on the torus
    planes = [m for m in map(load_model, sorted(FIXTURE_DIR.glob("*.json")))
              if isinstance(m.group, CrystGroup)]
    assert {m.name for m in planes} >= {"p4", "p2", "p4_spinc"}
    for plane in planes:
        assert induced_torus_model(plane).group is plane.group.torus, plane.name


def test_torus_action_table_comes_from_the_closure():
    gram = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    action = TorusAction([AffineIsometry.of(ROT, (Fraction(1, 2), Fraction(1, 2)))], gram)
    assert action.table.product == FiniteGroupTable.cyclic(4).product
    assert [action.turns[a] for a, _ in action.pairs] == \
        [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]


def _composed_tables() -> dict:
    """Every table the library reads off a composition instead of checking:
    the fixtures' torus actions, the torus models induced by the plane
    fixtures, p4 mod (Z/4)^2, and the built-in cyclic and symmetric groups."""
    tables = {f"cyclic{n}": FiniteGroupTable.cyclic(n) for n in range(1, 9)}
    tables["symmetric3"] = FiniteGroupTable.symmetric(3)
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        model = load_model(path)
        if isinstance(model.group, CrystGroup):
            model = induced_torus_model(model)
        tables[path.stem] = model.group.table
    gram = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    quarter = [AffineIsometry.of(((1, 0), (0, 1)), v)
               for v in ((Fraction(1, 4), 0), (0, Fraction(1, 4)))]
    tables["p4_mod_4"] = TorusAction([AffineIsometry.of(ROT, (0, 0))] + quarter, gram).table
    return tables


COMPOSED_TABLES = _composed_tables()


@pytest.mark.parametrize("name", sorted(COMPOSED_TABLES))
def test_composed_tables_are_associative(name):
    # the full n^3 check that FiniteGroupTable.of_composition skips
    product = COMPOSED_TABLES[name].product
    n = len(product)
    assert all(product[product[a][b]][c] == product[a][product[b][c]]
               for a in range(n) for b in range(n) for c in range(n))
    if name == "p4_mod_4":
        assert n == 64


HALF_TURN = ((-1, 0), (0, -1))


# p4, p2, p4 on a rotated lattice and p2 on an oblique lattice, with the
# number of point classes of each
PLANE_SCENES = [
    ([[1, 0], [0, 1]], ROT, 7),
    ([[1, 0], [0, 1]], HALF_TURN, 4),
    ([[2, -1], [1, 2]], ROT, 7),
    ([[2, 1], [0, 3]], HALF_TURN, 4),
]


def make_plane_model(lattice, point_part):
    gens = [AffineIsometry.of(point_part, (0, 0)),
            AffineIsometry.of(((1, 0), (0, 1)), (1, 0)),
            AffineIsometry.of(((1, 0), (0, 1)), (0, 1))]
    return wallpaper_model(CrystGroup(lattice, gens), "plane")


@pytest.mark.parametrize("lattice, point_part, classes", PLANE_SCENES)
def test_plane_weights_are_inverse_centralizer_orders(lattice, point_part, classes):
    model = make_plane_model(lattice, point_part)
    points = [c for c in enumerate_sectors(model) if not c.is_full]
    assert len(points) == classes
    for comp in points:
        z = centralizer(comp.class_handle.representative, model.group)
        assert comp.geometry.weight == Fraction(1, len(z))
        assert comp.local_group_order == len(z)


def _section_walk(cls, y):
    """The section elements the former direct sum visited: the coset section
    in sup-norm shells, up to the first k with |k| > |y| + 6."""
    ks = []
    for k in cls.coset_section():
        ks.append(k)
        if vec_supnorm(k.translation) > vec_supnorm(y) + 6:
            return ks


class TestDirectSectionSum:
    @pytest.mark.parametrize("lattice, point_part, classes", PLANE_SCENES)
    def test_matches_the_section_walk(self, lattice, point_part, classes):
        model = make_plane_model(lattice, point_part)
        points = [c for c in model.sectors if not c.is_full]
        assert len(points) == classes
        indicator = build_cutoff(model, "indicator")
        smooth = build_cutoff(model, "smooth")
        for comp in points:
            cls, y = comp.class_handle, comp.geometry.representative
            images = [k.apply(y) for k in _section_walk(cls, y)]
            direct = cutoff_on_fixed_set_direct(indicator, cls, y)
            assert isinstance(direct, Fraction)
            assert direct == sum(indicator(p) for p in images) == comp.geometry.weight
            assert abs(cutoff_on_fixed_set_direct(smooth, cls, y)
                       - sum(smooth(p) for p in images)) <= 1e-15

    @pytest.mark.parametrize("kind", ["indicator", "smooth"])
    def test_work_is_bounded_by_the_support_box(self, kind, monkeypatch):
        model = make_p4_model()
        cutoff = build_cutoff(model, kind)
        calls = {"section": 0, "cutoff": 0}
        section = ConjugacyClassHandle.coset_section
        evaluate = CutoffFunction.__call__

        def counted_section(self):
            calls["section"] += 1
            return section(self)

        def counted_cutoff(self, x):
            calls["cutoff"] += 1
            return evaluate(self, x)

        monkeypatch.setattr(ConjugacyClassHandle, "coset_section", counted_section)
        monkeypatch.setattr(CutoffFunction, "__call__", counted_cutoff)
        lo, hi = cutoff.support
        bound = model.group.point_group_order * (hi - lo) ** 2
        for comp in model.sectors:
            if comp.is_full:
                continue
            calls["cutoff"] = 0
            cutoff_on_fixed_set_direct(cutoff, comp.class_handle,
                                       comp.geometry.representative)
            assert 0 < calls["cutoff"] <= bound
        assert calls["section"] == 0

    def test_identity_class_gives_the_cutoff(self):
        model = make_p4_model()
        identity = {c.label: c for c in cryst_fixed_classes(model.group)}["e"]
        for kind in ("indicator", "smooth"):
            cutoff = build_cutoff(model, kind)
            for y in ((Fraction(1, 3), Fraction(1, 5)), (Fraction(3, 2), Fraction(-1, 7))):
                assert cutoff_on_fixed_set_direct(cutoff, identity, y) == cutoff(y)

    def test_classes_without_a_direct_sum_raise(self):
        # a translation class, a point the rotation does not fix, a torus class
        model = make_p4_model()
        cutoff = build_cutoff(model, "indicator")
        tcls = translation_class(model.group, (Fraction(1), Fraction(0)))
        with pytest.raises(DomainError):
            cutoff_on_fixed_set_direct(cutoff, tcls, (Fraction(0), Fraction(0)))
        rotation = {c.label: c for c in cryst_fixed_classes(model.group)}["r_origin"]
        with pytest.raises(DomainError):
            cutoff_on_fixed_set_direct(cutoff, rotation, (Fraction(1, 2), Fraction(0)))
        torus = square_torus_rotation_model(4, "e_z4")
        with pytest.raises(DomainError):
            cutoff_on_fixed_set_direct(build_cutoff(torus), torus.sectors[0].class_handle,
                                       (Fraction(0), Fraction(0)))
