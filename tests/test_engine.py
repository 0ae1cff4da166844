"""Index engine: Lefschetz numbers, Kawasaki index, localized indices."""

import dataclasses
import io
import json
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

from orbindex.cli import FIXTURE_DIR, load_model, run_command
from orbindex.errors import StructuralError
from orbindex.exactnum import Cyclo
from orbindex.engine import (
    component_value,
    equivariant_lefschetz,
    finite_assembly,
    kawasaki_index,
    localized_index,
    sum_identity,
)
from orbindex.groups import AffineIsometry, ConjugacyClassHandle, CrystGroup
from orbindex.sectors import (
    BundleSpec,
    QuotientModel,
    SphereRotationAction,
    cryst_fixed_classes,
    sphere_model,
    square_torus_rotation_model,
    translation_class,
    wallpaper_model,
)
from orbindex import oracle

I = Cyclo.zeta(4)
ROT = ((0, -1), (1, 0))


def make_p4(kind="dolbeault"):
    r = AffineIsometry.of(ROT, (0, 0))
    t1 = AffineIsometry.of(((1, 0), (0, 1)), (1, 0))
    return wallpaper_model(CrystGroup([[1, 0], [0, 1]], [r, t1]), "p4",
                           operator_kind=kind)


class TestLefschetz:
    def test_e_z4_values(self):
        model = square_torus_rotation_model(4, "e_z4")
        values = {g: equivariant_lefschetz(model, g) for g in range(4)}
        assert values[0] == 0          # flat Todd integral = chi(O) = 0
        assert values[1] == 1 + I      # multiplication by i
        assert values[2] == 2          # four fixed points, each 1/2
        assert values[3] == 1 - I

    def test_e_z4_matches_pullback_oracle(self):
        model = square_torus_rotation_model(4, "e_z4")
        for g, turns in ((1, Fraction(1, 4)), (2, Fraction(1, 2)), (3, Fraction(3, 4))):
            want = oracle.elliptic_pullback_character(turns).value
            assert equivariant_lefschetz(model, g) == want.promote(4)

    def test_t2_z2(self):
        model = square_torus_rotation_model(2, "t2_z2")
        assert equivariant_lefschetz(model, 1) == 2

    def test_sphere_characters_match_oracle(self):
        model = sphere_model(3, 7, "s2_z3_o7")
        order = model.scalars.order
        for j in range(3):
            lef = equivariant_lefschetz(model, j)
            want = oracle.sphere_equivariant_character(7, 3, j).value
            assert lef == want.promote(order)

    def test_plane_model_rejected(self):
        with pytest.raises(StructuralError):
            equivariant_lefschetz(make_p4(), 0)

    def test_spinc_route_equals_todd_route(self):
        # the spin flag picks the formulas: the spin^c twin of a dolbeault
        # model goes through A-hat and the half determinant line
        for model, n in ((square_torus_rotation_model(4, "e_z4"), 4),
                         (sphere_model(3, 7, "s2"), 3)):
            twin = dataclasses.replace(
                model, bundle=dataclasses.replace(model.bundle, operator_kind="spinc_dirac"))
            for g in range(n):
                assert equivariant_lefschetz(model, g) == equivariant_lefschetz(twin, g)


class TestPointTermArithmetic:
    FIXTURES = ["e_z4", "t2_z2", "torus_free", "s2_z3_o7", "p4", "p2"]

    @staticmethod
    def _count_inverses(monkeypatch, args):
        calls = []
        inverse = Cyclo.inverse

        def spy(self):
            calls.append(self)
            return inverse(self)

        monkeypatch.setattr(Cyclo, "inverse", spy)
        assert run_command(args, io.StringIO()) == 0
        return len(calls)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_todd_route_takes_no_field_inverse(self, monkeypatch, name):
        path = str(FIXTURE_DIR / f"{name}.json")
        assert self._count_inverses(monkeypatch, ["verify", path]) == 0
        assert self._count_inverses(monkeypatch, ["index", path]) == 0

    def test_spinc_route_keeps_its_division(self, monkeypatch):
        path = str(FIXTURE_DIR / "p4_spinc.json")
        assert self._count_inverses(monkeypatch, ["verify", path]) > 0


class TestKawasaki:
    def test_e_z4(self):
        assert kawasaki_index(square_torus_rotation_model(4, "e_z4")) == 1

    def test_sphere_z3_o7(self):
        assert kawasaki_index(sphere_model(3, 7, "s2")) == 3

    def test_trivial_sphere_k_plus_one(self):
        assert kawasaki_index(sphere_model(1, 5, "s2")) == 6

    def test_integrality_across_catalogue(self):
        models = [square_torus_rotation_model(n, f"m{n}") for n in (1, 2, 4)]
        models += [sphere_model(3, 7, "s"), sphere_model(4, 6, "s"),
                   sphere_model(6, 11, "s")]
        for model in models:
            value = kawasaki_index(model)
            assert value.is_integer(), (model.name, value)


class TestAssembly:
    def test_e_z4_average(self):
        asm = finite_assembly(square_torus_rotation_model(4, "e_z4"))
        assert asm.average_total == 1
        assert asm.class_total == 1

    def test_t2_z2(self):
        asm = finite_assembly(square_torus_rotation_model(2, "t2_z2"))
        assert asm.average_total == 1

    def test_trivial_group_is_plain_index(self):
        asm = finite_assembly(square_torus_rotation_model(1, "free"))
        assert asm.average_total == 0

    def test_requires_finite_group(self):
        with pytest.raises(StructuralError):
            finite_assembly(make_p4())


class TestLocalizedIndex:
    def test_p4_values(self):
        model = make_p4()
        classes = {c.label: c for c in cryst_fixed_classes(model.group)}
        values = {lab: localized_index(model, cls) for lab, cls in classes.items()}
        assert values["e"] == 0
        assert values["r_origin"] == (1 + I) / 8
        assert values["r_center"] == (1 + I) / 8
        assert values["r3_origin"] == (1 - I) / 8
        assert values["r2_origin"] == Fraction(1, 8)
        assert values["r2_center"] == Fraction(1, 8)
        assert values["r2_edge"] == Fraction(1, 4)

    def test_translation_class_zero(self):
        model = make_p4()
        cls = translation_class(model.group, (Fraction(1), Fraction(0)))
        assert localized_index(model, cls) == 0

    def test_conjugation_invariance(self):
        # replacing the representative changes nothing
        model = make_p4()
        r_far = model.group.element(ROT, (3, -1))
        base = [c for c in cryst_fixed_classes(model.group) if c.label == "r_origin"][0]
        alt = ConjugacyClassHandle(group=model.group, representative=r_far,
                                   kind_tag="infinite-class", label="r_origin")
        assert base.contains(r_far)
        assert localized_index(model, base) == localized_index(model, alt)

    def test_finite_model_regrouping(self):
        # localized index of a finite-model class equals L(g)/|Z(g)|
        from orbindex.groups import centralizer
        from orbindex.sectors import enumerate_sectors

        model = square_torus_rotation_model(4, "e_z4")
        for comp_label, g in (("r1", 1), ("r2", 2), ("r3", 3)):
            handle = [c.class_handle for c in enumerate_sectors(model)
                      if c.label == comp_label][0]
            lef = equivariant_lefschetz(model, g)
            z = len(centralizer(g, model.group.table))
            assert localized_index(model, handle) == lef / z


class TestSumIdentity:
    def test_p4_exact(self):
        report = sum_identity(make_p4())
        assert report.assembly_total == 1
        assert report.kawasaki_total == 1
        assert report.integrality_verdict
        assert max(report.residuals.values(), default=0.0) == 0.0
        assert len(report.per_class) == 8

    def test_p4_conjugate_pair_reality(self):
        report = sum_identity(make_p4())
        assert set(report.pair_reality) == set(report.per_class)
        assert all(v == 0.0 for v in report.pair_reality.values())

    def test_pure_translation_lattice_total_zero(self):
        t1 = AffineIsometry.of(((1, 0), (0, 1)), (1, 0))
        t2 = AffineIsometry.of(((1, 0), (0, 1)), (0, 1))
        model = wallpaper_model(CrystGroup([[1, 0], [0, 1]], [t1, t2]), "lattice")
        report = sum_identity(model)
        assert report.assembly_total == 0
        assert list(report.per_class) == ["e"]

    def test_finite_model_total(self):
        report = sum_identity(square_torus_rotation_model(4, "e_z4"))
        assert report.assembly_total == 1

    def test_oracle_residual_recorded(self):
        model = make_p4()
        want = oracle.torus_invariant_index(
            __import__("orbindex.sectors", fromlist=["induced_torus_model"])
            .induced_torus_model(model)).value
        report = sum_identity(model, oracle_value=want)
        assert report.residuals["total_vs_oracle"] == 0.0

    def test_section_independence(self):
        # component values are blind to which coset section realizes the class;
        # check the direct cut-off sums over two different sections agree
        from orbindex.sectors import build_cutoff, cutoff_on_fixed_set_direct

        model = make_p4()
        classes = {c.label: c for c in cryst_fixed_classes(model.group)}
        cls = classes["r_origin"]
        cutoff = build_cutoff(model, "indicator")
        direct = cutoff_on_fixed_set_direct(cutoff, cls, (Fraction(0), Fraction(0)))
        # a shuffled section: conjugate each k by a centralizer element
        from orbindex.groups import centralizer

        zs = centralizer(cls.representative, model.group)
        total = Fraction(0)
        for n, k in enumerate(islice(cls.coset_section(), 400)):
            k2 = k.compose(zs[n % len(zs)])
            total += cutoff(k2.apply((Fraction(0), Fraction(0))))
        assert total == direct == Fraction(1, 4)


class TestPscFlag:
    def test_spinc_p4_obstructed(self):
        report = sum_identity(make_p4("spinc_dirac"))
        assert report.psc_obstruction is True

    def test_dolbeault_flag_suppressed(self):
        report = sum_identity(make_p4())
        assert report.psc_obstruction is None
        assert "suppressed" in report.psc_note

    @pytest.mark.parametrize("twist, flag", [(0, None), (7, None), (-3, None), (-1, False)])
    def test_spinc_sphere_flag_only_on_the_flat_line(self, twist, flag):
        # the round metric has psc: the spin^c line K^{-1/2} (x) O(k) is flat
        # only at k = -1, and there every localized index vanishes
        model = QuotientModel(SphereRotationAction(3, Fraction(1)),
                              BundleSpec("spinc_dirac", twist), name="s2_z3")
        report = sum_identity(model)
        assert report.psc_obstruction is flag
        if flag is None:
            assert report.psc_note == "flag suppressed: the twisting line is not flat"

    def test_spinc_sphere_at_twist_zero_prints_no_obstruction(self, tmp_path):
        path = tmp_path / "s2_z3_spinc.json"
        path.write_text(json.dumps({
            "schemaVersion": 1,
            "ambient": {"kind": "sphere", "radius": "1"},
            "group": {"kind": "polar_rotation", "order": 3},
            "bundle": {"operatorKind": "spinc_dirac", "twistDegree": 0}}))
        buf = io.StringIO()
        assert run_command(["verify", str(path)], buf) == 0
        report = json.loads(buf.getvalue())
        assert "pscObstruction" not in report
        assert report["pscNote"] == "flag suppressed: the twisting line is not flat"

    def test_spin_sphere_fixture_values(self):
        # spin^c at twist -1 is the spin Dirac operator of the round sphere.
        # The north pole of r_j takes 1/(1 - e^{-i theta}), theta = 2 pi j/3,
        # with twist character 1; the south pole rotates by -theta and its
        # twist character e^{-i theta} makes its term the negative of the
        # north one.  With weight 1/3, r1's poles give
        # +-(1/3)(1/2 + i cot(pi/3)/2) = +-(1/6 + i sqrt(3)/18), and r2's
        # their conjugates, so every class value is 0, as Lichnerowicz forces.
        path = FIXTURE_DIR / "s2_z3_spin.json"
        model = load_model(path)
        sc = model.scalars
        i_sqrt3 = sc.unit(Fraction(1, 6)) - sc.unit(Fraction(5, 6))
        pole = {"r1": sc.from_rational(Fraction(1, 6)) + i_sqrt3 / 18,
                "r2": sc.from_rational(Fraction(1, 6)) - i_sqrt3 / 18}
        values = {(c.label, c.component_tag): component_value(c, model)
                  for c in model.sectors}
        assert values == {("e", "full"): 0,
                          ("r1", "north"): pole["r1"], ("r1", "south"): -pole["r1"],
                          ("r2", "north"): pole["r2"], ("r2", "south"): -pole["r2"]}
        for j in range(3):
            assert equivariant_lefschetz(model, j) == 0
            assert oracle.sphere_equivariant_character(-1, 3, j).value == 0
        buf = io.StringIO()
        assert run_command(["verify", str(path)], buf) == 0
        report = json.loads(buf.getvalue())
        assert report["pscObstruction"] is False
        assert all(row["value"] == ["0", "0"] for row in report["rows"])
        assert report["totals"]["oracle"] == ["0", "0"]

    def test_twisted_flat_torus_flag_suppressed(self):
        t1 = AffineIsometry.of(((1, 0), (0, 1)), (1, 0))
        t2 = AffineIsometry.of(((1, 0), (0, 1)), (0, 1))
        model = wallpaper_model(CrystGroup([[1, 0], [0, 1]], [t1, t2]), "lat",
                                operator_kind="spinc_dirac")
        twisted = dataclasses.replace(model, bundle=BundleSpec("spinc_dirac", 2))
        assert sum_identity(twisted).psc_obstruction is None

    def test_free_torus_unobstructed(self):
        t1 = AffineIsometry.of(((1, 0), (0, 1)), (1, 0))
        t2 = AffineIsometry.of(((1, 0), (0, 1)), (0, 1))
        model = wallpaper_model(CrystGroup([[1, 0], [0, 1]], [t1, t2]), "lat",
                                operator_kind="spinc_dirac")
        report = sum_identity(model)
        assert report.psc_obstruction is False


class TestCutoffKindIndependence:
    def test_indices_agree_across_kinds(self):
        # localized indices are derived from orbit weights, which both cut-off
        # kinds reproduce; verify through the direct sums at every class point
        from orbindex.sectors import (build_cutoff, cutoff_on_fixed_set_direct,
                                      enumerate_sectors, PointOrbit)

        model = make_p4()
        smooth = build_cutoff(model, "smooth")
        indicator = build_cutoff(model, "indicator")
        for comp in enumerate_sectors(model):
            if not isinstance(comp.geometry, PointOrbit):
                continue
            y = comp.geometry.representative
            v_s = float(cutoff_on_fixed_set_direct(smooth, comp.class_handle, y))
            v_i = float(cutoff_on_fixed_set_direct(indicator, comp.class_handle, y))
            assert abs(v_s - v_i) < 1e-12
            assert abs(v_i - float(comp.geometry.weight)) < 1e-12


class TestOneSectorTable:
    """Every command reads the model's one sector table."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from orbindex import sectors

        count = Counter()
        for name in ("_sectors_cryst", "_sectors_torus", "_sectors_sphere"):
            def counted(model, _orig=getattr(sectors, name)):
                count["builds"] += 1
                return _orig(model)
            monkeypatch.setattr(sectors, name, counted)
        return count

    @pytest.mark.parametrize("fixture, argv", [
        ("p4", ["verify"]),
        ("p4", ["localized", "--class", "r_center"]),
        ("p4", ["heat", "--class", "r_center"]),
        ("e_z4", ["verify"]),
        ("t2_z2", ["verify"]),
        ("s2_z3_o7", ["verify"]),
    ])
    def test_one_sector_build_per_command(self, builds, fixture, argv):
        path = str(FIXTURE_DIR / f"{fixture}.json")
        assert run_command([argv[0], path] + argv[1:], io.StringIO()) == 0
        assert builds["builds"] == 1

    def test_verify_values_each_component_once(self, monkeypatch):
        from orbindex import engine

        seen = []
        value = engine.component_value

        def counted(comp, *args, **kwargs):
            seen.append(comp)
            return value(comp, *args, **kwargs)

        monkeypatch.setattr(engine, "component_value", counted)
        assert run_command(["verify", str(FIXTURE_DIR / "p4.json")], io.StringIO()) == 0
        assert len(seen) == 8
        assert len({id(c) for c in seen}) == 8


class TestCompactVerify:
    """Compact verify values every component and every Lefschetz number once,
    and its assembly verdict compares the average with the sector sum."""

    @staticmethod
    def counting(monkeypatch, name):
        from orbindex import engine

        seen = []
        orig = getattr(engine, name)

        def counted(*args):
            seen.append(args)
            return orig(*args)

        monkeypatch.setattr(engine, name, counted)
        return seen

    def test_each_quantity_valued_once(self, monkeypatch):
        values = self.counting(monkeypatch, "component_value")
        lefschetz = self.counting(monkeypatch, "equivariant_lefschetz")
        assert run_command(["verify", str(FIXTURE_DIR / "e_z4.json")], io.StringIO()) == 0
        assert len(values) == 8
        values.clear()
        lefschetz.clear()
        assert run_command(["verify", str(FIXTURE_DIR / "s2_z3_o7.json")], io.StringIO()) == 0
        assert len(lefschetz) == 3
        assert len(values) == 5

    @pytest.fixture
    def shifted_assembly(self, monkeypatch):
        from orbindex import engine

        orig = engine.finite_assembly

        def shifted(model):
            asm = orig(model)
            asm.average_total = asm.average_total + 1
            return asm

        monkeypatch.setattr(engine, "finite_assembly", shifted)

    def test_assembly_mismatch_fails_verify(self, shifted_assembly):
        out = io.StringIO()
        assert run_command(["verify", str(FIXTURE_DIR / "e_z4.json")], out) == 2
        assert json.loads(out.getvalue())["verdicts"]["assemblyGroupings"] is False

    def test_assembly_mismatch_rejected_by_index(self, shifted_assembly, capsys):
        argv = ["index", str(FIXTURE_DIR / "e_z4.json"), "--method", "assembly"]
        assert run_command(argv, io.StringIO()) == 1
        assert "assembly disagrees with the sector sum" in capsys.readouterr().err
