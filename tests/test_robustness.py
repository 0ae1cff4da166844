"""Off-catalogue stress checks: oblique lattices, larger cyclotomic fields,
affine torus actions, CLI error branches."""

import io
import json
import random
from fractions import Fraction

import pytest

from orbindex.cli import FIXTURE_DIR, run_command
from orbindex.errors import OrbindexError
from orbindex.exactnum import Cyclo
from orbindex.engine import (
    equivariant_lefschetz,
    finite_assembly,
    kawasaki_index,
    scalars_for_model,
    sum_identity,
)
from orbindex.groups import AffineIsometry, CrystGroup
from orbindex.heat import QuadratureSpec, g_heat_trace, orbital_integral_euclidean
from orbindex.oracle import torus_invariant_index
from orbindex.sectors import (
    QuotientModel,
    BundleSpec,
    TorusAction,
    cryst_fixed_classes,
    sphere_model,
    wallpaper_model,
)
from orbindex.groups import mat, mat_mul, mat_transpose


def oblique_p2(lattice):
    half_turn = AffineIsometry.of(((-1, 0), (0, -1)), (0, 0))
    t1 = AffineIsometry.of(((1, 0), (0, 1)), (1, 0))
    t2 = AffineIsometry.of(((1, 0), (0, 1)), (0, 1))
    return wallpaper_model(CrystGroup(lattice, [half_turn, t1, t2]), "p2_oblique")


class TestObliqueLattices:
    @pytest.mark.parametrize("lattice", [
        [[2, 0], [0, 1]],                       # rectangular
        [[1, 1], [0, 1]],                       # sheared
        [["3/2", "1/2"], [0, 1]],               # rational oblique
    ])
    def test_sum_identity_metric_independent(self, lattice):
        report = sum_identity(oblique_p2(lattice))
        assert report.assembly_total == 1
        assert report.kawasaki_total == 1
        assert len(report.per_class) == 5

    def test_heat_trace_on_rectangular_lattice(self):
        model = oblique_p2([[2, 0], [0, 1]])
        classes = {c.label: c for c in cryst_fixed_classes(model.group)}
        quad = QuadratureSpec.for_model(model, 0.1, 1e-6)
        for label in ("r_origin", "r_edge"):
            value = g_heat_trace(model, classes[label], 0.1, quad)
            assert abs(value - 0.25) < 1e-6, (label, value)

    def test_orbital_integral_on_sheared_lattice(self):
        model = oblique_p2([[1, 1], [0, 1]])
        classes = {c.label: c for c in cryst_fixed_classes(model.group)}
        quad = QuadratureSpec.for_model(model, 0.1, 1e-6)
        cls = classes["r_origin"]
        orb = orbital_integral_euclidean(model, cls, 0.1, quad)
        trace = g_heat_trace(model, cls, 0.1, quad)
        assert abs(orb - trace) < 1e-6


class TestLargerCyclotomicFields:
    def test_random_inverses_high_order(self):
        rng = random.Random(9)
        for order in (20, 24, 92):
            for _ in range(10):
                degree = len(Cyclo.from_rational(0, order).coeffs)
                c = Cyclo(order, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(min(degree, 6))])
                if c.is_zero():
                    continue
                assert c * c.inverse() == 1

    @pytest.mark.parametrize("n,k", [(8, 11), (12, 17), (24, 30)])
    def test_sphere_integrality_high_order(self, n, k):
        model = sphere_model(n, k, f"s2_z{n}")
        value = kawasaki_index(model)
        assert value.is_integer()
        want = sum(1 for m in range(k + 1) if m % n == 0)
        assert value == want

    def test_sphere_per_class_characters_high_order(self):
        from orbindex import oracle

        model = sphere_model(8, 11, "s2_z8")
        order = scalars_for_model(model).order
        for j in range(8):
            lef = equivariant_lefschetz(model, j)
            want = oracle.sphere_equivariant_character(11, 8, j).value
            assert lef == want.promote(order)


class TestAffineTorusActions:
    def make_glide_z2(self):
        # order-2 action x -> -x + (1/2, 0): four fixed points at quarter shifts
        gram = mat([[1, 0], [0, 1]])
        g = AffineIsometry.of(((-1, 0), (0, -1)), (Fraction(1, 2), 0))
        action = TorusAction([g], gram)
        return QuotientModel(action, BundleSpec("dolbeault", 0), name="t2_z2_shift")

    def test_shifted_involution_assembly(self):
        model = self.make_glide_z2()
        asm = finite_assembly(model)
        assert asm.average_total == 1
        assert equivariant_lefschetz(model, 1) == 2
        assert torus_invariant_index(model).value == 1

    def test_shifted_involution_fixed_points(self):
        from orbindex.sectors import enumerate_sectors

        model = self.make_glide_z2()
        points = [c for c in enumerate_sectors(model) if not c.is_full]
        assert sum(c.geometry.orbit_size for c in points) == 4

    def test_translation_only_action_is_free(self):
        gram = mat([[1, 0], [0, 1]])
        s = AffineIsometry.of(((1, 0), (0, 1)), (Fraction(1, 2), 0))
        action = TorusAction([s], gram)
        model = QuotientModel(action, BundleSpec("dolbeault", 0), name="t2_shift")
        assert finite_assembly(model).average_total == 0
        report = sum_identity(model)
        assert list(report.per_class) == ["e"]


class TestCliErrorBranches:
    def test_assembly_on_plane_model_is_input_error(self):
        code = run_command(["index", str(FIXTURE_DIR / "p4.json"),
                            "--method", "assembly"], io.StringIO())
        assert code == 1

    def test_lefschetz_on_plane_model_is_input_error(self):
        code = run_command(["index", str(FIXTURE_DIR / "p4.json"),
                            "--method", "lefschetz"], io.StringIO())
        assert code == 1

    def test_sink_failure_exits_one(self):
        class BrokenSink:
            def write(self, _):
                raise OSError("disk full")

        code = run_command(["classes", str(FIXTURE_DIR / "p4.json")], BrokenSink())
        assert code == 1

    def test_heat_failing_tolerance_exits_two(self, capsys):
        # an absurd tolerance cannot be met by the fixed-resolution quadrature,
        # but the run itself is valid input: verification failure, not error
        code = run_command(["heat", str(FIXTURE_DIR / "p4.json"),
                            "--class", "r_origin", "--t", "0.05,0.2",
                            "--tol", "1e-18"], io.StringIO())
        assert code == 2
        assert "error: quadrature error estimate" in capsys.readouterr().err

    def test_heat_time_below_grid_exits_two(self, capsys):
        # the Gaussian falls between the midpoints of both grids: refused
        # before any sum, not reported as a resolved 0
        out = io.StringIO()
        code = run_command(["heat", str(FIXTURE_DIR / "p4.json"),
                            "--class", "r_center", "--t", "1e-12"], out)
        assert code == 2
        assert out.getvalue() == ""
        assert capsys.readouterr().err.startswith("error: heat time 1.000e-12 is below the grid")

    @pytest.mark.parametrize("option, value", [
        ("--t", ""), ("--t", "abc"), ("--t", "0"), ("--t", "-0.1"), ("--t", "0.1,nan"),
        ("--t", "nan"), ("--t", "inf"), ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"),
    ])
    def test_bad_heat_times_and_tolerance_exit_one(self, option, value, capsys):
        code = run_command(["heat", str(FIXTURE_DIR / "p4.json"), "--class", "r_origin",
                            f"{option}={value}"], io.StringIO())
        assert code == 1
        err = capsys.readouterr().err
        assert f"argument {option}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("block, key, value, path", [
        ("options", "tolerance", "abc", "$.options.tolerance"),
        ("group", "lattice", [[1]], "$.group.lattice"),
        ("bundle", "fiberWeights", 5, "$.bundle.fiberWeights"),
        (None, "ambient", 5, "$.ambient"),
        (None, "options", [], "$.options"),
        (None, "group", "p4", "$.group"),
        (None, "bundle", 5, "$.bundle"),
        ("group", "generators", 5, "$.group.generators"),
        ("group", "generators", [7], "$.group.generators[0]"),
        ("group", "generators", [{"matrix": [[1, 0], [0, 1]], "translation": 5}],
         "$.group.generators[0].translation"),
        ("group", "generators", [{"matrix": [[1, 0], [0, 1]], "translation": ["1"]}],
         "$.group.generators[0].translation"),
        # JSON booleans are not integers or rationals
        ("bundle", "twistDegree", True, "$.bundle.twistDegree"),
        ("group", "generators", [{"matrix": [[0, -1], [True, 0]], "translation": ["0", "0"]}],
         "$.group.generators[0].matrix"),
        ("group", "generators", [{"matrix": [[1, 0], [0, 1]], "translation": [True, "0"]}],
         "$.group.generators[0].translation[0]"),
        ("group", "order", True, "$.group.order"),
        ("ambient", "radius", True, "$.ambient.radius"),
        # degenerate geometry: a singular lattice basis, a sphere radius <= 0
        ("group", "lattice", [["1", "0"], ["2", "0"]], "$.group.lattice"),
        ("ambient", "lattice", [["1", "0"], ["2", "0"]], "$.ambient.lattice"),
        ("ambient", "radius", "0", "$.ambient.radius"),
        ("ambient", "radius", "-1", "$.ambient.radius"),
    ])
    def test_malformed_field_exits_one_with_path(self, tmp_path, capsys,
                                                  block, key, value, path):
        # the sphere fields are edited on the sphere fixture, the torus
        # lattice on the half-turn torus, the rest on p4
        fixture = ("s2_z3_o7" if key in ("order", "radius")
                   else "t2_z2" if (block, key) == ("ambient", "lattice") else "p4")
        doc = json.loads((FIXTURE_DIR / f"{fixture}.json").read_text())
        (doc if block is None else doc[block])[key] = value
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(doc))
        assert run_command(["classes", str(model)], io.StringIO()) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: {path}: ")
        assert "Traceback" not in err

    def test_reflection_generator_exits_one(self, tmp_path, capsys):
        doc = json.loads((FIXTURE_DIR / "p4.json").read_text())
        doc["group"]["generators"][0]["matrix"] = [[1, 0], [0, -1]]
        model = tmp_path / "pm.json"
        model.write_text(json.dumps(doc))
        assert run_command(["verify", str(model)], io.StringIO()) == 1
        assert "orientation-reversing" in capsys.readouterr().err

    def test_verify_output_parses_for_every_fixture(self):
        for name in ("e_z4", "t2_z2", "s2_z3_o7", "p4", "p2", "torus_free",
                     "p4_spinc"):
            buf = io.StringIO()
            code = run_command(["verify", str(FIXTURE_DIR / f"{name}.json")], buf)
            doc = json.loads(buf.getvalue())
            assert code == 0, (name, doc.get("verdicts"))
