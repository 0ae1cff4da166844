"""Off-catalogue stress checks: oblique lattices, larger cyclotomic fields,
affine torus actions, CLI error branches."""

import contextlib
import copy
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from orbindex.cli import FIXTURE_DIR, load_model, lookup_class, run_command
from orbindex.errors import OrbindexError
from orbindex.exactnum import Cyclo, Scalars
from orbindex.engine import (
    equivariant_lefschetz,
    finite_assembly,
    kawasaki_index,
    localized_index,
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
        orb = orbital_integral_euclidean(model, cls, 0.1)
        trace = g_heat_trace(model, cls, 0.1, quad)
        assert abs(orb - trace) < 1e-12


    @staticmethod
    def _heat_matches_localized(path, t_values, kind, n_rotations):
        # every rotation class passes heat, each perT within 1e-9 of localized
        model = load_model(path)
        labels = sorted(label for label in model.classes if label != "e")
        assert len(labels) == n_rotations
        for label in labels:
            out = io.StringIO()
            code = run_command(["heat", str(path), "--class", label, "--t", t_values,
                                "--cutoff", kind], out)
            assert code == 0, label
            want = Scalars.to_complex(localized_index(model, lookup_class(model, label)))
            for re, im in json.loads(out.getvalue())["rows"][0]["perT"].values():
                assert abs(complex(float(re), float(im)) - want) < 1e-9, label

    @pytest.mark.parametrize("kind,t_values", [
        pytest.param("indicator", "0.1", id="indicator"),
        pytest.param("smooth", "0.1", id="smooth"),
        pytest.param("indicator", "0.02", id="indicator-0.02"),
        pytest.param("indicator", "0.05,0.1,0.2", id="indicator-three_t"),
    ])
    def test_heat_on_sheared_p4_matches_localized(self, tmp_path, kind, t_values):
        # p4 on a sheared basis of the unit lattice, whose quarter turn's
        # inverse mixes the two axes, so the smooth cut-off takes its 2-D path
        doc = json.loads((FIXTURE_DIR / "p4.json").read_text())
        doc["group"]["lattice"] = [["1", "1"], ["0", "1"]]
        doc["group"]["generators"][0]["matrix"] = [[-1, -2], [1, 1]]
        path = tmp_path / "p4_sheared.json"
        path.write_text(json.dumps(doc))
        self._heat_matches_localized(path, t_values, kind, 7)

    @pytest.mark.parametrize("name,lattice,n_rotations", [
        ("p4", [["3", "0"], ["0", "3"]], 7),
        ("p2", [["2", "0"], ["0", "3"]], 4),
    ])
    def test_heat_on_large_lattices_matches_localized(self, tmp_path, name, lattice,
                                                      n_rotations):
        doc = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
        doc["group"]["lattice"] = lattice
        path = tmp_path / f"{name}_large.json"
        path.write_text(json.dumps(doc))
        self._heat_matches_localized(path, "0.05,0.1,0.2", "indicator", n_rotations)


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
        order = model.scalars.order
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

    @pytest.mark.parametrize("t, tol, message", [
        # the members under the kernel floor alone may add more than 1e-19
        ("0.05,0.2", "1e-18", "tail bound does not reach tolerance/10"),
        # a Gaussian between the two grid spacings: the coarse sum misses it
        ("1e-4", "1e-6", "quadrature error estimate"),
    ])
    def test_heat_failing_tolerance_exits_two(self, capsys, t, tol, message):
        # a tolerance the quadrature cannot meet is valid input:
        # verification failure, not error
        code = run_command(["heat", str(FIXTURE_DIR / "p4.json"),
                            "--class", "r_origin", "--t", t,
                            "--tol", tol], io.StringIO())
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err

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
        # a tolerance is a finite number above 0, never a bool or a string
        ("options", "tolerance", float("nan"), "$.options.tolerance"),
        ("options", "tolerance", -1, "$.options.tolerance"),
        ("options", "tolerance", 0, "$.options.tolerance"),
        ("options", "tolerance", "inf", "$.options.tolerance"),
        ("options", "tolerance", True, "$.options.tolerance"),
        ("group", "lattice", [[1]], "$.group.lattice"),
        ("bundle", "fiberWeights", 5, "$.bundle.fiberWeights"),
        # a well-formed block of the former fiber-weight override, the
        # Dolbeault rule at a quarter turn: fiber characters come from the
        # operator and its twist alone
        ("bundle", "fiberWeights", [{"angle": "1/4", "plus": ["0"], "minus": ["-1/4"]}],
         "$.bundle.fiberWeights"),
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
        # an area that is not a finite positive float: the plane cell |det B|,
        # the torus sqrt(det B^T B) and the sphere 4 pi r^2 over- or underflow
        ("group", "lattice", [["1e160", "0"], ["0", "1e160"]], "$.group.lattice"),
        ("group", "lattice", [["1e-200", "0"], ["0", "1e-200"]], "$.group.lattice"),
        ("ambient", "lattice", [["1e160", "0"], ["0", "1"]], "$.ambient.lattice"),
        ("ambient", "lattice", [["1e-400", "0"], ["0", "1"]], "$.ambient.lattice"),
        ("ambient", "radius", "1e160", "$.ambient.radius"),
        ("ambient", "radius", "1e400", "$.ambient.radius"),
        ("ambient", "radius", "1e-200", "$.ambient.radius"),
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

    @pytest.mark.parametrize("entry", ["1e100", "1e160"])
    def test_heat_on_a_float_unusable_gram_matrix_exits_one(self, tmp_path, capsys, entry):
        # a unimodular basis whose Gram matrix has an entry of 1e200 or
        # 1e320: the area is 1, but heat cannot hold the Gram eigenvalues in
        # floats
        doc = json.loads((FIXTURE_DIR / "p2.json").read_text())
        doc["group"]["lattice"] = [["1", entry], ["0", "1"]]
        model = tmp_path / "p2_skewed.json"
        model.write_text(json.dumps(doc))
        assert run_command(["verify", str(model)], io.StringIO()) == 0
        out = io.StringIO()
        assert run_command(["heat", str(model), "--class", "r_origin", "--t", "0.1"], out) == 1
        assert out.getvalue() == ""
        assert capsys.readouterr().err.startswith(
            "error: heat needs a lattice whose Gram eigenvalues are finite positive floats")

    def test_reflection_generator_exits_one(self, tmp_path, capsys):
        doc = json.loads((FIXTURE_DIR / "p4.json").read_text())
        doc["group"]["generators"][0]["matrix"] = [[1, 0], [0, -1]]
        model = tmp_path / "pm.json"
        model.write_text(json.dumps(doc))
        assert run_command(["verify", str(model)], io.StringIO()) == 1
        assert "orientation-reversing" in capsys.readouterr().err

    @pytest.mark.parametrize("translation, message", [
        # a translation off the lattice gives the identity a second coset vector
        (["1/2", "0"], "translation lattice is not normal: conflicting coset vectors"),
        (["1/17", "0"], "group closure modulo the lattice exceeds the finite cap"),
    ])
    def test_extra_translation_generator_exits_one(self, tmp_path, capsys,
                                                     translation, message):
        doc = json.loads((FIXTURE_DIR / "p4.json").read_text())
        doc["group"]["generators"].append({"matrix": [[1, 0], [0, 1]],
                                           "translation": translation})
        model = tmp_path / "p4_extra.json"
        model.write_text(json.dumps(doc))
        assert run_command(["verify", str(model)], io.StringIO()) == 1
        assert capsys.readouterr().err == f"error: {model}: {message}\n"

    def test_verify_output_parses_for_every_fixture(self):
        for name in ("e_z4", "t2_z2", "s2_z3_o7", "p4", "p2", "torus_free",
                     "p4_spinc"):
            buf = io.StringIO()
            code = run_command(["verify", str(FIXTURE_DIR / f"{name}.json")], buf)
            doc = json.loads(buf.getvalue())
            assert code == 0, (name, doc.get("verdicts"))


# ---------------------------------------------------------------------------
# Fuzz over model documents
# ---------------------------------------------------------------------------

FIXTURE_DOCS = {p.stem: json.loads(p.read_text()) for p in sorted(FIXTURE_DIR.glob("*.json"))}

# exact rationals, most of whose floats overflow or underflow
EDGE_RATIONALS = ["1e400", "1e-400", "1e160", "-1e160", "1e-160", "1e100", "1e-200",
                  "0", "-1", "1/3", "2"]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats()
    | st.text(max_size=4) | st.sampled_from(EDGE_RATIONALS + ["1/0", "nan", "inf", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _node_paths(doc, prefix=()):
    """The path of every node of a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _node_paths(value, prefix + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    """A copy of doc with the node at path replaced by value."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    _node(doc, path[:-1])[path[-1]] = value
    return doc


def _is_nonzero_rational(value) -> bool:
    try:
        return isinstance(value, str) and Fraction(value) != 0
    except (ValueError, ZeroDivisionError):
        return False


@st.composite
def mutated_documents(draw):
    """A fixture with one or two edits.

    Half of the edits put one edge rational at every nonzero exact rational
    under some node (one lattice entry, a whole lattice scaled alike, a
    radius), a quarter put an integer where an integer was, and a quarter
    put an arbitrary JSON value at an arbitrary node, the root included; the
    first two kinds keep many documents parseable, so that they reach the
    arithmetic."""
    doc = FIXTURE_DOCS[draw(st.sampled_from(sorted(FIXTURE_DOCS)))]
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_node_paths(doc))
        rationals = [p for p in paths if _is_nonzero_rational(_node(doc, p))]
        integers = [p for p in paths if type(_node(doc, p)) is int]
        kind = draw(st.sampled_from(["rational", "rational", "integer", "any"]))
        if kind == "rational" and rationals:
            node = draw(st.sampled_from([p for p in paths
                                         if any(p == q[:len(p)] for q in rationals)]))
            value = draw(st.sampled_from(EDGE_RATIONALS))
            for path in rationals:
                if path[:len(node)] == node:
                    doc = _replaced(doc, path, value)
        elif kind == "integer" and integers:
            doc = _replaced(doc, draw(st.sampled_from(integers)), draw(st.integers(-1000, 1000)))
        else:
            doc = _replaced(doc, draw(st.sampled_from(paths)), draw(JSON_VALUES))
    return doc


def _lattice_doc(name, block, lattice):
    return _replaced(FIXTURE_DOCS[name], (block, "lattice"), lattice)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(doc=mutated_documents())
# areas or Gram matrices whose floats over- or underflow
@example(doc=_replaced(FIXTURE_DOCS["s2_z3_o7"], ("ambient", "radius"), "1e160"))
@example(doc=_lattice_doc("p4", "group", [["1e160", "0"], ["0", "1e160"]]))
@example(doc=_lattice_doc("p4", "group", [["1e-200", "0"], ["0", "1e-200"]]))
@example(doc=_lattice_doc("p2", "group", [["1", "1e100"], ["0", "1"]]))
@example(doc=_lattice_doc("t2_z2", "ambient", [["1e160", "0"], ["0", "1"]]))
def test_any_model_document_exits_zero_one_or_two(doc):
    # classes, verify and a one-t heat on the first rotation class each exit
    # 0, 1 or 2, and none raises
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        path = str(Path(tmp) / "model.json")
        Path(path).write_text(json.dumps(doc))
        out = io.StringIO()
        code = run_command(["classes", path], out)
        assert code in (0, 1)
        labels = [row["label"] for row in json.loads(out.getvalue())["rows"]] if code == 0 else []
        label = next((x for x in labels if x != "e"), "e")
        assert run_command(["verify", path], io.StringIO()) in (0, 1, 2)
        assert run_command(["heat", path, "--class", label, "--t", "0.1"],
                           io.StringIO()) in (0, 1, 2)
