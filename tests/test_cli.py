"""CLI: model ingestion, commands, exit codes, deterministic reports."""

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbindex import cli, engine, heat, oracle
from orbindex.exactnum import Scalars
from orbindex.cli import (
    FIXTURE_DIR,
    ModelValidationError,
    _f17,
    load_model,
    parse_model,
    run_command,
)

FIXTURES = ["e_z4", "t2_z2", "s2_z3_o7", "p4", "p2", "torus_free"]


def run(args):
    buf = io.StringIO()
    code = run_command(args, buf)
    text = buf.getvalue()
    return code, json.loads(text) if text else None, text


def test_module_entry_point_runs_cleanly():
    # importing the package must not import orbindex.cli before runpy runs it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "orbindex.cli", "classes", str(FIXTURE_DIR / "p2.json")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""


def _fresh_process(args):
    """stdout, stderr and exit code of `python -m orbindex.cli` on args."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "orbindex.cli"] + args,
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.stdout, proc.stderr, proc.returncode


def test_one_parser_serves_every_command(monkeypatch, capsys):
    # the parser is built once per process; a parse error, help, and heat
    # with the default and an explicit --t, run one after another in one
    # process, print and exit as each does in a fresh one
    monkeypatch.setenv("COLUMNS", "80")
    p4 = str(FIXTURE_DIR / "p4.json")
    for args in (["heat", p4, "--class", "r_center", "--t", "-1"],
                 ["--help"],
                 ["heat", p4, "--class", "r_center"],
                 ["heat", p4, "--class", "r_center", "--t", "0.1"]):
        code = run_command(args)
        out, err = capsys.readouterr()
        assert (out, err, code) == _fresh_process(args), args


class TestLoading:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures_load(self, name):
        model = load_model(FIXTURE_DIR / f"{name}.json")
        assert model.name == name

    def test_unknown_field_rejected(self):
        doc = json.loads((FIXTURE_DIR / "p4.json").read_text())
        doc["extra"] = 1
        with pytest.raises(ModelValidationError):
            parse_model(doc)

    def test_float_literal_rejected(self):
        # rationals must arrive as exact strings or integers, never JSON floats
        doc = json.loads((FIXTURE_DIR / "p4.json").read_text())
        doc["group"]["generators"][0]["translation"] = [0.5, 0]
        with pytest.raises(ModelValidationError):
            parse_model(doc)

    def test_malformed_rational_rejected(self):
        doc = json.loads((FIXTURE_DIR / "p4.json").read_text())
        doc["group"]["generators"][0]["translation"] = ["one/two", "0"]
        with pytest.raises(ModelValidationError):
            parse_model(doc)

    def test_infinite_order_point_part_rejected(self):
        doc = json.loads((FIXTURE_DIR / "p4.json").read_text())
        doc["group"]["generators"][0]["matrix"] = [[1, 1], [0, 1]]
        with pytest.raises(ModelValidationError):
            parse_model(doc)

    def test_sphere_order_bound(self):
        doc = json.loads((FIXTURE_DIR / "s2_z3_o7.json").read_text())
        doc["group"]["order"] = 25
        with pytest.raises(ModelValidationError):
            parse_model(doc)

    def test_third_translation_on_torus_normalized(self):
        doc = {
            "schemaVersion": 1,
            "ambient": {"kind": "torus", "lattice": [["1", "0"], ["0", "1"]]},
            "group": {"kind": "finite_torus", "generators": [
                {"matrix": [[1, 0], [0, 1]], "translation": ["4/3", "0"]}]},
            "bundle": {"operatorKind": "dolbeault", "twistDegree": 0},
            "options": {"mode": "exact", "tolerance": 1e-8},
        }
        model = parse_model(doc, "shift")
        assert model.group.table.order == 3
        assert model.group.isometries[1].translation in \
            ((Fraction(1, 3), Fraction(0)), (Fraction(2, 3), Fraction(0)))

    def test_mode_comes_from_the_document_alone(self, monkeypatch):
        monkeypatch.setenv("ORBINDEX_MODE", "float")
        model = parse_model(json.loads((FIXTURE_DIR / "p4.json").read_text()))
        assert model.mode == "exact"


class TestCommands:
    def test_plane_commands_compute_no_centralizer(self, monkeypatch):
        # plane sector weights come from center orbits, and the orbital
        # integral reads |Z_Gamma(g)| from the sector table
        from orbindex import groups

        calls = []
        original = groups.centralizer

        def counted(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "orbindex" and \
                    getattr(module, "centralizer", None) is original:
                monkeypatch.setattr(module, "centralizer", counted)
        p4 = str(FIXTURE_DIR / "p4.json")
        for argv in (["verify", p4], ["sectors", p4], ["heat", p4, "--class", "r_center"]):
            assert run(argv)[0] == 0
        assert calls == []

    def test_verify_all_fixtures_pass(self):
        for name in FIXTURES:
            code, doc, _ = run(["verify", str(FIXTURE_DIR / f"{name}.json")])
            assert code == 0, (name, doc)
            assert all(doc["verdicts"].values())

    def test_verify_totals(self):
        _, doc, _ = run(["verify", str(FIXTURE_DIR / "e_z4.json")])
        assert doc["totals"]["kawasaki"] == ["1", "0"]
        assert doc["totals"]["oracle"] == ["1", "0"]
        _, doc, _ = run(["verify", str(FIXTURE_DIR / "s2_z3_o7.json")])
        assert doc["totals"]["kawasaki"] == ["3", "0"]
        assert doc["verdicts"]["perClassCharacters"]

    def test_free_action_reports_identity_row_only(self):
        code, doc, _ = run(["verify", str(FIXTURE_DIR / "torus_free.json")])
        assert code == 0
        assert [r["label"] for r in doc["rows"]] == ["e"]

    def test_localized_r2_edge(self):
        code, doc, _ = run(["localized", str(FIXTURE_DIR / "p4.json"),
                            "--class", "r2_edge"])
        assert code == 0
        assert doc["rows"][0]["value"] == ["0.25", "0"]

    def test_classes_rows_sorted(self):
        code, doc, _ = run(["classes", str(FIXTURE_DIR / "p4.json")])
        labels = [r["label"] for r in doc["rows"]]
        assert labels == sorted(labels) and len(labels) == 8

    def test_sectors_report(self):
        code, doc, _ = run(["sectors", str(FIXTURE_DIR / "e_z4.json")])
        assert code == 0
        point_rows = [r for r in doc["rows"] if r["geometry"] == "point"]
        assert {r["label"] for r in point_rows} == {"r1", "r2", "r3"}

    @pytest.mark.parametrize("fixture, block, key, value, area", [
        ("s2_z3_o7", "ambient", "radius", "2", 4 * math.pi * 4),
        ("t2_z2", "ambient", "lattice", [["2", "0"], ["0", "3"]], 6),
        ("p2", "group", "lattice", [["2", "1"], ["0", "3"]], 6),
    ])
    def test_sectors_full_component_area(self, tmp_path, fixture, block, key, value, area):
        doc = json.loads((FIXTURE_DIR / f"{fixture}.json").read_text())
        doc[block][key] = value
        path = tmp_path / f"{fixture}.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run(["sectors", str(path)])
        assert code == 0
        assert [r["area"] for r in report["rows"] if r["geometry"] == "full"] == [_f17(area)]

    def test_index_methods(self):
        code, doc, _ = run(["index", str(FIXTURE_DIR / "e_z4.json"),
                            "--method", "kawasaki"])
        assert code == 0 and doc["totals"]["kawasaki"] == ["1", "0"]
        code, doc, _ = run(["index", str(FIXTURE_DIR / "e_z4.json"),
                            "--method", "assembly"])
        assert code == 0 and doc["totals"]["average"] == ["1", "0"]
        code, doc, _ = run(["index", str(FIXTURE_DIR / "e_z4.json"),
                            "--method", "lefschetz"])
        values = {r["element"]: r["value"] for r in doc["rows"]}
        assert values[1] == ["1", "1"] and values[3] == ["1", "-1"]

    def test_heat_command(self):
        code, doc, _ = run(["heat", str(FIXTURE_DIR / "p4.json"),
                            "--class", "r2_edge", "--t", "0.05,0.1",
                            "--tol", "1e-6"])
        assert code == 0
        row = doc["rows"][0]
        assert float(row["maxTVariation"]) < 1e-6
        assert float(row["mckeanSingerResidual"]) < 1e-6
        assert doc["verdicts"]["pass"]

    def test_heat_cutoff_kinds_differ_only_in_header(self):
        code_i, doc_i, _ = run(["heat", str(FIXTURE_DIR / "p4.json"),
                                "--class", "r2_edge", "--t", "0.1"])
        code_s, doc_s, _ = run(["heat", str(FIXTURE_DIR / "p4.json"),
                                "--class", "r2_edge", "--t", "0.1",
                                "--cutoff", "smooth"])
        assert code_i == code_s == 0
        assert doc_i["convention"]["cutoffKind"] == "indicator"
        assert doc_s["convention"]["cutoffKind"] == "smooth"
        vi = [float(x) for x in doc_i["rows"][0]["perT"]["0.10000000000000001"]]
        vs = [float(x) for x in doc_s["rows"][0]["perT"]["0.10000000000000001"]]
        assert abs(complex(vi[0], vi[1]) - complex(vs[0], vs[1])) < 1e-8


# S^2/Z_n with O(k): the sphere fields run from Q(i) to Q(zeta_28), and the
# assembly and Lefschetz routes invert det(1 - g) there
SPHERE_CASES = [(2, 3), (3, 7), (4, 0), (4, 5), (5, 9), (6, 13), (7, 4), (7, 12), (8, 17),
                (5, -3), (5, -8)]


@pytest.mark.parametrize("n, k", SPHERE_CASES)
def test_sphere_quotient_index_by_every_method(tmp_path, n, k):
    doc = json.loads((FIXTURE_DIR / "s2_z3_o7.json").read_text())
    doc["group"]["order"], doc["bundle"]["twistDegree"] = n, k
    path = tmp_path / f"s2_z{n}_o{k}.json"
    path.write_text(json.dumps(doc))
    values = []
    for method in ("kawasaki", "assembly", "lefschetz"):
        code, report, _ = run(["index", str(path), "--method", method])
        assert code == 0
        if method == "lefschetz":
            rows = [complex(*map(float, r["value"])) for r in report["rows"]]
            values.append(sum(rows) / len(rows))
        else:
            values += [complex(*map(float, v)) for v in report["totals"].values()]
    # k >= 0: h^0(O(k))^{Z_n} = floor(k/n) + 1; k < 0: no closed form here,
    # but every route must give one integer
    want = k // n + 1 if k >= 0 else round(values[0].real)
    assert len(values) == 4
    assert all(abs(v - want) <= 1e-9 for v in values)
    if k >= 0:
        code, report, _ = run(["verify", str(path)])
        assert code == 0 and report["mode"] == "exact"
        assert all(report["verdicts"].values())


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("kind", ["dolbeault", "spinc_dirac"])
@pytest.mark.parametrize("k", [-3, -1, 0, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12])
def test_sphere_sweep_on_both_routes_and_modes(tmp_path, n, k, kind, mode):
    # both full-component routes (Td ch and A-hat e^{t/2} ch) in both modes
    # against the monomial oracle, and the finite assembly against it too
    doc = json.loads((FIXTURE_DIR / "s2_z3_o7.json").read_text())
    doc["group"]["order"], doc["bundle"]["twistDegree"] = n, k
    doc["bundle"]["operatorKind"], doc["options"]["mode"] = kind, mode
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run(["verify", str(path)])
    assert code == 0 and report["mode"] == mode
    assert all(report["verdicts"].values())
    oracle = complex(*map(float, report["totals"]["oracle"]))
    code, report, _ = run(["index", str(path), "--method", "assembly"])
    assert code == 0
    assert all(abs(complex(*map(float, v)) - oracle) <= 1e-9 for v in report["totals"].values())


@pytest.mark.parametrize("name", ["e_z4", "t2_z2", "p4", "p2"])
def test_twisted_flat_model_with_a_rotation_is_refused(tmp_path, capsys, name):
    # its fixed points carry no twist data: e_z4 at twist 2 would print 1.5,
    # where the index is 1
    doc = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
    doc["bundle"]["twistDegree"] = 2
    path = tmp_path / f"{name}_twisted.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run(["index", str(path), "--method", "kawasaki"])
    assert code == 1
    assert "$.bundle.twistDegree" in capsys.readouterr().err


# p1: the unit lattice and no rotation
P1 = {
    "schemaVersion": 1,
    "ambient": {"kind": "plane"},
    "group": {"kind": "wallpaper", "lattice": [["1", "0"], ["0", "1"]], "generators": []},
    "bundle": {"operatorKind": "dolbeault", "twistDegree": 0},
}


@pytest.mark.parametrize("cutoff", ["indicator", "smooth"])
@pytest.mark.parametrize("label", ["e", "t1_0"])
def test_heat_on_a_rotation_free_plane_model_is_zero(tmp_path, label, cutoff):
    # a class with no rotation acts on the fiber by the identity, whose
    # graded character is 0, and nothing is left out of a sum of zeros
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(P1))
    code, report, _ = run(["heat", str(path), "--class", label, "--cutoff", cutoff])
    assert code == 0
    row = report["rows"][0]
    assert list(row["perT"].values()) == [["0", "0"]] * 3
    assert row["truncationBound"] == "0"


def test_heat_refuses_a_twisted_rotation_free_plane_model(tmp_path, capsys):
    # index and localized value p1 at twist 2 as 2, but heat's kernel is the
    # untwisted Gaussian, so the twist is outside what it can check
    doc = dict(P1, bundle={"operatorKind": "dolbeault", "twistDegree": 2})
    path = tmp_path / "p1_twisted.json"
    path.write_text(json.dumps(doc))
    assert run(["localized", str(path), "--class", "e"])[1]["rows"][0]["value"] == ["2", "0"]
    code, _, text = run(["heat", str(path), "--class", "e"])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err.startswith("error: $.bundle.twistDegree: ")


def test_duplicate_torus_labels_are_numbered(tmp_path):
    # t2_z2 with the translation by (1/2, 0): the half turns about 0 and about
    # (1/4, 0) are both r1 before numbering
    doc = json.loads((FIXTURE_DIR / "t2_z2.json").read_text())
    doc["group"]["generators"].append({"matrix": [[1, 0], [0, 1]], "translation": ["1/2", "0"]})
    path = tmp_path / "t2_z2_half_shift.json"
    path.write_text(json.dumps(doc))
    _, report, _ = run(["classes", str(path)])
    assert [r["label"] for r in report["rows"]] == ["e", "r1", "r1_1"]
    assert run(["verify", str(path)])[0] == 0
    code, report, _ = run(["index", str(path), "--method", "assembly"])
    assert code == 0 and report["totals"] == {"average": ["1", "0"], "byClass": ["1", "0"]}
    code, report, _ = run(["index", str(path), "--method", "lefschetz"])
    assert code == 0 and len(report["rows"]) == 4


def test_twisted_rotation_free_torus_still_runs(tmp_path):
    # the free torus has no fixed points, so its index is the twist degree
    doc = json.loads((FIXTURE_DIR / "torus_free.json").read_text())
    doc["bundle"]["twistDegree"] = 2
    path = tmp_path / "torus_free_twisted.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run(["index", str(path), "--method", "kawasaki"])
    assert code == 0
    assert report["totals"]["kawasaki"] == ["2", "0"]


MICRO = Fraction(1, 10 ** 6)


def _shift_oracle(monkeypatch):
    exact = cli._oracle_value
    monkeypatch.setattr(cli, "_oracle_value",
                        lambda model: exact(model) + model.scalars.from_rational(MICRO))


def _shift_assembly_average(monkeypatch):
    exact = engine.finite_assembly

    def shifted(model):
        asm = exact(model)
        return dataclasses.replace(
            asm, average_total=asm.average_total + model.scalars.from_rational(MICRO))
    monkeypatch.setattr(engine, "finite_assembly", shifted)


def _shift_pair_imaginary_parts(monkeypatch):
    # +i/1000 on one class and -i/1000 on another: the total stays 1
    exact = engine.component_value
    signs = {"r_center": 1, "r_origin": -1}

    def shifted(component, model):
        value = exact(component, model)
        if component.label in signs:
            sc = model.scalars
            value = value + sc.unit(Fraction(1, 4)) * \
                sc.from_rational(Fraction(signs[component.label], 1000))
        return value
    monkeypatch.setattr(engine, "component_value", shifted)


def _shift_sphere_character(monkeypatch):
    exact = oracle.sphere_equivariant_character

    def shifted(k, n, j, mode="exact"):
        result = exact(k, n, j, mode)
        if j != 1:
            return result
        shift = Scalars(mode, n).from_rational(MICRO)
        return dataclasses.replace(result, value=result.value + shift)
    monkeypatch.setattr(oracle, "sphere_equivariant_character", shifted)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("fixture, verdict, inject", [
    ("p4", "oracleAgreement", _shift_oracle),
    ("e_z4", "assemblyGroupings", _shift_assembly_average),
    ("p4", "pairReality", _shift_pair_imaginary_parts),
    ("s2_z3_o7", "perClassCharacters", _shift_sphere_character),
])
def test_a_fault_in_one_route_fails_its_verdict_alone(tmp_path, monkeypatch, mode,
                                                       fixture, verdict, inject):
    # each fault is far above the tolerance of its comparison, and far
    # below any looser one; exact zero tests ignore the tolerance, so the
    # float runs pin the assembly tolerance
    doc = json.loads((FIXTURE_DIR / f"{fixture}.json").read_text())
    doc["options"]["mode"] = mode
    path = tmp_path / f"{fixture}.json"
    path.write_text(json.dumps(doc))
    inject(monkeypatch)
    code, report, _ = run(["verify", str(path)])
    assert code == 2
    assert {key for key, ok in report["verdicts"].items() if not ok} == {verdict}


class TestExitCodes:
    def test_unknown_class_lists_valid_labels(self, capsys):
        code, _, _ = run(["localized", str(FIXTURE_DIR / "p4.json"),
                          "--class", "nope"])
        assert code == 1
        err = capsys.readouterr().err
        assert "r2_edge" in err

    @pytest.mark.parametrize("command", ["localized", "heat"])
    @pytest.mark.parametrize("label", ["t0_0", "t-0_0"])
    def test_zero_translation_is_an_unknown_label(self, capsys, command, label):
        # the zero translation is the identity, whose class is e
        code, _, text = run([command, str(FIXTURE_DIR / "p4.json"), "--class", label])
        assert code == 1
        assert text == ""
        err = capsys.readouterr().err
        assert f"unknown class label {label!r}; valid labels: " in err
        assert "missing from the sector list" not in err

    @pytest.mark.parametrize("t", ["100", "1e5", "1e8", "1e17", "1e20"])
    def test_heat_time_beyond_the_tail_bound_refused(self, capsys, t):
        # the kernel floor's reach at each of these times would put the quarter
        # turn's centres beyond MAX_REACH lattice units of the box: no tail
        # bound, so the spec is refused before any member is built
        code, _, text = run(["heat", str(FIXTURE_DIR / "p4.json"), "--class", "r_center",
                             "--t", t])
        assert (code, text) == (2, "")
        assert "tail bound does not reach tolerance/10" in capsys.readouterr().err

    def test_heat_tail_counts_fractional_translations(self, tmp_path):
        # p2 with its half turn translated by (1/3, 1/5): the rotation centres
        # and the members' translations are fractional, and every member that
        # reaches the kernel floor is still found, so the report meets a
        # tolerance of 1e-9
        doc = json.loads((FIXTURE_DIR / "p2.json").read_text())
        doc["group"]["generators"][0]["translation"] = ["1/3", "1/5"]
        path = tmp_path / "p2_shift.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run(["heat", str(path), "--class", "r_pt0", "--t", "0.005",
                               "--cutoff", "smooth", "--tol", "1e-9"])
        assert code == 0
        assert float(report["rows"][0]["mckeanSingerResidual"]) < 1e-14

    def test_wrong_orbital_integral_fails_heat(self, monkeypatch):
        exact = heat.orbital_integral_euclidean

        def off_by_1e3(model, cls, t):
            return exact(model, cls, t) + 1e-3

        monkeypatch.setattr(heat, "orbital_integral_euclidean", off_by_1e3)
        code, doc, _ = run(["heat", str(FIXTURE_DIR / "p4.json"), "--class", "r2_edge"])
        assert code == 2
        assert doc["verdicts"]["pass"] is False
        assert abs(float(doc["rows"][0]["orbitalIntegralResidual"]) - 1e-3) < 1e-12

    def test_missing_file(self):
        code, _, _ = run(["verify", "/no/such/model.json"])
        assert code == 1

    def test_heat_on_compact_model_is_input_error(self):
        code, _, _ = run(["heat", str(FIXTURE_DIR / "e_z4.json"), "--class", "r1"])
        assert code == 1

    def test_parse_error_line_info(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        code, _, _ = run(["verify", str(bad)])
        assert code == 1
        assert ":2:" in capsys.readouterr().err

    def test_validation_error(self, tmp_path, capsys):
        doc = json.loads((FIXTURE_DIR / "p4.json").read_text())
        doc["bundle"]["operatorKind"] = "bogus"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, _ = run(["verify", str(bad)])
        assert code == 1
        assert "operatorKind" in capsys.readouterr().err


class TestDeterminism:
    def test_verify_reports_byte_identical(self):
        _, _, text1 = run(["verify", str(FIXTURE_DIR / "p4.json")])
        _, _, text2 = run(["verify", str(FIXTURE_DIR / "p4.json")])
        assert text1 == text2

    def test_floats_have_17_significant_digits(self):
        _, doc, _ = run(["heat", str(FIXTURE_DIR / "p4.json"),
                         "--class", "r_origin", "--t", "0.1"])
        for key in doc["rows"][0]["perT"]:
            assert key == format(float(key), ".17g")
