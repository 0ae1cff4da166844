"""Model ingestion, command dispatch and deterministic report emission.

Models are JSON documents with exact rationals written as "p/q" strings so
exact mode is never contaminated by floats; reports serialize complex values
as [re, im] pairs of 17-significant-digit strings, rows sorted by class label,
so a fixed input yields byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .errors import DomainError, OrbindexError, ResolutionError, StructuralError
from .exactnum import Scalars
from .groups import AffineIsometry, CrystGroup, TorusAction, gram_matrix, mat, mat_det
from .sectors import (
    OPERATOR_KINDS,
    BundleSpec,
    QuotientModel,
    SphereRotationAction,
    build_cutoff,
    induced_torus_model,
    translation_class,
)
from . import engine, heat, oracle

SCHEMA_VERSION = 1
FIXTURE_DIR = Path(__file__).parent / "fixtures"


class ModelValidationError(OrbindexError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass, but true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _rational(value, path: str, errors: list[str]) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value)
        if _is_int(value):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    errors.append(f"{path}: expected an exact rational 'p/q' string, got {value!r}")
    return Fraction(0)


def _lattice(value, path: str, errors: list[str]) -> list[list[Fraction]]:
    if (not isinstance(value, list) or len(value) != 2
            or any(not isinstance(r, list) or len(r) != 2 for r in value)):
        errors.append(f"{path}: expected a 2x2 matrix of exact rationals, got {value!r}")
        return [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    before = len(errors)
    rows = [[_rational(x, path, errors) for x in row] for row in value]
    if len(errors) == before and mat_det(rows) == 0:
        errors.append(f"{path}: the lattice basis is singular")
    return rows


def _check_area(action, path: str, errors: list[str]) -> None:
    """Reject an action whose area is not a finite positive float: every
    command reads the area, or the Gram matrix behind it, as floats."""
    try:
        ok = 0 < action.area < math.inf
    except OverflowError:
        ok = False
    if not ok:
        errors.append(f"{path}: the area is not a finite positive float")
        raise ModelValidationError(errors)


def _check_fields(block: dict, allowed: set, path: str, errors: list[str]) -> None:
    for key in block:
        if key not in allowed:
            errors.append(f"{path}.{key}: unknown field")


def _block(doc: dict, key: str, errors: list[str]) -> dict:
    block = doc.get(key, {})
    if not isinstance(block, dict):
        errors.append(f"$.{key}: expected an object, got {block!r}")
        return {}
    return block


def _generators(group_block: dict, errors: list[str]) -> list[AffineIsometry]:
    gens = group_block.get("generators", [])
    if not isinstance(gens, list):
        errors.append(f"$.group.generators: expected a list of objects, got {gens!r}")
        return []
    return [_parse_generator(g, f"$.group.generators[{i}]", errors)
            for i, g in enumerate(gens)]


def _parse_generator(block, path: str, errors: list[str]) -> AffineIsometry:
    if not isinstance(block, dict):
        errors.append(f"{path}: expected an object, got {block!r}")
        return AffineIsometry.identity()
    _check_fields(block, {"matrix", "translation"}, path, errors)
    m = block.get("matrix")
    t = block.get("translation", ["0", "0"])
    if (not isinstance(m, list) or len(m) != 2
            or any(not isinstance(r, list) or len(r) != 2 for r in m)):
        errors.append(f"{path}.matrix: expected a 2x2 integer matrix")
        return AffineIsometry.identity()
    for row in m:
        for x in row:
            if not _is_int(x):
                errors.append(f"{path}.matrix: entries must be integers")
                return AffineIsometry.identity()
    if not isinstance(t, list) or len(t) != 2:
        errors.append(f"{path}.translation: expected two exact rationals, got {t!r}")
        return AffineIsometry.identity()
    tv = (_rational(t[0], f"{path}.translation[0]", errors),
          _rational(t[1], f"{path}.translation[1]", errors))
    return AffineIsometry.of(m, tv)


# ambient kind -> (ambient fields, group kind, group fields)
SCENE_KINDS = {
    "plane": ({"kind"}, "wallpaper", {"kind", "lattice", "generators"}),
    "torus": ({"kind", "lattice"}, "finite_torus", {"kind", "generators"}),
    "sphere": ({"kind", "radius"}, "polar_rotation", {"kind", "order"}),
}


def parse_model(doc: dict, name: str = "model") -> QuotientModel:
    """Validate a model document and build the QuotientModel, or raise with
    the full list of schema violations."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ModelValidationError(["document root must be an object"])
    _check_fields(doc, {"schemaVersion", "ambient", "group", "bundle", "options"},
                  "$", errors)
    if doc.get("schemaVersion") != SCHEMA_VERSION:
        errors.append(f"$.schemaVersion: expected {SCHEMA_VERSION}")

    ambient_block = _block(doc, "ambient", errors)
    group_block = _block(doc, "group", errors)
    bundle_block = _block(doc, "bundle", errors)
    options = _block(doc, "options", errors)
    _check_fields(options, {"mode", "tolerance"}, "$.options", errors)
    mode = options.get("mode", "exact")
    if mode not in ("exact", "float"):
        errors.append(f"$.options.mode: expected 'exact' or 'float', got {mode!r}")
        mode = "exact"
    # a JSON number that is a positive float: not a bool, a string, NaN or inf
    tolerance = options.get("tolerance", 1e-8)
    if (isinstance(tolerance, float) or _is_int(tolerance)) \
            and 0 < tolerance <= sys.float_info.max:
        tolerance = float(tolerance)
    else:
        errors.append(f"$.options.tolerance: expected a finite number above 0, "
                      f"got {tolerance!r}")
        tolerance = 1e-8

    _check_fields(bundle_block, {"operatorKind", "twistDegree"}, "$.bundle", errors)
    kind = bundle_block.get("operatorKind", "dolbeault")
    if kind not in OPERATOR_KINDS:
        errors.append(f"$.bundle.operatorKind: unknown kind {kind!r}")
        kind = "dolbeault"
    twist = bundle_block.get("twistDegree", 0)
    if not _is_int(twist):
        errors.append("$.bundle.twistDegree: expected an integer")
        twist = 0

    akind = ambient_block.get("kind")
    scene = SCENE_KINDS.get(akind) if isinstance(akind, str) else None
    if scene is None:
        errors.append(f"$.ambient.kind: unknown ambient {akind!r}")
        raise ModelValidationError(errors)
    ambient_fields, gkind, group_fields = scene
    _check_fields(ambient_block, ambient_fields, "$.ambient", errors)
    _check_fields(group_block, group_fields, "$.group", errors)
    if group_block.get("kind") != gkind:
        errors.append(f"$.group.kind: {akind} models need a {gkind!r} group")
        raise ModelValidationError(errors)
    try:
        if akind == "sphere":
            order = group_block.get("order", 1)
            if not _is_int(order) or order < 1 or order > 24:
                errors.append("$.group.order: expected an integer in [1, 24]")
                raise ModelValidationError(errors)
            area_path = "$.ambient.radius"
            before = len(errors)
            radius = _rational(ambient_block.get("radius", "1"), area_path, errors)
            if len(errors) == before and radius <= 0:
                errors.append(f"{area_path}: expected a positive radius, got {radius}")
        else:
            # a plane model keeps its lattice in the group block, a torus model in the ambient
            block, area_path = ((group_block, "$.group.lattice") if akind == "plane"
                                else (ambient_block, "$.ambient.lattice"))
            lattice = _lattice(block.get("lattice", [[1, 0], [0, 1]]), area_path, errors)
            gens = _generators(group_block, errors)
        if errors:
            raise ModelValidationError(errors)
        if akind == "plane":
            action = CrystGroup(lattice, gens)
        elif akind == "torus":
            action = TorusAction(gens, gram_matrix(mat(lattice)))
        else:
            action = SphereRotationAction(order, radius)
        _check_area(action, area_path, errors)
        return QuotientModel(action, BundleSpec(kind, twist), name, mode, tolerance)
    except StructuralError as exc:
        errors.append(str(exc))
        raise ModelValidationError(errors) from exc


def load_model(path: str | Path) -> QuotientModel:
    """Read, validate and build a model document from disk."""
    p = Path(path)
    with open(p, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_model(doc, name=p.stem)


# ---------------------------------------------------------------------------
# Class lookup
# ---------------------------------------------------------------------------

def lookup_class(model: QuotientModel, label: str):
    classes = model.classes
    if label in classes:
        return classes[label][0].class_handle
    if isinstance(model.group, CrystGroup) and label.startswith("t"):
        body = label[1:]
        try:
            a, b = body.split("_")
            return translation_class(model.group,
                                     (Fraction(a.replace("d", "/")),
                                      Fraction(b.replace("d", "/"))))
        except (ValueError, ZeroDivisionError, StructuralError):
            pass
    raise DomainError(
        f"unknown class label {label!r}; valid labels: {', '.join(sorted(classes))}"
        + (", t<m>_<n> (translations)" if isinstance(model.group, CrystGroup) else ""))


# ---------------------------------------------------------------------------
# Report documents
# ---------------------------------------------------------------------------

def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _complex_pair(value) -> list[str]:
    z = Scalars.to_complex(value)
    return [_f17(z.real), _f17(z.imag)]


def _class_row(label: str, comps) -> dict:
    """A class's label, kind and fixed set, from its sector components."""
    n = sum(c.geometry.orbit_size for c in comps if not c.is_full)
    fixed = "full" if comps[0].is_full else f"{n} point" + ("s" if n > 1 else "")
    return {"label": label, "kind": comps[0].class_handle.kind_tag, "fixedSet": fixed}


def base_report(model: QuotientModel, command: str, cutoff_kind: str = "indicator") -> dict:
    return {
        "command": command,
        "model": model.name,
        "schemaVersion": SCHEMA_VERSION,
        "mode": model.mode,
        "convention": {
            "lefschetzNormalization":
                "forward-rotation holomorphic: twist / (1 - e^{i theta})",
            "heatSupertrace": "inverse fiber action: 1 - e^{-i theta}",
            "cutoffKind": cutoff_kind,
        },
    }


def write_report(report: dict, sink) -> None:
    """Serialize a report document deterministically to a text sink."""
    try:
        sink.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise OrbindexError(f"failed to write report: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_classes(model: QuotientModel) -> tuple[dict, int]:
    report = base_report(model, "classes")
    report["rows"] = [_class_row(label, comps) for label, comps in model.classes.items()]
    return report, 0


def cmd_sectors(model: QuotientModel) -> tuple[dict, int]:
    report = base_report(model, "sectors")
    rows = []
    for comp in model.sectors:
        geo = comp.geometry
        row = {
            "label": comp.label,
            "component": comp.component_tag,
            "localGroupOrder": comp.local_group_order,
        }
        if comp.is_full:
            row["geometry"] = "full"
            row["area"] = _f17(geo.area)
        else:
            row["geometry"] = "point"
            row["point"] = [str(geo.representative[0]), str(geo.representative[1])]
            row["weight"] = str(geo.weight)
            row["normalAngleTurns"] = str(comp.normal_angle_turns)
        rows.append(row)
    report["rows"] = rows
    return report, 0


def _assembly_agrees(model: QuotientModel, asm, kawasaki_total) -> bool:
    """The averaged Lefschetz numbers equal the sum over sector components."""
    return model.scalars.is_zero(asm.average_total - kawasaki_total, 1e-10)


def cmd_index(model: QuotientModel, method: str) -> tuple[dict, int]:
    report = base_report(model, f"index --method {method}")
    if method == "kawasaki":
        value = engine.kawasaki_index(model)
        report["totals"] = {"kawasaki": _complex_pair(value)}
    elif method == "assembly":
        if isinstance(model.group, CrystGroup):
            raise DomainError("assembly method requires a finite acting group")
        asm = engine.finite_assembly(model)
        if not _assembly_agrees(model, asm, engine.kawasaki_index(model)):
            raise StructuralError("assembly disagrees with the sector sum")
        report["totals"] = {
            "average": _complex_pair(asm.average_total),
            "byClass": _complex_pair(asm.class_total),
        }
    elif method == "lefschetz":
        if isinstance(model.group, CrystGroup):
            raise DomainError("lefschetz method requires a compact model")
        rows = []
        for g in model.group.table.elements():
            rows.append({"element": int(g),
                         "value": _complex_pair(
                             engine.equivariant_lefschetz(model, g))})
        report["rows"] = rows
    else:
        raise DomainError(f"unknown index method {method!r}")
    return report, 0


def cmd_localized(model: QuotientModel, label: str) -> tuple[dict, int]:
    handle = lookup_class(model, label)
    value = engine.localized_index(model, handle)
    report = base_report(model, f"localized --class {label}")
    report["rows"] = [{"label": label, "value": _complex_pair(value)}]
    return report, 0


def cmd_heat(model: QuotientModel, label: str, t_list: list[float], tol: float,
             cutoff_kind: str) -> tuple[dict, int]:
    handle = lookup_class(model, label)
    quad = heat.QuadratureSpec.for_model(model, max(t_list), tol)
    cutoff = build_cutoff(model, cutoff_kind)
    trace = heat.t_independence(model, handle, t_list, quad, cutoff)
    # McKean-Singer at t0 reuses the t0 trace of the pass above
    index = engine.localized_index(model, handle)
    ms_residual = abs(trace.per_t[t_list[0]] - Scalars.to_complex(index))
    orbital = heat.orbital_integral_euclidean(model, handle, t_list[0])
    orb_residual = abs(orbital - trace.per_t[t_list[0]])
    report = base_report(model, f"heat --class {label}", cutoff_kind)
    report["rows"] = [{
        "label": label,
        "perT": {_f17(t): _complex_pair(v) for t, v in trace.per_t.items()},
        "truncationBound": _f17(trace.truncation_bound),
        "maxTVariation": _f17(trace.max_t_variation),
        "mckeanSingerResidual": _f17(ms_residual),
        "orbitalIntegralResidual": _f17(orb_residual),
    }]
    ok = (trace.max_t_variation < tol and ms_residual < tol and orb_residual < tol)
    report["verdicts"] = {"pass": ok}
    return report, 0 if ok else 2


def _oracle_value(model: QuotientModel):
    if isinstance(model.group, SphereRotationAction):
        return oracle.sphere_invariant_monomial_count(
            model.bundle.twist_degree, model.group.order).value
    if model.bundle.twist_degree == 0 and not model.bundle.spin:
        torus = model if isinstance(model.group, TorusAction) else induced_torus_model(model)
        return oracle.torus_invariant_index(torus).value
    return None


def cmd_verify(model: QuotientModel) -> tuple[dict, int]:
    oracle_value = _oracle_value(model)
    rep = engine.sum_identity(model, oracle_value)
    report = base_report(model, "verify")
    report["rows"] = [{**_class_row(label, comps), "value": _complex_pair(rep.per_class[label])}
                      for label, comps in model.classes.items()]
    report["totals"] = {
        "kawasaki": _complex_pair(rep.kawasaki_total),
        "sumLocalized": _complex_pair(rep.assembly_total),
    }
    verdicts = {
        "sumEqualsKawasaki": rep.residuals["sum_vs_kawasaki"] <= model.tolerance,
        "integrality": rep.integrality_verdict,
        "pairReality": all(v <= model.tolerance for v in rep.pair_reality.values()),
    }
    residuals = {k: _f17(v) for k, v in rep.residuals.items()}
    if oracle_value is not None:
        report["totals"]["oracle"] = _complex_pair(oracle_value)
        verdicts["oracleAgreement"] = rep.residuals["total_vs_oracle"] <= model.tolerance
    if not isinstance(model.group, CrystGroup):
        asm = engine.finite_assembly(model)
        if isinstance(model.group, SphereRotationAction):
            verdicts["perClassCharacters"] = _verify_sphere_characters(model, asm.per_element)
        report["totals"]["assemblyAverage"] = _complex_pair(asm.average_total)
        verdicts["assemblyGroupings"] = _assembly_agrees(model, asm, rep.kawasaki_total)
    report["residuals"] = residuals
    if rep.psc_obstruction is not None:
        report["pscObstruction"] = rep.psc_obstruction
    else:
        report["pscNote"] = rep.psc_note
    report["verdicts"] = verdicts
    return report, 0 if all(verdicts.values()) else 2


def _verify_sphere_characters(model: QuotientModel, per_element: dict) -> bool:
    """Each Lefschetz number L(j) against the monomial-basis character."""
    n = model.group.order
    k = model.bundle.twist_degree
    for j, lef in per_element.items():
        want = oracle.sphere_equivariant_character(k, n, j, model.mode).value
        if abs(Scalars.to_complex(lef) - Scalars.to_complex(want)) > model.tolerance:
            return False
    return True


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _positive_float(text: str) -> float:
    """A finite positive float, or an argparse error (exit 1)."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return x


def _t_list(text: str) -> list[float]:
    """A non-empty comma list of finite positive floats."""
    ts = [_positive_float(x) for x in text.split(",") if x]
    if not ts:
        raise argparse.ArgumentTypeError("expected at least one heat time")
    return ts


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="orbindex",
        description="orbifold, equivariant and localized indices on quotient models")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classes", "sectors", "verify"):
        p = sub.add_parser(name)
        p.add_argument("model")
    p = sub.add_parser("index")
    p.add_argument("model")
    p.add_argument("--method", default="kawasaki",
                   choices=["lefschetz", "kawasaki", "assembly"])
    p = sub.add_parser("localized")
    p.add_argument("model")
    p.add_argument("--class", dest="label", required=True)
    p = sub.add_parser("heat")
    p.add_argument("model")
    p.add_argument("--class", dest="label", required=True)
    p.add_argument("--t", type=_t_list, default="0.05,0.1,0.2")
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument("--cutoff", default="indicator", choices=["indicator", "smooth"])
    return parser


def run_command(argv: list[str], sink=None) -> int:
    """Dispatch a command line; returns the exit code (0 pass, 1 input error,
    2 verification failure)."""
    sink = sink or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        model = load_model(args.model)
    except FileNotFoundError:
        print(f"error: model file not found: {args.model}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: {args.model}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return 1
    except ModelValidationError as exc:
        for v in exc.violations:
            print(f"error: {args.model}: {v}", file=sys.stderr)
        return 1

    try:
        if args.command == "classes":
            report, code = cmd_classes(model)
        elif args.command == "sectors":
            report, code = cmd_sectors(model)
        elif args.command == "index":
            report, code = cmd_index(model, args.method)
        elif args.command == "localized":
            report, code = cmd_localized(model, args.label)
        elif args.command == "heat":
            report, code = cmd_heat(model, args.label, args.t, args.tol, args.cutoff)
        else:  # verify
            report, code = cmd_verify(model)
    except ResolutionError as exc:
        # valid input whose heat check cannot reach the tolerance: a
        # verification failure, not an input error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        write_report(report, sink)
    except OrbindexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
