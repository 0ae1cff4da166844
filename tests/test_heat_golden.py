"""Heat reports against recorded reports, numbers within 1e-12, and the
work one heat command does.

Record again (only when a report is meant to change) with
``PYTHONPATH=src python tests/test_heat_golden.py``.
"""

import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from orbindex.cli import FIXTURE_DIR, run_command
from orbindex.groups import ConjugacyClassHandle, CrystGroup
from orbindex.sectors import CutoffFunction

GOLDEN = Path(__file__).parent / "golden_heat"
THREE_T = "0.05,0.1,0.2"

# p2 on a 2 x 3 lattice: the orbital-integral check holds off the unit cell
P2_LATTICE_2_3 = {
    "schemaVersion": 1,
    "ambient": {"kind": "plane"},
    "group": {
        "kind": "wallpaper",
        "lattice": [["2", "0"], ["0", "3"]],
        "generators": [
            {"matrix": [[-1, 0], [0, -1]], "translation": ["0", "0"]},
            {"matrix": [[1, 0], [0, 1]], "translation": ["1", "0"]},
            {"matrix": [[1, 0], [0, 1]], "translation": ["0", "1"]},
        ],
    },
    "bundle": {"operatorKind": "dolbeault", "twistDegree": 0},
    "options": {"mode": "exact", "tolerance": 1e-08},
}

# golden file -> (model, heat arguments, exit code)
JOBS = {
    "p4_r_center_3t": ("p4", ["--class", "r_center", "--t", THREE_T, "--cutoff", "indicator"], 0),
    "p4_r2_edge_3t": ("p4", ["--class", "r2_edge", "--t", THREE_T, "--cutoff", "indicator"], 0),
    "p4_t1_0_3t": ("p4", ["--class", "t1_0", "--t", THREE_T, "--cutoff", "indicator"], 0),
    "p4_r_center_smooth": ("p4", ["--class", "r_center", "--t", "0.1", "--cutoff", "smooth"], 0),
    "p2_r_edge_3t": ("p2", ["--class", "r_edge", "--t", THREE_T], 0),
    "p2_lattice_2_3_r_center_3t": (None, ["--class", "r_center", "--t", THREE_T], 0),
}


def _heat(model_path, args):
    buf = io.StringIO()
    code = run_command(["heat", str(model_path)] + args, buf)
    return code, json.loads(buf.getvalue())


def _assert_close(got, want, path=""):
    """Equal structure and strings; numeric strings within 1e-12."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, str):
        try:
            w = float(want)
        except ValueError:
            assert got == want, path
            return
        assert abs(float(got) - w) <= 1e-12, (path, got, want)
    else:
        assert got == want, path


def _run_job(name, directory: Path):
    """A job's exit code and report; a generated model is written under
    `directory`."""
    model, args, _ = JOBS[name]
    if model is None:
        path = directory / "p2_lattice_2_3.json"
        path.write_text(json.dumps(P2_LATTICE_2_3))
    else:
        path = FIXTURE_DIR / f"{model}.json"
    return _heat(path, args)


@pytest.mark.parametrize("name", sorted(JOBS))
def test_heat_report_matches_golden(name, tmp_path):
    want_code = JOBS[name][2]
    code, report = _run_job(name, tmp_path)
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert code == want_code
    assert report["verdicts"] == golden["verdicts"]
    _assert_close(report, golden)


@pytest.mark.parametrize("t_values", ["0.1", THREE_T])
def test_heat_command_work_counts(monkeypatch, t_values):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ConjugacyClassHandle, "contains",
                        counted("contains", ConjugacyClassHandle.contains))
    monkeypatch.setattr(CrystGroup, "elements_in_ball",
                        counted("elements_in_ball", CrystGroup.elements_in_ball))
    monkeypatch.setattr(CutoffFunction, "grid", counted("cutoff_grid", CutoffFunction.grid))
    code, _ = _heat(FIXTURE_DIR / "p4.json", ["--class", "r_center", "--t", t_values])
    assert code == 0
    # one cut-off grid per grid size, on the 2n grid, whose sub-grid is the
    # n grid, and none per t; no ball scans
    assert counts == Counter({"cutoff_grid": 1})


def _record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(JOBS):
            code, report = _run_job(name, Path(tmp))
            if code != JOBS[name][2]:
                sys.exit(f"{name}: exit {code}, expected {JOBS[name][2]}")
            (GOLDEN / f"{name}.json").write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(JOBS)} heat reports to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
