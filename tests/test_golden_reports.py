"""Non-heat fixture reports against reports recorded before the sector table
and orientation rule were consolidated: exit code and stdout, byte for byte,
in the fixtures' own mode and in float mode.  A float job runs on a copy of
the fixture document with `options.mode` set to "float", written under the
fixture's own file name, so the report names the same model.

Record again (only when a report is meant to change) with
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from orbindex.cli import FIXTURE_DIR, run_command

GOLDEN = Path(__file__).parent / "golden_reports.json"
MODES = (None, "float")


def _jobs(fixture: str) -> list[list[str]]:
    path = str(FIXTURE_DIR / f"{fixture}.json")
    jobs = [["classes", path], ["sectors", path], ["verify", path]]
    jobs += [["index", path, "--method", m] for m in ("lefschetz", "kawasaki", "assembly")]
    buf = io.StringIO()
    assert run_command(["classes", path], buf) == 0
    for row in json.loads(buf.getvalue())["rows"]:
        jobs.append(["localized", path, "--class", row["label"]])
    return jobs


def _key(mode, argv: list[str]) -> str:
    fixture = Path(argv[1]).stem
    return " ".join([mode or "fixture", argv[0], fixture] + argv[2:])


def _write_float_copies(directory: Path) -> None:
    for path in FIXTURE_DIR.glob("*.json"):
        doc = json.loads(path.read_text())
        doc.setdefault("options", {})["mode"] = "float"
        (directory / path.name).write_text(json.dumps(doc))


def _argv(key: str, float_dir: Path) -> list[str]:
    mode, command, fixture, *rest = key.split(" ")
    directory = FIXTURE_DIR if mode == "fixture" else float_dir
    return [command, str(directory / f"{fixture}.json")] + rest


def _run(argv: list[str]) -> dict:
    buf = io.StringIO()
    code = run_command(argv, buf)
    return {"exit": code, "stdout": buf.getvalue()}


# empty while recording for the first time; the coverage test then fails
REPORTS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.fixture(scope="module")
def float_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("float_fixtures")
    _write_float_copies(directory)
    return directory


@pytest.mark.parametrize("key", sorted(REPORTS))
def test_report_matches_golden(key, float_dir):
    assert _run(_argv(key, float_dir)) == REPORTS[key]


def test_golden_covers_every_fixture_job():
    keys = {_key(mode, argv)
            for fixture in sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))
            for argv in _jobs(fixture) for mode in MODES}
    assert keys == set(REPORTS)


def _record() -> None:
    keys = sorted(_key(mode, argv)
                  for fixture in sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))
                  for argv in _jobs(fixture) for mode in MODES)
    with tempfile.TemporaryDirectory() as tmp:
        _write_float_copies(Path(tmp))
        out = {key: _run(_argv(key, Path(tmp))) for key in keys}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(out)} reports to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
