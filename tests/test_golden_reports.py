"""Non-heat fixture reports against reports recorded before the sector table
and orientation rule were consolidated: exit code and stdout, byte for byte,
in the fixtures' own mode and with ORBINDEX_MODE=float.

Record again (only when a report is meant to change) with
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import io
import json
import os
import sys
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


def _argv(key: str) -> list[str]:
    _, command, fixture, *rest = key.split(" ")
    return [command, str(FIXTURE_DIR / f"{fixture}.json")] + rest


def _run(argv: list[str]) -> dict:
    buf = io.StringIO()
    code = run_command(argv, buf)
    return {"exit": code, "stdout": buf.getvalue()}


# empty while recording for the first time; the coverage test then fails
REPORTS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("key", sorted(REPORTS))
def test_report_matches_golden(key, monkeypatch):
    mode = key.split(" ")[0]
    if mode == "fixture":
        monkeypatch.delenv("ORBINDEX_MODE", raising=False)
    else:
        monkeypatch.setenv("ORBINDEX_MODE", mode)
    assert _run(_argv(key)) == REPORTS[key]


def test_golden_covers_every_fixture_job(monkeypatch):
    monkeypatch.delenv("ORBINDEX_MODE", raising=False)
    keys = {_key(mode, argv)
            for fixture in sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))
            for argv in _jobs(fixture) for mode in MODES}
    assert keys == set(REPORTS)


def _record() -> None:
    jobs = [argv for fixture in sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))
            for argv in _jobs(fixture)]
    out = {}
    for mode in MODES:
        if mode is None:
            os.environ.pop("ORBINDEX_MODE", None)
        else:
            os.environ["ORBINDEX_MODE"] = mode
        for argv in jobs:
            out[_key(mode, argv)] = _run(argv)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(out)} reports to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
