"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the repository's default test run;
they start the benchmark several times and take about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import scenes as sc  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402
import hostspeed  # noqa: E402
from hostspeed import REFERENCE_MS  # noqa: E402
from worker import MIN_CYCLES, run_ops, summarize  # noqa: E402


@pytest.fixture
def workdir():
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _ops_key(ops):
    return [(op.kind, op.scene, op.args, op.known_defect, repr(op.params)) for op in ops]


def test_generator_is_deterministic():
    a, b = sc.catalogue_scenes(ROOT, 7), sc.catalogue_scenes(ROOT, 7)
    assert [(s.name, s.doc, s.index) for s in a] == [(s.name, s.doc, s.index) for s in b]
    assert [s.doc for s in a] != [s.doc for s in sc.catalogue_scenes(ROOT, 8)]
    labels = {s.name: ["a", "b"] for s in a}
    ops = sc.catalogue_ops(a, labels)
    order = _ops_key(sc.shuffled("exact_catalogue", 7, 3, ops))
    assert order == _ops_key(sc.shuffled("exact_catalogue", 7, 3, ops))
    assert order != _ops_key(sc.shuffled("exact_catalogue", 7, 4, ops))

    heat_labels = {s.name: ["e", "r_center", "r_origin", "r2_edge"]
                   for s in sc.heat_scenes(ROOT, 7)}
    assert _ops_key(sc.heat_ops(7, heat_labels)) == _ops_key(sc.heat_ops(7, heat_labels))

    targets = [("p4", "r_center"), ("p2", "r_edge")]
    assert _ops_key(sc.algebra_ops(7, targets)) == _ops_key(sc.algebra_ops(7, targets))
    assert _ops_key(sc.algebra_ops(7, targets)) != _ops_key(sc.algebra_ops(8, targets))


def test_sphere_reference_formula():
    assert [sc.sphere_index(3, k) for k in (0, 2, 3, 7)] == [1, 1, 2, 3]
    assert sc.sphere_index(4, -2) is None


def test_fixture_references_match_readme_and_program(workdir):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = {m.group(1): int(m.group(2))
             for m in re.finditer(r"^\|\s*`(\w+)`\s*\|[^|]*\|\s*(-?\d+)\s*\|", text, re.M)}
    assert table == sc.FIXTURE_INDEX
    wl = workloads.ExactCatalogue(ROOT, workdir, 0)
    for name, index in sc.FIXTURE_INDEX.items():
        path = sc.fixture_dir(ROOT) / f"{name}.json"
        code, out, _ = wl.call(["index", str(path), "--method", "kawasaki"])
        assert code == 0
        assert complex(*map(float, json.loads(out)["totals"]["kawasaki"])) == index


def _traced(workload, ops):
    tracer = Tracer()
    tracer.install()
    records: list = []
    try:
        run_ops(workload, ops, records, tracer)
    finally:
        tracer.uninstall()
    return records, layer_metrics(tracer.rec, len(ops), 1.0)


def _counts(metrics):
    return {k: v["value"] for k, v in metrics.items() if not k.endswith("self_ms")
            and k != "trace.overhead_ratio"}


def test_wrappers_see_every_binding(workdir):
    wl = workloads.HeatVerify(ROOT, workdir, 0)
    wl.setup()
    heat_op = sc.Op("heat", "p4", ("--class", "r_center", "--t", sc.THREE_T,
                                   "--cutoff", "indicator"))
    records, m = _traced(wl, [heat_op])
    assert records[0][3] == workloads.OK
    assert m["heat.g_heat_trace.calls"]["value"] == 4
    assert m["groups.class_contains.calls"]["value"] == 5776
    assert m["groups.elements_in_ball.calls"]["value"] == 4

    cat = workloads.ExactCatalogue(ROOT, workdir, 0)
    cat.setup()
    records, m = _traced(cat, [sc.Op("verify", "p4")])
    assert records[0][3] == workloads.OK
    assert m["sectors.enumerate_sectors.calls"]["value"] == 10
    assert set(m) == {name for name, _, _ in PER_LAYER}


def test_counts_repeat_across_traced_runs(workdir):
    runs = []
    for _ in range(2):
        cat = workloads.ExactCatalogue(ROOT, workdir, 5)
        cat.setup()
        ops = cat.cycle(0)[:80]
        runs.append(_counts(_traced(cat, ops)[1]))
        alg = workloads.ExactAlgebra(ROOT, workdir, 5)
        alg.setup()
        ops = [op for op in alg.cycle(0) if op.kind != "section"][:30]
        runs.append(_counts(_traced(alg, ops)[1]))
    assert runs[0] == runs[2]
    assert runs[1] == runs[3]
    assert runs[0]["exactnum.cyclo_ops"] > 0 and runs[1]["exactnum.cyclo_ops"] > 0


def test_summary_takes_each_op_at_its_median_and_scales_it():
    # op a: 1, 2, 9 ms over three cycles, scales 1, 0.5, 1; op b: 4 ms three
    # times at scale 0.5, failing once
    records = [(c, "a", dt, "ok", "", f)
               for c, (dt, f) in enumerate(((1e-3, 1.0), (2e-3, 0.5), (9e-3, 1.0)))]
    records += [(c, "b", 4e-3, "known" if c == 0 else "ok", "d", 0.5) for c in range(3)]
    out = summarize(records, 1.0)
    assert out["attempted"] == 6 and out["failed"] == 1 and out["cycles"] == 3
    assert out["known_defects"] == {"d": {"ops": 3, "failed": 1}}
    assert out["host_factor"] == 0.5
    # five ok samples at their ops' medians: unscaled 2, 2, 2, 4, 4 ms,
    # scaled 1, 1, 1, 2, 2 ms
    assert out["unscaled_op_p50_s"] == pytest.approx(2e-3)
    assert out["unscaled_ops_per_s"] == pytest.approx(5 / 18e-3)
    assert out["op_p50_s"] == pytest.approx(1e-3)
    assert out["ops_per_s"] == pytest.approx(5 / 9e-3)


def test_host_scale_is_the_reference_time_over_the_measured_one():
    assert 0 < hostspeed.scale() < 1e3 * REFERENCE_MS


def test_heat_cycle_fixes_the_median_and_tail_jobs():
    """Four t1_0 slots hold the median of the thirteen successful jobs; the
    p4 smooth job and three r_center slots hold the eleven dearest samples
    of any run of MIN_CYCLES or more cycles."""
    labels = {s.name: ["e", "r_center", "r_origin", "r2_edge"]
              for s in sc.heat_scenes(ROOT, 7)}
    for seed in range(5):
        ops = sc.heat_ops(seed, labels)
        ok = [op for op in ops if not op.known_defect]
        assert len(ops) == 15 and len(ok) == 13
        t1 = [op for op in ok if op.args[1] == "t1_0"]
        top = [op for op in ok if op.scene == "p4" and op.args[1] == "r_center"
               and (op.args[3] == sc.THREE_T or op.args[5] == "smooth")]
        assert len(t1) == 4 and len({op.key for op in t1}) == 1
        assert len(top) == 4 and len({op.key for op in top}) == 2
    assert MIN_CYCLES * 4 >= 11


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sc.WORKLOADS)
def test_smoke_run(workload):
    out = _bench(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 < result["failed"] < result["attempted"]   # the known-defect share
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run():
    out = _bench(["--workload", "exact_algebra", "--seed", "3", "--seconds", "1",
                  "--trace", "1"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["correct"] is True


def test_refuses_to_run_without_the_program(workdir):
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    out = _bench(["--workload", "exact_catalogue", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=workdir)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
