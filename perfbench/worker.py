"""One workload in a fresh interpreter; started by run.py, never by hand.

Modes:
  setup    set up, report readiness, exit (run.py times several of these)
  measure  set up, then run whole cycles of ops for --seconds, untraced
  trace    set up, run cycle 0 twice untraced, then the same ops traced

The first stdout line is "ready" once set-up is done; the last line is a
JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent

# Stop mid-cycle only when a run overruns this badly (the factor after the
# first cycle, the seconds always), so that a program that became very slow
# still ends within the benchmark's time limit.
HARD_LIMIT_FACTOR = 2.0
HARD_LIMIT_S = 140.0

# Whole cycles a measured run makes at least, even past --seconds, so that
# op_tail_ms of heat_verify always lands on the same job.
MIN_CYCLES = 3


def _check_import() -> None:
    import orbindex
    src = (ROOT / "src").resolve()
    if src not in Path(orbindex.__file__).resolve().parents:
        raise SystemExit(f"orbindex imported from {orbindex.__file__}, not from {src}")


def run_ops(workload, ops, records: list, tracer=None, cycle: int = 0,
            scaled: bool = False) -> None:
    """Execute ops in order, appending (cycle, op key, seconds, outcome,
    known_defect, scale), where scale is the host factor measured right
    after the op when `scaled`, else 1."""
    clock = time.perf_counter
    rec = tracer.rec if tracer else None
    op_nid = rec.name_id("bench.op") if rec else 0
    for op in ops:
        args = workload.prepare(op)
        if rec:
            rec.current_op = len(records)
            idx = rec.begin(op_nid)
        t0 = clock()
        result = workload.execute(args)
        dt = clock() - t0
        if rec:
            rec.finish(idx)
        outcome = workload.check(op, result)
        records.append((cycle, op.key, dt, outcome, op.known_defect,
                        hostspeed.scale() if scaled else 1.0))


def _tail(sorted_times: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with at
    least ten samples beyond it."""
    n = len(sorted_times)
    i = max(n - 11, 0)
    return sorted_times[i], 100.0 * (i + 1) / n, n - i - 1


def summarize(records: list, elapsed: float) -> dict:
    """End-to-end figures of a run.

    Every cycle runs the same ops, so each op has one sample per cycle.  On a
    shared machine one op's time wanders from sample to sample, with rare
    fast bursts and slow stretches, so each sample is taken at its op's
    median over the run's cycles before the figures are formed, once with
    every time scaled to the reference host (see hostspeed.py) and once
    unscaled.  ``host_factor`` is the median scale of the run.
    """
    ok = [key for _, key, _, outcome, _, _ in records if outcome == "ok"]
    defects: dict = {}
    for _, _, _, outcome, defect, _ in records:
        if defect:
            entry = defects.setdefault(defect, {"ops": 0, "failed": 0})
            entry["ops"] += 1
            entry["failed"] += outcome != "ok"
    out = {
        "attempted": len(records),
        "failed": sum(1 for r in records if r[3] != "ok"),
        "unexpected": sum(1 for r in records if r[3] == "unexpected"),
        "elapsed_s": elapsed,
        "cycles": len({r[0] for r in records}),
        "ok_ops": len(ok),
        "known_defects": defects,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host_factor": statistics.median(r[5] for r in records),
    }
    if not ok:
        return out
    for prefix, scaled in (("", True), ("unscaled_", False)):
        samples: dict = {}
        for _, key, dt, _, _, scale in records:
            samples.setdefault(key, []).append(dt * scale if scaled else dt)
        typical = {key: statistics.median(times) for key, times in samples.items()}
        times = sorted(typical[key] for key in ok)
        tail, pct, beyond = _tail(times)
        out.update({f"{prefix}ops_per_s": len(ok) / sum(typical[r[1]] for r in records),
                    f"{prefix}op_p50_s": statistics.median(times),
                    f"{prefix}op_tail_s": tail})
    out.update({"op_tail_percentile": pct, "op_tail_beyond": beyond})
    return out


def measure(workload, seconds: float) -> dict:
    """Whole cycles until --seconds have passed and at least MIN_CYCLES are
    done, so every run has the same op mix and the same failure share."""
    records: list = []
    start = time.perf_counter()
    c = 0
    overrun = False
    while not overrun and (time.perf_counter() - start < seconds or c < MIN_CYCLES):
        for op in workload.cycle(c):
            run_ops(workload, [op], records, cycle=c, scaled=True)
            elapsed = time.perf_counter() - start
            overrun = elapsed > HARD_LIMIT_S or (c > 0 and elapsed > HARD_LIMIT_FACTOR * seconds)
            if overrun:
                break
        c += 1
    return summarize(records, time.perf_counter() - start)


def trace(workload, name: str, seed: int) -> dict:
    from tracing import Tracer, layer_metrics

    ops = workload.cycle(0)
    # the first pass fills the caches, the second is the untraced baseline
    warm: list = []
    run_ops(workload, ops, warm)
    untraced: list = []
    t0 = time.perf_counter()
    run_ops(workload, ops, untraced)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    traced: list = []
    try:
        t0 = time.perf_counter()
        run_ops(workload, ops, traced, tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    span_dir = ROOT / ".perfbench"
    span_dir.mkdir(exist_ok=True)
    tracer.rec.write_spans(span_dir / f"spans-{name}-seed{seed}.jsonl")
    out = summarize(traced, traced_s)
    out["unexpected"] += sum(1 for r in warm + untraced if r[3] == "unexpected")
    out["layers"] = layer_metrics(tracer.rec, len(traced), traced_s / untraced_s)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args()

    _check_import()
    from workloads import WORKLOAD_CLASSES

    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOAD_CLASSES[args.workload](ROOT, workdir, args.seed)
        workload.setup()
        print("ready", flush=True)
        # the host factor right after set-up, as after an op
        setup_scale = hostspeed.scale()
        if args.mode == "setup":
            result = {}
        elif args.mode == "measure":
            result = measure(workload, args.seconds)
        else:
            result = trace(workload, args.workload, args.seed)
        result["setup_scale"] = setup_scale
        result["setup_problems"] = workload.setup_problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
