"""Benchmark entry point for orbindex.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  Each
workload runs in fresh interpreters started here:

* ``setup_s`` is timed from process start to readiness (interpreter, import
  of orbindex, generating and loading the documents, filling the caches); it
  is taken SETUP_SAMPLES times, each scaled by the host's speed measured
  right after it (hostspeed.py), and the median is reported;
* ``--trace 0`` then runs whole cycles of the workload for S seconds with no
  tracing and reports the end-to-end metrics, with each op's time scaled by
  the host's speed measured right after it;
* ``--trace 1`` runs one cycle twice untraced and then traced, and reports
  the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Exit code 0 on a completed run, 2 when the program or the checkout is
missing or a worker fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from scenes import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0


def worker_env() -> dict:
    """The caller's environment, minus anything that could switch the
    program's arithmetic mode, with every numeric pool at one thread."""
    env = {k: v for k, v in os.environ.items() if k != "ORBINDEX_MODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, mode: str, seconds: float,
               deadline: float) -> tuple[float, dict]:
    """Start one worker; return (seconds until ready, its result object)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{mode} worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{mode} worker failed with exit code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready_s, json.loads(lines[-1])


def end_to_end(result: dict, setup_s: float) -> dict:
    attempted = result["attempted"]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
        "op_p50_ms": {"value": result["op_p50_s"] * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": result["op_tail_s"] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "fail_ratio": {"value": result["failed"] / attempted, "unit": "ratio"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "orbindex" / "__init__.py").is_file():
        print(f"error: no orbindex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        setups = [run_worker(args.workload, args.seed, "setup", 0, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        mode = "trace" if args.trace else "measure"
        ready_s, result = run_worker(args.workload, args.seed, mode, args.seconds, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setups.append((ready_s, result))
    scaled_setups = [s * r["setup_scale"] for s, r in setups]
    if not result["ok_ops"]:
        print("error: no op succeeded, so no timing can be formed", file=sys.stderr)
        return 2

    correct = result["unexpected"] == 0 and not result["setup_problems"]
    for problem in result["setup_problems"]:
        print(f"setup problem: {problem}")
    print(f"# workload {args.workload} seed {args.seed}: {result['attempted']} ops "
          f"in {result['cycles']} cycles, {result['elapsed_s']:.2f} s, {result['failed']} failed "
          f"({result['unexpected']} unexpected)")
    for defect, entry in sorted(result["known_defects"].items()):
        print(f"# known defect {defect}: {entry['failed']} of {entry['ops']} ops failed, "
              f"share {entry['ops'] / result['attempted']:.4f}")
    print(f"# op_tail_ms is the p{result['op_tail_percentile']:.2f} of "
          f"{result['ok_ops']} successful ops ({result['op_tail_beyond']} beyond it)")
    unscaled = ", ".join(f"{s:.3f}" for s, _ in setups)
    scales = ", ".join(f"{r['setup_scale']:.3f}" for _, r in setups)
    print(f"# setup samples (s): unscaled {unscaled}; scales {scales}")
    if args.trace:
        metrics = result["layers"]
    else:
        print(f"# host factor {result['host_factor']:.4f}; unscaled: "
              f"ops_per_s {result['unscaled_ops_per_s']:.6g}, "
              f"op_p50_ms {result['unscaled_op_p50_s'] * 1e3:.6g}, "
              f"op_tail_ms {result['unscaled_op_tail_s'] * 1e3:.6g}")
        metrics = end_to_end(result, statistics.median(scaled_setups))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
