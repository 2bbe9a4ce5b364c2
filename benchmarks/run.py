"""The ablab benchmark: one command, every metric by name and unit.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload limit --seed 1 --seconds 28 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 28

Workloads (see ``workloads.py``): ``limit``, ``fastslow``, ``exit_pde``.

With ``--trace 0`` it reports the end-to-end metrics:

- ``wall_norm_s``: median over the passes that fit in ``--seconds`` of the
  wall time of the workload's full operation list, rescaled by a reference
  loop timed between its operations (see ``measure.py``), so that the
  shared host's drifting speed cancels out;
- ``peak_rss_mb``: peak resident memory of the process that ran them;
- ``setup_s``: median over fresh interpreters of ``import ablab`` (numpy and
  scipy included) plus a first call of every operation at a tiny scale,
  each rescaled by the reference loop timed in this process around it.

With ``--trace 1`` it reports the per-layer metrics: self times and exact
work counts from spans around each layer call, fixed-shape layer timings,
and ``trace.overhead_frac``.

The workload runs in a child process with one thread (BLAS and OpenMP
thread variables set to 1).  The human-readable report goes first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A raise or a missed oracle check
is a failed operation.  ``correct`` is false when an exact oracle misses,
when outputs differ between passes at one seed or between traced and
untraced passes, or when exact counts differ between traced passes.
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

from measure import (REF_NOMINAL_S, REF_REPS, THREAD_VARS,  # stdlib-only
                     reference_loop)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("limit", "fastslow", "exit_pde")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    proc = subprocess.run([sys.executable, str(HERE / "measure.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise BenchError(f"measure.py {' '.join(args)} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    return proc


def setup_seconds(workload: str) -> list[tuple[float, float]]:
    """Set-up times of fresh interpreters, each with the mean time of the
    reference loops run just before and after it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        refs = [reference_loop() for _ in range(REF_REPS)]
        t0 = time.perf_counter()
        _child(["warmup", workload], timeout=30)
        elapsed = time.perf_counter() - t0
        refs += [reference_loop() for _ in range(REF_REPS)]
        samples.append((elapsed, statistics.fmean(refs)))
    return samples


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    proc = _child(["measure", workload, str(seed), f"{seconds:g}",
                   "1" if trace else "0"], timeout=CHILD_TIMEOUT_S)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        # after the measured run, so the checkout's bytecode is compiled
        samples = setup_seconds(workload)
        result["setup_passes"] = [t for t, _ in samples]
        result["metrics"]["setup_s"] = {"value": statistics.median(
            t * REF_NOMINAL_S / r for t, r in samples), "unit": "s"}
    return result


def report(result: dict) -> None:
    meta = result["meta"]
    print(f"== workload {result['workload']}  seed {meta['seed']}  "
          f"passes {result['passes']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for op in result["ops"]:
        status = "ok  " if op["ok"] else "FAIL"
        print(f"  {status} {op['name']:<34} {op['seconds']:8.3f} s  "
              f"{op['detail']}")
    print(f"  operations: {result['failed']} failed of "
          f"{result['attempted']} attempted")
    print("  pass wall times: "
          + " ".join(f"{w:.3f}" for w in result["wall_passes"]))
    if "setup_passes" in result:
        print("  set-up times (raw): "
              + " ".join(f"{t:.3f}" for t in result["setup_passes"]))
    if "wall_s" in result:
        print(f"  wall_s (raw median) {result['wall_s']:.4f} s, reference "
              f"loop {result['ref_loop_s'] * 1e3:.3f} ms (nominal "
              f"{REF_NOMINAL_S * 1e3:g} ms)")
    if result["traced_passes"]:
        print("  traced pass wall times: "
              + " ".join(f"{w:.3f}" for w in result["traced_passes"]))
    if "self_s" in result:
        ranked = sorted(result["self_s"].items(), key=lambda kv: -kv[1])
        print("  self time by span (s): " + ", ".join(
            f"{k} {v:.3f}" for k, v in ranked))
        layers = [k for k, _ in ranked
                  if not k.startswith(("op.", "trace."))]
        print(f"  largest layer self time: {layers[0] if layers else None}")
        if "spans_file" in result:
            print(f"  spans written to {result['spans_file']}")
    for reason in result["wrong"]:
        print(f"  NOT CORRECT: {reason}")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")


def summary(result: dict) -> dict:
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ablab" / "__init__.py").is_file():
        print(f"no ablab sources under {ROOT / 'src'}: run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for r in results:
        report(r)
    if args.workload == "all":
        print(json.dumps({r["workload"]: summary(r) for r in results}))
    else:
        print(json.dumps(summary(results[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
