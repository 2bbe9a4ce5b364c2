"""One workload in one process: ``run.py`` starts this file as a child.

    python3 benchmarks/measure.py warmup  <workload>
    python3 benchmarks/measure.py measure <workload> <seed> <seconds> <trace>

``warmup`` imports ablab and runs the workload once at a tiny scale, at a
fixed seed so that its work does not depend on ``--seed``: it is the set-up
that ``run.py`` times in fresh interpreters.  ``measure`` warms
up the same way, then repeats the workload's operation list for as many
rounds as fit in ``seconds``, checks the results, and prints one JSON line.

With trace 0 the passes run bare and give ``wall_norm_s`` and
``peak_rss_mb``.  The shared host's speed drifts by up to a fifth over
minutes, and that drift moves every pass alike, so each bare pass also
times a fixed reference loop (no ablab code) before every operation.
``wall_norm_s`` is the median over passes of the pass's wall time rescaled
to a reference loop time of ``REF_NOMINAL_S``; the raw median ``wall_s``
and the loop's time are kept in the report.

With trace 1 bare and traced passes alternate, which gives per-layer self
times and exact counts plus ``trace.overhead_frac``; fixed-shape layer
timings follow.  Traced spans are written to
``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_PASSES = 3
# the reference loop's median time on one core of the 2-vCPU x86-64 host
# the benchmark was defined on
REF_NOMINAL_S = 12e-3
REF_REPS = 3  # reference loops timed before each operation of a bare pass
_REF_DATA = []


def _use_checkout() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import ablab
    if Path(ablab.__file__).resolve().parent != ROOT / "src" / "ablab":
        raise RuntimeError(f"imported ablab from {ablab.__file__}, "
                           f"not from {ROOT / 'src'}")


def metadata(seed: int) -> dict:
    import numpy
    import scipy
    import ablab
    return {"seed": seed, "ablab": ablab.__version__,
            "backend": ablab.BACKEND, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def warm_up(workload: str) -> None:
    """Import everything and call every operation once at a tiny scale."""
    import workloads
    run_pass(workloads.operations(workload, workloads.WARMUP_SEED,
                                  workloads.WARMUP_SCALE))


def reference_loop() -> float:
    """Time one run of fixed work that touches no ablab code.

    Interpreter arithmetic, numpy array arithmetic and numpy generator
    construction: the three kinds of work the workloads spend their time on.
    """
    import numpy as np
    if not _REF_DATA:
        _REF_DATA.append(np.random.default_rng(12345).standard_normal(
            (64, 1000)))
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i
    b = np.cumsum(_REF_DATA[0] * 0.5 + 1.0, axis=1)
    np.exp(-np.abs(b), out=b)
    for key in range(150):
        np.random.Generator(np.random.Philox(key=key)).standard_normal(2)
    return time.perf_counter() - t0


def run_pass(ops, tracer=None, ref_times=None):
    """Run every operation once; an exception is recorded as the result.

    With a list as ``ref_times``, the reference loop runs ``REF_REPS``
    times before each operation and its times go to that list; they are
    not part of the pass's wall time.
    """
    results, seconds = [], []
    for op in ops:
        if ref_times is not None:
            ref_times.extend(reference_loop() for _ in range(REF_REPS))
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = op.run()
            else:
                with tracer.span(f"op.{op.name}"):
                    res = op.run()
        except Exception as exc:  # recorded as a failed operation
            res = exc
        seconds.append(time.perf_counter() - t0)
        results.append(res)
    return sum(seconds), results, seconds


def outputs(ops, results) -> list[str]:
    """Exact text of each operation's outputs (repr keeps every digit)."""
    return [repr(r if isinstance(r, Exception) else op.outputs(r))
            for op, r in zip(ops, results)]


def judge(ops, results, seconds) -> tuple[list[dict], list[str]]:
    """Operation records and the reasons, if any, the run is not correct.

    A raise or a missed oracle is a failed operation.  A missed exact
    (deterministic) oracle also means a wrong program.
    """
    records, wrong = [], []
    for op, res, sec in zip(ops, results, seconds):
        if isinstance(res, Exception):
            ok, detail = False, f"raised {res!r}"
        else:
            check = op.check(res)
            ok, detail = check.passed, check.detail
        if op.exact and not ok:
            wrong.append(f"{op.name}: {detail}")
        records.append({"name": op.name, "ok": bool(ok), "detail": detail,
                        "seconds": sec})
    return records, wrong


def _layer_metrics(self_times: dict, counts: dict) -> dict:
    def self_s(name):
        return (self_times.get(name, 0.0), "s")

    def cnt(name, key):
        return (counts.get(name, {}).get(key, 0), "count")

    def ratio(name, num, den, unit):
        c = counts.get(name, {})
        return (c.get(num, 0) / c[den] if c.get(den) else 0.0, unit)

    split, exit_chunk = "kernels.rescaled_split", "kernels.ou_exit_chunk"
    m = {
        "sde.normal_matrix.self_s": self_s("sde.normal_matrix"),
        "sde.normal_matrix.rows": cnt("sde.normal_matrix", "rows"),
        "sde.normal_matrix.draws": cnt("sde.normal_matrix", "draws"),
        f"{split}.self_s": self_s(split),
        f"{split}.path_steps": cnt(split, "path_steps"),
        f"{split}.substeps_per_step": ratio(split, "substeps", "path_steps",
                                            "substeps/step"),
        f"{split}.cap_hits": cnt(split, "cap_hits"),
        f"{split}.diverged": cnt(split, "diverged"),
        "kernels.ou2d_radius.self_s": self_s("kernels.ou2d_radius"),
        "kernels.ou2d_radius.path_steps": cnt("kernels.ou2d_radius",
                                              "path_steps"),
        f"{exit_chunk}.self_s": self_s(exit_chunk),
        f"{exit_chunk}.path_steps": cnt(exit_chunk, "path_steps"),
        f"{exit_chunk}.useful_step_ratio": ratio(exit_chunk, "steps_taken",
                                                 "path_steps", "ratio"),
        "model.rescaled_reduce.self_s": self_s("model.rescaled_reduce"),
        "limit.generator_apply.self_s": self_s("limit.generator_apply"),
        "limit.limit_exact_terminal.self_s":
            self_s("limit.limit_exact_terminal"),
        "analysis._scan_batch.self_s": self_s("analysis._scan_batch"),
        "analysis.reduce_fn.self_s": self_s("analysis.reduce_fn"),
        "analysis.ou_exit_mc.self_s": self_s("analysis.ou_exit_mc"),
        "pde.solve_limit_pde.self_s": self_s("pde.solve_limit_pde"),
        "pde.solve_limit_pde.node_steps": cnt("pde.solve_limit_pde",
                                              "node_steps"),
    }
    # computed from array shapes, not measured
    for name, key in (("model.rescaled_reduce", "path_bytes"),
                      ("limit.limit_exact_reduce", "path_bytes"),
                      ("analysis.ou_exit_mc", "buffer_bytes")):
        m[f"{name}.{key}"] = (counts.get(name, {}).get(key, 0),
                              "bytes-computed")
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, spans_dir: Path | None = None) -> dict:
    import workloads
    warm_up(workload)
    ops = workloads.operations(workload, seed, scale)
    wrong: list[str] = []
    first = None
    walls, traced_walls, self_times, counts, spans = [], [], [], [], []
    ref_means = []
    if trace:
        from instrument import Tracer
        tracer = Tracer()
    # stop before the round that would end past ``seconds``
    start = last = time.perf_counter()
    round_s = 0.0
    while (last - start + round_s <= seconds
           or len(walls) < (2 if trace else MIN_PASSES)):
        refs = None if trace else []
        wall, results, op_seconds = run_pass(ops, ref_times=refs)
        walls.append(wall)
        if refs:
            ref_means.append(statistics.fmean(refs))
        if first is None:
            first = (results, op_seconds, outputs(ops, results))
        elif outputs(ops, results) != first[2]:
            wrong.append(f"pass {len(walls)} outputs differ from pass 1")
        if trace:
            tracer.reset()
            with tracer.installed():
                wall, results, _ = run_pass(ops, tracer)
            traced_walls.append(wall)
            if outputs(ops, results) != first[2]:
                wrong.append(f"traced pass {len(traced_walls)} outputs "
                             "differ from the untraced ones")
            self_times.append(tracer.self_times())
            counts.append(tracer.exact_counts())
            spans.append(tracer.spans)
        del results
        round_s = time.perf_counter() - last
        last += round_s
    records, missed_exact = judge(ops, *first[:2])
    wrong += missed_exact
    metrics: dict[str, tuple[float, str]] = {}
    result = {"meta": metadata(seed), "workload": workload,
              "passes": len(walls), "ops": records}
    if trace:
        if any(c != counts[0] for c in counts[1:]):
            wrong.append("exact counts differ between traced passes")
        names = {k for s in self_times for k in s}
        result["self_s"] = {k: statistics.median(s.get(k, 0.0)
                                                 for s in self_times)
                            for k in sorted(names)}
        result["counts"] = counts[0]
        metrics.update(_layer_metrics(result["self_s"], counts[0]))
        # each traced pass against the bare pass just before it
        metrics["trace.overhead_frac"] = (statistics.median(
            t / w for t, w in zip(traced_walls, walls)) - 1.0, "ratio")
        import layer_timings
        metrics.update(layer_timings.measure(seed))
        if spans_dir is not None:
            spans_dir.mkdir(exist_ok=True)
            path = spans_dir / f"spans-{workload}-seed{seed}.json"
            path.write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent"],
                 "passes": spans}))
            result["spans_file"] = str(path.relative_to(ROOT))
    else:
        metrics["wall_norm_s"] = (statistics.median(
            w * REF_NOMINAL_S / r for w, r in zip(walls, ref_means)), "s")
        result.update(wall_s=statistics.median(walls),
                      ref_loop_s=statistics.median(ref_means))
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "MB")
    result.update(wall_passes=walls, traced_passes=traced_walls,
                  attempted=len(records),
                  failed=sum(not r["ok"] for r in records),
                  correct=not wrong, wrong=wrong,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    return result


def main(argv: list[str]) -> int:
    _use_checkout()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    mode, workload = argv[0], argv[1]
    if mode == "warmup":
        warm_up(workload)
        return 0
    seed, seconds, trace = int(argv[2]), float(argv[3]), argv[4] == "1"
    result = measure(workload, seed, seconds, trace,
                     spans_dir=ROOT / ".bench_out")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
