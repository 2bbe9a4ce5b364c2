"""Fixed-shape timings of each layer function, in units that survive a
change of machine (ns per path-step, ns per draw, node-steps/s).

Shapes follow the workloads: 1024 paths x 1000 steps for the kernels,
n x 1 and 1024 x 1000 for the noise rows, 601 nodes to t = 0.5 for the
PDE solver.  Each figure is the median of a few repeats.  Inputs come from
the benchmark seed.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from ablab import _kernels, analysis, limit, pde, sde
from ablab.model import DTHETA_MAX
from ablab.sde import DEFAULT_GUARD

PATHS, STEPS = 1024, 1000
NOISE_ROWS1 = 10_000  # ~15 us per generator construction, so ~0.2 s
REPEATS = 3


def _median_seconds(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(seed: int) -> dict[str, tuple[float, str]]:
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal((PATHS, STEPS))
    z2 = rng.standard_normal((PATHS, STEPS))
    path_steps = PATHS * STEPS
    out: dict[str, tuple[float, str]] = {}

    def per_step(key, seconds):
        out[key] = (seconds / path_steps * 1e9, "ns/path-step")

    ids = np.arange(NOISE_ROWS1, dtype=np.uint64)
    t = _median_seconds(lambda: sde.normal_matrix(seed, ids, 1))
    out["sde.normal_matrix.ns_per_draw.rows1"] = (t / NOISE_ROWS1 * 1e9,
                                                  "ns/draw")
    ids = np.arange(PATHS, dtype=np.uint64)
    t = _median_seconds(lambda: sde.normal_matrix(seed, ids, STEPS))
    out["sde.normal_matrix.ns_per_draw.rows1000"] = (t / path_steps * 1e9,
                                                     "ns/draw")

    # splitting kernel at eps = 1e-3 (the martingale-residual setting);
    # the off-axis start (3, 4) takes the substep branch
    eps, h = 1e-3, 1e-3
    xs = np.empty((PATHS, STEPS + 1))
    ys = np.empty((PATHS, STEPS + 1))
    for label, (x0, y0) in (("off_axis", (3.0, 4.0)),
                            ("on_axis", (0.0, 2.0))):
        def split(x0=x0, y0=y0):
            div = np.zeros(PATHS, dtype=bool)
            _kernels.rescaled_split(x0, y0, 1.0 / eps, 1.0, h, DTHETA_MAX,
                                    DEFAULT_GUARD, z1, z2, xs, ys, div)
        per_step(f"kernels.rescaled_split.ns_per_path_step.{label}",
                 _median_seconds(split))
    # ys now holds on-axis paths: the input of the reducers below
    div = np.zeros(PATHS, dtype=bool)
    per_step("kernels.rescaled_euler.ns_per_path_step", _median_seconds(
        lambda: _kernels.rescaled_euler(0.0, 2.0, 1.0 / eps, 1.0, h,
                                        DEFAULT_GUARD, z1, z2, np.empty_like(
                                            xs), np.empty_like(xs), div)))
    per_step("kernels.slowtime_euler.ns_per_path_step", _median_seconds(
        lambda: _kernels.slowtime_euler(0.0, 2.0, eps, 1.0, h,
                                        DEFAULT_GUARD, z1, z2, np.empty_like(
                                            xs), np.empty_like(xs), div)))
    per_step("kernels.limit_sq_em.ns_per_path_step", _median_seconds(
        lambda: _kernels.limit_sq_em(2.0, 2.0, 2.0, h, z1,
                                     np.empty_like(xs))))
    decay, sd = math.exp(-h), math.sqrt(-math.expm1(-2.0 * h) / 2.0)
    per_step("kernels.ou2d_radius.ns_per_path_step", _median_seconds(
        lambda: _kernels.ou2d_radius(2.0, decay, sd, z1, z2,
                                     np.empty_like(xs))))

    # one exit-time chunk of the two-sided delta = 0.1 problem
    chunk = 512
    u = rng.random((PATHS, chunk, 2))
    h_exit = analysis.ou_exit_two_sided(0.1) / 300.0
    decay, sd = math.exp(-h_exit), math.sqrt(-math.expm1(-2.0 * h_exit) / 2.0)

    def exit_chunk():
        _kernels.ou_exit_chunk(np.full(PATHS, 0.1), np.zeros(PATHS),
                               np.full(PATHS, np.nan),
                               np.zeros(PATHS, dtype=bool), z1[:, :chunk], u,
                               -0.2, 0.2, decay, sd, h_exit)
    out["kernels.ou_exit_chunk.ns_per_path_step"] = (
        _median_seconds(exit_chunk) / (PATHS * chunk) * 1e9, "ns/path-step")

    delta = eps ** 0.1

    def scan():
        n = ys.shape[0]
        _kernels.scan_crossings(ys, delta, np.zeros((n, 2048), np.int64),
                                np.zeros((n, 2048), np.int64),
                                np.zeros(n, np.int64), np.zeros(n, np.int64),
                                np.zeros(n, dtype=bool))
    out["kernels.scan_crossings.ns_per_sample"] = (
        _median_seconds(scan) / ys.size * 1e9, "ns/sample")

    f = limit.gauss_bump()
    points = ys.ravel()
    out["limit.generator_apply.ns_per_point"] = (
        _median_seconds(lambda: limit.generator_apply(f, points))
        / points.size * 1e9, "ns/point")

    for mode, fn, d in (("two_sided", analysis.ou_exit_two_sided, 0.1),
                        ("one_sided", analysis.ou_exit_one_sided, 0.01)):
        calls = 20
        t = _median_seconds(lambda: [fn(d) for _ in range(calls)])
        out[f"analysis.quadrature.us_per_call.{mode}"] = (t / calls * 1e6,
                                                          "us/call")

    grid = pde.Grid1D(n_points=601, t_final=0.5)
    t = _median_seconds(lambda: pde.solve_limit_pde(limit.square_fn(), grid))
    out["pde.solve_limit_pde.node_steps_per_s"] = (
        grid.n_points * grid.n_steps / t, "node-steps/s")
    return out
