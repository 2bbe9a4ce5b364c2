"""The operation lists of the three benchmark workloads.

An operation is one estimator call into ``ablab``'s public layer functions,
checked against the analytic oracle that the acceptance battery uses for
the same claim.  Every call looks its function up on the module at call
time (``limit.limit_exact_terminal``, not a bound name), so the wrappers of
the traced run see it.

Replica counts are the acceptance configuration scaled down so that one
pass of a workload takes a few seconds on one core; ``scale`` multiplies
them again (the warm-up and the smoke test use a tiny scale).  PDE end
times scale with the same factor.

- ``limit``: the exact radial-limit sampler.  Noise rows of 1-3 draws, so
  almost all time goes to building one Philox generator per row; the
  T = 10 exact-path control stores full paths and sets the peak memory.
- ``fastslow``: the perturbed system through ``rescaled_reduce``, 1000-step
  rows.  The splitting kernel dominates; noise is amortised over long rows.
- ``exit_pde``: OU exit-time Monte Carlo (bulk draws from one stream per
  role, no ``normal_matrix``) and the limit PDE solver.  The control on
  which noise-layer changes must predict no change.  The one-sided
  delta = 0.01 run is criterion 6's configuration, which raises at
  baseline; it stays in the list and counts as a failed operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ablab import analysis, limit, pde
from ablab.model import ModelParams

WORKLOADS = ("limit", "fastslow", "exit_pde")

# Scale and seed of the first-call warm-up: every code path once, at minimal
# size.  At this size the exit-time runs' work swings tenfold with the seed,
# so the warm-up (which set-up time includes) always uses the same one.
WARMUP_SCALE = 1e-3
WARMUP_SEED = 0

KS_COEFF_1PCT = 1.6276  # one-sample KS critical coefficient at alpha = 0.01


@dataclass(frozen=True)
class Check:
    passed: bool
    detail: str


@dataclass(frozen=True)
class Operation:
    """One estimator call.

    ``outputs`` turns the result into numbers that must repeat exactly at
    one seed (across passes, and between traced and untraced runs).
    ``exact`` marks a deterministic oracle: a miss there is a wrong
    program, while a statistical oracle misses at its design rate.
    """

    name: str
    run: Callable[[], object]
    outputs: Callable[[object], list[float]]
    check: Callable[[object], Check]
    exact: bool = False


def _n(n: int, scale: float) -> int:
    return max(8, round(n * scale))


def _seed(seed: int, k: int) -> int:
    return seed * 1009 + k


def _report_outputs(rep) -> list[float]:
    return [rep.estimate, rep.std_error]


def _z_check(rep, oracle: float) -> Check:
    z = abs(rep.estimate - oracle) / rep.std_error
    return Check(z < 3.0, f"|mc - oracle| / se = {z:.3f} (< 3)")


def _limit_ops(seed: int, scale: float) -> list[Operation]:
    times = [0.5, 1.0, 2.0]
    n_moments = _n(20_000, scale)
    n_stat = _n(10_000, scale)
    n_fk = _n(20_000, scale)
    n_ctrl = _n(256, scale)
    f = limit.gauss_bump()

    def moments_check(ys):
        zs = []
        for j, t in enumerate(times):
            y2 = ys[:, j] ** 2
            se = y2.std(ddof=1) / math.sqrt(y2.size)
            zs.append(abs(y2.mean() - float(limit.expected_square(2.0, t)))
                      / se)
        return Check(max(zs) < 3.0,
                     "z = " + ", ".join(f"{z:.3f}" for z in zs) + " (< 3)")

    def stationary_check(ys):
        s = np.sort(ys[:, 0] ** 2)
        n = s.size
        cdf = limit.stationary_square_cdf(s)
        ks = max(np.abs(np.arange(1, n + 1) / n - cdf).max(),
                 np.abs(cdf - np.arange(0, n) / n).max())
        crit = KS_COEFF_1PCT / math.sqrt(n)
        return Check(ks < crit, f"KS vs Exp(1) = {ks:.4f} (< {crit:.4f})")

    pde_ref = {}

    def fk_check(y):
        def check(rep):
            if "sol" not in pde_ref:
                pde_ref["sol"] = pde.solve_limit_pde(
                    f, pde.Grid1D(n_points=601, t_final=1.0))
            u = float(pde_ref["sol"].at(1.0, y))
            gap = abs(u - rep.estimate)
            tol = 3 * rep.std_error + 2e-3
            return Check(gap < tol, f"|pde - mc| = {gap:.5f} (< {tol:.5f})")
        return check

    def control_check(rep):
        lim = 3 * rep.std_error
        return Check(abs(rep.estimate) < lim,
                     f"|residual| = {abs(rep.estimate):.5f} (< {lim:.5f})")

    ops = [
        Operation(
            "limit_exact_terminal.moments",
            lambda: limit.limit_exact_terminal(2.0, times, n_moments,
                                               _seed(seed, 41)),
            lambda ys: [float(v) for v in (ys ** 2).mean(axis=0)],
            moments_check),
        Operation(
            "limit_exact_terminal.stationary",
            lambda: limit.limit_exact_terminal(1.0, [10.0], n_stat,
                                               _seed(seed, 31)),
            lambda ys: [float(ys.mean()), float(ys.std())],
            stationary_check),
    ]
    for k, y in enumerate((0.25, 2.0)):
        ops.append(Operation(
            f"feynman_kac_mc.y{y}",
            lambda y=y, k=k: pde.feynman_kac_mc(y, 1.0, f, n_fk,
                                                _seed(seed, 3 + k)),
            _report_outputs, fk_check(y)))
    ops.append(Operation(
        "martingale_residual_limit.T10",
        lambda: analysis.martingale_residual_limit(0.1, f, 10.0, n_ctrl,
                                                   _seed(seed, 74)),
        _report_outputs, control_check))
    return ops


def _fastslow_ops(seed: int, scale: float) -> list[Operation]:
    n_mart = _n(1024, scale)
    n_cross = _n(256, scale)
    n_moment = _n(2000, scale)
    ladder = [1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5]

    def residual_check(rep):
        lim = 3 * rep.std_error + 0.02
        return Check(abs(rep.estimate) < lim,
                     f"|residual| = {abs(rep.estimate):.5f} (< {lim:.5f})")

    def crossing_check(cs):
        b = cs.bounds
        ok = b["n_ok"] and b["sigma_minus_tau_ok"] and b["tau_minus_sigma_ok"]
        return Check(bool(ok), f"mean n = {cs.mean_n.estimate:.4f} "
                               f"(<= {b['n_bound']:.4f}), duration bounds "
                               f"{b['sigma_minus_tau_ok']}/"
                               f"{b['tau_minus_sigma_ok']}")

    def crossing_outputs(cs):
        return [cs.mean_n.estimate, cs.mean_n.std_error, cs.deep_dip_rate] \
            + [r.estimate for r in (cs.mean_sigma_minus_tau,
                                    cs.mean_tau_minus_sigma) if r is not None]

    def slope_check(fit):
        lo, hi = 0.9 * 0.9 - 0.15, 0.9 + 0.15
        return Check(lo <= fit.slope <= hi,
                     f"slope = {fit.slope:.4f} (in [{lo:.2f}, {hi:.2f}])")

    return [
        Operation(
            "martingale_residual.eps1e-3",
            lambda: analysis.martingale_residual(
                ModelParams(epsilon=1e-3, x0=0.0, y0=2.0), limit.gauss_bump(),
                1.0, n_mart, _seed(seed, 71)),
            _report_outputs, residual_check),
        Operation(
            "martingale_residual.eps1e-2",
            lambda: analysis.martingale_residual(
                ModelParams(epsilon=1e-2, x0=0.0, y0=2.0), limit.lorentzian(),
                1.0, n_mart, _seed(seed, 72)),
            _report_outputs, residual_check),
        Operation(
            "crossing_stats.eps1e-2",
            lambda: analysis.crossing_stats(
                ModelParams(epsilon=1e-2, x0=0.0, y0=2.0), 5.0, n_cross,
                _seed(seed, 67)),
            crossing_outputs, crossing_check),
        Operation(
            "x_second_moment_scaling",
            lambda: analysis.x_second_moment_scaling(
                ladder, 0.1, 0.2, n_moment, _seed(seed, 51)),
            lambda fit: [fit.slope, *fit.estimates], slope_check),
    ]


def _exit_pde_ops(seed: int, scale: float) -> list[Operation]:
    n_exit = _n(10_000, scale)

    def exit_op(mode, delta, k):
        oracle = {"two_sided": analysis.ou_exit_two_sided,
                  "one_sided": analysis.ou_exit_one_sided}[mode]
        return Operation(
            f"ou_exit_mc.{mode}.d{delta}",
            lambda: analysis.ou_exit_mc(delta, mode, n_exit, _seed(seed, k)),
            _report_outputs, lambda rep: _z_check(rep, oracle(delta)))

    def pde_op(n_points, t_final):
        times = [t * scale for t in (0.5, 1.0, 2.0) if t <= t_final]
        grid = pde.Grid1D(n_points=n_points, t_final=t_final * scale)

        def check(sol):
            ys = grid.y_nodes()
            sel = ys <= 3.0
            err = max(float(np.abs(u[sel] - 1.0 - (ys[sel] ** 2 - 1.0)
                                   * math.exp(-2.0 * t)).max())
                      for t, u in zip(sol.times, sol.u))
            return Check(err < 1e-3, f"max |u - closed form| = {err:.2e} "
                                     "(< 1e-3)")

        return Operation(
            f"solve_limit_pde.n{n_points}.t{t_final:g}",
            lambda: pde.solve_limit_pde(limit.square_fn(), grid,
                                        snapshot_times=times),
            lambda sol: [float(sol.u.sum()), sol.u_min, sol.u_max],
            check, exact=True)

    return [exit_op("two_sided", 0.1, 62), exit_op("one_sided", 0.01, 63),
            pde_op(601, 2.0), pde_op(1201, 1.0)]


def operations(workload: str, seed: int, scale: float = 1.0) \
        -> list[Operation]:
    """The operation list of one workload; inputs are a function of seed."""
    build = {"limit": _limit_ops, "fastslow": _fastslow_ops,
             "exit_pde": _exit_pde_ops}
    if workload not in build:
        raise ValueError(f"unknown workload {workload!r}")
    return build[workload](seed, scale)
