"""Statistical verification of the fast-slow system against its limit.

Estimators here turn the qualitative convergence statements into numbers:
moment scalings of the fast coordinate, martingale residuals of the limit
generator along perturbed paths, weak-convergence gaps, band-crossing
statistics with exit-time quadrature oracles, and metastable excursion
statistics.  Every estimator is a pure function of its seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate
from scipy.special import erf, erfcx, erfi

from . import _kernels
from .limit import LimitParams, TestFunction, _exact_step_coeffs, \
    generator_apply, limit_exact_reduce, limit_exact_terminal
from .model import ModelParams, batch_rows, block_rows, project_pi, \
    rescaled_reduce
from .sde import RngStream, TimeGrid

# ---------------------------------------------------------------------------
# pass thresholds, shared by the acceptance battery and the CLI
# ---------------------------------------------------------------------------

# A Monte Carlo estimate passes when it lies within Z_GATE standard errors
# of its target, plus a slack where the target carries a known bias.
Z_GATE = 3
# Weak-convergence residuals and gaps at finite epsilon (criteria 7 and 9,
# ``ablab martingale`` and ``ablab weak-gap``).
WEAK_GAP_SLACK = 0.02
# Finite-difference error of the PDE solution at the ``ablab pde`` probes.
PDE_PROBE_SLACK = 2e-3
# Factor by which crossing counts and durations may miss their oracles.
CROSSING_SAFETY = 2.0
# Asymptotic Kolmogorov-Smirnov coefficient sqrt(-ln(alpha/2)/2), alpha = 1%.
KS_COEFF_1PCT = math.sqrt(-math.log(0.01 / 2.0) / 2.0)
# Pass window of the log-log slope of E[X_t^2] against epsilon at
# alpha = 0.1 (criterion 5 and ``ablab lemma1``).
MOMENT_SCALING_WINDOW = (0.9 * 0.9 - 0.15, 0.9 + 0.15)


def z_threshold(std_error: float, slack: float = 0.0) -> float:
    """Largest |estimate - target| that passes: Z_GATE * se + slack."""
    return Z_GATE * std_error + slack


def check_replicas(n: int) -> None:
    """Reject n < 2 before anything is simulated: a standard error needs
    at least two samples."""
    if n < 2:
        raise ValueError("a standard error needs at least 2 replicas")


def ks_critical_value(n: int, m: int) -> float:
    """Two-sample Kolmogorov-Smirnov critical value (asymptotic), 1% level."""
    return KS_COEFF_1PCT * math.sqrt((n + m) / (n * m))


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS statistic via a sorted merge."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / a.size
    cdf_b = np.searchsorted(b, both, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


@dataclass
class StatReport:
    """Monte Carlo estimate with its standard error and provenance."""

    estimate: float
    std_error: float
    n_replicas: int
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        check_replicas(self.n_replicas)

    @classmethod
    def from_samples(cls, samples: np.ndarray, **config) -> "StatReport":
        samples = np.asarray(samples, dtype=np.float64)
        n = samples.size
        return cls(estimate=float(samples.mean()),
                   std_error=float(samples.std(ddof=1) / math.sqrt(n)),
                   n_replicas=n, config=config)


@dataclass
class ScalingFit:
    """Log-log regression of estimates against epsilon."""

    epsilons: list[float]
    estimates: list[float]
    std_errors: list[float]
    slope: float
    slope_se: float
    intercept: float

    def __post_init__(self):
        eps = np.asarray(self.epsilons)
        if len(eps) < 3 or not (np.diff(eps) < 0).all():
            raise ValueError("need >= 3 strictly decreasing epsilon values")

    @classmethod
    def from_points(cls, epsilons, estimates, std_errors) -> "ScalingFit":
        lx = np.log(np.asarray(epsilons, dtype=np.float64))
        ly = np.log(np.asarray(estimates, dtype=np.float64))
        w = (lx - lx.mean()) / np.sum((lx - lx.mean()) ** 2)
        slope = float(np.sum(w * ly))
        intercept = float(ly.mean() - slope * lx.mean())
        rel = np.asarray(std_errors) / np.asarray(estimates)
        slope_se = float(math.sqrt(np.sum((w * rel) ** 2)))
        return cls(list(map(float, epsilons)), list(map(float, estimates)),
                   list(map(float, std_errors)), slope, slope_se, intercept)


# ---------------------------------------------------------------------------
# band-crossing stopping times
# ---------------------------------------------------------------------------

# Most entries into the band |y| <= delta that one path may record.
MAX_CROSSINGS = 2048


def _scan_batch(ys: np.ndarray, delta: float):
    """Alternating first hits of |y| <= delta (taus) and |y| >= 2*delta
    (sigmas) along each row of ys, as grid indices.  A row with more than
    MAX_CROSSINGS taus raises instead of being truncated."""
    n_paths = ys.shape[0]
    tau_idx = np.zeros((n_paths, MAX_CROSSINGS), dtype=np.int64)
    sig_idx = np.zeros((n_paths, MAX_CROSSINGS), dtype=np.int64)
    n_tau = np.zeros(n_paths, dtype=np.int64)
    n_sig = np.zeros(n_paths, dtype=np.int64)
    overflow = np.zeros(n_paths, dtype=bool)
    _kernels.scan_crossings(np.ascontiguousarray(ys, dtype=np.float64),
                            delta, tau_idx, sig_idx, n_tau, n_sig, overflow)
    if overflow.any():
        raise RuntimeError(f"{int(overflow.sum())} paths cross the band "
                           f"more than {MAX_CROSSINGS} times")
    return tau_idx, sig_idx, n_tau, n_sig


# ---------------------------------------------------------------------------
# second moment of the fast coordinate
# ---------------------------------------------------------------------------

def min_time_for_moment(p: ModelParams) -> float:
    """Shortest t at which the fast coordinate has relaxed: eps^((1-alpha)/2)."""
    return p.epsilon ** ((1.0 - p.alpha) / 2.0)


def x_second_moment(p: ModelParams, t: float, n: int, master_seed: int,
                    h: float = 1e-3) -> StatReport:
    """E[X_t^2] over replicas whose Y stayed >= delta up to t.

    Replicas violating the conditioning band are excluded and the exclusion
    rate reported (warning above 10%): the conditional statement is read as
    exclusion-and-report, with the discard rate itself a diagnostic.
    """
    check_replicas(n)
    t0 = min_time_for_moment(p)
    if t < t0:
        raise ValueError(f"t={t} below the relaxation time {t0:.4g}")
    delta = p.delta()
    grid = TimeGrid(t, h)
    out = rescaled_reduce(
        p, grid, master_seed, n,
        lambda ts, xs, ys, div: {"x2": xs[:, -1] ** 2,
                                 "ok": (ys.min(axis=1) >= delta) & ~div},
        batch_size=batch_rows(grid.n_steps + 1))
    kept = out["x2"][out["ok"]]
    excl = 1.0 - kept.size / n
    if excl > 0.10:
        warnings.warn(f"exclusion rate {excl:.1%} above 10%", stacklevel=2)
    rep = StatReport.from_samples(
        kept, epsilon=p.epsilon, alpha=p.alpha, t=t, h=h,
        seed=master_seed, exclusion_rate=excl)
    return rep


def x_second_moment_scaling(epsilons, alpha: float, t: float, n: int,
                            master_seed: int, h: float = 1e-3) -> ScalingFit:
    """Log-log scaling of E[X_t^2] against epsilon at fixed alpha, from
    ModelParams' default start (0, 2)."""
    estimates, ses = [], []
    for i, eps in enumerate(epsilons):
        p = ModelParams(epsilon=eps, alpha=alpha)
        rep = x_second_moment(p, t, n, master_seed + i, h=h)
        estimates.append(rep.estimate)
        ses.append(rep.std_error)
    return ScalingFit.from_points(epsilons, estimates, ses)


# ---------------------------------------------------------------------------
# martingale residual of the limit generator
# ---------------------------------------------------------------------------

def _trapezoid(w: np.ndarray, h: float) -> np.ndarray:
    return h * (w.sum(axis=1) - 0.5 * (w[:, 0] + w[:, -1]))


def _residual(f: TestFunction, ys: np.ndarray, y_start: float, h: float):
    """f(Y_T) - f(y_start) - trapezoid of A f on steps h, row by row."""
    af = generator_apply(f, ys.ravel()).reshape(ys.shape)
    return f(ys[:, -1]) - f(np.float64(y_start)) - _trapezoid(af, h)


def martingale_residuals(p: ModelParams, fs: tuple[TestFunction, ...],
                         T: float, n: int, master_seed: int,
                         h: float = 1e-3) -> list[StatReport]:
    """E[f(Y_T) - f(projected start) - int_0^T A f(Y_t) dt] on the
    perturbed system, for each f of ``fs`` on the same paths; the generator
    value is 0 wherever Y < 0.

    The path's own radius hypot(X, Y) serves as a coupled control variate:
    it is exactly the limit process in law (the 1/eps terms cancel in the
    radial equation), starts exactly at the projected value, and its
    residual has mean 0, so subtracting it leaves the estimand unchanged
    while cancelling nearly all shared noise.
    """
    check_replicas(n)
    y_pi = project_pi((p.x0, p.y0))
    grid = TimeGrid(T, h)

    def reduce_fn(ts, xs, ys, div):
        rs = np.hypot(xs, ys)
        residuals = {"div": div}
        for k, f in enumerate(fs):
            residuals[k] = _residual(f, ys, y_pi, h) \
                - _residual(f, rs, y_pi, h)
        return residuals

    out = rescaled_reduce(p, grid, master_seed, n, reduce_fn,
                          batch_size=batch_rows(grid.n_steps + 1))
    diverged = int(out["div"].sum())
    return [StatReport.from_samples(
        out[k], epsilon=p.epsilon, f=f.name, T=T, h=h, seed=master_seed,
        y_pi=y_pi, diverged=diverged, control_variate=True)
        for k, f in enumerate(fs)]


def martingale_residual(p: ModelParams, f: TestFunction, T: float, n: int,
                        master_seed: int, h: float = 1e-3) -> StatReport:
    """``martingale_residuals`` for one test function."""
    return martingale_residuals(p, (f,), T, n, master_seed, h)[0]


def martingale_residual_limit(y0: float, f: TestFunction, T: float, n: int,
                              master_seed: int,
                              h: float = 1e-3) -> StatReport:
    """Control run: the residual on the exact limit sampler itself,
    which is a true martingale, so the estimate should sit at 0."""
    check_replicas(n)
    lp = LimitParams(y0=y0)
    grid = TimeGrid(T, h)

    def reduce_fn(ts, rs):
        return {"res": _residual(f, rs, y0, h)}

    out = limit_exact_reduce(lp, grid, master_seed, n, reduce_fn,
                             batch_size=batch_rows(grid.n_steps + 1))
    return StatReport.from_samples(out["res"], y0=y0, f=f.name, T=T, h=h,
                                   seed=master_seed, process="limit_exact")


# ---------------------------------------------------------------------------
# weak-convergence gaps
# ---------------------------------------------------------------------------

def x_collapse_gap(p: ModelParams, F, T: float, n: int, master_seed: int,
                   h: float = 1e-3) -> StatReport:
    """E[F(X_T, Y_T) - F(0, Y_T)]: the fast coordinate's footprint on any
    Lipschitz observable, which vanishes with epsilon."""
    check_replicas(n)
    grid = TimeGrid(T, h)

    def reduce_fn(ts, xs, ys, div):
        xT = xs[:, -1]
        yT = ys[:, -1]
        return {"gap": np.asarray(F(xT, yT) - F(np.zeros_like(xT), yT),
                                  dtype=np.float64)}

    out = rescaled_reduce(p, grid, master_seed, n, reduce_fn,
                          batch_size=batch_rows(grid.n_steps + 1))
    return StatReport.from_samples(out["gap"], epsilon=p.epsilon, T=T, h=h,
                                   seed=master_seed)


@dataclass
class TerminalGapReport:
    gap: StatReport
    ks_stat: float
    ks_critical: float
    y_pi: float


def terminal_law_gap(p: ModelParams, f: TestFunction, T: float, n: int,
                     master_seed: int,
                     h: float = 1e-3) -> TerminalGapReport:
    """|E f(Y_T^eps) - E f(Y_T^limit)| with the limit started at the
    projected initial point, plus a two-sample KS of the terminal laws.

    The gap is estimated as the per-replica difference
    f(Y_T) - f(hypot(X_T, Y_T)), a coupling: the path's radius is exactly
    the limit process in law from exactly the projected start, so the
    estimand is identical but almost all noise cancels.  The KS statistic
    uses an independent exact reference sample.
    """
    check_replicas(n)
    y_pi = project_pi((p.x0, p.y0))
    grid = TimeGrid(T, h)

    def reduce_fn(ts, xs, ys, div):
        rT = np.hypot(xs[:, -1], ys[:, -1])
        return {"yT": ys[:, -1],
                "diff": np.asarray(f(ys[:, -1]) - f(rT), dtype=np.float64)}

    out = rescaled_reduce(p, grid, master_seed, n, reduce_fn,
                          batch_size=batch_rows(grid.n_steps + 1))
    ref = limit_exact_terminal(y_pi, [T], n, master_seed + 1)[:, 0]
    rep = StatReport.from_samples(
        out["diff"], epsilon=p.epsilon, f=f.name, T=T, h=h,
        seed=master_seed, y_pi=y_pi, coupled=True)
    return TerminalGapReport(gap=rep, ks_stat=ks_statistic(out["yT"], ref),
                             ks_critical=ks_critical_value(n, n), y_pi=y_pi)


# ---------------------------------------------------------------------------
# exit-time oracles for the auxiliary OU process dY = -Y dt + dW
# ---------------------------------------------------------------------------

def ou_exit_two_sided(delta: float) -> float:
    """Expected exit time of the unit-rate OU process from (-2d, 2d)
    started at d, by quadrature of the closed-form double integral."""
    return _mean_exit_two_sided(delta, delta)


def _mean_exit_two_sided(delta: float, x: float) -> float:
    # the same quadrature, from any start x in (-2d, 2d)
    if not 0.0 < delta <= 5.0:
        raise ValueError("delta must lie in (0, 5] for stable quadrature")
    d = delta
    sp = math.sqrt(math.pi)

    def inner(z):
        # int_{-2d}^{z} e^{-u^2} du
        return 0.5 * sp * (erf(z) + erf(2.0 * d))

    def big_i(y):
        # int_{-2d}^{y} e^{z^2} dz
        return 0.5 * sp * (erfi(y) + erfi(2.0 * d))

    def big_d(y):
        val, err = integrate.quad(lambda z: math.exp(z * z) * inner(z),
                                  -2.0 * d, y, epsabs=0.0, epsrel=1e-11,
                                  limit=200)
        if abs(err) > 1e-8 * max(abs(val), 1e-300):
            raise RuntimeError("quadrature did not converge")
        return val

    d2d = big_d(2.0 * d)
    return -2.0 * big_d(x) + 2.0 * big_i(x) * d2d / big_i(2.0 * d)


def ou_exit_one_sided(delta: float) -> float:
    """Expected time for the unit-rate OU process started at 2d to hit d:
    2 int_d^{2d} e^{z^2} int_z^inf e^{-u^2} du dz = sqrt(pi) int erfcx."""
    return _mean_exit_one_sided(delta, 2.0 * delta)


def _mean_exit_one_sided(delta: float, x: float) -> float:
    # the same quadrature, from any start x > d
    if not 0.0 < delta <= 5.0:
        raise ValueError("delta must lie in (0, 5] for stable quadrature")
    val, err = integrate.quad(erfcx, delta, x, epsabs=0.0,
                              epsrel=1e-11, limit=200)
    if abs(err) > 1e-8 * max(abs(val), 1e-300):
        raise RuntimeError("quadrature did not converge")
    return math.sqrt(math.pi) * val


def _exit_horizon(scale: float, n: int) -> float:
    # The OU process killed at the exit has principal eigenvalue >= 1, so
    # about n e^{-t} of n paths outlive t: past scale + ln n fewer than
    # one path is expected to remain.
    return float(scale) + math.log(n)


def ou_exit_mc(delta: float, mode: str, n: int, master_seed: int,
               h: float | None = None, chunk: int = 512) -> StatReport:
    """Simulation oracle for the exit times, with Brownian-bridge crossing
    detection between grid points to kill the O(sqrt(h)) hitting bias.

    mode "two_sided": exit of (-2d, 2d) from d; "one_sided": hit of d
    from 2d.  Default h targets ~300 steps per mean exit.

    Paths still alive when a chunk ends past t_max = (mean exit time) +
    ln n are censored: their tau is the time they were stopped at.  config
    reports t_max, the number censored, and bias_bound: the censored
    fraction times the mean exit time from the farthest censored position
    (0 when none is censored).  By the strong Markov property it bounds how
    much the censoring shortens the mean.

    Each chunk's draws are made and stepped in row slices of
    ``block_rows(chunk)`` live paths, so at most about BLOCK_ELEMS normals
    are held at once.  Each of the two generators fills its slices in row
    order, so the draws, and the result, are those of one draw per chunk.
    Every live path still draws a full chunk, of which it may read only
    the first few steps.
    """
    check_replicas(n)
    if mode == "two_sided":
        lo, hi, x0 = -2.0 * delta, 2.0 * delta, delta
        scale = ou_exit_two_sided(delta)
    elif mode == "one_sided":
        lo, hi, x0 = delta, np.inf, 2.0 * delta
        scale = ou_exit_one_sided(delta)
    else:
        raise ValueError("mode must be 'two_sided' or 'one_sided'")
    if h is None:
        h = scale / 300.0
    t_max = _exit_horizon(scale, n)
    decay, sd = _exact_step_coeffs(h)

    x = np.full(n, x0, dtype=np.float64)
    t = np.zeros(n)
    tau = np.full(n, np.nan)
    done = np.zeros(n, dtype=bool)
    gen_z = RngStream(master_seed, 0).generator()
    gen_u = RngStream(master_seed, 1).generator()
    rows = block_rows(chunk)
    past_horizon = False
    while not (past_horizon or done.all()):
        live = np.nonzero(~done)[0]
        for r0 in range(0, live.size, rows):
            idx = live[r0:r0 + rows]
            z = gen_z.standard_normal((idx.size, chunk))
            u = gen_u.random((idx.size, chunk, 2))
            tau_a = tau[idx]
            done_a = done[idx]
            xa, ta = _kernels.ou_exit_chunk(x[idx], t[idx], tau_a, done_a,
                                            z, u, lo, hi, decay, sd, h)
            x[idx] = xa
            t[idx] = ta
            tau[idx] = tau_a
            done[idx] = done_a
            past_horizon |= bool((ta[~done_a] >= t_max).any())
    alive = ~done
    censored = int(np.count_nonzero(alive))
    bias_bound = 0.0
    if censored:
        tau[alive] = t[alive]
        # the mean exit time falls toward the exit set: from the centre
        # of the two-sided interval, from the top of the one-sided range
        xs = x[alive]
        far = (_mean_exit_two_sided(delta, float(xs[np.abs(xs).argmin()]))
               if mode == "two_sided"
               else _mean_exit_one_sided(delta, float(xs.max())))
        bias_bound = censored / n * far
    return StatReport.from_samples(tau, delta=delta, mode=mode, h=h,
                                   seed=master_seed, t_max=t_max,
                                   censored=censored, bias_bound=bias_bound)


# ---------------------------------------------------------------------------
# crossing statistics of the perturbed system
# ---------------------------------------------------------------------------

@dataclass
class CrossingStats:
    mean_n: StatReport
    mean_sigma_minus_tau: StatReport | None
    mean_tau_minus_sigma: StatReport | None
    deep_dip_rate: float  # fraction of tau->sigma windows with Y < -1.99 delta
    delta: float
    bounds: dict

    @property
    def passed(self) -> bool:
        """The count and both durations are within their oracle bounds."""
        return bool(self.bounds["n_ok"] and self.bounds["sigma_minus_tau_ok"]
                    and self.bounds["tau_minus_sigma_ok"])


def crossing_stats(p: ModelParams, T: float, n: int, master_seed: int,
                   h: float = 1e-3) -> CrossingStats:
    """Up-crossing counts and durations at delta = eps^alpha, checked
    against the OU exit-time quadrature oracles within a factor of
    CROSSING_SAFETY.

    Durations carry a +h slack in the bound checks: discrete reading
    overestimates each hitting time by at most one step.
    """
    check_replicas(n)
    delta = p.delta()
    grid = TimeGrid(T, h)

    def reduce_fn(ts, xs, ys, div):
        tau_idx, sig_idx, n_tau, n_sig = _scan_batch(ys, delta)
        nb = ys.shape[0]
        n_up = np.empty(nb)
        st_sum = np.empty(nb)
        st_cnt = np.zeros(nb)
        ts_sum = np.empty(nb)
        ts_cnt = np.zeros(nb)
        deep = np.zeros(nb)
        for i in range(nb):
            k = int(n_sig[i])
            kt = int(n_tau[i])
            n_up[i] = np.sum(ts[sig_idx[i, :k]] <= T) if k else 0
            st_sum[i] = (ts[sig_idx[i, :k]] - ts[tau_idx[i, :k]]).sum() \
                if k else 0.0
            st_cnt[i] = k
            if kt > 1:
                gaps = ts[tau_idx[i, 1:kt]] - ts[sig_idx[i, :kt - 1]]
                ts_sum[i] = gaps.sum()
                ts_cnt[i] = kt - 1
            else:
                ts_sum[i] = 0.0
            for j in range(k):
                window = ys[i, tau_idx[i, j]:sig_idx[i, j] + 1]
                deep[i] += float(window.min() < -1.99 * delta)
        return {"n_up": n_up, "st_sum": st_sum, "st_cnt": st_cnt,
                "ts_sum": ts_sum, "ts_cnt": ts_cnt, "deep": deep}

    out = rescaled_reduce(p, grid, master_seed, n, reduce_fn,
                          batch_size=batch_rows(grid.n_steps + 1))
    mean_n = StatReport.from_samples(
        out["n_up"], epsilon=p.epsilon, T=T, h=h, seed=master_seed,
        delta=delta, frac_zero=float((out["n_up"] == 0).mean()))
    n_st = int(out["st_cnt"].sum())
    n_ts = int(out["ts_cnt"].sum())
    mean_st = None
    mean_ts = None
    def _duration_report(sums, counts, total):
        per_path = sums[counts > 0] / counts[counts > 0]
        se = float(per_path.std(ddof=1) / math.sqrt(per_path.size)) \
            if per_path.size >= 2 else 0.0
        return StatReport(estimate=float(sums.sum() / total), std_error=se,
                          n_replicas=total, config={"events": total})

    if n_st >= 2:
        mean_st = _duration_report(out["st_sum"], out["st_cnt"], n_st)
    if n_ts >= 2:
        mean_ts = _duration_report(out["ts_sum"], out["ts_cnt"], n_ts)
    u_two = ou_exit_two_sided(delta)
    u_one = ou_exit_one_sided(delta)
    n_bound = CROSSING_SAFETY * (4.0 / 3.0) * T / u_one
    st_bound = CROSSING_SAFETY * (4.0 / 3.0) * u_two + h
    ts_bound = u_one / CROSSING_SAFETY - h
    bounds = {
        "n_bound": n_bound,
        "n_ok": bool(mean_n.estimate <= n_bound),
        "sigma_minus_tau_bound": st_bound,
        "sigma_minus_tau_ok":
            mean_st is None or bool(mean_st.estimate <= st_bound),
        "tau_minus_sigma_bound": ts_bound,
        "tau_minus_sigma_ok":
            mean_ts is None or bool(mean_ts.estimate >= ts_bound),
        "oracle_two_sided": u_two,
        "oracle_one_sided": u_one,
    }
    total_windows = max(n_st, 1)
    return CrossingStats(mean_n=mean_n, mean_sigma_minus_tau=mean_st,
                         mean_tau_minus_sigma=mean_ts,
                         deep_dip_rate=float(out["deep"].sum()
                                             / total_windows),
                         delta=delta, bounds=bounds)


# ---------------------------------------------------------------------------
# metastable excursions below the unstable half-axis
# ---------------------------------------------------------------------------

def excursion_probability(p: ModelParams, a: float, t: float, n: int,
                          master_seed: int, h: float = 1e-3) -> StatReport:
    """P(min of Y over the grid reaches -a before t)."""
    if not a > 0.0:
        raise ValueError("a must be positive")
    check_replicas(n)
    grid = TimeGrid(t, h)
    out = rescaled_reduce(
        p, grid, master_seed, n,
        lambda ts, xs, ys, div: {"hit": (ys.min(axis=1) <= -a)
                                 .astype(np.float64)},
        batch_size=batch_rows(grid.n_steps + 1))
    p_hat = float(out["hit"].mean())
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / n) / n)
    return StatReport(estimate=p_hat, std_error=se, n_replicas=n,
                      config={"epsilon": p.epsilon, "a": a, "t": t, "h": h,
                              "seed": master_seed})


@dataclass
class ExcursionRecord:
    entry_time: float
    return_time: float | None
    max_abs_x: float
    min_y: float


def excursion_anatomy(ts: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                      a: float) -> list[ExcursionRecord]:
    """Dips of Y below -a along each row of (xs, ys) on the times ts, in
    row order: entry time, time of return above +a, and the largest |X|
    seen in between (the excursions hug the y-axis)."""
    if not a > 0.0:
        raise ValueError("a must be positive")
    records: list[ExcursionRecord] = []
    for x, y in zip(xs, ys):
        i = 0
        length = y.size
        while i < length:
            below = np.nonzero(y[i:] <= -a)[0]
            if below.size == 0:
                break
            start = i + int(below[0])
            back = np.nonzero(y[start:] >= a)[0]
            if back.size == 0:
                end = length - 1
                ret = None
            else:
                end = start + int(back[0])
                ret = float(ts[end])
            seg_x = x[start:end + 1]
            seg_y = y[start:end + 1]
            records.append(ExcursionRecord(
                entry_time=float(ts[start]), return_time=ret,
                max_abs_x=float(np.abs(seg_x).max()),
                min_y=float(seg_y.min())))
            i = end + 1
            if ret is None:
                break
    return records
