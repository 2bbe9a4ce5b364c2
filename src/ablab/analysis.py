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

from . import _kernels
from .limit import LimitParams, TestFunction, _exact_step_coeffs, \
    generator_apply, limit_exact_reduce, limit_exact_terminal
from .model import ModelParams, batch_rows, block_rows, project_pi, \
    rescaled_reduce, terminal_state
from .sde import RngStream, TimeGrid

# ---------------------------------------------------------------------------
# pass thresholds and rules, shared by the acceptance battery and the CLI
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
# Pass window of the log-log slope of E[X_t^2] against epsilon, stated at
# alpha = MOMENT_SCALING_ALPHA only (criterion 5 and ``ablab lemma1``).
MOMENT_SCALING_ALPHA = 0.1
MOMENT_SCALING_WINDOW = (0.9 * 0.9 - 0.15, 0.9 + 0.15)
# Default epsilon ladders of the moment scaling (criterion 5 and
# ``ablab lemma1``) and of the deep-excursion probability (criterion 8 and
# ``ablab excursions``).
MOMENT_SCALING_LADDER = (1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5)
METASTABILITY_LADDER = (0.2, 0.1, 0.05)
# Fraction of replicas dropped (diverged, or excluded) above which to warn.
DROP_WARN_FRACTION = 0.10


def z_threshold(std_error: float, slack: float = 0.0) -> float:
    """Largest |estimate - target| that passes: Z_GATE * se + slack."""
    return Z_GATE * std_error + slack


def within_z(rep: StatReport, target: float = 0.0,
             slack: float = 0.0) -> bool:
    """The estimate lies within ``z_threshold(se, slack)`` of target."""
    return abs(rep.estimate - target) < z_threshold(rep.std_error, slack)


def strictly_decreasing(ladder) -> bool:
    """Each value along a ladder lies strictly below the one before."""
    return all(u > v for u, v in zip(ladder, ladder[1:]))


def in_moment_window(slope: float) -> bool:
    """The log-log slope of E[X_t^2] lies in MOMENT_SCALING_WINDOW."""
    return MOMENT_SCALING_WINDOW[0] <= slope <= MOMENT_SCALING_WINDOW[1]


def clipped_abs_x(x, y):
    """The bounded Lipschitz observable min(|x|, 1) of the x-collapse gap."""
    return np.minimum(np.abs(x), 1.0)


class DegenerateRun(RuntimeError):
    """Too many replicas diverged or were excluded to form an estimate."""


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


def ks_one_sample(samples: np.ndarray, cdf) -> tuple[float, float]:
    """One-sample KS statistic of the samples against a continuous cdf, and
    its critical value (asymptotic) at the 1% level."""
    c = cdf(np.sort(samples))
    n = c.size
    return (float(max(np.abs(np.arange(1, n + 1) / n - c).max(),
                      np.abs(c - np.arange(0, n) / n).max())),
            KS_COEFF_1PCT / math.sqrt(n))


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
        if len(self.epsilons) < 3 or not strictly_decreasing(self.epsilons):
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
# the fast-slow driver and the band-crossing walk
# ---------------------------------------------------------------------------

def fast_slow_reduce(p: ModelParams, T: float, h: float, master_seed: int,
                     n: int, reduce_fn) -> tuple[dict, int]:
    """``rescaled_reduce`` of n >= 2 paths on the grid of step h to T, in
    batches of ``batch_rows`` paths: the fast-slow statistics' driver call.

    It applies the divergence rule, ``drop_diverged``: the rows of the paths
    that tripped the divergence guard, which ``reduce_fn`` passes through
    as "div", are dropped from every output and counted.  More than half of
    the paths diverged, or fewer than two left, raise ``DegenerateRun``;
    more than DROP_WARN_FRACTION diverged warn.  Returns the outputs, as
    they are when no path diverged, and the count.
    """
    check_replicas(n)
    grid = TimeGrid(T, h)
    return drop_diverged(rescaled_reduce(
        p, grid, master_seed, n, reduce_fn,
        batch_size=batch_rows(grid.n_steps + 1)))


def drop_diverged(out: dict) -> tuple[dict, int]:
    """``fast_slow_reduce``'s divergence rule on a driver's outputs."""
    div = out.pop("div")
    k, n = int(div.sum()), div.size
    if k > 0.5 * n or n - k < 2:
        raise DegenerateRun(f"divergence-dominated run: {k} of {n} "
                            "replicas tripped the guard")
    if k > DROP_WARN_FRACTION * n:
        warnings.warn(f"{k} of {n} replicas diverged, above "
                      f"{DROP_WARN_FRACTION:.0%}", stacklevel=3)
    return ({key: v[~div] for key, v in out.items()} if k else out), k


def _scan_batch(ys: np.ndarray, delta: float) -> list[list]:
    """Each row's visits to the band, as (tau, sigma) grid indices: tau is
    a first hit of |y| <= delta, sigma the first hit of |y| >= 2*delta
    after it (None, ending the row, when there is none)."""
    ay = np.abs(ys)
    return [list(_kernels.first_passages(enter, leave))
            for enter, leave in zip(ay <= delta, ay >= 2.0 * delta)]


# ---------------------------------------------------------------------------
# second moment of the fast coordinate
# ---------------------------------------------------------------------------

def min_time_for_moment(p: ModelParams) -> float:
    """Shortest t at which the fast coordinate has relaxed: eps^((1-alpha)/2)."""
    return p.epsilon ** ((1.0 - p.alpha) / 2.0)


def x_second_moment(p: ModelParams, t: float, n: int, master_seed: int,
                    h: float = 1e-3) -> StatReport:
    """E[X_t^2] over replicas whose Y stayed >= delta up to t.

    Of the replicas that did not diverge, those violating the conditioning
    band are excluded and the exclusion rate reported (warning above
    DROP_WARN_FRACTION): the conditional statement is read as
    exclusion-and-report, with the discard rate itself a diagnostic.
    Fewer than two kept replicas raise ``DegenerateRun``.
    """
    t0 = min_time_for_moment(p)
    if t < t0:
        raise ValueError(f"t={t} below the relaxation time {t0:.4g}")
    delta = p.delta()
    out, diverged = fast_slow_reduce(p, t, h, master_seed, n, terminal_state)
    kept = out["x"][out["y_min"] >= delta] ** 2
    if kept.size < 2:
        raise DegenerateRun(f"exclusion-dominated run: {kept.size} of {n} "
                            f"replicas kept at epsilon = {p.epsilon:g}, "
                            f"t = {t:g}, delta = {delta:.4g}")
    excl = 1.0 - kept.size / out["x"].size
    if excl > DROP_WARN_FRACTION:
        warnings.warn(f"exclusion rate {excl:.1%} above "
                      f"{DROP_WARN_FRACTION:.0%}", stacklevel=2)
    return StatReport.from_samples(
        kept, epsilon=p.epsilon, alpha=p.alpha, t=t, h=h,
        seed=master_seed, exclusion_rate=excl, diverged=diverged)


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
    value is 0 wherever Y < 0.  Diverged paths are dropped, not averaged.

    The path's own radius hypot(X, Y) serves as a coupled control variate
    that cancels nearly all shared noise.  In continuous time it is the
    limit process in law (the 1/eps terms cancel in the radial equation)
    from the projected value, so its residual has mean 0.  On the splitting
    scheme the radius carries the scheme's bias where h >= eps (ROADMAP
    item 17): the control's own residual reads +0.0094 +- 0.0035 for
    exp(-y^2) at eps = h = 1e-3 (n = 20,000), and shifts the estimate.
    """
    y_pi = project_pi((p.x0, p.y0))

    def reduce_fn(ts, xs, ys, div):
        rs = np.hypot(xs, ys)
        residuals = {"div": div}
        for k, f in enumerate(fs):
            residuals[k] = _residual(f, ys, y_pi, h) \
                - _residual(f, rs, y_pi, h)
        return residuals

    out, diverged = fast_slow_reduce(p, T, h, master_seed, n, reduce_fn)
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
    out, diverged = fast_slow_reduce(p, T, h, master_seed, n, terminal_state)
    xT, yT = out["x"], out["y"]
    gap = np.asarray(F(xT, yT) - F(np.zeros_like(xT), yT), dtype=np.float64)
    return StatReport.from_samples(gap, epsilon=p.epsilon, T=T, h=h,
                                   seed=master_seed, diverged=diverged)


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
    f(Y_T) - f(hypot(X_T, Y_T)), a coupling that cancels almost all noise.
    In continuous time the path's radius is the limit process in law from
    the projected start, so the estimand is unchanged; on the splitting
    scheme the radius, and so the gap, carries the scheme's bias (see
    ``martingale_residuals``).  The KS statistic uses an independent exact
    reference sample.

    The projected start is checked before anything is drawn: a start that
    projects to 0 or overflows to inf raises ValueError.
    """
    y_pi = LimitParams(y0=project_pi((p.x0, p.y0))).y0
    out, diverged = fast_slow_reduce(p, T, h, master_seed, n, terminal_state)
    yT = out["y"]
    diff = np.asarray(f(yT) - f(np.hypot(out["x"], yT)), dtype=np.float64)
    ref = limit_exact_terminal(y_pi, [T], n, master_seed + 1)[:, 0]
    rep = StatReport.from_samples(
        diff, epsilon=p.epsilon, f=f.name, T=T, h=h,
        seed=master_seed, y_pi=y_pi, coupled=True, diverged=diverged)
    return TerminalGapReport(gap=rep, ks_stat=ks_statistic(yT, ref),
                             ks_critical=ks_critical_value(yT.size, n),
                             y_pi=y_pi)


# ---------------------------------------------------------------------------
# exit-time oracles for the auxiliary OU process dY = -Y dt + dW
# ---------------------------------------------------------------------------

# The quadratures here and model.flow_unperturbed are the package's only
# scipy calls, so each imports scipy where it calls it: the import costs
# about 0.5 s and 45 MB, and only a process that reaches an oracle pays it.

def ou_exit_two_sided(delta: float) -> float:
    """Expected exit time of the unit-rate OU process from (-2d, 2d)
    started at d, by quadrature of the closed-form double integral."""
    return _mean_exit_two_sided(delta, delta)


def _mean_exit_two_sided(delta: float, x: float) -> float:
    # the same quadrature, from any start x in (-2d, 2d)
    from scipy import integrate
    from scipy.special import erf, erfi
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
    from scipy import integrate
    from scipy.special import erfcx
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


# Steps of the exit-time Monte Carlo's first chunk; each later chunk doubles,
# up to ``ou_exit_mc``'s ``chunk``.
EXIT_FIRST_CHUNK = 32


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

    Chunk c draws and steps min(EXIT_FIRST_CHUNK * 2^c, ``chunk``) steps
    per running path: 32, 64, 128, 256, then 512 steps at the default.
    A path that exits early leaves little of a short chunk unread, and the
    paths that run long draw long chunks, in few kernel calls.  Every
    chunk's draws come from positions of the two streams that no earlier
    chunk read, so the exit times stay i.i.d.

    Between chunks only the running paths are kept, packed in path order:
    ``live`` (their indices) with their positions ``x`` and clocks ``t``.
    Each chunk is drawn, into two buffers made once per call, and stepped
    in row slices of ``block_rows(chunk)`` running paths, so at most about
    BLOCK_ELEMS normals are held at once, and the kernel updates each
    slice in place.  Each generator fills its slices in row order, so the
    draws, and the result, are those of one draw per chunk.  A running
    path may read only the first few steps of its chunk.  The chunk's exit
    times go into ``tau`` and the paths that exited are dropped.
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

    live = np.arange(n)
    x = np.full(n, x0, dtype=np.float64)
    t = np.zeros(n)
    tau = np.full(n, np.nan)
    gen_z = RngStream(master_seed, 0).generator()
    gen_u = RngStream(master_seed, 1).generator()
    rows = block_rows(chunk)
    # every slice is drawn into the same two buffers: a slice's draws
    # allocated and freed each time give their pages back to the system,
    # and every slice faults them in again (18x the page faults at
    # n = 10,000).  A chunk of fewer steps draws into their first
    # elements, in slices of the same rows: 8192-row slices of the 32-step
    # chunk lifted exit_pde's peak RSS by about 0.5 MB
    zbuf = np.empty(min(rows, n) * chunk)
    ubuf = np.empty(2 * zbuf.size)
    # the chunk's exit times and flags, too: made anew for each of the
    # short chunks, they left glibc's heap 9 MB larger after criterion 6's
    # exit runs, under the path buffers of its crossing run
    tau_buf, exited_buf = np.empty(n), np.empty(n, dtype=bool)
    steps = min(EXIT_FIRST_CHUNK, chunk)
    while live.size and not (t >= t_max).any():
        tau_c, exited = tau_buf[:live.size], exited_buf[:live.size]
        tau_c.fill(np.nan)
        exited.fill(False)
        for r0 in range(0, live.size, rows):
            sl = slice(r0, r0 + rows)
            r = tau_c[sl].size
            z = gen_z.standard_normal(out=zbuf[:r * steps].reshape(r, steps))
            u = gen_u.random(out=ubuf[:2 * r * steps].reshape(r, steps, 2))
            _kernels.ou_exit_chunk(x[sl], t[sl], tau_c[sl], exited[sl],
                                   z, u, lo, hi, decay, sd, h)
        tau[live[exited]] = tau_c[exited]
        running = ~exited
        live, x, t = live[running], x[running], t[running]
        steps = min(2 * steps, chunk)
    censored = live.size
    bias_bound = 0.0
    if censored:
        tau[live] = t
        # the mean exit time falls toward the exit set: from the centre
        # of the two-sided interval, from the top of the one-sided range
        far = (_mean_exit_two_sided(delta, float(x[np.abs(x).argmin()]))
               if mode == "two_sided"
               else _mean_exit_one_sided(delta, float(x.max())))
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


def _duration_report(sums, counts, total) -> StatReport:
    # the mean duration over all events; its standard error from the
    # per-path means of the paths with events
    per_path = sums[counts > 0] / counts[counts > 0]
    se = float(per_path.std(ddof=1) / math.sqrt(per_path.size)) \
        if per_path.size >= 2 else 0.0
    return StatReport(estimate=float(sums.sum() / total), std_error=se,
                      n_replicas=total, config={"events": total})


def crossing_stats(p: ModelParams, T: float, n: int, master_seed: int,
                   h: float = 1e-3) -> CrossingStats:
    """Up-crossing counts and durations at delta = eps^alpha, checked
    against the OU exit-time quadrature oracles within a factor of
    CROSSING_SAFETY.

    Durations carry a +h slack in the bound checks: discrete reading
    overestimates each hitting time by at most one step.
    """
    delta = p.delta()

    def reduce_fn(ts, xs, ys, div):
        # per row: sigma and gap counts, the two duration sums and the
        # tau->sigma windows that dip below -1.99 delta
        rows = ys.shape[0]
        st_cnt, ts_cnt, deep = (np.zeros(rows, np.int64) for _ in range(3))
        st_sum, ts_sum = np.zeros(rows), np.zeros(rows)
        for r, visits in enumerate(_scan_batch(ys, delta)):
            ups = [(i, j) for i, j in visits if j is not None]
            taus, sigmas = ts[[i for i, _ in visits]], ts[[j for _, j in ups]]
            st_cnt[r], ts_cnt[r] = len(ups), max(len(visits) - 1, 0)
            st_sum[r] = (sigmas - taus[:st_cnt[r]]).sum()
            ts_sum[r] = (taus[1:] - sigmas[:ts_cnt[r]]).sum()
            deep[r] = sum(ys[r, i:j + 1].min() < -1.99 * delta for i, j in ups)
        return {"st_sum": st_sum, "st_cnt": st_cnt, "ts_sum": ts_sum,
                "ts_cnt": ts_cnt, "deep": deep, "div": div}

    out, diverged = fast_slow_reduce(p, T, h, master_seed, n, reduce_fn)
    # every sigma is an up-crossing: the grid's last point may round above
    # T, so the count is not read off the times
    mean_n = StatReport.from_samples(
        out["st_cnt"], epsilon=p.epsilon, T=T, h=h, seed=master_seed,
        delta=delta, frac_zero=float((out["st_cnt"] == 0).mean()),
        diverged=diverged)
    n_st = int(out["st_cnt"].sum())
    n_ts = int(out["ts_cnt"].sum())
    mean_st = _duration_report(out["st_sum"], out["st_cnt"], n_st) \
        if n_st >= 2 else None
    mean_ts = _duration_report(out["ts_sum"], out["ts_cnt"], n_ts) \
        if n_ts >= 2 else None
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
    out, diverged = fast_slow_reduce(p, t, h, master_seed, n, terminal_state)
    m = out["y_min"].size
    p_hat = float(np.mean(out["y_min"] <= -a))
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / m) / m)
    return StatReport(estimate=p_hat, std_error=se, n_replicas=m,
                      config={"epsilon": p.epsilon, "a": a, "t": t, "h": h,
                              "seed": master_seed, "diverged": diverged})


@dataclass
class ExcursionRecord:
    entry_time: float
    return_time: float | None
    max_abs_x: float
    min_y: float


def _excursion_rows(ts: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                    a: float) -> np.ndarray:
    """Each row's dips of Y below -a, one list per row in a 1-D object
    array: entry time, time of return above +a (None, ending the row, when
    Y does not return), and the largest |X| between (they hug the y-axis)."""
    rows = np.empty(len(ys), dtype=object)
    for r, (x, y) in enumerate(zip(xs, ys)):
        rows[r] = []
        for i, j in _kernels.first_passages(y <= -a, y >= a):
            end = None if j is None else j + 1
            rows[r].append(ExcursionRecord(
                entry_time=float(ts[i]),
                return_time=None if j is None else float(ts[j]),
                max_abs_x=float(np.abs(x[i:end]).max()),
                min_y=float(y[i:end].min())))
    return rows


def excursion_anatomy(p: ModelParams, a: float, T: float, n: int,
                      master_seed: int,
                      h: float = 1e-3) -> list[ExcursionRecord]:
    """The dips of Y below -a on n paths to T, in path order."""
    if not a > 0.0:
        raise ValueError("a must be positive")
    out, _ = fast_slow_reduce(p, T, h, master_seed, n, lambda ts, xs, ys, div:
                              {"rows": _excursion_rows(ts, xs, ys, a),
                               "div": div})
    return [rec for recs in out["rows"] for rec in recs]
