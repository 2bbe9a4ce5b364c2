"""The acceptance battery: each quantitative exit check as one function.

Every criterion is a pure function of the master seed and returns a
CriterionResult with JSON-able details; the runner executes the battery
twice and adds a byte-identity check of the two reports as the final
criterion.  The same battery backs the ``acceptance`` CLI subcommand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__, euler_arnold as ea
from .analysis import (METASTABILITY_LADDER, MOMENT_SCALING_ALPHA,
                       MOMENT_SCALING_LADDER, MOMENT_SCALING_WINDOW,
                       WEAK_GAP_SLACK, StatReport, clipped_abs_x,
                       crossing_stats, excursion_anatomy,
                       excursion_probability, fast_slow_reduce,
                       in_moment_window, ks_critical_value, ks_one_sample,
                       ks_statistic, martingale_residual_limit,
                       martingale_residuals, ou_exit_mc, ou_exit_one_sided,
                       ou_exit_two_sided, strictly_decreasing,
                       terminal_law_gap, within_z, x_collapse_gap,
                       x_second_moment_scaling, z_threshold)
from .limit import (expected_square, gauss_bump, limit_exact_terminal,
                    lorentzian, square_fn, stationary_mean,
                    stationary_square_cdf)
from .model import (ModelParams, flow_unperturbed, project_pi,
                    project_pi_flow, terminal_state, unperturbed_rhs)
from .pde import Grid1D, cauchy_2d_mc, solve_limit_pde
from .reporting import _jsonable


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid}: {self.name}"


def _seed(master: int, k: int) -> int:
    return master * 1009 + k


def criterion_projection(seed: int) -> CriterionResult:
    """Projection value, its ODE cross-check, and energy conservation."""
    pp = project_pi((3.0, 4.0))
    ode = project_pi_flow((3.0, 4.0), 50.0, tol=1e-8)
    # drift bound over t <= 100 is enforced inside flow_unperturbed
    end = flow_unperturbed((3.0, 4.0), 100.0, tol=1e-8)
    ok = pp == 5.0 and abs(pp - ode) < 1e-4
    return CriterionResult(1, "projection oracle and energy drift", bool(ok),
                           {"project_pi": pp, "ode_value": ode,
                            "flow_t100": [end.x, end.y]})


def criterion_radial_identity(seed: int) -> CriterionResult:
    """Terminal radius of the 2-d system vs the exact damped radial
    sampler: the identity is exact in law for any epsilon."""
    n = 10_000
    details = {}
    ok = True
    for j, eps in enumerate((0.1, 0.01)):
        out, diverged = fast_slow_reduce(
            ModelParams(epsilon=eps, x0=1.2, y0=1.6), 1.0, 1e-4,
            _seed(seed, 21 + j), n, terminal_state)
        ref = limit_exact_terminal(2.0, [1.0], n, _seed(seed, 23 + j))[:, 0]
        stat = ks_statistic(np.hypot(out["x"], out["y"]), ref)
        crit = ks_critical_value(out["x"].size, n)
        details[f"eps_{eps}"] = {"ks": stat, "critical": crit,
                                 "diverged": diverged}
        ok = ok and stat < crit
    return CriterionResult(2, "exact radial identity", bool(ok), details)


def criterion_stationary_law(seed: int) -> CriterionResult:
    """At T=10 the squared limit process is Exp(1); mean is sqrt(pi)/2."""
    n = 10_000
    ys = limit_exact_terminal(1.0, [10.0], n, _seed(seed, 31))[:, 0]
    stat, crit = ks_one_sample(ys ** 2, stationary_square_cdf)
    mean = StatReport.from_samples(ys)
    return CriterionResult(
        3, "stationary law of the limit process",
        bool(stat < crit and within_z(mean, stationary_mean())),
        {"ks": stat, "critical": crit, "mean": mean.estimate,
         "target_mean": stationary_mean(), "se": mean.std_error})


def criterion_moment_closed_form(seed: int) -> CriterionResult:
    """E[Y_t^2] = 1 + 3 e^{-2t} from y0=2, by MC and by the PDE solver."""
    n = 100_000
    times = [0.5, 1.0, 2.0]
    samples = limit_exact_terminal(2.0, times, n, _seed(seed, 41))
    details = {}
    ok = True
    for j, t in enumerate(times):
        rep = StatReport.from_samples(samples[:, j] ** 2)
        target = float(expected_square(2.0, t))
        details[f"mc_t_{t}"] = {
            "estimate": rep.estimate, "target": target,
            "z": abs(rep.estimate - target) / rep.std_error}
        ok = ok and within_z(rep, target)
    grid = Grid1D(n_points=601, t_final=2.0)
    sol = solve_limit_pde(square_fn(), grid, snapshot_times=times)
    ys = grid.y_nodes()
    sel = ys <= 3.0
    max_err = 0.0
    for j, t in enumerate(times):
        closed = expected_square(ys[sel], t)
        max_err = max(max_err, float(np.abs(sol.u[j][sel] - closed).max()))
    details["pde_interior_error"] = max_err
    ok = ok and max_err < 1e-3
    return CriterionResult(4, "second-moment closed form", bool(ok), details)


def criterion_moment_scaling(seed: int) -> CriterionResult:
    """Log-log slope of E[X_t^2] against epsilon at alpha = 0.1."""
    fit = x_second_moment_scaling(MOMENT_SCALING_LADDER, MOMENT_SCALING_ALPHA,
                                  0.2, 4000, _seed(seed, 51), h=1e-3)
    return CriterionResult(5, "fast-coordinate moment scaling",
                           in_moment_window(fit.slope),
                           {"fit": fit, "window": list(MOMENT_SCALING_WINDOW)})


def criterion_exit_time_oracles(seed: int) -> CriterionResult:
    """Exit-time quadratures vs bridge-corrected MC, small-delta
    asymptotics, and crossing statistics against the oracles."""
    details = {}
    ok = True
    # small-delta closed-form limits
    d = 1e-3
    r2 = ou_exit_two_sided(d) / (3.0 * d * d)
    r1 = ou_exit_one_sided(d) / (math.sqrt(math.pi) * d)
    details["asymptotics"] = {"two_sided_ratio": r2, "one_sided_ratio": r1}
    ok = ok and abs(r2 - 1.0) < 0.01 and abs(r1 - 1.0) < 0.01
    # MC agreement at delta in {0.01, 0.1}
    runs = [("two_sided", 0.01, 100_000, 1e-6),
            ("two_sided", 0.1, 50_000, None),
            ("one_sided", 0.01, 50_000, None),
            ("one_sided", 0.1, 50_000, None)]
    for j, (mode, dd, n, h) in enumerate(runs):
        oracle = (ou_exit_two_sided if mode == "two_sided"
                  else ou_exit_one_sided)(dd)
        rep = ou_exit_mc(dd, mode, n, _seed(seed, 61 + j), h=h)
        z = abs(rep.estimate - oracle) / rep.std_error
        details[f"{mode}_{dd}"] = {"oracle": oracle,
                                   "mc": rep.estimate,
                                   "se": rep.std_error, "z": float(z),
                                   "censored": rep.config["censored"],
                                   "bias_bound": rep.config["bias_bound"]}
        ok = ok and within_z(rep, oracle)
    # crossing statistics against the oracle bounds
    cs = crossing_stats(ModelParams(epsilon=1e-2, x0=0.0, y0=2.0), 5.0,
                        2000, _seed(seed, 67), h=1e-3)
    details["crossings"] = cs
    ok = ok and cs.passed
    return CriterionResult(6, "exit-time oracles", bool(ok), details)


def criterion_weak_convergence(seed: int) -> CriterionResult:
    """Martingale residuals and weak gaps strictly decrease along the
    epsilon ladder and are small at the finest epsilon."""
    models = [ModelParams(epsilon=eps, x0=0.0, y0=2.0)
              for eps in (0.1, 0.01, 0.001)]
    details = {}
    ok = True
    # both test functions read the same paths: one pass per epsilon
    fs = (gauss_bump(), lorentzian())
    rungs = [martingale_residuals(p, fs, 1.0, 20_000, _seed(seed, 71), h=1e-3)
             for p in models]
    for k, f in enumerate(fs):
        vals = [reps[k] for reps in rungs]
        decreasing = strictly_decreasing([abs(r.estimate) for r in vals])
        details[f"residual_{f.name}"] = {
            "ladder": vals, "decreasing": decreasing,
            "final_threshold": z_threshold(vals[-1].std_error, WEAK_GAP_SLACK)}
        ok = ok and decreasing and within_z(vals[-1], slack=WEAK_GAP_SLACK)
    ctrl = martingale_residual_limit(2.0, gauss_bump(), 1.0, 50_000,
                                     _seed(seed, 74), h=1e-3)
    details["limit_control"] = ctrl
    ok = ok and within_z(ctrl)
    # terminal-law gap ladder
    gaps = [terminal_law_gap(p, gauss_bump(), 1.0, 10_000, _seed(seed, 75),
                             h=1e-3) for p in models]
    final = gaps[-1].gap
    details["terminal_gap"] = {
        "ladder": gaps,
        "final_threshold": z_threshold(final.std_error, WEAK_GAP_SLACK)}
    ok = ok and strictly_decreasing([abs(g.gap.estimate) for g in gaps]) \
        and within_z(final, slack=WEAK_GAP_SLACK)
    # x-collapse gap: trend for a clipped observable, plus the linear
    # observable against the second-moment (Cauchy-Schwarz) bound
    cols = [x_collapse_gap(p, clipped_abs_x, 1.0, 10_000, _seed(seed, 78),
                           h=1e-3) for p in models]
    lin = x_collapse_gap(models[-1], lambda x, y: x, 1.0, 10_000,
                         _seed(seed, 79), h=1e-3)
    lin_slack = 2.0 * math.sqrt(5.0 * 1e-3 ** 0.9)
    details["collapse_gap"] = {
        "ladder": cols,
        "linear_gap": lin,
        "linear_bound": z_threshold(lin.std_error, lin_slack)}
    ok = ok and strictly_decreasing([abs(c.estimate) for c in cols]) \
        and within_z(lin, slack=lin_slack)
    return CriterionResult(7, "weak convergence to the limit process",
                           bool(ok), details)


def criterion_metastability(seed: int) -> CriterionResult:
    """Deep-excursion probability decreases along an epsilon ladder;
    excursion anatomy records are produced at eps = 0.2."""
    probs = [excursion_probability(ModelParams(epsilon=eps, x0=0.0, y0=1.0),
                                   0.5, 5.0, 3000, _seed(seed, 81), h=1e-3)
             for eps in METASTABILITY_LADDER]
    dec = strictly_decreasing([r.estimate for r in probs])
    # anatomy at the ladder's largest epsilon
    p = ModelParams(epsilon=METASTABILITY_LADDER[0], x0=0.0, y0=1.0)
    records = excursion_anatomy(p, 0.25, 20.0, 30, _seed(seed, 82), h=1e-3)
    max_x = sorted(r.max_abs_x for r in records)
    details = {"ladder": probs,
               "decreasing": dec,
               "n_excursions": len(records),
               "median_max_abs_x":
                   max_x[len(max_x) // 2] if max_x else None}
    return CriterionResult(8, "metastable excursions", bool(dec and records),
                           details)


def criterion_cauchy_corollary(seed: int) -> CriterionResult:
    """E f(X_t, Y_t) at eps = 1e-3 matches the limit solution evaluated at
    the projected start, at five probe starts including off-axis ones."""
    f2 = lambda x, y: np.exp(-np.square(y)) / (1.0 + np.square(x))
    grid = Grid1D(n_points=601, t_final=1.0)
    sol = solve_limit_pde(gauss_bump(), grid)
    probes = [(3.0, 4.0), (0.0, 2.0), (1.0, 1.0), (0.5, 3.0), (2.0, 0.0)]
    details = {}
    ok = True
    for j, (x0, y0) in enumerate(probes):
        rep = cauchy_2d_mc(x0, y0, 1.0, f2, ModelParams(epsilon=1e-3),
                           10_000, _seed(seed, 91 + j))
        u_ref = float(sol.at(1.0, project_pi((x0, y0))))
        details[f"probe_{x0}_{y0}"] = {
            "mc": rep.estimate, "pde": u_ref, "gap": abs(rep.estimate - u_ref),
            "tol": z_threshold(rep.std_error, WEAK_GAP_SLACK),
            "diverged": rep.config["diverged"]}
        ok = ok and within_z(rep, u_ref, WEAK_GAP_SLACK)
    return CriterionResult(9, "limit Cauchy problem", bool(ok), details)


def _ulp_ok(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= 8.0 * np.spacing(max(abs(scale), 1e-300))


def algebra_identity_battery(seed: int) -> dict:
    """Exact and 8-ulp checks of the affine-group algebra: the momentum
    field at 1000 random points, the group and bracket identities at 100
    random triples.

    Returns violation counts per identity; all should be zero.
    """
    rng = np.random.default_rng(seed)
    viol = {k: 0 for k in ("momentum_field", "multiplication",
                           "ad_homomorphism", "coad_duality",
                           "bracket_axioms", "coadjoint_duality")}
    for _ in range(1000):
        m = ea.MomentumState(float(rng.uniform(-3, 3)),
                             float(rng.uniform(-3, 3)))
        dm = ea.euler_arnold_rhs(m)
        x, y = ea.momentum_to_plane(m)
        dx, dy = unperturbed_rhs((x, y))
        if not (dm.m2 == dx and dm.m1 == -dy):
            viol["momentum_field"] += 1
    g0 = ea.multiply(ea.GroupElement(2.0, 1.0), ea.GroupElement(3.0, 4.0))
    if (g0.a, g0.b) != (6.0, 9.0):
        viol["multiplication"] += 1
    for _ in range(100):
        g = ea.GroupElement(float(rng.uniform(0.2, 3.0)),
                            float(rng.uniform(-2.0, 2.0)))
        h = ea.GroupElement(float(rng.uniform(0.2, 3.0)),
                            float(rng.uniform(-2.0, 2.0)))
        gi = ea.multiply(g, ea.inverse(g))
        if not (_ulp_ok(gi.a, 1.0, 1.0) and _ulp_ok(gi.b, 0.0, abs(g.b))):
            viol["multiplication"] += 1
        xi, eta, zeta = (ea.AlgebraElement(float(rng.uniform(-2, 2)),
                                           float(rng.uniform(-2, 2)))
                         for _ in range(3))
        lhs = ea.ad_g(ea.multiply(g, h), eta)
        rhs = ea.ad_g(g, ea.ad_g(h, eta))
        scale = abs(eta.xi1) * (1 + abs(g.b) + abs(g.a * h.b)) \
            + abs(g.a * h.a * eta.xi2)
        if not (_ulp_ok(lhs.xi1, rhs.xi1, scale)
                and _ulp_ok(lhs.xi2, rhs.xi2, scale)):
            viol["ad_homomorphism"] += 1
        lhs_p = ea.pair(ea.coad_g(g, xi), eta)
        rhs_p = ea.pair(xi, ea.ad_g(g, eta))
        scale = abs(xi.xi1 * eta.xi1) + abs(g.b * xi.xi2 * eta.xi1) \
            + abs(g.a * xi.xi2 * eta.xi2)
        if not _ulp_ok(lhs_p, rhs_p, scale):
            viol["coad_duality"] += 1
        if ea.bracket(xi, xi).xi2 != 0.0:
            viol["bracket_axioms"] += 1
        jac = ea.bracket(xi, ea.bracket(eta, zeta)).xi2 \
            + ea.bracket(eta, ea.bracket(zeta, xi)).xi2 \
            + ea.bracket(zeta, ea.bracket(xi, eta)).xi2
        mx = max(abs(v) for v in (xi.xi1, xi.xi2, eta.xi1, eta.xi2,
                                  zeta.xi1, zeta.xi2))
        if not _ulp_ok(jac, 0.0, 6.0 * mx ** 3):
            viol["bracket_axioms"] += 1
        lhs_b = ea.pair(ea.coadjoint_bracket(xi, zeta), eta)
        rhs_b = ea.pair(zeta, ea.bracket(xi, eta))
        scale = abs(xi.xi2 * zeta.xi2 * eta.xi1) \
            + abs(xi.xi1 * zeta.xi2 * eta.xi2)
        if not _ulp_ok(lhs_b, rhs_b, scale):
            viol["coadjoint_duality"] += 1
    return viol


def criterion_algebra(seed: int) -> CriterionResult:
    """The momentum equation is the planar field exactly; all structural
    identities hold to at most 8 ulp."""
    viol = algebra_identity_battery(_seed(seed, 101))
    total = sum(viol.values())
    return CriterionResult(10, "affine-group momentum equivalence",
                           total == 0, {"violations": viol})


BATTERY = [criterion_projection, criterion_radial_identity,
           criterion_stationary_law, criterion_moment_closed_form,
           criterion_moment_scaling, criterion_exit_time_oracles,
           criterion_weak_convergence, criterion_metastability,
           criterion_cauchy_corollary, criterion_algebra]


def run_battery(seed: int) -> list[CriterionResult]:
    return [fn(seed) for fn in BATTERY]


def results_to_json(results: list[CriterionResult], seed: int) -> str:
    doc = {
        "version": __version__,
        "seed": seed,
        "criteria": [{"cid": r.cid, "name": r.name, "passed": r.passed,
                      "details": _jsonable(r.details)} for r in results],
        "all_passed": all(r.passed for r in results),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def run_acceptance(seed: int = 42) -> tuple[list, str]:
    """Run the battery twice and return the results of the first run, with
    the byte-identity check of the two reports as criterion 11, plus their
    JSON report."""
    results = run_battery(seed)
    payload = results_to_json(results, seed)
    second = results_to_json(run_battery(seed), seed)
    results.append(CriterionResult(11, "byte-identical rerun",
                                   payload == second,
                                   {"bytes": len(payload)}))
    return results, results_to_json(results, seed)
