"""Batch orchestration: configure, run, and report every experiment.

Exit codes: 0 all assertions in scope pass; 1 assertion failure;
2 configuration error; 3 divergence-dominated run.
"""

from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path

import click
import numpy as np

from . import __version__
from .acceptance import algebra_identity_battery, run_acceptance
from .analysis import (MOMENT_SCALING_WINDOW, PDE_PROBE_SLACK,
                       WEAK_GAP_SLACK, crossing_stats, excursion_anatomy,
                       excursion_probability, martingale_residual,
                       martingale_residual_limit, terminal_law_gap,
                       x_collapse_gap, x_second_moment_scaling, z_threshold)
from .limit import TEST_FUNCTIONS, LimitParams, _em_advance, _exact_advance
from .model import (ModelParams, _rescaled_advance, _slowtime_advance,
                    project_pi, replica_reduce, rescaled_reduce)
from .pde import Grid1D, feynman_kac_mc, solve_limit_pde
from .reporting import path_to_csv, report_json, scaling_to_csv
from .sde import PathSample, TimeGrid

DEFAULTS = {
    "epsilon": 1e-3,
    "alpha": 0.1,
    "x0": 0.0,
    "y0": 2.0,
    "horizon": 1.0,
    "step": 1e-3,
    "replicas": 10_000,
    "seed": 42,
    "variant": "dissipative",
    "out": ".",
    "format": "csv",
    # command-specific
    "system": "rescaled",
    "scheme": "splitting",
    "polar": False,
    "x": 0.0,
    "y": 0.0,
    "t": None,
    "epsilons": "",
    "f": "exp",
    "a": 0.5,
    "delta": 0.1,
    "initial": "exp",
    "t_final": 1.0,
    "n_points": 601,
}


class ConfigError(Exception):
    pass


def _parse_value(raw: str):
    raw = raw.strip()
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def load_config(path: str | None) -> dict:
    """Flat key = value text; '#' starts a comment; unknown keys are hard
    errors (silent typos in epsilon/alpha invalidate experiments)."""
    if path is None:
        return {}
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = body.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = _parse_value(raw)
    return cfg


def _settings(config_path, overrides: dict) -> dict:
    try:
        cfg = load_config(config_path)
    except ConfigError as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(2)
    merged = dict(DEFAULTS)
    merged.update(cfg)
    merged.update({("format" if k == "format_" else k): v
                   for k, v in overrides.items() if v is not None})
    if merged["variant"] not in ("dissipative", "no-dissipation",
                                 "no_dissipation"):
        click.echo(f"config error: bad variant {merged['variant']!r}",
                   err=True)
        sys.exit(2)
    merged["variant"] = merged["variant"].replace("-", "_")
    if merged.get("fresh_seed"):
        merged["seed"] = int(np.random.SeedSequence().entropy % 2 ** 31)
        click.echo(f"fresh seed: {merged['seed']}")
    return merged


def _out_dir(s: dict) -> Path:
    out = Path(s["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _model_params(s: dict) -> ModelParams:
    try:
        return ModelParams(epsilon=float(s["epsilon"]),
                           alpha=float(s["alpha"]), variant=s["variant"],
                           x0=float(s["x0"]), y0=float(s["y0"]),
                           horizon=float(s["horizon"]))
    except ValueError as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(2)


def _epsilon_ladder(s: dict, default: list[float]) -> list[float]:
    if not s["epsilons"]:
        return default
    try:
        eps = [float(v) for v in str(s["epsilons"]).split(",") if v.strip()]
    except ValueError:
        click.echo(f"config error: bad epsilons {s['epsilons']!r}", err=True)
        sys.exit(2)
    if len(eps) < 3 or not all(a > b for a, b in zip(eps, eps[1:])):
        click.echo("config error: epsilons must be >= 3 decreasing values",
                   err=True)
        sys.exit(2)
    return eps


def _write_report(s: dict, name: str, payload: str) -> Path:
    path = _out_dir(s) / name
    path.write_text(payload)
    click.echo(f"wrote {path}")
    return path


def _finish(passed: bool) -> None:
    sys.exit(0 if passed else 1)


def common_options(fn):
    for opt in reversed([
        click.option("--config", "config_path", type=str, default=None,
                     help="flat key = value config file"),
        click.option("--epsilon", type=float, default=None),
        click.option("--alpha", type=float, default=None),
        click.option("--x0", type=float, default=None),
        click.option("--y0", type=float, default=None),
        click.option("--horizon", type=float, default=None),
        click.option("--step", type=float, default=None),
        click.option("--replicas", type=int, default=None),
        click.option("--seed", type=int, default=None),
        click.option("--variant",
                     type=click.Choice(["dissipative", "no-dissipation"]),
                     default=None),
        click.option("--out", type=str, default=None,
                     help="output directory"),
        click.option("--format", "format_",
                     type=click.Choice(["csv", "json"]), default=None),
        click.option("--fresh-seed", "fresh_seed", is_flag=True,
                     default=False,
                     help="replace the fixed default seed with new entropy"),
    ]):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(version=__version__)
def main():
    """Simulation lab for the perturbed planar conservative system and its
    damped radial Bessel limit."""


def _system_advance(s: dict, grid: TimeGrid):
    """The advance that ``simulate --system`` runs, its scheme label and
    the streams it reads."""
    system = s["system"]
    if system == "rescaled":
        return (partial(_rescaled_advance, _model_params(s), grid,
                        s["scheme"]), f"rescaled_{s['scheme']}", (0, 1))
    if system == "slowtime":
        return (partial(_slowtime_advance, _model_params(s), grid),
                "slowtime_euler", (0, 1))
    y0, horizon = float(s["y0"]), float(s["horizon"])
    if system == "limit-em":
        variant = "damped" if s["variant"] == "dissipative" \
            else "no_dissipation"
        lp = LimitParams(y0=y0, variant=variant, horizon=horizon)
        # the direct scheme reads z1 only
        return (partial(_em_advance, lp, grid), f"limit_sq_em_{variant}",
                (0,))
    return (partial(_exact_advance, LimitParams(y0=y0, horizon=horizon),
                    grid), "limit_exact_ou2d", (0, 1))


def _path_columns(ts, *arrays) -> dict:
    """``reduce_fn`` of ``simulate``: the float arrays an advance returns
    are the state columns; its bool array, if any, flags divergence."""
    cols = [a for a in arrays if a.dtype != bool]
    flags = [a for a in arrays if a.dtype == bool]
    return {"states": np.stack(cols, axis=-1),
            "div": flags[0] if flags else np.zeros(len(cols[0]), dtype=bool)}


@main.command()
@common_options
@click.option("--system", type=click.Choice(
    ["rescaled", "slowtime", "limit-em", "limit-exact"]), default=None)
@click.option("--scheme", type=click.Choice(["splitting", "euler"]),
              default=None)
@click.option("--polar", is_flag=True, default=False,
              help="append radius/angle columns to 2-d paths")
def simulate(config_path, polar, **kw):
    """Simulate one path and export it: replica 0 of the batch driver,
    which reads streams (seed, 0) and (seed, 1)."""
    s = _settings(config_path, kw)
    grid = TimeGrid(0.0, float(s["horizon"]), float(s["step"]))
    seed = int(s["seed"])
    advance, scheme, stream_ids = _system_advance(s, grid)
    first = replica_reduce(advance, grid, seed, 1, _path_columns,
                           batch_size=1)
    path = PathSample(grid=grid, states=first["states"][0], master_seed=seed,
                      stream_ids=stream_ids, scheme=scheme,
                      diverged=bool(first["div"][0]))
    if path.diverged:
        click.echo("divergence guard tripped: step too large for this "
                   "stiffness (reduce --step or use the splitting scheme)",
                   err=True)
        sys.exit(3)
    name = f"path_{s['system']}_seed{seed}.{s['format']}"
    out = _out_dir(s) / name
    if s["format"] == "csv":
        with open(out, "w") as fh:
            path_to_csv(path, fh, polar=bool(s["polar"] or polar))
    else:
        doc = {"version": __version__, "seed": seed, "scheme": path.scheme,
               "times": path.grid.times().tolist(),
               "states": path.states.tolist()}
        out.write_text(json.dumps(doc, sort_keys=True) + "\n")
    click.echo(f"wrote {out}")
    _finish(True)


@main.command()
@common_options
@click.option("--x", type=float, default=None)
@click.option("--y", type=float, default=None)
def project(config_path, **kw):
    """Print the projected start value on the stable half-axis."""
    s = _settings(config_path, kw)
    click.echo(project_pi((float(s["x"]), float(s["y"]))))
    _finish(True)


@main.command()
@common_options
@click.option("--epsilons", type=str, default=None,
              help="comma-separated decreasing ladder")
@click.option("--t", type=float, default=None)
def lemma1(config_path, **kw):
    """Scaling of the fast coordinate's second moment against epsilon."""
    s = _settings(config_path, kw)
    eps = _epsilon_ladder(s, [1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5])
    t = float(s["t"]) if s["t"] is not None else 0.2
    fit = x_second_moment_scaling(eps, float(s["alpha"]), t,
                                  int(s["replicas"]), int(s["seed"]),
                                  h=float(s["step"]))
    lo, hi = MOMENT_SCALING_WINDOW
    passed = lo <= fit.slope <= hi
    with open(_out_dir(s) / "xmoment_scaling.csv", "w") as fh:
        scaling_to_csv(fit, fh, seed=s["seed"], config={"alpha": s["alpha"],
                                                        "t": t})
    _write_report(s, "xmoment_scaling.json", report_json(
        "x_second_moment_scaling",
        {"epsilons": eps, "alpha": s["alpha"], "t": t,
         "replicas": s["replicas"]},
        fit.slope, fit.slope_se, int(s["replicas"]), passed,
        [lo, hi], s["seed"]))
    click.echo(f"slope = {fit.slope:.4f} (target window [{lo:g}, {hi:g}])")
    _finish(passed)


@main.command()
@common_options
def crossings(config_path, **kw):
    """Band-crossing statistics against the exit-time oracles."""
    s = _settings(config_path, kw)
    p = _model_params(s)
    cs = crossing_stats(p, float(s["horizon"]), int(s["replicas"]),
                        int(s["seed"]), h=float(s["step"]))
    passed = cs.passed
    _write_report(s, "crossings.json", report_json(
        "crossing_stats",
        {"epsilon": s["epsilon"], "alpha": s["alpha"], "T": s["horizon"],
         "replicas": s["replicas"], "stats": cs.to_dict()},
        cs.mean_n.estimate, cs.mean_n.std_error, int(s["replicas"]),
        passed, cs.bounds["n_bound"], s["seed"]))
    click.echo(f"mean up-crossings = {cs.mean_n.estimate:.3f} "
               f"(bound {cs.bounds['n_bound']:.3f})")
    _finish(passed)


@main.command()
@common_options
@click.option("--f", "f_name", type=click.Choice(sorted(TEST_FUNCTIONS)),
              default=None)
def martingale(config_path, f_name, **kw):
    """Generator residual along the perturbed system, with the exact-limit
    control."""
    s = _settings(config_path, dict(kw, f=f_name))
    p = _model_params(s)
    f = TEST_FUNCTIONS[s["f"]]
    rep = martingale_residual(p, f, float(s["horizon"]),
                              int(s["replicas"]), int(s["seed"]),
                              h=float(s["step"]))
    ctrl = martingale_residual_limit(project_pi((p.x0, p.y0)), f,
                                     float(s["horizon"]),
                                     int(s["replicas"]), int(s["seed"]) + 1,
                                     h=float(s["step"]))
    if rep.config.get("diverged", 0) > 0.5 * int(s["replicas"]):
        click.echo("divergence-dominated run: "
                   f"{rep.config['diverged']} of {s['replicas']} replicas "
                   "tripped the guard", err=True)
        sys.exit(3)
    thresh = z_threshold(rep.std_error, WEAK_GAP_SLACK)
    passed = abs(rep.estimate) < thresh \
        and abs(ctrl.estimate) < z_threshold(ctrl.std_error)
    _write_report(s, "martingale.json", report_json(
        "martingale_residual",
        {"epsilon": s["epsilon"], "f": f.name, "T": s["horizon"],
         "control": ctrl.to_dict()},
        rep.estimate, rep.std_error, rep.n_replicas, passed, thresh,
        s["seed"]))
    click.echo(f"residual = {rep.estimate:+.5f} +- {rep.std_error:.5f} "
               f"(threshold {thresh:.5f}); "
               f"control = {ctrl.estimate:+.5f} +- {ctrl.std_error:.5f}")
    _finish(passed)


@main.command(name="weak-gap")
@common_options
@click.option("--f", "f_name", type=click.Choice(sorted(TEST_FUNCTIONS)),
              default=None)
def weak_gap(config_path, f_name, **kw):
    """Terminal-law and x-collapse gaps against the limit process."""
    s = _settings(config_path, dict(kw, f=f_name))
    p = _model_params(s)
    f = TEST_FUNCTIONS[s["f"]]
    tg = terminal_law_gap(p, f, float(s["horizon"]), int(s["replicas"]),
                          int(s["seed"]), h=float(s["step"]))
    cg = x_collapse_gap(p, lambda x, y: np.minimum(np.abs(x), 1.0),
                        float(s["horizon"]), int(s["replicas"]),
                        int(s["seed"]) + 1, h=float(s["step"]))
    thresh = z_threshold(tg.gap.std_error, WEAK_GAP_SLACK)
    passed = abs(tg.gap.estimate) < thresh
    _write_report(s, "weak_gap.json", report_json(
        "weak_gap",
        {"epsilon": s["epsilon"], "f": f.name, "T": s["horizon"],
         "terminal": tg.to_dict(), "collapse": cg.to_dict()},
        tg.gap.estimate, tg.gap.std_error, tg.gap.n_replicas, passed,
        thresh, s["seed"]))
    click.echo(f"terminal gap = {tg.gap.estimate:+.5f} "
               f"(threshold {thresh:.5f}), KS = {tg.ks_stat:.4f} "
               f"(critical {tg.ks_critical:.4f})")
    _finish(passed)


@main.command()
@common_options
@click.option("--a", type=float, default=None,
              help="excursion depth below the unstable half-axis")
@click.option("--t", type=float, default=None, help="time horizon")
@click.option("--epsilons", type=str, default=None)
def excursions(config_path, **kw):
    """Deep-excursion probabilities over an epsilon ladder, with anatomy
    records at the largest epsilon."""
    s = _settings(config_path, kw)
    eps = _epsilon_ladder(s, [0.2, 0.1, 0.05])
    a = float(s["a"])
    t = float(s["t"]) if s["t"] else 5.0
    reps = []
    for e in eps:
        p = ModelParams(epsilon=e, alpha=float(s["alpha"]),
                        variant=s["variant"], x0=float(s["x0"]),
                        y0=float(s["y0"]), horizon=t)
        reps.append(excursion_probability(p, a, t, int(s["replicas"]),
                                          int(s["seed"]),
                                          h=float(s["step"])))
    vals = [r.estimate for r in reps]
    passed = all(u > v for u, v in zip(vals, vals[1:]))
    p = ModelParams(epsilon=eps[0], alpha=float(s["alpha"]),
                    variant=s["variant"], x0=float(s["x0"]),
                    y0=float(s["y0"]), horizon=t)
    grid = TimeGrid(0.0, t, float(s["step"]))
    paths = rescaled_reduce(p, grid, int(s["seed"]) + 7, 20,
                            lambda ts, xs, ys, div: {"xs": xs, "ys": ys})
    records = excursion_anatomy(grid.times(), paths["xs"], paths["ys"],
                                a=a / 2.0)
    _write_report(s, "excursions.json", report_json(
        "excursion_probability",
        {"a": a, "t": t, "epsilons": eps,
         "ladder": [r.to_dict() for r in reps],
         "n_anatomy_records": len(records),
         "anatomy_max_abs_x": [r.max_abs_x for r in records[:50]]},
        vals[-1], reps[-1].std_error, int(s["replicas"]), passed, None,
        s["seed"]))
    click.echo("p(ladder) = " + ", ".join(f"{v:.4f}" for v in vals)
               + ("  (decreasing)" if passed else "  (NOT decreasing)"))
    _finish(passed)


@main.command()
@common_options
@click.option("--initial", type=click.Choice(sorted(TEST_FUNCTIONS)),
              default=None)
@click.option("--t-final", "t_final", type=float, default=None)
@click.option("--n-points", "n_points", type=int, default=None)
def pde(config_path, t_final, n_points, **kw):
    """Solve the limit Cauchy problem and cross-check it against the
    probabilistic representation."""
    s = _settings(config_path, dict(kw, t_final=t_final, n_points=n_points))
    f = TEST_FUNCTIONS[s["initial"]]
    grid = Grid1D(n_points=int(s["n_points"]), t_final=float(s["t_final"]))
    sol = solve_limit_pde(f, grid)
    ys = grid.y_nodes()
    out = _out_dir(s)
    csv_path = out / "pde_solution.csv"
    with open(csv_path, "w") as fh:
        fh.write(f"# ablab={__version__} seed={s['seed']} "
                 f"initial={f.name} n_points={grid.n_points} "
                 f"dt={grid.dt}\n")
        fh.write("t,y,u\n")
        for j, t in enumerate(sol.times):
            for y, u in zip(ys, sol.u[j]):
                fh.write(f"{t:.17g},{y:.17g},{u:.17g}\n")
    click.echo(f"wrote {csv_path}")
    probes = np.linspace(0.25, 3.0, 8)
    checks = []
    passed = True
    for i, y in enumerate(probes):
        rep = feynman_kac_mc(float(y), float(s["t_final"]), f, 100_000,
                             int(s["seed"]) + i)
        tol = z_threshold(rep.std_error, PDE_PROBE_SLACK)
        gap = abs(float(sol.at(float(s["t_final"]), y)) - rep.estimate)
        checks.append({"y": float(y), "pde": float(sol.at(
            float(s["t_final"]), y)), "mc": rep.estimate, "gap": gap,
            "tol": tol})
        passed = passed and gap < tol
    _write_report(s, "pde_probes.json", report_json(
        "solve_limit_pde",
        {"initial": f.name, "t_final": s["t_final"],
         "n_points": s["n_points"], "probes": checks,
         "max_principle": [sol.u_min, sol.u_max],
         "constant_drift_per_step": sol.constant_drift_per_step},
        None, None, len(checks), passed, None, s["seed"]))
    _finish(passed)


@main.command(name="euler-arnold")
@common_options
def euler_arnold_cmd(config_path, **kw):
    """Verify the affine-group structural identities and the momentum-
    equation equivalence."""
    s = _settings(config_path, kw)
    viol = algebra_identity_battery(int(s["seed"]))
    total = sum(viol.values())
    _write_report(s, "euler_arnold.json", report_json(
        "algebra_identity_battery", {"violations": viol}, total, None,
        1000, total == 0, 0, s["seed"]))
    if total == 0:
        click.echo("PASS (0 identity violations)")
    else:
        click.echo(f"FAIL ({total} identity violations)")
    _finish(total == 0)


@main.command()
@common_options
def acceptance(config_path, **kw):
    """Run the full acceptance battery and write the JSON report."""
    s = _settings(config_path, kw)
    results, payload = run_acceptance(int(s["seed"]))
    path = _out_dir(s) / "acceptance.json"
    path.write_text(payload)
    for r in results:
        click.echo(r.line())
    click.echo(f"wrote {path}")
    _finish(all(r.passed for r in results))


if __name__ == "__main__":
    main()
