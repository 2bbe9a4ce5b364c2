"""Batch orchestration: configure, run, and report every experiment.

Every setting is declared once, in ``SETTINGS``, and each subcommand takes
only the settings it reads.  A flat ``key = value`` file given with
``--config`` may set any setting of the table, so one file can serve every
subcommand.  The command line beats the file, and the file beats the
table's default.

Exit codes: 0 all assertions in scope pass; 1 assertion failure;
2 configuration error; 3 divergence-dominated run.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields
from functools import partial, wraps
from pathlib import Path
from typing import NoReturn

import click
import numpy as np

from . import __version__
from .acceptance import algebra_identity_battery, run_acceptance
from .analysis import (MOMENT_SCALING_WINDOW, PDE_PROBE_SLACK,
                       WEAK_GAP_SLACK, crossing_stats, excursion_anatomy,
                       excursion_probability, martingale_residual,
                       martingale_residual_limit, terminal_law_gap,
                       x_collapse_gap, x_second_moment_scaling, z_threshold)
from .limit import (TEST_FUNCTIONS, LimitParams, _em_advance,
                    limit_exact_reduce)
from .model import (ModelParams, _slowtime_advance, project_pi,
                    replica_reduce, rescaled_reduce)
from .pde import Grid1D, feynman_kac_mc, solve_limit_pde
from .reporting import path_to_csv, report_json, scaling_to_csv
from .sde import PathSample, TimeGrid

# Each setting's click option: ``--name`` with "_" written as "-".  ``t``
# has no table default: the commands that read it give their own.
SETTINGS = {
    "epsilon": dict(type=float, default=1e-3),
    "alpha": dict(type=float, default=0.1),
    "x0": dict(type=float, default=0.0),
    "y0": dict(type=float, default=2.0),
    "horizon": dict(type=float, default=1.0),
    "step": dict(type=float, default=1e-3),
    "replicas": dict(type=int, default=10_000),
    "seed": dict(type=int, default=42),
    "variant": dict(type=click.Choice(["dissipative", "no-dissipation"]),
                    default="dissipative",
                    callback=lambda ctx, param, v: v.replace("-", "_")),
    "out": dict(type=str, default=".", help="output directory"),
    "format": dict(type=click.Choice(["csv", "json"]), default="csv"),
    "system": dict(type=click.Choice(["rescaled", "slowtime", "limit-em",
                                      "limit-exact"]), default="rescaled"),
    "scheme": dict(type=click.Choice(["splitting", "euler"]),
                   default="splitting"),
    "polar": dict(is_flag=True, default=False,
                  help="append radius/angle columns to 2-d paths"),
    "x": dict(type=float, default=0.0),
    "y": dict(type=float, default=0.0),
    "t": dict(type=float, help="time horizon"),
    "epsilons": dict(type=str, default="",
                     help="comma-separated decreasing ladder"),
    "f": dict(type=click.Choice(sorted(TEST_FUNCTIONS)), default="exp"),
    "a": dict(type=float, default=0.5,
              help="excursion depth below the unstable half-axis"),
    "initial": dict(type=click.Choice(sorted(TEST_FUNCTIONS)),
                    default="exp"),
    "t_final": dict(type=float, default=1.0),
    "n_points": dict(type=int, default=601),
}

# The settings of every Monte Carlo command.
MONTE_CARLO = ("step", "replicas", "seed", "out")


def _config_error(message) -> NoReturn:
    click.echo(f"config error: {message}", err=True)
    sys.exit(2)


def _load_config(ctx, param, path):
    """Eager ``--config`` callback: the file's values become the command's
    defaults, which click converts and checks as it does the command line.

    The file is flat ``key = value`` text and '#' starts a comment.  Keys
    outside ``SETTINGS`` are errors (silent typos in epsilon/alpha
    invalidate experiments); keys the command does not read are ignored.
    """
    if path is None:
        return
    try:
        text = Path(path).read_text()
    except OSError as e:
        _config_error(f"cannot read config file {path}: {e}")
    cfg = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            _config_error(f"{path}:{lineno}: expected key = value")
        key, raw = body.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in SETTINGS:
            _config_error(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = raw.strip()
    ctx.default_map = cfg


def reads(*names, **defaults):
    """Give a command ``--config`` and the options of the settings it
    reads, with ``--fresh-seed`` beside ``--seed``.  ``defaults`` replaces
    the table's default for this command.  The command receives the
    settings as keyword arguments; its ``ValueError`` is a config error."""
    def decorate(cmd):
        @wraps(cmd)
        def run(fresh_seed=False, **s):
            if fresh_seed:
                s["seed"] = int(np.random.SeedSequence().entropy % 2 ** 31)
                click.echo(f"fresh seed: {s['seed']}")
            try:
                return cmd(**s)
            except ValueError as e:
                _config_error(e)

        options = [click.option("--config", type=str, is_eager=True,
                                expose_value=False, callback=_load_config,
                                help="flat key = value config file")]
        for name in names:
            spec = dict(SETTINGS[name])
            if name in defaults:
                spec["default"] = defaults[name]
            options.append(click.option("--" + name.replace("_", "-"),
                                        name, **spec))
        if "seed" in names:
            options.append(click.option(
                "--fresh-seed", is_flag=True,
                help="replace the fixed default seed with new entropy"))
        for option in reversed(options):
            run = option(run)
        return run
    return decorate


def _out_dir(s: dict) -> Path:
    out = Path(s["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _model_params(s: dict, **fixed) -> ModelParams:
    """The model from the settings a command reads; the fields it does not
    read keep ``ModelParams``' defaults."""
    given = {f.name: s[f.name] for f in fields(ModelParams) if f.name in s}
    return ModelParams(**dict(given, **fixed))


def _epsilon_ladder(s: dict, default: list[float]) -> list[float]:
    if not s["epsilons"]:
        return default
    try:
        eps = [float(v) for v in s["epsilons"].split(",") if v.strip()]
    except ValueError:
        _config_error(f"bad epsilons {s['epsilons']!r}")
    if len(eps) < 3 or not all(a > b for a, b in zip(eps, eps[1:])):
        _config_error("epsilons must be >= 3 decreasing values")
    return eps


def _write_report(s: dict, name: str, payload: str) -> Path:
    path = _out_dir(s) / name
    path.write_text(payload)
    click.echo(f"wrote {path}")
    return path


def _finish(passed: bool) -> None:
    sys.exit(0 if passed else 1)


@click.group()
@click.version_option(version=__version__)
def main():
    """Simulation lab for the perturbed planar conservative system and its
    damped radial Bessel limit."""


def _system_reduce(s: dict, grid: TimeGrid):
    """The batch-driver binding that ``simulate --system`` runs, as
    ``run(master_seed, n_replicas, reduce_fn)``, with its scheme label and
    the streams it reads."""
    system = s["system"]
    if system == "rescaled":
        return (partial(rescaled_reduce, _model_params(s), grid,
                        scheme=s["scheme"]), f"rescaled_{s['scheme']}",
                (0, 1))
    if system == "slowtime":
        return (partial(replica_reduce, partial(_slowtime_advance,
                                                _model_params(s), grid),
                        grid.times()), "slowtime_euler", (0, 1))
    variant = "damped" if s["variant"] == "dissipative" else "no_dissipation"
    lp = LimitParams(y0=s["y0"], variant=variant)
    if system == "limit-em":
        # the direct scheme reads z1 only
        return (partial(replica_reduce, partial(_em_advance, lp, grid),
                        grid.times()), f"limit_sq_em_{variant}", (0,))
    return partial(limit_exact_reduce, lp, grid), "limit_exact_ou2d", (0, 1)


def _path_columns(ts, *arrays) -> dict:
    """``reduce_fn`` of ``simulate``: the float arrays an advance returns
    are the state columns; its bool array, if any, flags divergence."""
    cols = [a for a in arrays if a.dtype != bool]
    flags = [a for a in arrays if a.dtype == bool]
    return {"states": np.stack(cols, axis=-1),
            "div": flags[0] if flags else np.zeros(len(cols[0]), dtype=bool)}


@main.command()
@reads("system", "scheme", "epsilon", "x0", "y0", "horizon", "variant",
       "step", "seed", "out", "format", "polar")
def simulate(**s):
    """Simulate one path and export it: replica 0 of the batch driver,
    which reads streams (seed, 0) and (seed, 1)."""
    grid = TimeGrid(s["horizon"], s["step"])
    seed = s["seed"]
    run, scheme, stream_ids = _system_reduce(s, grid)
    first = run(seed, 1, _path_columns)
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
            path_to_csv(path, fh, polar=s["polar"])
    else:
        doc = {"version": __version__, "seed": seed, "scheme": path.scheme,
               "times": path.grid.times().tolist(),
               "states": path.states.tolist()}
        out.write_text(json.dumps(doc, sort_keys=True) + "\n")
    click.echo(f"wrote {out}")
    _finish(True)


@main.command()
@reads("x", "y")
def project(x, y):
    """Print the projected start value on the stable half-axis."""
    click.echo(project_pi((x, y)))
    _finish(True)


@main.command()
@reads("epsilons", "t", "alpha", *MONTE_CARLO, t=0.2)
def lemma1(**s):
    """Scaling of the fast coordinate's second moment against epsilon."""
    eps = _epsilon_ladder(s, [1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5])
    fit = x_second_moment_scaling(eps, s["alpha"], s["t"], s["replicas"],
                                  s["seed"], h=s["step"])
    lo, hi = MOMENT_SCALING_WINDOW
    passed = lo <= fit.slope <= hi
    with open(_out_dir(s) / "xmoment_scaling.csv", "w") as fh:
        scaling_to_csv(fit, fh, seed=s["seed"],
                       config={"alpha": s["alpha"], "t": s["t"]})
    _write_report(s, "xmoment_scaling.json", report_json(
        "x_second_moment_scaling",
        {"epsilons": eps, "alpha": s["alpha"], "t": s["t"],
         "replicas": s["replicas"]},
        fit.slope, fit.slope_se, s["replicas"], passed, [lo, hi],
        s["seed"]))
    click.echo(f"slope = {fit.slope:.4f} (target window [{lo:g}, {hi:g}])")
    _finish(passed)


@main.command()
@reads("epsilon", "alpha", "x0", "y0", "horizon", "variant", *MONTE_CARLO)
def crossings(**s):
    """Band-crossing statistics against the exit-time oracles."""
    cs = crossing_stats(_model_params(s), s["horizon"], s["replicas"],
                        s["seed"], h=s["step"])
    _write_report(s, "crossings.json", report_json(
        "crossing_stats",
        {"epsilon": s["epsilon"], "alpha": s["alpha"], "T": s["horizon"],
         "replicas": s["replicas"], "stats": cs},
        cs.mean_n.estimate, cs.mean_n.std_error, s["replicas"], cs.passed,
        cs.bounds["n_bound"], s["seed"]))
    click.echo(f"mean up-crossings = {cs.mean_n.estimate:.3f} "
               f"(bound {cs.bounds['n_bound']:.3f})")
    _finish(cs.passed)


@main.command()
@reads("epsilon", "x0", "y0", "horizon", "variant", "f", *MONTE_CARLO)
def martingale(**s):
    """Generator residual along the perturbed system, with the exact-limit
    control."""
    p = _model_params(s)
    f = TEST_FUNCTIONS[s["f"]]
    rep = martingale_residual(p, f, s["horizon"], s["replicas"], s["seed"],
                              h=s["step"])
    ctrl = martingale_residual_limit(project_pi((p.x0, p.y0)), f,
                                     s["horizon"], s["replicas"],
                                     s["seed"] + 1, h=s["step"])
    if rep.config.get("diverged", 0) > 0.5 * s["replicas"]:
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
         "control": ctrl},
        rep.estimate, rep.std_error, rep.n_replicas, passed, thresh,
        s["seed"]))
    click.echo(f"residual = {rep.estimate:+.5f} +- {rep.std_error:.5f} "
               f"(threshold {thresh:.5f}); "
               f"control = {ctrl.estimate:+.5f} +- {ctrl.std_error:.5f}")
    _finish(passed)


@main.command(name="weak-gap")
@reads("epsilon", "x0", "y0", "horizon", "variant", "f", *MONTE_CARLO)
def weak_gap(**s):
    """Terminal-law and x-collapse gaps against the limit process."""
    p = _model_params(s)
    f = TEST_FUNCTIONS[s["f"]]
    tg = terminal_law_gap(p, f, s["horizon"], s["replicas"], s["seed"],
                          h=s["step"])
    # seed + 1 is the KS reference sample of terminal_law_gap
    cg = x_collapse_gap(p, lambda x, y: np.minimum(np.abs(x), 1.0),
                        s["horizon"], s["replicas"], s["seed"] + 2,
                        h=s["step"])
    thresh = z_threshold(tg.gap.std_error, WEAK_GAP_SLACK)
    passed = abs(tg.gap.estimate) < thresh
    _write_report(s, "weak_gap.json", report_json(
        "weak_gap",
        {"epsilon": s["epsilon"], "f": f.name, "T": s["horizon"],
         "terminal": tg, "collapse": cg},
        tg.gap.estimate, tg.gap.std_error, tg.gap.n_replicas, passed,
        thresh, s["seed"]))
    click.echo(f"terminal gap = {tg.gap.estimate:+.5f} "
               f"(threshold {thresh:.5f}), KS = {tg.ks_stat:.4f} "
               f"(critical {tg.ks_critical:.4f})")
    _finish(passed)


@main.command()
@reads("epsilons", "a", "t", "x0", "y0", "variant", *MONTE_CARLO, t=5.0)
def excursions(**s):
    """Deep-excursion probabilities over an epsilon ladder, with anatomy
    records at the largest epsilon."""
    eps = _epsilon_ladder(s, [0.2, 0.1, 0.05])
    a, t = s["a"], s["t"]
    reps = [excursion_probability(_model_params(s, epsilon=e), a,
                                  t, s["replicas"], s["seed"], h=s["step"])
            for e in eps]
    vals = [r.estimate for r in reps]
    passed = all(u > v for u, v in zip(vals, vals[1:]))
    grid = TimeGrid(t, s["step"])
    paths = rescaled_reduce(_model_params(s, epsilon=eps[0]),
                            grid, s["seed"] + 7, 20,
                            lambda ts, xs, ys, div: {"xs": xs, "ys": ys})
    records = excursion_anatomy(grid.times(), paths["xs"], paths["ys"],
                                a=a / 2.0)
    _write_report(s, "excursions.json", report_json(
        "excursion_probability",
        {"a": a, "t": t, "epsilons": eps, "ladder": reps,
         "n_anatomy_records": len(records),
         "anatomy_max_abs_x": [r.max_abs_x for r in records[:50]]},
        vals[-1], reps[-1].std_error, s["replicas"], passed, None,
        s["seed"]))
    click.echo("p(ladder) = " + ", ".join(f"{v:.4f}" for v in vals)
               + ("  (decreasing)" if passed else "  (NOT decreasing)"))
    _finish(passed)


@main.command()
@reads("initial", "t_final", "n_points", "seed", "out")
def pde(**s):
    """Solve the limit Cauchy problem and cross-check it against the
    probabilistic representation."""
    f = TEST_FUNCTIONS[s["initial"]]
    t_final = s["t_final"]
    grid = Grid1D(n_points=s["n_points"], t_final=t_final)
    sol = solve_limit_pde(f, grid)
    ys = grid.y_nodes()
    csv_path = _out_dir(s) / "pde_solution.csv"
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
        rep = feynman_kac_mc(float(y), t_final, f, 100_000, s["seed"] + i)
        tol = z_threshold(rep.std_error, PDE_PROBE_SLACK)
        u = float(sol.at(t_final, y))
        gap = abs(u - rep.estimate)
        checks.append({"y": float(y), "pde": u, "mc": rep.estimate,
                       "gap": gap, "tol": tol})
        passed = passed and gap < tol
    _write_report(s, "pde_probes.json", report_json(
        "solve_limit_pde",
        {"initial": f.name, "t_final": t_final, "n_points": s["n_points"],
         "probes": checks, "max_principle": [sol.u_min, sol.u_max],
         "constant_drift_per_step": sol.constant_drift_per_step},
        None, None, len(checks), passed, None, s["seed"]))
    _finish(passed)


@main.command(name="euler-arnold")
@reads("seed", "out")
def euler_arnold_cmd(**s):
    """Verify the affine-group structural identities and the momentum-
    equation equivalence."""
    viol = algebra_identity_battery(s["seed"])
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
@reads("seed", "out")
def acceptance(**s):
    """Run the full acceptance battery and write the JSON report."""
    results, payload = run_acceptance(s["seed"])
    path = _out_dir(s) / "acceptance.json"
    path.write_text(payload)
    for r in results:
        click.echo(r.line())
    click.echo(f"wrote {path}")
    _finish(all(r.passed for r in results))


if __name__ == "__main__":
    main()
