"""CSV and JSON artifact writers.

Every artifact embeds the package version, the master seed and a config
echo, and is written deterministically (sorted keys, repr floats) so that
reruns with the same seed produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import IO

import numpy as np

from . import __version__
from .analysis import ScalingFit
from .sde import TimeGrid


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _meta_line(seed, config: dict) -> str:
    parts = [f"ablab={__version__}", f"seed={seed}"]
    parts += [f"{k}={v}" for k, v in sorted(config.items())]
    return "# " + " ".join(parts) + "\n"


def to_polar(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radius and folded angle arctan(y/|x|) of the rows (x, y) of a 2-d path.

    Folding the angle across the y-axis uses the mirror symmetry of the
    system, so theta = +pi/2 is the stable half-axis and -pi/2 the unstable
    one.  At the origin the angle is undefined; such samples carry the
    previous angle (0 at the first sample).
    """
    r = np.hypot(states[:, 0], states[:, 1])
    theta = np.arctan2(states[:, 1], np.abs(states[:, 0]))
    for i in np.nonzero(r == 0.0)[0]:
        theta[i] = theta[i - 1] if i > 0 else 0.0
    return r, theta


def path_to_csv(grid: TimeGrid, states: np.ndarray, seed: int, scheme: str,
                out: IO[str], polar: bool = False) -> None:
    """Write the (n_steps + 1, d) states of a path on the grid as CSV:
    columns t,x,y for 2-d paths (plus r,theta when polar is requested), t,y
    for 1-d paths.  Floats carry 17 significant digits; the header row is
    mandatory."""
    # a path is replica 0 of the driver, and a diverged one is not written
    config = {"scheme": scheme, "stream_ids": [0, 1], "step": grid.step,
              "horizon": grid.horizon, "diverged": False}
    out.write(_meta_line(seed, config))
    planar = states.shape[1] == 2
    columns = {"t": grid.times()}
    if planar:
        columns["x"] = states[:, 0]
    columns["y"] = states[:, -1]
    if planar and polar:
        columns["r"], columns["theta"] = to_polar(states)
    out.write(",".join(columns) + "\n")
    for row in zip(*columns.values()):
        out.write(",".join(_fmt(v) for v in row) + "\n")


def scaling_to_csv(fit: ScalingFit, out: IO[str], seed=None,
                   config: dict | None = None) -> None:
    out.write(_meta_line(seed, dict(config or {},
                                    slope=fit.slope, slope_se=fit.slope_se)))
    out.write("epsilon,estimate,std_error\n")
    for e, v, s in zip(fit.epsilons, fit.estimates, fit.std_errors):
        out.write(",".join(_fmt(x) for x in (e, v, s)) + "\n")


def _jsonable(obj):
    """Plain JSON values from arrays, numpy scalars, containers and
    dataclass instances (a dict of their fields)."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def report_json(operation: str, params: dict, estimate, std_error, n,
                passed, threshold, seed) -> str:
    """The per-experiment report: one deterministic JSON document."""
    doc = {
        "operation": operation,
        "params": _jsonable(params),
        "estimate": _jsonable(estimate),
        "std_error": _jsonable(std_error),
        "n": _jsonable(n),
        "passed": bool(passed) if passed is not None else None,
        "threshold": _jsonable(threshold),
        "seed": _jsonable(seed),
        "version": __version__,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
