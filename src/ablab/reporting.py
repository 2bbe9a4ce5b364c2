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
from .model import to_polar
from .sde import PathSample


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _meta_line(seed, config: dict) -> str:
    parts = [f"ablab={__version__}", f"seed={seed}"]
    parts += [f"{k}={v}" for k, v in sorted(config.items())]
    return "# " + " ".join(parts) + "\n"


def path_to_csv(path: PathSample, out: IO[str], polar: bool = False) -> None:
    """Write a path as CSV: columns t,x,y for 2-d paths (plus r,theta when
    polar is requested), t,y for 1-d paths.  Floats carry 17 significant
    digits; the header row is mandatory."""
    ts = path.grid.times()
    config = {"scheme": path.scheme, "stream_ids": list(path.stream_ids),
              "step": path.grid.step, "horizon": path.grid.horizon,
              "diverged": path.diverged}
    out.write(_meta_line(path.master_seed, config))
    d = path.states.shape[1]
    if d == 2 and polar:
        pol = to_polar(path)
        out.write("t,x,y,r,theta\n")
        for k, t in enumerate(ts):
            row = [t, path.states[k, 0], path.states[k, 1],
                   pol.states[k, 0], pol.states[k, 1]]
            out.write(",".join(_fmt(v) for v in row) + "\n")
    elif d == 2:
        out.write("t,x,y\n")
        for k, t in enumerate(ts):
            out.write(",".join(_fmt(v) for v in
                               (t, path.states[k, 0], path.states[k, 1]))
                      + "\n")
    else:
        out.write("t,y\n")
        for k, t in enumerate(ts):
            out.write(",".join(_fmt(v) for v in (t, path.states[k, 0]))
                      + "\n")


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
