"""The planar conservative system and its stochastic perturbations.

The unperturbed vector field is (dx, dy) = (-x*y, x^2): every point of the
y-axis is an equilibrium (stable for y > 0, unstable for y < 0) and the
energy x^2 + y^2 is conserved, so orbits run along circles toward the
positive y-axis.  Adding linear friction of strength eps and noise of
strength sqrt(eps), then speeding time up by 1/eps, gives a fast-slow
system with an O(1/eps) conservative drift, unit damping and unit noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from . import _kernels
from .sde import DEFAULT_GUARD, PathSample, TimeGrid, normal_matrix

VARIANTS = ("dissipative", "no_dissipation")

# Fast angular motion is resolved to this many radians per drift substep.
DTHETA_MAX = 0.02


class State2(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one perturbed-system experiment."""

    epsilon: float
    alpha: float = 0.1
    variant: str = "dissipative"
    x0: float = 0.0
    y0: float = 2.0
    horizon: float = 1.0

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")

    def delta(self) -> float:
        """Crossing-band half width eps**alpha (always derived, never stored)."""
        return self.epsilon ** self.alpha

    @property
    def damping(self) -> float:
        return 1.0 if self.variant == "dissipative" else 0.0


def unperturbed_rhs(s) -> State2:
    x, y = s
    return State2(-x * y, x * x)


def energy(s) -> float:
    x, y = s
    return x * x + y * y


def flow_unperturbed(s0, t: float, tol: float = 1e-8) -> State2:
    """Integrate the conservative flow for time t.

    Adaptive Runge-Kutta (DOP853), retried at tighter tolerances until the
    relative energy drift along the trajectory stays below ``tol``.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x0, y0 = float(s0[0]), float(s0[1])
    if t == 0.0:
        return State2(x0, y0)
    e0 = energy((x0, y0))
    scale = max(e0, 1.0)
    t_eval = np.linspace(0.0, t, 33)
    rtol = min(max(tol * 1e-4, 1e-13), 1e-10)
    for _ in range(3):
        sol = solve_ivp(
            lambda _t, s: [-s[0] * s[1], s[0] * s[0]],
            (0.0, t), [x0, y0], method="DOP853",
            rtol=rtol, atol=rtol * 1e-2, t_eval=t_eval)
        if not sol.success:
            raise RuntimeError(f"flow integration failed: {sol.message}")
        drift = np.abs(sol.y[0] ** 2 + sol.y[1] ** 2 - e0).max() / scale
        if drift < tol:
            return State2(float(sol.y[0, -1]), float(sol.y[1, -1]))
        rtol = max(rtol * 1e-2, 1e-14)
    raise RuntimeError(
        f"energy drift {drift:.3e} exceeds tol {tol:.3e} at rtol {rtol:.1e}")


def project_pi(s0) -> float:
    """Limit y-value of the conservative flow started at s0.

    Energy conservation forces orbits onto circles that terminate on the
    positive y-axis, so the value is sqrt(x0^2 + y0^2) away from the origin
    (this also realizes the small-angle extension used on the negative
    y-axis, independently of the tilt angle) and 0 at the origin.
    """
    x0, y0 = float(s0[0]), float(s0[1])
    if x0 == 0.0 and y0 == 0.0:
        return 0.0
    return math.hypot(x0, y0)


def project_pi_flow(s0, t: float = 50.0, tol: float = 1e-8) -> float:
    """ODE-based projection value; independent cross-check for project_pi."""
    return flow_unperturbed(s0, t, tol).y


def replica_reduce(advance, grid: TimeGrid, master_seed: int,
                   n_replicas: int, reduce_fn, batch_size: int) -> dict:
    """Run replicas of one system in batches, reducing each batch to small
    arrays.  Every simulated path in the package comes from here.

    Replica i reads streams 2i and 2i + 1 of ``master_seed``: one row each
    of ``normal_matrix``, a pure function of the stream and the grid.
    ``advance(z1, z2)`` turns a batch of such rows (first axis = replica)
    into a tuple of arrays, and ``reduce_fn(times, *arrays)`` returns a dict
    of arrays with the replica axis first.  Results are concatenated in
    replica order, so they do not depend on the batch size, and a single
    path is replica 0.
    """
    ts = grid.times()
    chunks: list[dict] = []
    for b0 in range(0, n_replicas, batch_size):
        nb = min(batch_size, n_replicas - b0)
        ids = 2 * np.arange(b0, b0 + nb, dtype=np.uint64)
        z1 = normal_matrix(master_seed, ids, grid.n_steps)
        z2 = normal_matrix(master_seed, ids + 1, grid.n_steps)
        chunks.append(reduce_fn(ts, *advance(z1, z2)))
    return {k: np.concatenate([c[k] for c in chunks]) for k in chunks[0]}


def _planar_outputs(n_paths: int, grid: TimeGrid):
    """What a planar kernel writes: xs, ys (one row per path) and the
    diverged flags."""
    return (np.empty((n_paths, grid.n_steps + 1)),
            np.empty((n_paths, grid.n_steps + 1)),
            np.zeros(n_paths, dtype=bool))


def _rescaled_advance(p: ModelParams, grid: TimeGrid, scheme: str, z1, z2):
    """The fast-slow system (X, Y) with unit additive noise: (xs, ys,
    diverged) from one batch of draws.

    Default scheme: per step, X advances by an exact OU substep with the
    rate Y/eps + damping frozen (removing the stiffness of the X-equation),
    then Y advances by an explicit Euler-Maruyama step.  While the fast
    angular motion |x|/eps exceeds DTHETA_MAX radians per step, the drift
    part of the step is subdivided so near-deterministic sweeps from the
    unstable half-axis to the stable one stay on their energy shell.
    """
    out = _planar_outputs(z1.shape[0], grid)
    if scheme == "splitting":
        _kernels.rescaled_split(p.x0, p.y0, 1.0 / p.epsilon, p.damping,
                                grid.step, DTHETA_MAX, DEFAULT_GUARD, z1, z2,
                                *out)
    elif scheme == "euler":
        _kernels.rescaled_euler(p.x0, p.y0, 1.0 / p.epsilon, p.damping,
                                grid.step, DEFAULT_GUARD, z1, z2, *out)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return out


def rescaled_reduce(p: ModelParams, grid: TimeGrid, master_seed: int,
                    n_replicas: int,
                    reduce_fn: Callable[[np.ndarray, np.ndarray, np.ndarray,
                                         np.ndarray], dict],
                    scheme: str = "splitting",
                    batch_size: int = 1024) -> dict:
    """``replica_reduce`` over the fast-slow system;
    ``reduce_fn(times, xs, ys, diverged)``."""
    return replica_reduce(partial(_rescaled_advance, p, grid, scheme), grid,
                          master_seed, n_replicas, reduce_fn, batch_size)


def _slowtime_advance(p: ModelParams, grid: TimeGrid, z1, z2):
    """The original slow-time system, noise amplitude sqrt(eps): (xs, ys,
    diverged) from one batch of draws."""
    out = _planar_outputs(z1.shape[0], grid)
    _kernels.slowtime_euler(p.x0, p.y0, p.epsilon, p.damping, grid.step,
                            DEFAULT_GUARD, z1, z2, *out)
    return out


def to_polar(path: PathSample) -> PathSample:
    """Radius and folded angle arctan(y/|x|) of a 2-d path.

    Folding the angle across the y-axis uses the mirror symmetry of the
    system, so theta = +pi/2 is the stable half-axis and -pi/2 the unstable
    one.  At the origin the angle is undefined; such samples carry the
    previous angle (0 at the first sample).
    """
    if path.states.shape[1] != 2:
        raise ValueError("to_polar needs a 2-d path")
    x = path.states[:, 0]
    y = path.states[:, 1]
    r = np.hypot(x, y)
    theta = np.arctan2(y, np.abs(x))
    for i in np.nonzero(r == 0.0)[0]:
        theta[i] = theta[i - 1] if i > 0 else 0.0
    return PathSample(grid=path.grid, states=np.column_stack([r, theta]),
                      master_seed=path.master_seed,
                      stream_ids=path.stream_ids,
                      scheme=f"polar({path.scheme})",
                      diverged=path.diverged)
