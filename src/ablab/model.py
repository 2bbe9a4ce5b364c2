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
from .sde import DEFAULT_GUARD, TimeGrid, normal_matrix

VARIANTS = ("dissipative", "no_dissipation")

# Fast angular motion is resolved to this many radians per drift substep.
DTHETA_MAX = 0.02


class State2(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one perturbed-system experiment.  The horizon is not
    one: each estimator builds a ``TimeGrid`` from its own ``T``."""

    epsilon: float
    alpha: float = 0.1
    variant: str = "dissipative"
    x0: float = 0.0
    y0: float = 2.0

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

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
            lambda _t, s: unperturbed_rhs(s),
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


# Points per batch: criterion 2 took 33 s, 337 MB (2^22: 35-39 s, 210 MB).
BATCH_ELEMS = 1 << 23
# Points per block or exit-draw slice: exit runs 4.0-4.4 s (256 rows: 4.8 s).
BLOCK_ELEMS = 1 << 18


def batch_rows(n_points: int) -> int:
    """Replicas per batch when each carries ``n_points`` time points."""
    return max(1, BATCH_ELEMS // n_points)


def block_rows(n_points: int) -> int:
    """Rows per reducer block or draw slice of ``n_points`` points each."""
    return max(1, BLOCK_ELEMS // n_points)


def replica_reduce(advance, ts: np.ndarray, master_seed: int,
                   n_replicas: int, reduce_fn,
                   batch_size: int | None = None) -> dict:
    """Run replicas of one system on the time points ``ts`` in batches,
    reducing each batch to small arrays.  Every simulated path and every
    ``normal_matrix`` row of the package is drawn here.

    Replica i reads streams 2i and 2i + 1 of ``master_seed``: one row each
    of ``normal_matrix`` with ``len(ts) - 1`` draws, a pure function of the
    stream and its length.
    ``advance(z1, z2)`` turns a batch of such rows (first axis = replica)
    into a tuple of arrays; the draws are released as soon as it returns.
    A batch holds ``batch_size`` replicas, by default
    ``batch_rows(len(ts))``, so its path arrays stay near BATCH_ELEMS
    points whatever the number of steps.

    ``reduce_fn(ts, *arrays)`` returns a dict of arrays with the replica
    axis first.  It is called on row blocks of the batch's arrays, each
    ``block_rows(len(ts))`` rows (about BLOCK_ELEMS points), so its
    temporaries stay cache-sized.  This relies on one rule: each output row
    of ``reduce_fn`` depends only on its own input row.  Results are
    concatenated in replica order, so they depend on neither the batch nor
    the block size, and a single path is replica 0.
    """
    if n_replicas < 1:
        raise ValueError(f"need at least 1 replica, got {n_replicas}")
    if batch_size is None:
        batch_size = batch_rows(len(ts))
    block = block_rows(len(ts))
    chunks: list[dict] = []
    for b0 in range(0, n_replicas, batch_size):
        nb = min(batch_size, n_replicas - b0)
        ids = 2 * np.arange(b0, b0 + nb, dtype=np.uint64)
        arrays = advance(normal_matrix(master_seed, ids, len(ts) - 1),
                         normal_matrix(master_seed, ids + 1, len(ts) - 1))
        for r0 in range(0, nb, block):
            chunks.append(reduce_fn(ts, *(a[r0:r0 + block]
                                          for a in arrays)))
        del arrays  # before the next batch's draws are made
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
                    batch_size: int | None = None) -> dict:
    """``replica_reduce`` over the fast-slow system;
    ``reduce_fn(times, xs, ys, diverged)``."""
    return replica_reduce(partial(_rescaled_advance, p, grid, scheme),
                          grid.times(), master_seed, n_replicas, reduce_fn,
                          batch_size)


def _slowtime_advance(p: ModelParams, grid: TimeGrid, z1, z2):
    """The original slow-time system, noise amplitude sqrt(eps): (xs, ys,
    diverged) from one batch of draws."""
    out = _planar_outputs(z1.shape[0], grid)
    _kernels.slowtime_euler(p.x0, p.y0, p.epsilon, p.damping, grid.step,
                            DEFAULT_GUARD, z1, z2, *out)
    return out
