"""Finite-difference solver for the limit process's Cauchy problem.

Solves u_t = (1/(2y) - y) u_y + u_yy / 2 on [0, Y_MAX] with the reflecting
condition u_y(0+) = 0, cross-validated against probabilistic
representations: the exact limit sampler in one dimension and the full
fast-slow system in two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels import _BLOCK_ELEMS, _const
from .analysis import StatReport, check_replicas
from .limit import TestFunction, limit_exact_terminal, radial_drift
from .model import ModelParams, batch_rows, project_pi, rescaled_reduce, \
    terminal_state
from .sde import TimeGrid


# Y^2 is Exp(1) in the stationary law, so the mass beyond 6 is e^{-36}.
Y_MAX = 6.0


@dataclass(frozen=True)
class Grid1D:
    """Space-time grid for the explicit scheme on [0, Y_MAX].

    ``dt`` is 0.9 times the singular-node bound dy^2 / 2, shortened to land
    on ``t_final``.  The stability bound dy^2 / (1 + max|drift| * dy) is
    never smaller, because max|drift| * dy <= 1: at y = dy, |drift| * dy =
    |1/2 - dy^2| <= 1/2, since n_points >= 8 gives dy <= 6/7; at the other
    nodes |drift| <= Y_MAX, and Y_MAX * dy <= 1 by the monotonicity check.
    """

    n_points: int = 601
    t_final: float = 1.0
    dy: float = field(init=False)
    dt: float = field(init=False)
    n_steps: int = field(init=False)

    def __post_init__(self):
        if self.n_points < 8:
            raise ValueError("need at least 8 grid points")
        if not self.t_final > 0.0:
            raise ValueError("t_final must be positive")
        dy = Y_MAX / (self.n_points - 1)
        if dy * Y_MAX > 1.0:
            raise ValueError("dy too coarse for a monotone scheme: "
                             "need dy * Y_MAX <= 1")
        dt = 0.9 * (0.5 * dy * dy)
        dt = self.t_final / math.ceil(self.t_final / dt)
        object.__setattr__(self, "dy", dy)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "n_steps", int(round(self.t_final / dt)))

    def y_nodes(self) -> np.ndarray:
        return np.linspace(0.0, Y_MAX, self.n_points)


@dataclass
class PDESolution:
    grid: Grid1D
    times: np.ndarray
    u: np.ndarray  # (len(times), n_points)
    u_min: float
    u_max: float
    constant_drift_per_step: float

    def at(self, t: float, y) -> np.ndarray | float:
        """Solution at snapshot time t, linearly interpolated in y."""
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not a stored snapshot time")
        ys = self.grid.y_nodes()
        return np.interp(np.asarray(y, dtype=np.float64), ys, self.u[k])


def solve_limit_pde(f: TestFunction, grid: Grid1D,
                    snapshot_times=None) -> PDESolution:
    """Explicit finite differences for the limit Cauchy problem.

    Interior nodes use central differences.  The singular node y = 0 uses
    the even-extension ghost value u(-dy) = u(dy), under which the
    generator limit at the origin discretizes to 2 (u_1 - u_0) / dy^2.
    The far boundary is reflecting (zero-derivative outflow).

    The steps run on a steps-major block of (K + 1) x n_points rows, with
    K x n_points <= ``_kernels._BLOCK_ELEMS``: row j + 1 gets the state
    after step j.  A step writes the interior stencil into its row through
    ``out=`` in five ufunc calls with one work buffer, whose constant
    operands are arrays built once per span, and computes the two
    boundary nodes in Python floats.  Once per block the rows'
    minima and maxima are folded into the running extrema, and the last
    row is carried to row 0.  Every product and sum is the one of the
    plain array expression, in the same order, and min and max are exact,
    so the extrema are those of every step.
    """
    ys = grid.y_nodes()
    dy = grid.dy
    dt = grid.dt
    u = np.asarray(f(ys), dtype=np.float64)
    if snapshot_times is None:
        snapshot_times = [grid.t_final]
    snapshot_times = sorted(float(t) for t in snapshot_times)
    if snapshot_times and snapshot_times[-1] > grid.t_final * (1 + 1e-12):
        raise ValueError("snapshot time beyond t_final")
    if any(t < 0.0 for t in snapshot_times):
        raise ValueError("snapshot times must be nonnegative")

    b = radial_drift(ys[1:-1])  # drift at interior nodes
    dy2 = dy * dy
    k_steps = max(1, _BLOCK_ELEMS // ys.size)
    block = np.empty((k_steps + 1, ys.size))
    block[0] = u
    # (whole, interior, upper and lower neighbours) of each row
    rows = [(r, r[1:-1], r[2:], r[:-2]) for r in block]
    term = np.empty(b.size)
    run_min, run_max = u.copy(), u.copy()

    def step_many(span, dt_cap):
        # integrate over span, landing exactly on its end
        nonlocal drift_const
        if span <= 0.0:
            return
        n = max(1, math.ceil(span / dt_cap - 1e-12))
        dt_k = span / n
        c_up = dt_k * (0.5 / dy2 + b / (2.0 * dy))
        c_dn = dt_k * (0.5 / dy2 - b / (2.0 * dy))
        c_mid = _const(1.0 - dt_k / dy2)
        c0 = 2.0 * dt_k / dy2
        ones_step = c_mid + c_up + c_dn  # row sums of the interior stencil
        drift_const = max(drift_const, float(np.abs(ones_step - 1.0).max()))
        for done in range(0, n, k_steps):
            k = min(k_steps, n - done)
            # c_mid u_i + c_up u_{i+1} + c_dn u_{i-1}, summed left to right
            for (w, mid, up, dn), (wn, mid_n, _, _) in zip(rows[:k],
                                                           rows[1:k + 1]):
                np.multiply(c_mid, mid, out=mid_n)
                np.add(mid_n, np.multiply(c_up, up, out=term), out=mid_n)
                np.add(mid_n, np.multiply(c_dn, dn, out=term), out=mid_n)
                u0, ul = w.item(0), w.item(-1)
                wn[0] = u0 + c0 * (w.item(1) - u0)
                wn[-1] = ul + dt_k * (w.item(-2) - ul) / dy2
            states = block[1:k + 1]
            np.minimum(run_min, states.min(axis=0), out=run_min)
            np.maximum(run_max, states.max(axis=0), out=run_max)
            block[0] = block[k]

    drift_const = 0.0
    snaps = []
    t_prev = 0.0
    for t in snapshot_times:
        step_many(t - t_prev, dt)
        snaps.append(block[0].copy())
        t_prev = t
    if t_prev < grid.t_final * (1 - 1e-12):
        step_many(grid.t_final - t_prev, dt)
    u_min, u_max = float(run_min.min()), float(run_max.max())

    times = np.asarray(snapshot_times)
    u_hist = np.stack(snaps) if snaps else np.empty((0, ys.size))
    return PDESolution(grid=grid, times=times, u=u_hist, u_min=u_min,
                       u_max=u_max, constant_drift_per_step=drift_const)


def feynman_kac_mc(y: float, t: float, f: TestFunction, n: int,
                   master_seed: int) -> StatReport:
    """E_y f(Y_t) by the exact limit sampler (single exact transition)."""
    check_replicas(n)
    samples = limit_exact_terminal(y, [t], n, master_seed)[:, 0]
    return StatReport.from_samples(f(samples), y0=y, t=t, f=f.name,
                                   seed=master_seed)


# Time step of the fast-slow paths behind cauchy_2d_mc.
CAUCHY_2D_STEP = 5e-4


def cauchy_2d_mc(x: float, y: float, t: float, f2, p: ModelParams, n: int,
                 master_seed: int) -> StatReport:
    """E_{(x,y)} f2(X_t, Y_t) on the fast-slow system.

    As epsilon shrinks this approaches the limit solution evaluated at the
    projected start, u(t, y^pi(x, y)) with initial data f2(0, .).
    """
    check_replicas(n)
    p = replace(p, x0=x, y0=y)
    grid = TimeGrid(t, CAUCHY_2D_STEP)
    out = rescaled_reduce(p, grid, master_seed, n, terminal_state,
                          batch_size=batch_rows(grid.n_steps + 1))
    val = np.asarray(f2(out["x"], out["y"]), dtype=np.float64)
    return StatReport.from_samples(val, x0=x, y0=y, t=t,
                                   epsilon=p.epsilon, h=CAUCHY_2D_STEP,
                                   seed=master_seed,
                                   y_pi=project_pi((x, y)))
