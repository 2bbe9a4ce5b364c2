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

from .analysis import StatReport, check_replicas
from .limit import TestFunction, limit_exact_terminal, radial_drift
from .model import ModelParams, batch_rows, project_pi, rescaled_reduce
from .sde import TimeGrid


# Y^2 is Exp(1) in the stationary law, so the mass beyond 6 is e^{-36}.
Y_MAX = 6.0


@dataclass(frozen=True)
class Grid1D:
    """Space-time grid for the explicit scheme on [0, Y_MAX].

    ``dt`` is 0.9 times the smaller of the stability bound
    dy^2 / (1 + max|drift| * dy) and the singular-node bound dy^2 / 2,
    shortened to land on ``t_final``: both bounds hold by construction.
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
        max_drift = max(abs(radial_drift(dy)), Y_MAX)
        stability = dy * dy / (1.0 + max_drift * dy)
        dt = 0.9 * min(stability, 0.5 * dy * dy)
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
    initial: str
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

    The step loop allocates nothing: each step writes the interior stencil
    through ``out=`` into two preallocated work buffers and the other of
    two solution buffers, computes the two boundary nodes in Python
    floats, and folds the new values into running elementwise minima and
    maxima, which are reduced once at the end.  Every product and sum is
    the one of the plain array expression, in the same order.
    """
    ys = grid.y_nodes()
    dy = grid.dy
    dt = grid.dt
    u = np.asarray(f(ys), dtype=np.float64).copy()
    if snapshot_times is None:
        snapshot_times = [grid.t_final]
    snapshot_times = sorted(float(t) for t in snapshot_times)
    if snapshot_times and snapshot_times[-1] > grid.t_final * (1 + 1e-12):
        raise ValueError("snapshot time beyond t_final")
    if any(t < 0.0 for t in snapshot_times):
        raise ValueError("snapshot times must be nonnegative")

    b = radial_drift(ys[1:-1])  # drift at interior nodes
    dy2 = dy * dy
    # (whole, interior, upper and lower neighbours) of each solution buffer
    cur, nxt = ((w, w[1:-1], w[2:], w[:-2]) for w in (u, np.empty_like(u)))
    work, term = np.empty(b.size), np.empty(b.size)
    run_min, run_max = u.copy(), u.copy()

    def step_many(span, dt_cap):
        # integrate over span, landing exactly on its end
        nonlocal cur, nxt, drift_const
        if span <= 0.0:
            return
        n = max(1, math.ceil(span / dt_cap - 1e-12))
        dt_k = span / n
        c_up = dt_k * (0.5 / dy2 + b / (2.0 * dy))
        c_dn = dt_k * (0.5 / dy2 - b / (2.0 * dy))
        c_mid = 1.0 - dt_k / dy2
        c0 = 2.0 * dt_k / dy2
        ones_step = c_mid + c_up + c_dn  # row sums of the interior stencil
        drift_const = max(drift_const, float(np.abs(ones_step - 1.0).max()))
        for _ in range(n):
            w, mid, up, dn = cur
            wn, mid_n = nxt[0], nxt[1]
            # c_mid u_i + c_up u_{i+1} + c_dn u_{i-1}, summed left to right
            np.multiply(c_mid, mid, out=work)
            np.add(work, np.multiply(c_up, up, out=term), out=work)
            np.add(work, np.multiply(c_dn, dn, out=term), out=mid_n)
            u0, ul = w.item(0), w.item(-1)
            wn[0] = u0 + c0 * (w.item(1) - u0)
            wn[-1] = ul + dt_k * (w.item(-2) - ul) / dy2
            np.minimum(run_min, wn, out=run_min)
            np.maximum(run_max, wn, out=run_max)
            cur, nxt = nxt, cur

    drift_const = 0.0
    snaps = []
    t_prev = 0.0
    for t in snapshot_times:
        step_many(t - t_prev, dt)
        snaps.append(cur[0].copy())
        t_prev = t
    if t_prev < grid.t_final * (1 - 1e-12):
        step_many(grid.t_final - t_prev, dt)
    u_min, u_max = float(run_min.min()), float(run_max.max())

    times = np.asarray(snapshot_times)
    u_hist = np.stack(snaps) if snaps else np.empty((0, ys.size))
    return PDESolution(grid=grid, times=times, u=u_hist, initial=f.name,
                       u_min=u_min, u_max=u_max,
                       constant_drift_per_step=drift_const)


def feynman_kac_mc(y: float, t: float, f: TestFunction, n: int,
                   master_seed: int) -> StatReport:
    """E_y f(Y_t) by the exact limit sampler (single exact transition)."""
    check_replicas(n)
    samples = limit_exact_terminal(y, [t], n, master_seed)[:, 0]
    return StatReport.from_samples(f(samples), y0=y, t=t, f=f.name,
                                   seed=master_seed)


def cauchy_2d_mc(x: float, y: float, t: float, f2, p: ModelParams, n: int,
                 master_seed: int, h: float = 5e-4) -> StatReport:
    """E_{(x,y)} f2(X_t, Y_t) on the fast-slow system.

    As epsilon shrinks this approaches the limit solution evaluated at the
    projected start, u(t, y^pi(x, y)) with initial data f2(0, .).
    """
    check_replicas(n)
    p = replace(p, x0=x, y0=y)
    grid = TimeGrid(t, h)
    out = rescaled_reduce(
        p, grid, master_seed, n,
        lambda ts, xs, ys, div: {
            "val": np.asarray(f2(xs[:, -1], ys[:, -1]), dtype=np.float64)},
        batch_size=batch_rows(grid.n_steps + 1))
    return StatReport.from_samples(out["val"], x0=x, y0=y, t=t,
                                   epsilon=p.epsilon, h=h, seed=master_seed,
                                   y_pi=project_pi((x, y)))
