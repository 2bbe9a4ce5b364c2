"""Finite-difference solver for the limit process's Cauchy problem.

Solves u_t = (1/(2y) - y) u_y + u_yy / 2 on [0, Y_MAX] with the reflecting
condition u_y(0+) = 0, cross-validated against probabilistic
representations: the exact limit sampler in one dimension and the full
fast-slow system in two.

The scheme is Crank-Nicolson with a backward-Euler start (Rannacher), at
dt = dy / 5: second order in dt and dy.  Each step is one tridiagonal
solve by cyclic reduction, in numpy alone, so a solve loads no scipy.
References: Crank and Nicolson, Proc. Camb. Phil. Soc. 43 (1947);
Rannacher, Numer. Math. 43 (1984).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analysis import StatReport, check_replicas, drop_diverged
from .limit import TestFunction, limit_exact_terminal, radial_drift
from .model import ModelParams, batch_rows, project_pi, rescaled_reduce, \
    terminal_state
from .sde import TimeGrid


# Y^2 is Exp(1) in the stationary law, so the mass beyond 6 is e^{-36}.
Y_MAX = 6.0


@dataclass(frozen=True)
class Grid1D:
    """Space-time grid of the Crank-Nicolson solver on [0, Y_MAX].

    ``dt`` is dy / 5, shortened so that ``n_steps`` whole steps land on
    ``t_final``.  The scheme is second order in dt and in dy, so dt scales
    with dy and halving dy quarters the error.  ``n_steps`` counts the steps
    of a run with no snapshot before ``t_final``; ``solve_limit_pde`` takes
    ceil(span / dt - 1e-12) equal steps in each snapshot interval.

    dy * Y_MAX <= 1 keeps |drift| * dy <= 1 at every node (at y = dy,
    |drift| * dy = |1/2 - dy^2| <= 1/2, since n_points >= 8 gives
    dy <= 6/7), so the step matrix has off-diagonals of one sign and is
    strictly diagonally dominant at every dt.
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
            raise ValueError("dy too coarse for a diagonally dominant "
                             "scheme: need dy * Y_MAX <= 1")
        dt = self.t_final / math.ceil(self.t_final / (dy / 5.0))
        object.__setattr__(self, "dy", dy)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "n_steps", int(round(self.t_final / dt)))

    def y_nodes(self) -> np.ndarray:
        return np.linspace(0.0, Y_MAX, self.n_points)


# The first steps after t = 0, each taken as two backward-Euler half-steps
# (Rannacher's start): they damp the high modes of rough initial data, which
# Crank-Nicolson carries undamped.
_EULER_STEPS = 2


class _CrankNicolson:
    """Steps of length dt, in place on ``u``, with the matrix
    M = I - (dt/2) L factored once.

    M is tridiagonal and strictly diagonally dominant (``Grid1D``), so
    odd-even cyclic reduction solves it without pivoting.  Each level
    eliminates the odd unknowns of the current system from its even rows,
    which leaves a system half the size on every second unknown, until one
    unknown is left; back-substitution then recovers the odd unknowns level
    by level.  The reduced coefficients depend on dt alone and are computed
    here.  The unknowns of a level are a strided view of one zero-padded
    buffer, and a (3, m) window over it holds each row's left, centre and
    right neighbour, so each half-level costs one multiply by fixed
    coefficients and one sum over the three rows.
    """

    def __init__(self, grid: Grid1D, dt: float):
        n, dy = grid.n_points, grid.dy
        h, dy2 = 0.5 * dt, dy * dy
        b = radial_drift(grid.y_nodes()[1:-1])
        # (dt/2) L as the weights of the left, centre and right neighbour
        hl = np.zeros((3, n))
        hl[0, 1:-1] = h * (0.5 / dy2 - b / (2.0 * dy))
        hl[1, 1:-1] = -h / dy2
        hl[2, 1:-1] = h * (0.5 / dy2 + b / (2.0 * dy))
        # the ghost value u(-dy) = u(dy) at 0, a reflecting far node
        hl[1, 0], hl[2, 0] = -2.0 * h / dy2, 2.0 * h / dy2
        hl[0, -1], hl[1, -1] = h / dy2, -h / dy2
        self.explicit = hl + np.array([[0.0], [1.0], [0.0]])  # I + (dt/2) L
        a, d, c = -hl[0], 1.0 - hl[1], -hl[2]  # the three diagonals of M
        # u is buf[n:2n]; the zeros around it meet zero weights only
        buf = np.zeros(3 * n)
        self.u = buf[n:2 * n]
        self._window = sliding_window_view(buf[n - 1:2 * n + 1], 3).T
        self._work = np.empty((3, n))
        down, up = [], []
        s, m = 1, n  # stride and size of the current system
        while m > 1:
            # x[k + 1] is unknown k of this level, x[0] and x[m + 1] zeros;
            # row r of the window is (x[r], x[r + 1], x[r + 2])
            x = buf[n - s:n + m * s + 1:s]
            rows = sliding_window_view(x, 3)
            ne, no = (m + 1) // 2, m // 2
            inv = 1.0 / d[1::2]
            alpha, gamma = np.zeros(ne), np.zeros(ne)
            alpha[1:] = -a[2::2] * inv[:ne - 1]
            gamma[:no] = -c[:2 * no:2] * inv
            down.append((rows[0::2].T, np.stack([alpha, np.ones(ne), gamma]),
                         self._work[:, :ne], x[1:m + 1:2]))
            up.append((rows[1::2].T, np.stack([-a[1::2] * inv, inv,
                                               -c[1::2] * inv]),
                       self._work[:, :no], x[2:m + 1:2]))
            # the even rows, with their odd neighbours eliminated
            a_odd, c_odd = a[1::2], c[1::2]
            a, d, c = np.zeros(ne), d[0::2].copy(), np.zeros(ne)
            a[1:] = alpha[1:] * a_odd[:ne - 1]
            d[1:] += alpha[1:] * c_odd[:ne - 1]
            d[:no] += gamma[:no] * a_odd
            c[:no] = gamma[:no] * c_odd
            s, m = 2 * s, ne
        top = buf[n:n + 1]  # the one unknown left: d u = rhs
        self._sweep = [*down, (top[None], (1.0 / d)[None],
                               self._work[:1, :1], top), *reversed(up)]

    def solve(self) -> None:
        """u <- M^{-1} u."""
        for rows, coeffs, work, out in self._sweep:
            np.multiply(rows, coeffs, out=work)
            np.add.reduce(work, axis=0, out=out)

    def step(self, euler: bool = False) -> None:
        """One step of length dt: M u' = (I + (dt/2) L) u, or with
        ``euler`` two backward-Euler half-steps, M u' = u twice."""
        if euler:
            self.solve()
        else:
            np.multiply(self._window, self.explicit, out=self._work)
            np.add.reduce(self._work, axis=0, out=self.u)
        self.solve()


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
    """Crank-Nicolson for the limit Cauchy problem, u_t = L u.

    L is the finite-difference generator.  Interior nodes use central
    differences.  The singular node y = 0 uses the even-extension ghost
    value u(-dy) = u(dy), under which the generator limit at the origin
    discretizes to 2 (u_1 - u_0) / dy^2.  The far boundary is reflecting
    (zero-derivative outflow).

    Each snapshot interval is cut into ceil(span / dt - 1e-12) equal steps
    of length k, and one matrix I - (k/2) L is factored per interval.  A
    step solves (I - (k/2) L) u' = (I + (k/2) L) u.  The first
    ``_EULER_STEPS`` steps after t = 0 are two backward-Euler half-steps
    each, (I - (k/2) L) u' = u twice (Rannacher's start).

    ``u_min`` and ``u_max`` are extrema over the states after every step.
    ``constant_drift_per_step`` is max |S 1 - 1| over the intervals' steps
    S: how far a step moves a constant, by rounding alone.
    """
    ys = grid.y_nodes()
    u = np.asarray(f(ys), dtype=np.float64)
    if snapshot_times is None:
        snapshot_times = [grid.t_final]
    snapshot_times = sorted(float(t) for t in snapshot_times)
    if snapshot_times and snapshot_times[-1] > grid.t_final * (1 + 1e-12):
        raise ValueError("snapshot time beyond t_final")
    if any(t < 0.0 for t in snapshot_times):
        raise ValueError("snapshot times must be nonnegative")

    run_min, run_max = u.copy(), u.copy()
    drift_const, steps_done = 0.0, 0

    def advance(u, span):
        # integrate over span, landing exactly on its end
        nonlocal drift_const, steps_done
        if span <= 0.0:
            return u
        n = max(1, math.ceil(span / grid.dt - 1e-12))
        cn = _CrankNicolson(grid, span / n)
        cn.u[:] = cn.explicit.sum(axis=0)  # (I + (k/2) L) 1
        cn.solve()
        drift_const = max(drift_const, float(np.abs(cn.u - 1.0).max()))
        cn.u[:] = u
        for _ in range(n):
            cn.step(euler=steps_done < _EULER_STEPS)
            steps_done += 1
            np.minimum(run_min, cn.u, out=run_min)
            np.maximum(run_max, cn.u, out=run_max)
        return cn.u.copy()

    snaps = []
    t_prev = 0.0
    for t in snapshot_times:
        u = advance(u, t - t_prev)
        snaps.append(u)
        t_prev = t
    if t_prev < grid.t_final * (1 - 1e-12):
        advance(u, grid.t_final - t_prev)
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
    out, diverged = drop_diverged(rescaled_reduce(
        p, grid, master_seed, n, terminal_state,
        batch_size=batch_rows(grid.n_steps + 1)))
    val = np.asarray(f2(out["x"], out["y"]), dtype=np.float64)
    return StatReport.from_samples(val, x0=x, y0=y, t=t,
                                   epsilon=p.epsilon, h=CAUCHY_2D_STEP,
                                   seed=master_seed, diverged=diverged,
                                   y_pi=project_pi((x, y)))
