import math

import numpy as np
import pytest

from ablab import limit, pde
from ablab.limit import radial_drift
from ablab.limit import expected_square, gauss_bump, square_fn
from ablab.model import ModelParams, project_pi
from ablab.pde import (Y_MAX, Grid1D, cauchy_2d_mc, feynman_kac_mc,
                       solve_limit_pde)


def constant_fn(c):
    zero = lambda y: np.zeros_like(np.asarray(y, dtype=np.float64))
    return limit.TestFunction(
        name=f"const({c})",
        f=lambda y: np.full_like(np.asarray(y, dtype=np.float64), c),
        af=zero, af0=0.0)


def closed_form_square(t, y):
    # u(t, y) = 1 + (y^2 - 1) e^{-2t} solves the limit equation with u0 = y^2
    return 1.0 + (np.square(y) - 1.0) * math.exp(-2.0 * t)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(n_points=4)
    with pytest.raises(ValueError):
        Grid1D(n_points=20, t_final=1.0)  # dy too coarse
    for t_final in (math.inf, 1e308):  # no finite number of steps
        with pytest.raises(ValueError):
            Grid1D(t_final=t_final)


@pytest.mark.parametrize("n_points", [37, 301, 601, 1201, 2001])
@pytest.mark.parametrize("t_final", [1e-3, 0.5, 2.0])
def test_derived_dt_meets_both_bounds(n_points, t_final):
    # dt is at most dy / 5, and no fewer whole steps of at most dy / 5
    # would reach t_final, on which the steps land
    g = Grid1D(n_points=n_points, t_final=t_final)
    assert g.dt <= g.dy / 5.0 * (1.0 + 1e-12)
    assert (g.n_steps - 1) * g.dy / 5.0 < t_final
    assert g.n_steps * g.dt == pytest.approx(t_final, rel=1e-12, abs=0.0)


def test_constants_are_preserved():
    g = Grid1D(n_points=301, t_final=0.5)
    sol = solve_limit_pde(constant_fn(1.0), g)
    assert sol.constant_drift_per_step < 1e-12
    assert np.abs(sol.u[-1] - 1.0).max() < 1e-9


def test_square_initial_matches_closed_form():
    g = Grid1D(n_points=601, t_final=1.0)
    sol = solve_limit_pde(square_fn(), g, snapshot_times=[0.5, 1.0])
    ys = g.y_nodes()
    interior = ys <= 3.0
    for t in (0.5, 1.0):
        err = np.abs(sol.at(t, ys[interior]) - closed_form_square(t,
                     ys[interior])).max()
        assert err < 1e-3, f"t={t}: interior error {err:.2e}"


def test_grid_convergence_second_order():
    # halving dy (and with it dt ~ dy) shrinks the closed-form error ~4x
    errs = []
    for n_pts in (151, 301):
        g = Grid1D(n_points=n_pts, t_final=0.5)
        sol = solve_limit_pde(square_fn(), g)
        ys = g.y_nodes()
        sel = ys <= 3.0
        errs.append(np.abs(sol.u[-1][sel]
                           - closed_form_square(0.5, ys[sel])).max())
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0, f"observed ratio {ratio:.2f}"


def test_maximum_principle():
    g = Grid1D(n_points=301, t_final=1.0)
    f = gauss_bump()
    sol = solve_limit_pde(f, g)
    ys = g.y_nodes()
    lo, hi = float(f(ys).min()), float(f(ys).max())
    assert sol.u_min >= lo - 1e-12
    assert sol.u_max <= hi + 1e-12


def test_pde_matches_probabilistic_representation():
    g = Grid1D(n_points=601, t_final=0.5)
    f = gauss_bump()
    sol = solve_limit_pde(f, g)
    for i, y in enumerate(np.linspace(0.25, 3.0, 10)):
        rep = feynman_kac_mc(float(y), 0.5, f, 200_000, 300 + i)
        tol = 3 * rep.std_error + 1e-3
        assert abs(float(sol.at(0.5, y)) - rep.estimate) < tol, f"y={y}"


def test_feynman_kac_trivial_cases():
    # t = 0 is no transition of the sampler
    with pytest.raises(ValueError):
        feynman_kac_mc(2.0, 0.0, gauss_bump(), 100, 1)
    rep = feynman_kac_mc(2.0, 1.0, constant_fn(1.0), 5000, 2)
    assert rep.estimate == 1.0 and rep.std_error == 0.0


def test_feynman_kac_square_moment():
    rep = feynman_kac_mc(2.0, 1.0, square_fn(), 100_000, 3)
    assert abs(rep.estimate - expected_square(2.0, 1.0)) < 3 * rep.std_error


def test_snapshot_time_validation():
    g = Grid1D(n_points=301, t_final=1.0)
    with pytest.raises(ValueError):
        solve_limit_pde(constant_fn(1.0), g, snapshot_times=[2.0])
    with pytest.raises(ValueError):
        solve_limit_pde(constant_fn(1.0), g, snapshot_times=[-0.5])
    # off-grid interior times are integrated to exactly
    sol = solve_limit_pde(constant_fn(1.0), g, snapshot_times=[0.333, 1.0])
    assert np.allclose(sol.times, [0.333, 1.0])


def test_cauchy_2d_trivial_constant():
    p = ModelParams(epsilon=0.1)
    rep = cauchy_2d_mc(0.5, 1.0, 0.5, lambda x, y: np.ones_like(y), p,
                       200, 4)
    assert rep.estimate == 1.0 and rep.std_error == 0.0


def test_cauchy_2d_approaches_limit_solution():
    # moderate accuracy smoke check at eps = 0.01; the acceptance suite
    # runs the full probe battery at eps = 1e-3
    f2 = lambda x, y: np.exp(-np.square(y))
    p = ModelParams(epsilon=0.01)
    rep = cauchy_2d_mc(0.0, 2.0, 0.5, f2, p, 4000, 5)
    g = Grid1D(n_points=601, t_final=0.5)
    sol = solve_limit_pde(gauss_bump(), g)
    u_ref = float(sol.at(0.5, project_pi((0.0, 2.0))))
    assert abs(rep.estimate - u_ref) < 3 * rep.std_error + 0.02
    assert rep.config["y_pi"] == 2.0


def _generator_matrix(grid):
    """L as a dense matrix: central differences inside, the ghost value
    u(-dy) = u(dy) at 0 and a reflecting far node."""
    n, dy = grid.n_points, grid.dy
    b = radial_drift(grid.y_nodes()[1:-1])
    i = np.arange(1, n - 1)
    L = np.zeros((n, n))
    L[i, i - 1] = 0.5 / dy ** 2 - b / (2.0 * dy)
    L[i, i] = -1.0 / dy ** 2
    L[i, i + 1] = 0.5 / dy ** 2 + b / (2.0 * dy)
    L[0, :2] = -2.0 / dy ** 2, 2.0 / dy ** 2
    L[-1, -2:] = 1.0 / dy ** 2, -1.0 / dy ** 2
    return L


def _solve_oracle(f, grid, snapshot_times):
    """Crank-Nicolson with each step a dense array expression, through
    np.linalg.solve on M = I - (k/2) L: the reference the cyclic-reduction
    steps of solve_limit_pde must match to rounding."""
    ys = grid.y_nodes()
    u = np.asarray(f(ys), dtype=np.float64)
    L = _generator_matrix(grid)
    eye = np.eye(grid.n_points)
    step_matrix = {}  # k -> (M, M^{-1} (I + (k/2) L))

    def step_many(u, span):
        nonlocal u_min, u_max, drift_const, steps_done
        if span <= 0.0:
            return u
        n = max(1, math.ceil(span / grid.dt - 1e-12))
        k = span / n
        if k not in step_matrix:
            m = eye - 0.5 * k * L
            step_matrix[k] = m, np.linalg.solve(m, 2.0 * eye - m)
        m, cn = step_matrix[k]
        drift_const = max(drift_const, float(np.abs(cn.sum(axis=1)
                                                    - 1.0).max()))
        for _ in range(n):
            if steps_done < 2:  # two backward-Euler half-steps
                u = np.linalg.solve(m, np.linalg.solve(m, u))
            else:
                u = cn @ u
            steps_done += 1
            u_min = min(u_min, float(u.min()))
            u_max = max(u_max, float(u.max()))
        return u

    u_min, u_max, drift_const, steps_done = float(u.min()), float(u.max()), \
        0.0, 0
    snaps, t_prev = [], 0.0
    for t in sorted(snapshot_times):
        u = step_many(u, t - t_prev)
        snaps.append(u.copy())
        t_prev = t
    if t_prev < grid.t_final * (1 - 1e-12):
        u = step_many(u, grid.t_final - t_prev)
    return np.stack(snaps), u_min, u_max, drift_const


# (initial, n_points, t_final, snapshot times): the benchmark's and the
# battery's grids at a reduced t_final, one with an interval dt does not
# divide, one with a snapshot at t = 0, one with an interval shorter than
# dt, and a constant, whose extrema move only by rounding, away from the
# initial value
PDE_CASES = [
    (square_fn, 601, 0.2, [0.05, 0.1, 0.2]),
    (square_fn, 1201, 0.1, [0.05, 0.1]),
    (gauss_bump, 601, 0.2, [0.2]),
    (gauss_bump, 601, 0.2, [0.0, 0.0333]),
    (lambda: constant_fn(0.3), 601, 0.2, [0.1]),
    (square_fn, 601, 0.2, [0.001, 0.2]),
]


@pytest.mark.parametrize("initial, n_points, t_final, times", PDE_CASES)
def test_step_loop_matches_array_expression_oracle(initial, n_points,
                                                    t_final, times):
    f = initial()
    g = Grid1D(n_points=n_points, t_final=t_final)
    sol = solve_limit_pde(f, g, snapshot_times=times)
    u, u_min, u_max, drift_const = _solve_oracle(f, g, times)
    scale = np.abs(u).max()
    assert np.abs(sol.u - u).max() <= 1e-12 * scale
    assert abs(sol.u_min - u_min) <= 1e-12 * scale
    assert abs(sol.u_max - u_max) <= 1e-12 * scale
    assert sol.constant_drift_per_step < 1e-12 and drift_const < 1e-12


@pytest.mark.parametrize("initial, n_points, t_final, times", PDE_CASES)
def test_tridiagonal_solve_matches_dense_solve(monkeypatch, initial,
                                               n_points, t_final, times):
    # each matrix the solver factors, one per snapshot interval
    factored = []

    class Recorded(pde._CrankNicolson):
        def __init__(self, grid, dt):
            super().__init__(grid, dt)
            factored.append((self, dt))

    monkeypatch.setattr(pde, "_CrankNicolson", Recorded)
    g = Grid1D(n_points=n_points, t_final=t_final)
    solve_limit_pde(initial(), g, snapshot_times=times)
    L = _generator_matrix(g)
    rng = np.random.default_rng(n_points)
    assert factored
    for cn, dt in factored:
        rhs = rng.standard_normal(n_points)
        cn.u[:] = rhs
        cn.solve()
        want = np.linalg.solve(np.eye(n_points) - 0.5 * dt * L, rhs)
        assert np.abs(cn.u - want).max() <= 1e-12 * np.abs(want).max(), dt
