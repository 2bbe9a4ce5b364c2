import math

import numpy as np
import pytest

from ablab import limit
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
        df=zero, d2f=zero, df_over_y_limit0=0.0, in_domain=True)


def closed_form_square(t, y):
    # u(t, y) = 1 + (y^2 - 1) e^{-2t} solves the limit equation with u0 = y^2
    return 1.0 + (np.square(y) - 1.0) * math.exp(-2.0 * t)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(n_points=4)
    with pytest.raises(ValueError):
        Grid1D(n_points=20, t_final=1.0)  # dy too coarse


@pytest.mark.parametrize("n_points", [37, 301, 601, 1201, 2001])
@pytest.mark.parametrize("t_final", [1e-3, 0.5, 2.0])
def test_derived_dt_meets_both_bounds(n_points, t_final):
    # the explicit scheme is stable and monotone only below these bounds,
    # and whole steps must land on t_final
    g = Grid1D(n_points=n_points, t_final=t_final)
    max_drift = max(abs(radial_drift(g.dy)), Y_MAX)
    assert g.dt <= g.dy ** 2 / (1.0 + max_drift * g.dy)
    assert g.dt <= g.dy ** 2 / 2.0
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
    # halving dy (and with it dt ~ dy^2) shrinks the closed-form error ~4x
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
                       200, 4, h=1e-3)
    assert rep.estimate == 1.0 and rep.std_error == 0.0


def test_cauchy_2d_approaches_limit_solution():
    # moderate accuracy smoke check at eps = 0.01; the acceptance suite
    # runs the full probe battery at eps = 1e-3
    f2 = lambda x, y: np.exp(-np.square(y))
    p = ModelParams(epsilon=0.01)
    rep = cauchy_2d_mc(0.0, 2.0, 0.5, f2, p, 4000, 5, h=5e-4)
    g = Grid1D(n_points=601, t_final=0.5)
    sol = solve_limit_pde(gauss_bump(), g)
    u_ref = float(sol.at(0.5, project_pi((0.0, 2.0))))
    assert abs(rep.estimate - u_ref) < 3 * rep.std_error + 0.02
    assert rep.config["y_pi"] == 2.0


def _solve_oracle(f, grid, snapshot_times):
    """The explicit scheme with a fresh array expression per step: the
    reference the buffered step loop of solve_limit_pde must match bit for
    bit."""
    ys = grid.y_nodes()
    dy, dt = grid.dy, grid.dt
    u = np.asarray(f(ys), dtype=np.float64).copy()
    b = radial_drift(ys[1:-1])

    def step_many(u, span, dt_cap):
        nonlocal u_min, u_max, drift_const
        if span <= 0.0:
            return u
        n = max(1, math.ceil(span / dt_cap - 1e-12))
        dt_k = span / n
        c_up = dt_k * (0.5 / (dy * dy) + b / (2.0 * dy))
        c_dn = dt_k * (0.5 / (dy * dy) - b / (2.0 * dy))
        c_mid = 1.0 - dt_k / (dy * dy)
        c0 = 2.0 * dt_k / (dy * dy)
        ones_step = c_mid + c_up + c_dn
        drift_const = max(drift_const, float(np.abs(ones_step - 1.0).max()))
        un = np.empty_like(u)
        for _ in range(n):
            un[1:-1] = c_mid * u[1:-1] + c_up * u[2:] + c_dn * u[:-2]
            un[0] = u[0] + c0 * (u[1] - u[0])
            un[-1] = u[-1] + dt_k * (u[-2] - u[-1]) / (dy * dy)
            u, un = un, u
            u_min = min(u_min, float(u.min()))
            u_max = max(u_max, float(u.max()))
        return u

    u_min, u_max, drift_const = float(u.min()), float(u.max()), 0.0
    snaps, t_prev = [], 0.0
    for t in sorted(snapshot_times):
        u = step_many(u, t - t_prev, dt)
        snaps.append(u.copy())
        t_prev = t
    if t_prev < grid.t_final * (1 - 1e-12):
        u = step_many(u, grid.t_final - t_prev, dt)
    return np.stack(snaps), u_min, u_max, drift_const


# (initial, n_points, t_final, snapshot times): the benchmark's and the
# battery's grids at a reduced t_final, one with an interval dt does not
# divide and one with a snapshot at t = 0, and a constant, whose extrema
# move only by rounding, away from the initial value
PDE_CASES = [
    (square_fn, 601, 0.2, [0.05, 0.1, 0.2]),
    (square_fn, 1201, 0.1, [0.05, 0.1]),
    (gauss_bump, 601, 0.2, [0.2]),
    (gauss_bump, 601, 0.2, [0.0, 0.0333]),
    (lambda: constant_fn(0.3), 601, 0.2, [0.1]),
]


@pytest.mark.parametrize("initial, n_points, t_final, times", PDE_CASES)
def test_step_loop_matches_array_expression_oracle(initial, n_points,
                                                    t_final, times):
    f = initial()
    g = Grid1D(n_points=n_points, t_final=t_final)
    sol = solve_limit_pde(f, g, snapshot_times=times)
    u, u_min, u_max, drift_const = _solve_oracle(f, g, times)
    assert u.tobytes() == sol.u.tobytes()
    for a, b in ((sol.u_min, u_min), (sol.u_max, u_max),
                 (sol.constant_drift_per_step, drift_const)):
        assert math.copysign(1.0, a) == math.copysign(1.0, b) and a == b
