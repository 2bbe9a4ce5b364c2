import io
import math
import weakref
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ablab import _kernels, model
from ablab.analysis import (StatReport, ks_critical_value, ks_statistic,
                            within_z)
from ablab.limit import (LimitParams, _exact_advance, _exact_step_coeffs,
                         expected_square, gauss_bump, limit_exact_reduce,
                         limit_exact_terminal)
from ablab.model import (ModelParams, _rescaled_advance, _slowtime_advance,
                         draw_buffer, energy, flow_unperturbed, project_pi,
                         project_pi_flow, replica_reduce, rescaled_reduce,
                         terminal_state, unperturbed_rhs)
from ablab.pde import Grid1D, solve_limit_pde
from ablab.reporting import path_to_csv
from ablab.sde import DEFAULT_GUARD, TimeGrid, normal_matrix


def test_unperturbed_rhs_values():
    assert unperturbed_rhs((0.0, 5.0)) == (0.0, 0.0)
    assert unperturbed_rhs((1.0, 2.0)) == (-2.0, 1.0)
    assert unperturbed_rhs((-1.0, 2.0)) == (2.0, 1.0)


def test_energy_values():
    assert energy((0.0, 0.0)) == 0.0
    assert energy((1.0, 1.0)) == 2.0
    assert energy((3.0, 4.0)) == 25.0


def test_flow_equilibrium():
    s = flow_unperturbed((0.0, 2.0), 7.3)
    assert s == (0.0, 2.0)


def test_flow_circular_orbit_to_stable_axis():
    s = flow_unperturbed((3.0, 4.0), 50.0, tol=1e-8)
    assert abs(s.x - 0.0) < 1e-4 and abs(s.y - 5.0) < 1e-4


def test_flow_from_near_unstable_axis():
    s = flow_unperturbed((1e-3, -1.0), 50.0, tol=1e-8)
    assert abs(s.x) < 1e-3 and abs(s.y - 1.0) < 1e-3


def test_flow_energy_drift_high_energy():
    s0 = (60.0, 80.0)  # energy 1e4
    s = flow_unperturbed(s0, 10.0, tol=1e-8)
    # the flow call itself enforces the drift bound
    assert energy(s) == pytest.approx(1e4, rel=1e-7)


def test_project_pi_values():
    assert project_pi((0.0, 2.0)) == 2.0
    assert project_pi((3.0, 4.0)) == 5.0
    assert project_pi((0.0, -2.0)) == 2.0
    assert project_pi((0.0, 0.0)) == 0.0


def test_project_pi_flow_cross_check():
    assert abs(project_pi((3.0, 4.0)) - project_pi_flow((3.0, 4.0))) < 1e-4


def test_projection_consistency_random_starts():
    rng = np.random.default_rng(12)
    for _ in range(100):
        e = rng.uniform(0.1, 100.0)
        phi = rng.uniform(0.05, math.pi - 0.05)  # keep x0 away from 0
        x0 = math.sqrt(e) * math.sin(phi)
        y0 = math.sqrt(e) * math.cos(phi)
        assert abs(project_pi((x0, y0))
                   - project_pi_flow((x0, y0), 50.0)) < 1e-3


# One zero-noise Euler step of h = 1/4 from (x0, y0) lands on start + drift/4,
# exactly in binary; the noise amplitude is read off a unit draw from (0, 0).
STEP = TimeGrid(0.25, 0.25)


def _rows(*zs):
    """Each draw sequence as a one-row path buffer, in columns 1:."""
    return [np.concatenate([[np.nan], np.asarray(z, dtype=np.float64)])
            .reshape(1, -1) for z in zs]


def _rescaled_euler_advance(p, grid, b1, b2):
    """``_rescaled_advance`` by plain Euler-Maruyama: an independent oracle
    for the splitting scheme that the package runs."""
    div = np.zeros(b1.shape[0], dtype=bool)
    _kernels.rescaled_euler(p.x0, p.y0, 1.0 / p.epsilon, 1.0, grid.step,
                            DEFAULT_GUARD, b1[:, 1:], b2[:, 1:], b1, b2, div)
    return b1, b2, div


def _rescaled_path(p, grid, z1, z2, advance=_rescaled_advance):
    xs, ys, div = advance(p, grid, *_rows(z1, z2))
    return np.column_stack([xs[0], ys[0]]), bool(div[0])


def _slowtime_path(p, grid, z1, z2):
    xs, ys, div = _slowtime_advance(p, grid, *_rows(z1, z2))
    return np.column_stack([xs[0], ys[0]]), bool(div[0])


def _rescaled_step(p, z=(0.0, 0.0)):
    states, _ = _rescaled_path(p, STEP, [z[0]], [z[1]],
                               advance=_rescaled_euler_advance)
    return tuple(states[1])


def _slowtime_step(p, z=(0.0, 0.0)):
    states, _ = _slowtime_path(p, STEP, [z[0]], [z[1]])
    return tuple(states[1])


def test_rescaled_drift_values():
    # drift (-x y / eps - d x, x^2 / eps - d y) at eps = 0.1
    p = ModelParams(epsilon=0.1, x0=0.0, y0=3.0)
    assert _rescaled_step(p) == (0.0, 3.0 - 3.0 / 4)
    p = ModelParams(epsilon=0.1, x0=1.0, y0=1.0)
    assert _rescaled_step(p) == (1.0 - 11.0 / 4, 1.0 + 9.0 / 4)
    p = ModelParams(epsilon=0.1, x0=2.0, y0=3.0)
    assert _rescaled_step(p) == (2.0 - 62.0 / 4, 3.0 + 37.0 / 4)
    # unit noise: sqrt(h) = 1/2
    p = ModelParams(epsilon=0.1, x0=0.0, y0=0.0)
    assert _rescaled_step(p, (1.0, -1.0)) == (0.5, -0.5)


def test_slowtime_drift_values():
    # drift (-x y - d eps x, x^2 - d eps y) at eps = 1/4
    p = ModelParams(epsilon=0.25, x0=1.0, y0=1.0)
    assert _slowtime_step(p) == (1.0 - 1.25 / 4, 1.0 + 0.75 / 4)
    p = ModelParams(epsilon=0.25, x0=2.0, y0=3.0)
    assert _slowtime_step(p) == (2.0 - 6.5 / 4, 3.0 + 3.25 / 4)
    # noise sqrt(eps): sqrt(eps h) = 1/4
    p = ModelParams(epsilon=0.25, x0=0.0, y0=0.0)
    assert _slowtime_step(p, (1.0, -1.0)) == (0.25, -0.25)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(epsilon=0.0)
    with pytest.raises(ValueError):
        ModelParams(epsilon=0.1, alpha=1.0)
    # an epsilon or a start that is not finite: every path would diverge
    # on its first step
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("epsilon", "x0", "y0"):
            with pytest.raises(ValueError, match=name):
                ModelParams(**{"epsilon": 0.1, name: bad})
    assert ModelParams(epsilon=1e-3).delta() == pytest.approx(
        (1e-3) ** 0.1, rel=1e-15)


def test_rescaled_x_moment_bound():
    # E[X_T^2] <= 5 eps^{0.9} at eps=0.01 from (0, 2)
    eps = 0.01
    p = ModelParams(epsilon=eps, x0=0.0, y0=2.0)
    grid = TimeGrid(1.0, 1e-4)
    out = rescaled_reduce(p, grid, 77, 1000,
                          lambda ts, xs, ys, div: {"x2": xs[:, -1] ** 2})
    assert out["x2"].mean() <= 5.0 * eps ** 0.9


# In continuous time the radius hypot(X, Y) of the fast-slow system is the
# limit process whatever epsilon, so E[R_T^2] has the limit's closed form,
# and E exp(-R_T^2) is the limit PDE's solution with initial data
# exp(-y^2) at the start's radius.  The splitting scheme misses both where h
# is near or above epsilon.
RADIUS_BIAS = ("ROADMAP item 17: where h is near epsilon the splitting "
               "scheme's radius misses the limit's law: E[R_T^2] misses "
               "1 + (R_0^2 - 1) e^{-2T}, E exp(-R_T^2) the limit PDE")
RADIUS_CASES = [  # (x0, y0, eps, h, n), id, a known-red case of item 17
    ((1.2, 1.6, 0.1, 1e-3, 20_000), "eps0.1-h1e-3", False),
    ((1.2, 1.6, 1e-3, 4e-3, 4000), "eps1e-3-h4e-3", True),
    ((0.0, 2.0, 10 ** -3.5, 1e-3, 4000), "eps1e-3.5-h1e-3", True),
]


@cache
def _terminal_radius_square(x0, y0, eps, h, n):
    # one simulation per configuration serves both observables
    out = rescaled_reduce(ModelParams(epsilon=eps, x0=x0, y0=y0),
                          TimeGrid(1.0, h), 7, n, terminal_state)
    assert not out["div"].any()
    return np.square(out["x"]) + np.square(out["y"])


@pytest.mark.parametrize("x0, y0, eps, h, n, g", [
    pytest.param(*case, g, id=cid + suffix,
                 marks=[pytest.mark.xfail(strict=True, reason=RADIUS_BIAS)]
                 if red else [])
    for g, suffix in (("R^2", ""), ("exp(-R^2)", "-exp"))
    for case, cid, red in RADIUS_CASES])
def test_radius_second_moment_matches_closed_form(x0, y0, eps, h, n, g):
    T, r0 = 1.0, math.hypot(x0, y0)
    r2 = _terminal_radius_square(x0, y0, eps, h, n)
    if g == "R^2":
        rep = StatReport.from_samples(r2)
        target = float(expected_square(r0, T))
    else:
        rep = StatReport.from_samples(np.exp(-r2))
        target = float(solve_limit_pde(gauss_bump(),
                                       Grid1D(601, T)).at(T, r0))
    assert within_z(rep, target)


def test_rescaled_drift_only_projects_then_decays():
    # zero noise from (3, 4): fast sweep to the axis, then slow decay of y;
    # the radius satisfies r(t) = r0 e^{-t} exactly in the dissipative case
    eps = 1e-3
    p = ModelParams(epsilon=eps, x0=3.0, y0=4.0)
    grid = TimeGrid(1.0, 1e-4)
    z = np.zeros(grid.n_steps)
    states, div = _rescaled_path(p, grid, z, z)
    assert not div
    assert abs(states[-1, 0]) < 1e-6
    assert abs(states[-1, 1] - 5.0 * math.exp(-1.0)) < eps


def test_rescaled_deterministic_rerun():
    p = ModelParams(epsilon=0.05)
    grid = TimeGrid(0.5, 1e-3)
    keep = lambda ts, xs, ys, div: {"xs": xs, "ys": ys}
    a = rescaled_reduce(p, grid, 5, 3, keep)
    b = rescaled_reduce(p, grid, 5, 3, keep)
    for k in ("xs", "ys"):
        assert np.array_equal(a[k], b[k])


def test_rescaled_mirror_equivariance():
    # mirrored x0 with mirrored W^1 gives the exactly mirrored path
    grid = TimeGrid(0.3, 1e-3)
    rng = np.random.default_rng(8)
    z1 = rng.standard_normal(grid.n_steps)
    z2 = rng.standard_normal(grid.n_steps)
    p = ModelParams(epsilon=0.02, x0=0.7, y0=1.2)
    pm = ModelParams(epsilon=0.02, x0=-0.7, y0=1.2)
    a, _ = _rescaled_path(p, grid, z1, z2)
    b, _ = _rescaled_path(pm, grid, -z1, z2)
    assert np.array_equal(a[:, 0], -b[:, 0])
    assert np.array_equal(a[:, 1], b[:, 1])


def test_time_change_identity():
    # Y-slow at t/eps equals Y-rescaled at t when driven through the time
    # substitution with matched draws (Euler scheme on both sides)
    eps, h = 0.1, 1e-3
    p = ModelParams(epsilon=eps, x0=0.5, y0=1.5)
    g_res = TimeGrid(1.0, h)
    rng = np.random.default_rng(7)
    z1 = rng.standard_normal(g_res.n_steps)
    z2 = rng.standard_normal(g_res.n_steps)
    st_res, _ = _rescaled_path(p, g_res, z1, z2,
                               advance=_rescaled_euler_advance)
    g_slow = TimeGrid(1.0 / eps, h / eps)
    st_slow, _ = _slowtime_path(p, g_slow, z1, z2)
    assert np.allclose(st_res, st_slow, rtol=1e-10, atol=1e-12)


def test_slowtime_drift_only_exponential_decay():
    # on the stable axis the slow-time system reduces to dy = -eps*y dt
    p = ModelParams(epsilon=0.1, x0=0.0, y0=2.0)
    grid = TimeGrid(5.0, 1e-3)
    z = np.zeros(grid.n_steps)
    states, _ = _slowtime_path(p, grid, z, z)
    assert abs(states[-1, 1] - 2.0 * math.exp(-0.5)) < 1e-3
    assert states[-1, 0] == 0.0


def test_euler_scheme_cross_validates_splitting():
    # plain EM at h <= eps/10 agrees with the splitting scheme in law
    eps = 0.05
    p = ModelParams(epsilon=eps, x0=0.0, y0=2.0)
    grid = TimeGrid(1.0, eps / 10.0 / 10.0)
    n = 1500
    a = replica_reduce(partial(_rescaled_euler_advance, p, grid),
                       grid.times(), 31, n,
                       lambda ts, xs, ys, div: {"yT": ys[:, -1]})
    b = rescaled_reduce(p, grid, 32, n,
                        lambda ts, xs, ys, div: {"yT": ys[:, -1]})
    assert ks_statistic(a["yT"], b["yT"]) < ks_critical_value(n, n)


def test_radial_identity_any_epsilon():
    # the radius of the 2-d system matches the exact damped radial sampler
    # in law for ANY epsilon (the 1/eps terms cancel)
    eps = 0.3
    p = ModelParams(epsilon=eps, x0=1.2, y0=1.6)
    grid = TimeGrid(1.0, 2e-4)
    n = 2000
    out = rescaled_reduce(p, grid, 101, n,
                          lambda ts, xs, ys, div:
                          {"rT": np.hypot(xs[:, -1], ys[:, -1])})
    ref = limit_exact_terminal(2.0, [1.0], n, 202)[:, 0]
    assert ks_statistic(out["rT"], ref) < ks_critical_value(n, n)


def _polar_csv_columns(states):
    """The r and theta columns that the polar CSV writes for a path."""
    buf = io.StringIO()
    path_to_csv(TimeGrid(1.0, 0.5), np.array(states), 0, "synthetic", buf,
                polar=True)
    header, *rows = buf.getvalue().splitlines()[1:]
    assert header == "t,x,y,r,theta"
    table = np.array([[float(v) for v in row.split(",")] for row in rows])
    return table[:, 3], table[:, 4]


def test_to_polar_values():
    r, theta = _polar_csv_columns([[0.0, 2.0], [1.0, 1.0], [-1.0, 1.0]])
    assert np.allclose(r, [2.0, math.sqrt(2), math.sqrt(2)])
    assert np.allclose(theta, [math.pi / 2, math.pi / 4, math.pi / 4])


def test_to_polar_origin_flagged():
    # the angle is undefined at the origin: the previous one is carried
    # forward, and 0 stands in at the first sample
    r, theta = _polar_csv_columns([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    assert r[1] == 0.0 and theta[1] == theta[0]
    r, theta = _polar_csv_columns([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert theta[0] == 0.0 and theta[2] == theta[1] == math.pi / 2


@settings(max_examples=15, deadline=None)
@given(e=st.floats(0.5, 100.0), phi=st.floats(0.1, math.pi - 0.1),
       t=st.floats(0.5, 10.0))
def test_flow_energy_conservation_property(e, phi, t):
    x0 = math.sqrt(e) * math.sin(phi)
    y0 = math.sqrt(e) * math.cos(phi)
    s = flow_unperturbed((x0, y0), t, tol=1e-8)
    assert abs(energy(s) - e) / max(e, 1.0) < 1e-8


def test_simulate_slowtime_runs_and_reruns_identically():
    # replica 0 of the driver, as ``ablab simulate --system slowtime``
    p = ModelParams(epsilon=0.5, x0=0.1, y0=1.0)
    grid = TimeGrid(1.0, 1e-2)
    keep = lambda ts, xs, ys, div: {"xs": xs, "ys": ys}
    runs = [replica_reduce(partial(_slowtime_advance, p, grid), grid.times(),
                           6, 1, keep, batch_size=1) for _ in range(2)]
    for k in ("xs", "ys"):
        assert np.array_equal(runs[0][k], runs[1][k])
    assert np.isfinite(runs[0]["xs"]).all()


# ---------------------------------------------------------------------------
# the replica driver: replica i reads streams 2i and 2i + 1, whatever the
# batch, and a single path is replica 0
# ---------------------------------------------------------------------------

DRIVER_SEED = 19
DRIVER_GRID = TimeGrid(5e-2, 1e-3)
_P = ModelParams(epsilon=0.05, x0=0.3, y0=1.0)
_LP = LimitParams(y0=1.0)
SYSTEMS = {
    "rescaled": partial(_rescaled_advance, _P, DRIVER_GRID),
    "slowtime": partial(_slowtime_advance, _P, DRIVER_GRID),
    "limit-exact": partial(_exact_advance, _LP.y0,
                           *_exact_step_coeffs(DRIVER_GRID.step)),
}


def _keep(ts, *arrays):
    assert np.array_equal(ts, DRIVER_GRID.times())
    return dict(enumerate(arrays))


def _assert_replicas_read_their_own_streams(advance, out, n):
    """Row i of out is the system run alone on streams 2i and 2i + 1."""
    n_points = DRIVER_GRID.n_steps + 1
    for i in range(n):
        alone = advance(draw_buffer(DRIVER_SEED, [2 * i], n_points),
                        draw_buffer(DRIVER_SEED, [2 * i + 1], n_points))
        assert len(alone) == len(out)
        for k, arr in enumerate(alone):
            assert np.array_equal(arr[0], out[k][i]), (i, k)


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_single_path_is_row_0_of_a_batch(system):
    advance = SYSTEMS[system]
    ts = DRIVER_GRID.times()
    one = replica_reduce(advance, ts, DRIVER_SEED, 1, _keep, batch_size=1)
    many = replica_reduce(advance, ts, DRIVER_SEED, 5, _keep, batch_size=5)
    assert one.keys() == many.keys()
    for k in one:
        assert one[k].shape[0] == 1 and many[k].shape[0] == 5
        assert np.array_equal(one[k][0], many[k][0])
    _assert_replicas_read_their_own_streams(advance, many, 5)


@pytest.mark.parametrize("batch_size", [1, 7, 1024])
def test_reduce_rows_do_not_depend_on_batch_size(batch_size, monkeypatch):
    # ... nor on the row blocks the reducer is called on: 1, 7, default
    n = 20
    n_points = DRIVER_GRID.n_steps + 1
    for rows in (1, 7, None):
        if rows is not None:
            monkeypatch.setattr(model, "BLOCK_ELEMS", rows * n_points)
            assert model.block_rows(n_points) == rows
        out = rescaled_reduce(_P, DRIVER_GRID, DRIVER_SEED, n, _keep,
                              batch_size=batch_size)
        _assert_replicas_read_their_own_streams(SYSTEMS["rescaled"], out, n)
        out = limit_exact_reduce(_LP, DRIVER_GRID, DRIVER_SEED, n, _keep,
                                 batch_size=batch_size)
        _assert_replicas_read_their_own_streams(SYSTEMS["limit-exact"], out,
                                                n)
        monkeypatch.undo()


def test_batch_rule_fills_the_budget():
    assert model.batch_rows(10_001) == model.BATCH_ELEMS // 10_001
    assert model.batch_rows(2 * model.BATCH_ELEMS) == 1
    assert model.block_rows(2 * model.BLOCK_ELEMS) == 1


def test_outputs_keep_no_dropped_batch_alive():
    # a reducer may return views into its batch; the driver's outputs own
    # their memory, so a batch is freed before the next one is drawn
    made = []

    def advance(b1, b2):
        assert all(ref() is None for ref in made), "an earlier batch lives"
        xs = np.cumsum(b1[:, 1:], axis=1)
        made.append(weakref.ref(xs))
        return (xs,)

    steps = DRIVER_GRID.n_steps
    out = replica_reduce(advance, DRIVER_GRID.times(), DRIVER_SEED, 7,
                         lambda ts, xs: {"last": xs[:, -1]}, batch_size=2)
    assert len(made) == 4 and all(ref() is None for ref in made)
    assert out["last"].flags.owndata
    z1 = normal_matrix(DRIVER_SEED, 2 * np.arange(7, dtype=np.uint64), steps)
    assert np.array_equal(out["last"], np.cumsum(z1, axis=1)[:, -1])
