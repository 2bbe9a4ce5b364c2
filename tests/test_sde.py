import math

import numpy as np
import pytest

from ablab.sde import (RngStream, TimeGrid, PathSample, brownian_increments,
                       euler_maruyama, exact_ou_step, normal_matrix)


def test_grid_rejects_degenerate_step():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 0.1)


def test_grid_covers_horizon():
    g = TimeGrid(0.0, 1.0, 0.3)
    assert g.n_steps * g.step >= g.horizon - g.t0
    assert np.all(np.diff(g.times()) > 0)
    # float-noise span does not produce a spurious extra step
    assert TimeGrid(0.0, 1.0, 0.1).n_steps == 10


def test_brownian_increments_law():
    g = TimeGrid(0.0, 1_000_000.0, 1.0)
    dw = brownian_increments(RngStream(1, 0), g)
    n = dw.size
    assert abs(dw.mean()) < 4.0 / math.sqrt(n)
    assert abs(dw.var() - 1.0) < 0.01


def test_brownian_increments_deterministic():
    g = TimeGrid(0.0, 100.0, 0.5)
    a = brownian_increments(RngStream(7, 3), g)
    b = brownian_increments(RngStream(7, 3), g)
    assert np.array_equal(a, b)


def test_streams_independent():
    n = 200_000
    a = RngStream(5, 0).normals(n)
    b = RngStream(5, 1).normals(n)
    corr = np.dot(a, b) / n
    assert abs(corr) < 4.0 / math.sqrt(n)


# Unsorted, with the largest stream ids; odd lengths leave buffered state
# behind in a reused generator, which must not leak into the next row.
MATRIX_IDS = [5, 2**64 - 1, 0, 2**63, 3, 1]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 1000])
def test_normal_matrix_rows_match_single_streams(seed, n):
    z = normal_matrix(seed, MATRIX_IDS, n)
    assert z.shape == (len(MATRIX_IDS), n)
    for row, sid in zip(z, MATRIX_IDS):
        assert np.array_equal(row, RngStream(seed, sid).normals(n))


def test_normal_matrix_empty_ids():
    assert normal_matrix(7, [], 5).shape == (0, 5)
    assert normal_matrix(7, np.array([], dtype=np.int64), 0).shape == (0, 0)


def test_normal_matrix_rows_independent_of_batch():
    ids = np.array([9, 2, 2**63, 4, 11], dtype=np.uint64)
    whole = normal_matrix(13, ids, 3)
    split = np.vstack([normal_matrix(13, ids[:2], 3),
                       normal_matrix(13, ids[2:], 3)])
    assert np.array_equal(whole, split)


def test_exact_ou_step_zero_rate_is_brownian():
    assert exact_ou_step(0.3, 0.0, 0.25, 1.7) == 0.3 + math.sqrt(0.25) * 1.7


def test_exact_ou_step_stationary_variance():
    # lam=1, huge h: variance -> 1/(2 lam) = 1/2
    z = RngStream(11, 0).normals(100_000)
    vals = np.array([exact_ou_step(5.0, 1.0, 50.0, zi) for zi in z[:1000]])
    assert abs(vals.var(ddof=1) - 0.5) < 5 * 0.5 * math.sqrt(2.0 / 999)


def test_exact_ou_step_stiff_mean_factor():
    # lam=1e4, h=1e-3: mean factor e^{-10}, no instability
    out = exact_ou_step(1.0, 1.0e4, 1.0e-3, 0.0)
    assert out == pytest.approx(math.exp(-10.0), rel=1e-12)


@pytest.mark.parametrize("lam", [0.0, 1.0, 1.0e3])
@pytest.mark.parametrize("h", [1.0e-3, 1.0])
def test_exact_ou_step_moments(lam, h):
    n = 100_000
    z = RngStream(23, int(lam) * 7 + int(h * 10)).normals(n)
    x0 = 0.8
    samples = np.array([exact_ou_step(x0, lam, h, zi) for zi in z])
    u = lam * h
    mean = x0 * math.exp(-u)
    var = h if abs(u) < 1e-12 else -math.expm1(-2 * u) / (2 * lam)
    assert abs(samples.mean() - mean) < 5 * math.sqrt(var / n)
    var_se = var * math.sqrt(2.0 / (n - 1))
    assert abs(samples.var(ddof=1) - var) < 5 * var_se


def test_euler_maruyama_pure_brownian():
    # zero drift, unit diffusion: terminal variance ~ horizon
    d = 2000
    g = TimeGrid(0.0, 1.0, 0.05)
    streams = [RngStream(3, i) for i in range(d)]
    path = euler_maruyama(lambda x: np.zeros_like(x), 1.0,
                          np.zeros(d), g, streams)
    v = path.states[-1].var(ddof=1)
    assert abs(v - 1.0) < 5 * math.sqrt(2.0 / (d - 1))
    assert not path.diverged


def test_euler_maruyama_ou_mean():
    # OU closed form: E X_T = e^{-T} x0 at T=10
    d = 1000
    g = TimeGrid(0.0, 10.0, 1.0e-3)
    streams = [RngStream(9, i) for i in range(d)]
    path = euler_maruyama(lambda x: -x, 1.0, np.ones(d), g, streams)
    m = path.states[-1].mean()
    se = path.states[-1].std(ddof=1) / math.sqrt(d)
    assert abs(m - math.exp(-10.0)) < 3 * se


def test_euler_maruyama_stiff_drift_diverges():
    # 1/eps = 1e4 drift coefficient at h = 1e-3 breaks the explicit scheme
    g = TimeGrid(0.0, 0.1, 1.0e-3)
    path = euler_maruyama(lambda x: -1.0e4 * x, 1.0,
                          np.array([1.0]), g, [RngStream(1, 0)])
    assert path.diverged
    assert np.isfinite(path.states).all()


def test_euler_maruyama_weak_order_one():
    # For the linear additive-noise SDE the mean of the EM path equals the
    # noise-free recursion, so the weak bias is measured exactly from
    # zero-diffusion runs.
    T = 2.0
    errs = []
    hs = [0.2, 0.1, 0.05, 0.025]
    for h in hs:
        g = TimeGrid(0.0, T, h)
        path = euler_maruyama(lambda x: -x, 0.0, np.array([1.0]), g,
                              [RngStream(2, 0)])
        errs.append(abs(path.states[-1, 0] - math.exp(-T)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 0.7 < slope < 1.3
    # MC consistency: noisy mean matches the zero-noise recursion
    d = 2000
    g = TimeGrid(0.0, T, 0.1)
    streams = [RngStream(4, i) for i in range(d)]
    noisy = euler_maruyama(lambda x: -x, 1.0, np.ones(d), g, streams)
    ref = euler_maruyama(lambda x: -x, 0.0, np.array([1.0]), g,
                         [RngStream(2, 1)]).states[-1, 0]
    se = noisy.states[-1].std(ddof=1) / math.sqrt(d)
    assert abs(noisy.states[-1].mean() - ref) < 3 * se


def test_euler_maruyama_deterministic_rerun():
    g = TimeGrid(0.0, 1.0, 0.01)
    streams = [RngStream(42, 0), RngStream(42, 1)]
    a = euler_maruyama(lambda x: -x, 1.0, np.array([1.0, 2.0]), g, streams)
    b = euler_maruyama(lambda x: -x, 1.0, np.array([1.0, 2.0]), g, streams)
    assert np.array_equal(a.states, b.states)


def test_path_sample_validation():
    g = TimeGrid(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        PathSample(grid=g, states=np.zeros((5, 1)), master_seed=0,
                   stream_ids=(0,), scheme="x")
    with pytest.raises(ValueError):
        PathSample(grid=g, states=np.array([[0.0], [np.nan], [0.0]]),
                   master_seed=0, stream_ids=(0,), scheme="x")
    # flagged diverged paths may carry the guard value
    PathSample(grid=g, states=np.array([[0.0], [1e6], [1e6]]),
               master_seed=0, stream_ids=(0,), scheme="x", diverged=True)
