import math

import numpy as np
import pytest

from ablab import _kernels, model, sde
from ablab.model import DTHETA_MAX
from ablab.sde import DEFAULT_GUARD, RngStream, TimeGrid, normal_matrix


def test_grid_rejects_degenerate_step():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.0)
    with pytest.raises(ValueError):
        TimeGrid(0, 0.1)  # zero horizon
    # horizon / step is infinite: no step count, not an OverflowError
    for horizon, step in ((1.0, 1e-320), (math.inf, 0.1)):
        with pytest.raises(ValueError, match="not a finite number of steps"):
            TimeGrid(horizon, step)


def test_grid_caps_its_points_at_one_batch(monkeypatch):
    # the cap is checked at construction: these grids are never sized
    assert TimeGrid(sde.BATCH_ELEMS - 1, 1.0).n_steps == sde.BATCH_ELEMS - 1
    for horizon, step in ((sde.BATCH_ELEMS, 1.0), (1.0, 1e-12),
                          (1.0, 1e-300)):
        with pytest.raises(ValueError, match="a path holds at most"):
            TimeGrid(horizon, step)
    # the tests that shrink the driver's batches leave the cap alone
    monkeypatch.setattr(model, "BATCH_ELEMS", 300)
    assert TimeGrid(1.0, 1e-3).n_steps == 1000


def test_grid_covers_horizon():
    g = TimeGrid(1.0, 0.25)
    assert g.times()[-1] == g.horizon
    assert np.all(np.diff(g.times()) > 0)
    # float-noise span does not produce a spurious extra step
    assert TimeGrid(1.0, 0.1).n_steps == 10
    # a grid past the horizon would report a horizon it did not stop at
    for horizon, step in ((1.0, 0.3), (0.25, 0.1), (0.05, 0.1)):
        with pytest.raises(ValueError, match="whole number of steps"):
            TimeGrid(horizon, step)


def stream_normals(master_seed, stream_id, n):
    """The oracle of ``normal_matrix``: n draws from a freshly constructed
    generator of one stream."""
    return RngStream(master_seed, stream_id).generator().standard_normal(n)


def test_streams_independent():
    n = 200_000
    a = stream_normals(5, 0, n)
    b = stream_normals(5, 1, n)
    corr = np.dot(a, b) / n
    assert abs(corr) < 4.0 / math.sqrt(n)


# Unsorted, with the largest stream ids; odd lengths leave buffered state
# behind in a reused generator, which must not leak into the next row.
MATRIX_IDS = [5, 2**64 - 1, 0, 2**63, 3, 1]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 1000])
def test_normal_matrix_rows_match_single_streams(seed, n):
    # n = 4 is the longest row drawn from one Philox block, n = 5 the
    # shortest drawn one stream at a time
    z = normal_matrix(seed, MATRIX_IDS, n)
    assert z.shape == (len(MATRIX_IDS), n)
    for row, sid in zip(z, MATRIX_IDS):
        assert np.array_equal(row, stream_normals(seed, sid, n))


def test_normal_matrix_empty_ids():
    assert normal_matrix(7, [], 5).shape == (0, 5)
    assert normal_matrix(7, np.array([], dtype=np.int64), 0).shape == (0, 0)


@pytest.mark.parametrize("n", [3, 5])
def test_normal_matrix_draws_into_columns_of_a_path_buffer(n):
    # the driver's layout: the rows go to columns 1: of a wider buffer,
    # by either path, and column 0 is left alone
    buf = np.full((len(MATRIX_IDS), n + 1), -1.0)
    got = normal_matrix(11, MATRIX_IDS, n, out=buf[:, 1:])
    assert got.base is buf
    assert np.array_equal(buf[:, 1:], normal_matrix(11, MATRIX_IDS, n))
    assert (buf[:, 0] == -1.0).all()
    for bad in (np.empty((len(MATRIX_IDS), n + 1)),
                np.empty((len(MATRIX_IDS), n), dtype=np.float32)):
        with pytest.raises(ValueError, match="out must be float64"):
            normal_matrix(11, MATRIX_IDS, n, out=bad)


def test_normal_matrix_rows_independent_of_batch():
    ids = np.random.default_rng(9).integers(
        0, 2**64, size=1100, dtype=np.uint64, endpoint=False)
    for n in (3, 5):
        whole = normal_matrix(13, ids, n)
        for batch in (1, 7, 1024):
            split = np.vstack([normal_matrix(13, ids[i:i + batch], n)
                               for i in range(0, len(ids), batch)])
            assert np.array_equal(whole, split), (n, batch)


# ---------------------------------------------------------------------------
# rows of at most four draws: one Philox4x64 block per stream, read through
# numpy's ziggurat fast path for all rows at once
# ---------------------------------------------------------------------------

KEY_WORDS = [0, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", KEY_WORDS)
def test_philox_block_matches_numpy(seed):
    words = sde._philox_block(seed, np.array(KEY_WORDS, dtype=np.uint64))
    for i, sid in enumerate(KEY_WORDS):
        key = np.array([seed, sid], dtype=np.uint64)
        expected = np.random.Philox(key=key).random_raw(4)
        assert [int(w[i]) for w in words] == expected.tolist()


def test_ziggurat_tables_give_every_layer_from_2_a_fast_path():
    wi, ki = sde._ziggurat_tables()
    assert (wi > 0).all()
    assert ki[0] == ki[1] == 0
    assert (ki[2:] > 0).all()


@pytest.mark.parametrize("seed", [3, 2**64 - 5])
def test_block_rows_match_single_streams_with_every_fallback(seed):
    ids = np.random.default_rng(seed % 1000).integers(
        0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
    # a stream's first k draws are the first k of its first four
    oracle = np.array([stream_normals(seed, sid, 4) for sid in ids.tolist()])
    for n in (1, 3, 4):
        assert np.array_equal(normal_matrix(seed, ids, n), oracle[:, :n]), n
    # the sample redraws rows of every kind off the fast path: a first
    # draw in the tail layer 0, in layer 1 (no fast path), or in a wedge
    # whose test rejects, so the stream's first draw is not the fast one
    wi, ki = sde._ziggurat_tables()
    w = sde._philox_block(seed, ids)[0]
    layer = (w & 0xFF).astype(np.intp)
    rabs = (w >> 9) & ((1 << 52) - 1)
    fast_value = rabs.astype(np.float64) * wi[layer]
    fast_value[(w & 0x100) != 0] *= -1.0
    wedge = (layer >= 2) & (rabs >= ki[layer])
    assert (layer == 0).any() and (layer == 1).any()
    assert (wedge & (oracle[:, 0] != fast_value)).any()
    # and draws that pass the wedge test keep the fast value
    assert (wedge & (oracle[:, 0] == fast_value)).any()


# ---------------------------------------------------------------------------
# exact OU step: with drift scale 0 the splitting kernel advances x by
# x e^(-lam h) + sqrt(var) z, where lam is the damping and var = _ou_var_vec
# ---------------------------------------------------------------------------

def _ou_var(lam, h):
    with np.errstate(invalid="ignore"):
        return float(_kernels._ou_var_vec(np.array([lam]), h)[0])


def _exact_ou_steps(x0, lam, h, z):
    z1 = np.asarray(z, dtype=np.float64).reshape(-1, 1)
    n = z1.shape[0]
    xs, ys = np.empty((n, 2)), np.empty((n, 2))
    div = np.zeros(n, dtype=bool)
    _kernels.rescaled_split(x0, 0.0, 0.0, lam, h, DTHETA_MAX, DEFAULT_GUARD,
                            z1, np.zeros_like(z1), xs, ys, div)
    assert not div.any()
    return xs[:, 1]


def test_exact_ou_step_zero_rate_is_brownian():
    assert _ou_var(0.0, 0.25) == 0.25
    assert _exact_ou_steps(0.3, 0.0, 0.25, [1.7])[0] \
        == 0.3 + math.sqrt(0.25) * 1.7


def test_exact_ou_step_stationary_variance():
    # lam=1, huge h: variance -> 1/(2 lam) = 1/2
    assert _ou_var(1.0, 50.0) == 0.5


def test_exact_ou_step_stiff_mean_factor():
    # lam=1e4, h=1e-3: mean factor e^{-10}, variance (1 - e^{-20}) / 2e4
    out = _exact_ou_steps(1.0, 1.0e4, 1.0e-3, [0.0])[0]
    assert out == pytest.approx(math.exp(-10.0), rel=1e-12)
    assert _ou_var(1.0e4, 1.0e-3) == -math.expm1(-20.0) / 2.0e4


@pytest.mark.parametrize("lam", [0.0, 1.0, 1.0e3])
@pytest.mark.parametrize("h", [1.0e-3, 1.0])
def test_exact_ou_step_moments(lam, h):
    n = 100_000
    z = stream_normals(23, int(lam) * 7 + int(h * 10), n)
    x0 = 0.8
    samples = _exact_ou_steps(x0, lam, h, z)
    u = lam * h
    mean = x0 * math.exp(-u)
    var = h if abs(u) < 1e-12 else -math.expm1(-2 * u) / (2 * lam)
    assert abs(samples.mean() - mean) < 5 * math.sqrt(var / n)
    var_se = var * math.sqrt(2.0 / (n - 1))
    assert abs(samples.var(ddof=1) - var) < 5 * var_se


# ---------------------------------------------------------------------------
# Euler-Maruyama: with drift scale 0 the affine Euler kernel is the plain
# scheme for dX = -d X dt + dW, in x and in y
# ---------------------------------------------------------------------------

def _ou_euler(d, x0, grid, n, seed=None):
    """Terminal x of n Euler-Maruyama paths; no noise when seed is None."""
    shape = (n, grid.n_steps)
    ids = 2 * np.arange(n, dtype=np.uint64)
    z1 = np.zeros(shape) if seed is None \
        else normal_matrix(seed, ids, grid.n_steps)
    z2 = np.zeros(shape) if seed is None \
        else normal_matrix(seed, ids + 1, grid.n_steps)
    xs, ys = np.empty((n, grid.n_steps + 1)), np.empty((n, grid.n_steps + 1))
    div = np.zeros(n, dtype=bool)
    _kernels.rescaled_euler(x0, x0, 0.0, d, grid.step, DEFAULT_GUARD,
                            z1, z2, xs, ys, div)
    return xs, ys, div


def test_euler_maruyama_pure_brownian():
    # zero drift, unit diffusion: terminal variance ~ horizon
    n = 2000
    xs, ys, div = _ou_euler(0.0, 0.0, TimeGrid(1.0, 0.05), n, seed=3)
    for v in (xs[:, -1].var(ddof=1), ys[:, -1].var(ddof=1)):
        assert abs(v - 1.0) < 5 * math.sqrt(2.0 / (n - 1))
    assert not div.any()


def test_euler_maruyama_ou_mean():
    # OU closed form: E X_T = e^{-T} x0 at T=10
    n = 1000
    xs, _, _ = _ou_euler(1.0, 1.0, TimeGrid(10.0, 1.0e-3), n, seed=9)
    m = xs[:, -1].mean()
    se = xs[:, -1].std(ddof=1) / math.sqrt(n)
    assert abs(m - math.exp(-10.0)) < 3 * se


def test_euler_maruyama_stiff_drift_diverges():
    # 1/eps = 1e4 drift coefficient at h = 1e-3 breaks the explicit scheme
    xs, ys, div = _ou_euler(1.0e4, 1.0, TimeGrid(0.1, 1.0e-3), 1,
                            seed=1)
    assert div[0]
    assert np.isfinite(xs).all() and np.isfinite(ys).all()
    assert abs(xs[0, -1]) <= DEFAULT_GUARD and xs[0, -1] == xs[0, -2]


def test_euler_maruyama_weak_order_one():
    # For the linear additive-noise SDE the mean of the EM path equals the
    # noise-free recursion, so the weak bias is measured exactly from
    # zero-noise runs.
    T = 2.0
    errs = []
    hs = [0.2, 0.1, 0.05, 0.025]
    for h in hs:
        xs, _, _ = _ou_euler(1.0, 1.0, TimeGrid(T, h), 1)
        errs.append(abs(xs[0, -1] - math.exp(-T)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 0.7 < slope < 1.3
    # MC consistency: noisy mean matches the zero-noise recursion
    n = 2000
    g = TimeGrid(T, 0.1)
    noisy, _, _ = _ou_euler(1.0, 1.0, g, n, seed=4)
    ref = _ou_euler(1.0, 1.0, g, 1)[0][0, -1]
    se = noisy[:, -1].std(ddof=1) / math.sqrt(n)
    assert abs(noisy[:, -1].mean() - ref) < 3 * se


def test_euler_maruyama_deterministic_rerun():
    g = TimeGrid(1.0, 0.01)
    a = _ou_euler(1.0, 1.0, g, 2, seed=42)
    b = _ou_euler(1.0, 1.0, g, 2, seed=42)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)
