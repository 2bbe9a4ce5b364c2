import math
import warnings

import numpy as np
import pytest
from scipy.stats import ncx2

from ablab import _kernels, limit
from ablab.analysis import ks_critical_value, ks_one_sample, ks_statistic
from ablab.limit import (TEST_FUNCTIONS, LimitParams, _exact_step_coeffs,
                         expected_square, gauss_bump, generator_apply,
                         limit_exact_reduce, limit_exact_terminal,
                         radial_drift, square_fn, stationary_mean,
                         stationary_square_cdf)
from ablab.sde import TimeGrid, normal_matrix


# An oracle for the closed-form generators: the derivatives of each shipped
# test function, f' and f'', and the limit of f'(y)/y at 0+.
DERIVATIVES = {
    "exp(-y^2)": (
        lambda y: -2.0 * y * np.exp(-np.square(y)),
        lambda y: (4.0 * np.square(y) - 2.0) * np.exp(-np.square(y)),
        -2.0),
    "1/(1+y^2)": (
        lambda y: -2.0 * y / (1.0 + np.square(y)) ** 2,
        lambda y: (6.0 * np.square(y) - 2.0) / (1.0 + np.square(y)) ** 3,
        -2.0),
    "y^2": (
        lambda y: 2.0 * y,
        lambda y: 2.0 * np.ones_like(np.asarray(y, dtype=np.float64)),
        2.0),
    "cos(y^2)": (
        lambda y: -2.0 * y * np.sin(np.square(y)),
        lambda y: -2.0 * np.sin(np.square(y))
        - 4.0 * np.square(y) * np.cos(np.square(y)),
        0.0),
}


def test_generator_on_square_fn():
    f = square_fn()
    assert generator_apply(f, 1.0) == 0.0
    assert generator_apply(f, 0.0) == 2.0
    # numerical confirmation just off the origin
    assert generator_apply(f, 1e-4) == pytest.approx(2.0, abs=1e-7)


def test_generator_zero_below_origin():
    for f in TEST_FUNCTIONS.values():
        assert generator_apply(f, -1.0) == 0.0


def test_generator_vectorized_matches_scalar():
    f = gauss_bump()
    ys = np.array([-1.0, 0.0, 0.5, 2.0])
    vec = generator_apply(f, ys)
    assert vec.shape == (4,)
    for y, v in zip(ys, vec):
        assert generator_apply(f, float(y)) == pytest.approx(v, rel=1e-14)


def _generator_gather_oracle(f, y):
    """A f as generator_apply computed it before its tiles: af on the
    gathered positive points, scattered back, and af0 where y == 0."""
    arr = np.asarray(y, dtype=np.float64)
    out = np.zeros_like(arr)
    pos = arr > 0.0
    if pos.any():
        out[pos] = f.af(arr[pos])
    out[arr == 0.0] = f.af0
    return out


def _assert_generator_matches_gather_oracle(y):
    for f in TEST_FUNCTIONS.values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = generator_apply(f, y)
        want = _generator_gather_oracle(f, y)
        assert got.shape == want.shape and got.flags.c_contiguous, f.name
        assert got.tobytes() == want.tobytes(), f.name


@pytest.mark.parametrize("size", [(1 << 14) - 1, 1 << 14, (1 << 14) + 1,
                                  3 * (1 << 14) + 5])
def test_generator_tiles_match_the_gather_oracle(size):
    # one tile short of, at, just past and a few points past the tile size;
    # af overflows or gives inf/inf at +inf, subnormals and huge y, where
    # the gather warns too, so those stay out
    rng = np.random.default_rng(size)
    y = rng.normal(0.5, 2.0, size)
    y[rng.integers(0, size, 40)] = 0.0
    y[rng.integers(0, size, 40)] = -0.0
    y[rng.integers(0, size, 40)] = np.nan
    y[:4] = [0.0, -0.0, np.nan, 1e-8]
    y[-3:] = [-0.0, 2.5, 0.0]
    _assert_generator_matches_gather_oracle(y)


def test_generator_tiles_keep_0d_and_transposed_inputs():
    # a transposed block's flat view is a copy: the writes must go to the
    # C-contiguous output, not to that copy
    _assert_generator_matches_gather_oracle(np.float64(0.7))
    _assert_generator_matches_gather_oracle(np.array(0.0))
    block = np.random.default_rng(6).normal(0.5, 2.0, (300, 130))
    block[::7, ::5] = 0.0
    block[3, 4], block[5, 6] = -0.0, np.nan
    assert block.T.flags.f_contiguous
    _assert_generator_matches_gather_oracle(block.T)


def test_closed_form_generator_keeps_the_bits_of_its_derivatives():
    # af shares factors of f' and f'' but keeps their expressions and order
    ys = np.random.default_rng(4).exponential(1.5, size=10_000) + 1e-12
    ys[:3] = [1e-300, 1e-8, 40.0]
    assert {f.name for f in TEST_FUNCTIONS.values()} == set(DERIVATIVES)
    for f in TEST_FUNCTIONS.values():
        df, d2f, _ = DERIVATIVES[f.name]
        split = 0.5 * d2f(ys) + radial_drift(ys) * df(ys)
        assert np.array_equal(f.af(ys), split), f.name


def test_generator_at_the_origin_is_the_limit_of_its_derivatives():
    # A f(0+) = (f''(0) + lim f'(y)/y) / 2, bit for bit, and af tends to it
    for f in TEST_FUNCTIONS.values():
        df, d2f, df_over_y0 = DERIVATIVES[f.name]
        assert f.af0 == 0.5 * d2f(np.zeros(1))[0] + 0.5 * df_over_y0, f.name
        assert generator_apply(f, 0.0) == f.af0
        assert abs(f.af(np.array([1e-6]))[0] - f.af0) < 1e-9, f.name


def test_derivative_evaluators_match_finite_differences():
    # the oracle's derivatives are the substance; check them against
    # central differences at scattered points
    eps = 1e-5
    ys = np.array([0.1, 0.7, 1.3, 2.4])
    for f in TEST_FUNCTIONS.values():
        df, d2f, _ = DERIVATIVES[f.name]
        fd1 = (f(ys + eps) - f(ys - eps)) / (2 * eps)
        fd2 = (f(ys + eps) - 2 * f(ys) + f(ys - eps)) / eps ** 2
        assert np.allclose(df(ys), fd1, rtol=1e-6, atol=1e-6), f.name
        assert np.allclose(d2f(ys), fd2, rtol=1e-4, atol=1e-4), f.name


def test_domain_flag_consistency():
    # in-domain functions have f'(y)/y bounded near 0
    ys = 10.0 ** -np.arange(1, 7)
    for f in TEST_FUNCTIONS.values():
        df, _, _ = DERIVATIVES[f.name]
        ratios = df(ys) / ys
        assert np.isfinite(ratios).all() and np.abs(ratios).max() < 10.0


def test_limit_params_validation():
    # project_pi of a huge finite start can overflow to inf
    assert math.hypot(1.5e308, 1.5e308) == math.inf
    for y0 in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            LimitParams(y0=y0)


def test_em_drift_only_fixed_point():
    # Without noise the quadratic-variation unit of the S-drift goes too:
    # dS = (1 - 2S) dt is dY = (1/(2Y) - Y) dt, fixed point 1/sqrt(2).
    grid = TimeGrid(10.0, 1e-4)
    ys = np.empty((1, grid.n_steps + 1))
    _kernels.limit_sq_em(1.0, 1.0, 2.0, grid.step,
                         np.zeros((1, grid.n_steps)), ys)
    assert ys[0, -1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)


def test_exact_sampler_second_moment_matches_closed_form():
    # E[Y_t^2] = 1 + 3 e^{-2t} from y0=2
    target = expected_square(2.0, 1.0)
    ref = limit_exact_terminal(2.0, [1.0], 60_000, 5)[:, 0]
    se = (ref ** 2).std(ddof=1) / math.sqrt(ref.size)
    assert abs((ref ** 2).mean() - target) < 3 * se


def test_exact_terminal_is_the_last_column_of_a_one_step_path():
    for y0, t in ((2.0, 1.0), (1.0, 10.0), (0.25, 0.3)):
        got = limit_exact_terminal(y0, [t], 300, 8)[:, 0]
        out = limit_exact_reduce(LimitParams(y0=y0),
                                 TimeGrid(t, t), 8, 300,
                                 lambda ts, rs: {"rT": rs[:, -1]})
        assert np.array_equal(got, out["rT"]), (y0, t)


def test_exact_terminal_is_the_kernel_on_per_step_coefficients():
    # times 0.5, 1, 2: jumps of 0.5, 0.5 and 1, on the rows of replicas
    # 0..n-1 (streams 2i and 2i + 1)
    n, seed = 200, 12
    got = limit_exact_terminal(2.0, [0.5, 1.0, 2.0], n, seed)
    decay, sd = (np.array(c) for c in zip(*map(_exact_step_coeffs,
                                                (0.5, 0.5, 1.0))))
    ids = 2 * np.arange(n, dtype=np.uint64)
    rs = np.empty((n, 4))
    _kernels.ou2d_radius(2.0, decay, sd, normal_matrix(seed, ids, 3),
                         normal_matrix(seed, ids + 1, 3), rs)
    assert got.shape == (n, 3)
    assert np.array_equal(got, rs[:, 1:])


def test_exact_kernel_scalar_coefficients_serve_every_step():
    rng = np.random.default_rng(4)
    z1, z2 = rng.standard_normal((2, 16, 25))
    decay, sd = _exact_step_coeffs(0.01)
    one = np.empty((16, 26))
    each = np.empty((16, 26))
    _kernels.ou2d_radius(1.5, decay, sd, z1, z2, one)
    _kernels.ou2d_radius(1.5, np.full(25, decay), np.full(25, sd), z1, z2,
                         each)
    assert np.array_equal(one, each)


def test_exact_terminal_needs_a_replica():
    with pytest.raises(ValueError, match="at least 1 replica"):
        limit_exact_terminal(1.0, [1.0], 0, 3)


def test_exact_transitions_compose():
    # one exact jump to T has the same law as many exact substeps
    n = 4000
    one = limit_exact_terminal(2.0, [1.0], n, 9)[:, 0]
    p = LimitParams(y0=2.0)
    grid = TimeGrid(1.0, 1e-3)
    out = limit_exact_reduce(p, grid, 10, n,
                             lambda ts, rs: {"rT": rs[:, -1]})
    assert ks_statistic(one, out["rT"]) < ks_critical_value(n, n)


def test_stationary_law_and_mean():
    # Y_infty^2 ~ Exp(1); mean of Y -> sqrt(pi)/2
    n = 10_000
    ys = limit_exact_terminal(1.0, [10.0], n, 33)[:, 0]
    stat, critical = ks_one_sample(ys ** 2, stationary_square_cdf)
    assert stat < critical
    se = ys.std(ddof=1) / math.sqrt(n)
    assert abs(ys.mean() - stationary_mean()) < 3 * se


SMALL_START_Y0 = 0.1
SMALL_START_GRID = TimeGrid(10.0, 1e-3)
DIP_DELTA = 1e-3


def expected_dip_count(y0, grid, delta):
    """Exact E[#{k >= 1 : R_{t_k} < delta}] for the damped limit from y0.

    R_t is the radius of a 2-d OU process started at (0, y0), so R_t^2/v_t
    is noncentral chi^2 with 2 degrees of freedom, v_t = (1 - e^{-2t})/2
    and noncentrality y0^2 e^{-2t}/v_t.
    """
    ts = grid.times()[1:]
    v = -np.expm1(-2.0 * ts) / 2.0
    nc = y0 ** 2 * np.exp(-2.0 * ts) / v
    return float(ncx2.cdf(delta ** 2 / v, 2, nc).sum())


@pytest.fixture(scope="module")
def small_start_paths():
    """Minimum and dip count below DIP_DELTA of exact paths from y0 = 0.1."""
    p = LimitParams(y0=SMALL_START_Y0)
    return limit_exact_reduce(
        p, SMALL_START_GRID, 44, 10_000,
        lambda ts, rs: {"mn": rs.min(axis=1),
                        "dips": (rs < DIP_DELTA).sum(axis=1)})


def test_inaccessibility_origin_never_hit(small_start_paths):
    assert (small_start_paths["mn"] > 0.0).all()


def test_inaccessibility_dip_fraction(small_start_paths):
    # Inaccessibility means R_t > 0, not that [0, delta) is avoided.  The
    # oracle S is the exact expected number of grid points below delta per
    # path: ~0.0091 from t > 1, where the stationary law puts ~delta^2 at
    # each of ~10^4 points, and ~0.0029 from the first unit of time.  So
    # any correct sampler dips on ~1.2% of paths and a fixed 1% bound
    # cannot hold.  P(min < delta) <= E[count] = S only bounds the fraction
    # from above, so that check is one-sided; the mean count estimates S
    # itself, so that check is two-sided and also fails a sampler that
    # keeps paths away from the origin.
    s = expected_dip_count(SMALL_START_Y0, SMALL_START_GRID, DIP_DELTA)
    assert s == pytest.approx(0.0120, abs=1e-4)
    n = small_start_paths["mn"].size
    frac = (small_start_paths["mn"] < DIP_DELTA).mean()
    frac_max = s + 3.0 * math.sqrt(s * (1.0 - s) / n)
    assert frac <= frac_max, \
        f"dip fraction {frac:.4f} exceeds {frac_max:.4f} (S = {s:.4f})"
    dips = small_start_paths["dips"]
    se = dips.std(ddof=1) / math.sqrt(n)
    assert abs(dips.mean() - s) < 3.0 * se, \
        f"mean dip count {dips.mean():.4f} vs S = {s:.4f} (se {se:.4f})"


def test_martingale_property_of_generator():
    # E[f(Y_T) - f(y0) - int A f] = 0 on the exact sampler, for the test
    # functions with bounded derivatives
    from ablab.analysis import martingale_residual_limit
    for f in (TEST_FUNCTIONS["exp"], TEST_FUNCTIONS["inv"]):
        rep = martingale_residual_limit(1.5, f, 1.0, 30_000, 55, h=1e-3)
        assert abs(rep.estimate) < 3 * rep.std_error, f.name


def test_constant_function_helpers():
    zero = lambda y: np.zeros_like(np.asarray(y, dtype=np.float64))
    c = limit.TestFunction(
        name="const(2.5)",
        f=lambda y: np.full_like(np.asarray(y, dtype=np.float64), 2.5),
        af=zero, af0=0.0)
    assert float(c(np.float64(0.3))) == 2.5
    assert (generator_apply(c, np.array([-1.0, 0.0, 1.0])) == 0.0).all()
