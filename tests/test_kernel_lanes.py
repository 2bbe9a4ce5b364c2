"""Lane handling of the numpy kernels.

The numpy splitting kernel steps only the lanes that need substeps, and the
exit-time kernel only the paths that have not exited, in blocks of steps.
Each lane must still come out exactly as if it ran alone.  The splitting
scheme must agree with a plain scalar loop of the same scheme, and the
exit-time kernel bit for bit with a step-at-a-time loop of the same
operations, both kept here as oracles.
"""

import math

import numpy as np
import pytest

from ablab import _kernels
from ablab.model import DTHETA_MAX
from ablab.sde import DEFAULT_GUARD

split = _kernels.rescaled_split
exit_chunk = _kernels.ou_exit_chunk


def _bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and np.array_equal(a.view(np.uint8), b.view(np.uint8))


# ---------------------------------------------------------------------------
# OU increment variance
# ---------------------------------------------------------------------------

def _ou_var(lam, h):
    u = lam * h
    if abs(u) < 1e-12:
        return h
    return -math.expm1(min(-2.0 * u, 60.0)) / (2.0 * lam)


def test_ou_var_vec_matches_scalar():
    h = 1e-3
    lam = np.array([0.0, -0.0, 1e-300, -1e-300,
                    1e-13 / h, -1e-13 / h, 1e-11 / h, -1e-11 / h,
                    -1e5, -1e9,            # -2 lam h > 60: the clamp
                    -2e4, 0.5, 1e3, 1e6])
    with np.errstate(invalid="ignore", divide="ignore"):
        vec = _kernels._ou_var_vec(lam, h)
    ref = np.array([_ou_var(float(v), h) for v in lam])
    tiny = np.abs(lam * h) < 1e-12
    assert tiny.tolist() == [True] * 6 + [False] * 8
    assert np.all(vec[tiny] == h)
    np.testing.assert_allclose(vec[~tiny], ref[~tiny], rtol=1e-14, atol=0)
    # the clamp: expm1(60) / (2 |lam|)
    assert vec[8] == pytest.approx(math.expm1(60.0) / 2e5, rel=1e-14)


def test_ou_var_vec_into_buffers():
    lam = np.linspace(-50.0, 50.0, 11)
    out, tmp, small = np.empty(11), np.empty(11), np.empty(11, dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        got = _kernels._ou_var_vec(lam, 1e-2, out=out, tmp=tmp, small=small)
        fresh = _kernels._ou_var_vec(lam, 1e-2)
    assert got is out
    assert _bits_equal(got, fresh)


# ---------------------------------------------------------------------------
# splitting kernel
# ---------------------------------------------------------------------------

def _split_scalar(x0, y0, inv_eps, damp, h, dtheta_max, guard, z1, z2):
    """The splitting scheme, one path at a time, in plain Python floats."""
    n_paths, n_steps = z1.shape
    xs = np.empty((n_paths, n_steps + 1))
    ys = np.empty((n_paths, n_steps + 1))
    div = np.zeros(n_paths, dtype=bool)
    for i in range(n_paths):
        x, y = x0, y0
        xs[i, 0], ys[i, 0] = x, y
        for k in range(n_steps):
            if not div[i]:
                nsub = min(int(abs(x) * inv_eps * h / dtheta_max) + 1,
                           _kernels.MAX_SUBSTEPS)
                if nsub == 1:
                    lam = y * inv_eps + damp
                    xn = x * math.exp(min(-lam * h, 60.0)) \
                        + math.sqrt(_ou_var(lam, h)) * z1[i, k]
                    yn = y + (xn * xn * inv_eps - damp * y) * h \
                        + math.sqrt(h) * z2[i, k]
                else:
                    hs = h / nsub
                    xn, yn = x, y
                    for _ in range(nsub):
                        yn += (xn * xn * inv_eps - damp * yn) * (0.5 * hs)
                        lam = yn * inv_eps + damp
                        xn *= math.exp(min(-lam * hs, 60.0))
                        yn += (xn * xn * inv_eps - damp * yn) * (0.5 * hs)
                    lam = yn * inv_eps + damp
                    xn += math.sqrt(_ou_var(lam, h)) * z1[i, k]
                    yn += math.sqrt(h) * z2[i, k]
                if math.isfinite(xn) and math.isfinite(yn) \
                        and abs(xn) <= guard and abs(yn) <= guard:
                    x, y = xn, yn
                else:
                    div[i] = True
            xs[i, k + 1], ys[i, k + 1] = x, y
    return xs, ys, div


def _run_split(args, z1, z2):
    n, s = z1.shape
    xs, ys = np.empty((n, s + 1)), np.empty((n, s + 1))
    div = np.zeros(n, dtype=bool)
    split(*args, z1, z2, xs, ys, div)
    return xs, ys, div


def _noise(seed, n, steps, scales):
    # rows of mixed amplitude, so that lanes leave the plain step, take
    # different substep counts or diverge at different times
    rng = np.random.default_rng(seed)
    amp = np.resize(np.asarray(scales, dtype=float), n)[:, None]
    return (amp * rng.standard_normal((n, steps)),
            amp * rng.standard_normal((n, steps)))


# (x0, y0, inv_eps, damp, h, guard), noise amplitudes per row, steps
SPLIT_CASES = {
    "unstable_start": ((0.5, -1.0, 100.0, 1.0, 1e-3, DEFAULT_GUARD),
                       (1.0, 0.0, 3.0), 150),
    "eps_1e-4_deep_substeps": ((0.3, 1.0, 1e4, 1.0, 1e-3, DEFAULT_GUARD),
                               (1.0, 0.0, 0.2), 40),
    "substep_cap": ((10.0, 1.0, 1e4, 1.0, 1e-3, DEFAULT_GUARD),
                    (1.0, 0.0), 4),
    "small_guard": ((1.0, -2.0, 100.0, 1.0, 1e-2, 4.0),
                    (0.0, 1.0, 5.0, 20.0), 120),
    "origin": ((0.0, 0.0, 100.0, 1.0, 1e-3, DEFAULT_GUARD),
               (1.0, 0.0, 4.0), 150),
}


def _case(name, n=6):
    (x0, y0, inv_eps, damp, h, guard), scales, steps = SPLIT_CASES[name]
    z1, z2 = _noise(sorted(SPLIT_CASES).index(name), n, steps, scales)
    return (x0, y0, inv_eps, damp, h, DTHETA_MAX, guard), z1, z2


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_split_lane_equals_row_run_alone(name):
    args, z1, z2 = _case(name)
    xs, ys, div = _run_split(args, z1, z2)
    for i in range(z1.shape[0]):
        xi, yi, di = _run_split(args, z1[i:i + 1], z2[i:i + 1])
        assert _bits_equal(xs[i], xi[0]), f"x of lane {i}"
        assert _bits_equal(ys[i], yi[0]), f"y of lane {i}"
        assert div[i] == di[0]


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_split_matches_scalar_loop(name):
    args, z1, z2 = _case(name)
    xs, ys, div = _run_split(args, z1, z2)
    rx, ry, rdiv = _split_scalar(*args, z1, z2)
    np.testing.assert_array_equal(div, rdiv)
    np.testing.assert_allclose(xs, rx, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(ys, ry, rtol=1e-12, atol=1e-13)


def test_split_cases_reach_their_regimes():
    # what each case is there for actually happens
    def nsub(name):
        args, z1, z2 = _case(name)
        xs, _, div = _run_split(args, z1, z2)
        _, _, inv_eps, _, h, dtheta, _ = args
        raw = (np.abs(xs[:, :-1]) * inv_eps * h / dtheta).astype(np.int64)
        return raw + 1, div

    ns, div = nsub("substep_cap")
    assert (ns[:, 0] >= _kernels.MAX_SUBSTEPS).all()
    assert ns.max() > 1 and ns.min() < _kernels.MAX_SUBSTEPS
    ns, _ = nsub("eps_1e-4_deep_substeps")
    assert ns.max() >= 100 and len(np.unique(ns)) > 5
    _, div = nsub("small_guard")
    assert 0 < div.sum() < div.size
    ns, div = nsub("origin")
    assert (ns[:, 0] == 1).all() and ns.max() > 1 and not div.any()
    ns, _ = nsub("unstable_start")
    assert ns.max() > 1


def test_split_diverged_lane_freezes():
    args, z1, z2 = _case("small_guard")
    xs, ys, div = _run_split(args, z1, z2)
    guard = args[-1]
    for i in np.flatnonzero(div):
        # the last accepted state repeats to the end of the path
        moved = np.flatnonzero((np.diff(xs[i]) != 0) | (np.diff(ys[i]) != 0))
        last = moved[-1] + 1 if moved.size else 0
        assert (xs[i, last:] == xs[i, last]).all()
        assert abs(xs[i, last]) <= guard and abs(ys[i, last]) <= guard
    assert not div[0]  # the zero-noise row stays on its deterministic path


# ---------------------------------------------------------------------------
# exit-time chunks
# ---------------------------------------------------------------------------

H = 1e-3
DECAY, SD = math.exp(-H), math.sqrt(-math.expm1(-2.0 * H) / 2.0)
MODES = {"two_sided": (-0.2, 0.2, 0.1), "one_sided": (0.1, np.inf, 0.2)}


def _exit_inputs(mode, n=12, chunk=64, seed=5):
    lo, hi, x0 = MODES[mode]
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, chunk))
    u = rng.random((n, chunk, 2))
    x = np.full(n, x0)
    t = np.linspace(0.0, 0.5, n)
    tau = np.full(n, np.nan)
    done = np.zeros(n, dtype=bool)
    # lane 0 starts past the lower barrier: it exits at step 0
    x[0] = lo - 0.05 if lo > -np.inf else hi + 0.05
    # lane 1 never exits: no noise, no bridge crossing (u = 1), and it
    # decays from 0.15 toward 0, which is inside both ranges
    x[1] = 0.15
    z[1] = 0.0
    u[1] = 1.0
    # lane 2 is knocked far below the lower barrier at step 20
    z[2, :20] = 0.0
    u[2, :20] = 1.0
    z[2, 20] = -1e3
    # lanes 3 and 4 were done before this chunk
    done[3:5] = True
    tau[3:5] = (0.25, 0.75)
    x[3:5] = (9.0, -9.0)
    return (x, t, tau, done, z, u, lo, hi, DECAY, SD, H)


def _run_exit(args):
    x, t, tau, done, z, u, lo, hi, decay, sd, h = args
    x, t, tau, done = x.copy(), t.copy(), tau.copy(), done.copy()
    x, t = exit_chunk(x, t, tau, done, z, u, lo, hi, decay, sd, h)
    return x, t, tau, done


@pytest.mark.parametrize("mode", sorted(MODES))
def test_exit_lane_equals_path_run_alone(mode):
    args = _exit_inputs(mode)
    full = _run_exit(args)
    assert 0 < full[3].sum() < full[3].size  # some exit, some do not
    for i in range(args[4].shape[0]):
        row = [a[i:i + 1] for a in args[:6]] + list(args[6:])
        alone = _run_exit(row)
        for name, a, b in zip(("x", "t", "tau", "done"), full, alone):
            assert _bits_equal(a[i:i + 1], b), f"{name} of lane {i}"


@pytest.mark.parametrize("mode", sorted(MODES))
def test_exit_lane_timing(mode):
    x_in, t_in, tau_in, done_in, z, *_ = args = _exit_inputs(mode)
    x, t, tau, done = _run_exit(args)
    chunk = z.shape[1]
    # step 0: tau is half a step past the start, x keeps its value
    assert done[0] and tau[0] == t_in[0] + 0.5 * H
    assert x[0] == x_in[0] and t[0] == t_in[0] + H
    # never: the deterministic decay over the whole chunk
    xr, tr = x_in[1], t_in[1]
    for _ in range(chunk):
        xr = xr * DECAY + SD * 0.0
        tr += H
    assert not done[1] and np.isnan(tau[1])
    assert x[1] == xr and t[1] == tr
    # mid-chunk: exits on step 20, from t before that step
    tr = t_in[2]
    for _ in range(20):
        tr += H
    assert done[2] and tau[2] == tr + 0.5 * H and t[2] == tr + H
    # lanes done on entry are not touched
    for i in (3, 4):
        assert done[i] and tau[i] == tau_in[i]
        assert x[i] == x_in[i] and t[i] == t_in[i]


def test_exit_all_done_is_a_no_op():
    x, t, tau, done, z, u, lo, hi, decay, sd, h = _exit_inputs("two_sided")
    done[:] = True
    args = (x, t, tau, done, z, u, lo, hi, decay, sd, h)
    out = _run_exit(args)
    for a, b in zip(out, (x, t, tau, done)):
        assert _bits_equal(a, b)


def _exit_oracle(x, t, tau, done, z, u, lo, hi, decay, sd, h):
    """The exit-time kernel one step at a time, on the packed live lanes."""
    chunk = z.shape[1]
    live = np.flatnonzero(~done)
    m = live.size
    xl, xn, tl, p, q = (np.empty(m) for _ in range(5))
    hit, tmp = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
    spare = np.empty(m, dtype=live.dtype)
    x.take(live, out=xl, mode="clip")
    t.take(live, out=tl, mode="clip")
    half_h = 0.5 * h
    with np.errstate(over="ignore", under="ignore"):
        for k in range(chunk):
            if m == 0:
                break
            L, X, XN, T = live[:m], xl[:m], xn[:m], tl[:m]
            P, Q, HIT, TMP = p[:m], q[:m], hit[:m], tmp[:m]
            np.multiply(X, decay, out=XN)
            XN += np.multiply(z[:, k].take(L, out=P, mode="clip"), sd, out=P)
            HIT.fill(False)
            if lo > -np.inf:
                np.multiply(np.subtract(X, lo, out=P), -2.0, out=P)
                P *= np.subtract(XN, lo, out=Q)
                P /= h
                np.exp(P, out=P)
                HIT |= np.less(u[:, k, 0].take(L, out=Q, mode="clip"), P,
                               out=TMP)
                HIT |= np.less_equal(XN, lo, out=TMP)
            if hi < np.inf:
                np.multiply(np.subtract(hi, X, out=P), -2.0, out=P)
                P *= np.subtract(hi, XN, out=Q)
                P /= h
                np.exp(P, out=P)
                HIT |= np.less(u[:, k, 1].take(L, out=Q, mode="clip"), P,
                               out=TMP)
                HIT |= np.greater_equal(XN, hi, out=TMP)
            n_hit = np.count_nonzero(HIT)
            if n_hit:
                out = L[HIT]
                tau[out] = T[HIT] + half_h
                done[out] = True
                x[out] = X[HIT]
            T += h
            if n_hit:
                t[out] = T[HIT]
                np.logical_not(HIT, out=HIT)
                m -= n_hit
                L.compress(HIT, out=spare[:m])
                live, spare = spare, live
                XN.compress(HIT, out=xl[:m])
                T.compress(HIT, out=p[:m])
                tl, p = p, tl
            else:
                xl, xn = xn, xl
        x[live[:m]] = xl[:m]
        t[live[:m]] = tl[:m]
    return x, t


def _lanes_exiting_at(mode, n, chunk, steps):
    # random lanes, except that lane i of steps stays put up to steps[i]
    # and is knocked far past the lower barrier on that step (None: never);
    # the last lane is done on entry when there are lanes to spare
    lo, hi, x0 = MODES[mode]
    rng = np.random.default_rng(n + chunk)
    z = rng.standard_normal((n, chunk))
    u = rng.random((n, chunk, 2))
    x = np.full(n, x0)
    t = np.linspace(0.0, 0.5, n)
    tau = np.full(n, np.nan)
    done = np.zeros(n, dtype=bool)
    for i, step in enumerate(steps):
        x[i] = 0.15 if lo < 0.0 else 0.2
        z[i] = 0.0
        u[i] = 1.0
        if step is not None:
            z[i, step] = -1e3
    if n > len(steps):
        done[-1], tau[-1], x[-1] = True, 0.5, 9.0
    return (x, t, tau, done, z, u, lo, hi, DECAY, SD, H)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("chunk", [1, 64, 512])
@pytest.mark.parametrize("n", [1, 7, 2000])
def test_exit_blocks_match_step_at_a_time_oracle(mode, chunk, n):
    live = n - 1 if n > 4 else n
    block = min(chunk, max(1, _kernels._BLOCK_ELEMS // live))
    # exit on step 0, on the first block's last step, on the chunk's last
    # step, and never; a single lane takes each role in its own run
    roles = [0, block - 1, chunk - 1, None]
    cases = [[r] for r in roles] if n == 1 else [roles]
    for steps in cases:
        args = _lanes_exiting_at(mode, n, chunk, steps)
        got = _run_exit(args)
        ref = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        ref[:2] = _exit_oracle(*ref)
        for name, a, b in zip(("x", "t", "tau", "done"), got, ref):
            assert _bits_equal(a, b), name
        t_in, tau, done = args[1], got[2], got[3]
        for i, step in enumerate(steps):
            if step is None:
                assert not done[i]
                continue
            clock = t_in[i]
            for _ in range(step):
                clock += H
            assert done[i] and tau[i] == clock + 0.5 * H
        if n > len(steps):
            assert 0 < done.sum() < n
