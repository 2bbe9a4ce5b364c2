"""Lane handling of the numpy kernels.

The numpy splitting kernel steps only the lanes that need substeps, in
tiles of steps, and the exit-time kernel only the paths that have not
exited, in blocks of steps.  Each lane must still come out exactly as if it
ran alone.  The splitting scheme must agree with a plain scalar loop of the
same scheme, and the splitting, exit-time and exact radial kernels bit for
bit with a step-at-a-time loop of the same operations, all kept here as
oracles.  Every kernel the batch driver runs must give the same bits when
its draws are columns ``1:`` of its own output arrays, as the driver passes
them.
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


# noise seed, (x0, y0, inv_eps, damp, h, guard), noise amplitudes per row,
# steps
SPLIT_CASES = {
    "unstable_start": (4, (0.5, -1.0, 100.0, 1.0, 1e-3, DEFAULT_GUARD),
                       (1.0, 0.0, 3.0), 150),
    "eps_1e-4_deep_substeps": (0, (0.3, 1.0, 1e4, 1.0, 1e-3, DEFAULT_GUARD),
                               (1.0, 0.0, 0.2), 40),
    "substep_cap": (3, (10.0, 1.0, 1e4, 1.0, 1e-3, DEFAULT_GUARD),
                    (1.0, 0.0), 4),
    "small_guard": (2, (1.0, -2.0, 100.0, 1.0, 1e-2, 4.0),
                    (0.0, 1.0, 5.0, 20.0), 120),
    "origin": (1, (0.0, 0.0, 100.0, 1.0, 1e-3, DEFAULT_GUARD),
               (1.0, 0.0, 4.0), 150),
    # the substep rate |x| inv_eps h / dtheta_max is 5e19, past 2**63: the
    # lanes must take MAX_SUBSTEPS substeps, which blow up on the first step
    "huge_rate": (5, (1.0, 1.0, 1e21, 1.0, 1e-3, DEFAULT_GUARD),
                  (1.0, 0.0), 3),
}


def _case(name, n=6, steps=None, damp=None):
    seed, params, scales, case_steps = SPLIT_CASES[name]
    x0, y0, inv_eps, case_damp, h, guard = params
    z1, z2 = _noise(seed, n, case_steps if steps is None else steps, scales)
    damp = case_damp if damp is None else damp
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
    args, z1, z2 = _case("huge_rate")
    x0, _, inv_eps, _, h, dtheta, _ = args
    assert abs(x0) * inv_eps * h / dtheta >= 2.0**63
    _, _, div = _run_split(args, z1, z2)
    assert div.all()


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


def _split_step_at_a_time(x0, y0, inv_eps, damp, h, dtheta_max, guard,
                          z1, z2, xs, ys, div):
    """The splitting kernel one step at a time on full-width buffers.

    It reads each step's draws as columns of z1 and z2, writes each state as
    a column of xs and ys, and decides on substeps by casting the rate to an
    integer, which wraps for rates >= 2**63 (see the "huge_rate" case).
    """
    n_paths, n_steps = z1.shape
    sqrt_h = math.sqrt(h)
    # full-width buffers, then compacted ones (the first m entries are used)
    xn, yn, a, b, c, cx, cy, cq, ct, chs, chalf = (np.empty(n_paths)
                                                   for _ in range(11))
    x = np.full(n_paths, x0, dtype=np.float64)
    y = np.full(n_paths, y0, dtype=np.float64)
    nsub = np.empty(n_paths, dtype=np.int64)
    cns = np.empty(n_paths, dtype=np.int64)
    multi = np.empty(n_paths, dtype=bool)
    small = np.empty(n_paths, dtype=bool)
    alive = np.ones(n_paths, dtype=bool)
    all_alive = True
    xs[:, 0] = x
    ys[:, 0] = y
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n_steps):
            # nsub = clip(int(|x| inv_eps h / dtheta_max) + 1, 1, MAX)
            np.abs(x, out=a)
            a *= inv_eps
            a *= h
            a /= dtheta_max
            nsub[...] = a
            nsub += 1
            np.maximum(nsub, 1, out=nsub)
            np.minimum(nsub, _kernels.MAX_SUBSTEPS, out=nsub)
            np.greater(nsub, 1, out=multi)
            if not all_alive:
                multi &= alive

            lam = np.multiply(y, inv_eps, out=a)
            lam += damp
            np.multiply(lam, -h, out=xn)  # -(lam h)
            np.minimum(xn, _kernels._EXP_CLAMP, out=xn)
            np.exp(xn, out=xn)
            xn *= x

            m = np.count_nonzero(multi)
            if m:
                sel = np.flatnonzero(multi)
                ns = cns[:m]
                np.negative(nsub.take(sel, out=ns, mode="clip"), out=ns)
                sel = sel[ns.argsort()]
                nsub.take(sel, out=ns, mode="clip")
                x.take(sel, out=cx[:m], mode="clip")
                y.take(sel, out=cy[:m], mode="clip")
                hs = np.divide(h, ns, out=chs[:m])
                np.multiply(hs, 0.5, out=chalf[:m])
                np.negative(hs, out=hs)
                np.multiply(cx[:m], cx[:m], out=cq[:m])
                cq[:m] *= inv_eps
                cnt = 0
                for j in range(int(ns[0])):
                    if cnt == 0 or ns[cnt - 1] <= j:
                        cnt = m - int(ns[::-1].searchsorted(j, "right"))
                        X, Y, Q, T = cx[:cnt], cy[:cnt], cq[:cnt], ct[:cnt]
                        HALF, NHS = chalf[:cnt], chs[:cnt]
                    Q -= np.multiply(Y, damp, out=T)
                    Q *= HALF
                    Y += Q
                    np.multiply(Y, inv_eps, out=T)
                    T += damp
                    T *= NHS  # -(lam hs)
                    np.minimum(T, _kernels._EXP_CLAMP, out=T)
                    np.exp(T, out=T)
                    X *= T
                    np.multiply(X, X, out=Q)
                    Q *= inv_eps
                    np.subtract(Q, np.multiply(Y, damp, out=T), out=T)
                    T *= HALF
                    Y += T
                xn[sel] = cx[:m]
                lamm = np.multiply(cy[:m], inv_eps, out=ct[:m])
                lamm += damp
                lam[sel] = lamm

            var = _kernels._ou_var_vec(lam, h, out=b, tmp=c, small=small)
            np.sqrt(var, out=var)
            var *= z1[:, k]
            xn += var
            np.multiply(xn, xn, out=yn)
            yn *= inv_eps
            yn -= np.multiply(y, damp, out=b)
            yn *= h
            yn += y
            if m:
                yn[sel] = cy[:m]
            yn += np.multiply(z2[:, k], sqrt_h, out=b)

            np.abs(xn, out=a)
            np.maximum(a, np.abs(yn, out=b), out=a)
            top = a.max(initial=0.0)
            if all_alive and top <= guard and math.isfinite(top):
                x, xn = xn, x
                y, yn = yn, y
            else:
                blown = np.isfinite(xn, out=multi)
                blown &= np.isfinite(yn, out=small)
                np.logical_not(blown, out=blown)
                blown |= np.greater(np.abs(xn, out=a), guard, out=small)
                blown |= np.greater(np.abs(yn, out=a), guard, out=small)
                div |= np.logical_and(alive, blown, out=small)
                np.greater(alive, blown, out=alive)  # alive & ~blown
                np.copyto(x, xn, where=alive)
                np.copyto(y, yn, where=alive)
                all_alive = bool(alive.all())
            xs[:, k + 1] = x
            ys[:, k + 1] = y


# The step-at-a-time loop wraps the substep count for rates >= 2**63 and
# takes a plain step there, so it is no oracle for "huge_rate".
@pytest.mark.parametrize("name", sorted(set(SPLIT_CASES) - {"huge_rate"}))
@pytest.mark.parametrize("damp", [1.0, 0.0])
@pytest.mark.parametrize("n", [1, 7, 256])
def test_split_tiles_match_step_at_a_time_oracle(monkeypatch, name, damp, n):
    # Tiles of 8 steps at every lane count, so that 19 steps cross two tile
    # boundaries in little time; the tile length is the kernel's rule
    # applied to the block size set here.
    monkeypatch.setattr(_kernels, "_BLOCK_ELEMS", 8 * n)
    tile = max(1, _kernels._BLOCK_ELEMS // n)
    longest = 2 * tile + 3
    args, z1, z2 = _case(name, n, steps=longest, damp=damp)
    ref = [np.empty((n, longest + 1)), np.empty((n, longest + 1)),
           np.zeros(n, dtype=bool)]
    _split_step_at_a_time(*args, z1, z2, *ref)
    for steps in (1, tile - 1, tile, tile + 1, longest):
        # the first steps of a longer run are a run of that many steps
        a1, a2 = z1[:, :steps].copy(), z2[:, :steps].copy()
        xs, ys, div = _run_split(args, a1, a2)
        # the sqrt(h) scaling acts on the kernel's copy of the draws
        assert _bits_equal(a1, z1[:, :steps])
        assert _bits_equal(a2, z2[:, :steps])
        assert _bits_equal(xs, ref[0][:, :steps + 1]), f"x at {steps} steps"
        assert _bits_equal(ys, ref[1][:, :steps + 1]), f"y at {steps} steps"
        if steps == longest:
            assert _bits_equal(div, ref[2])
    if name == "small_guard" and n > 1:
        # a lane froze inside a tile and stayed frozen across the next tile
        # boundary: its last accepted state is at a step f that is not a
        # multiple of the tile length, with a boundary between f and the end
        moved = (np.diff(ref[0]) != 0) | (np.diff(ref[1]) != 0)
        f = np.array([np.flatnonzero(row)[-1] + 1 if row.any() else 0
                      for row in moved[ref[2]]])
        assert np.any((f % tile != 0) & ((f // tile + 1) * tile < longest))


# ---------------------------------------------------------------------------
# exact radial sampler
# ---------------------------------------------------------------------------

def _ou2d_step_at_a_time(y0, decay, sd, z1, z2, rs):
    """The exact OU recursion one step at a time, reading the draws and
    writing the radii one column each."""
    n_paths, n_steps = z1.shape
    decay = np.broadcast_to(decay, n_steps)
    sd = np.broadcast_to(sd, n_steps)
    u = np.zeros(n_paths)
    v = np.full(n_paths, y0, dtype=np.float64)
    rs[:, 0] = abs(y0)
    for k in range(n_steps):
        u = u * decay[k] + sd[k] * z1[:, k]
        v = v * decay[k] + sd[k] * z2[:, k]
        rs[:, k + 1] = np.hypot(u, v)


# one (decay, sd) pair for every step, or a pair per step
OU2D_COEFFS = {"scalar": (math.exp(-1e-2), 0.1),
               "per_step": (np.linspace(0.5, 0.99, 19),
                            np.linspace(0.8, 0.1, 19))}


@pytest.mark.parametrize("coeffs", sorted(OU2D_COEFFS))
@pytest.mark.parametrize("n", [1, 7, 256])
def test_ou2d_tiles_match_step_at_a_time_oracle(monkeypatch, coeffs, n):
    # tiles of 8 steps, so that 19 steps cross two tile boundaries
    monkeypatch.setattr(_kernels, "_BLOCK_ELEMS", 8 * n)
    decay, sd = OU2D_COEFFS[coeffs]
    z1, z2 = _noise(8, n, 19, (1.0, 0.0, 3.0))
    ref = np.empty((n, 20))
    _ou2d_step_at_a_time(-0.7, decay, sd, z1, z2, ref)
    for steps in (1, 7, 8, 9, 19):
        if coeffs == "per_step":
            d, s = decay[:steps], sd[:steps]
        else:
            d, s = decay, sd
        a1, a2 = z1[:, :steps].copy(), z2[:, :steps].copy()
        rs = np.empty((n, steps + 1))
        _kernels.ou2d_radius(-0.7, d, s, a1, a2, rs)
        # the sd scaling acts on the kernel's copy of the draws
        assert _bits_equal(a1, z1[:, :steps])
        assert _bits_equal(a2, z2[:, :steps])
        assert _bits_equal(rs, ref[:, :steps + 1]), f"r at {steps} steps"


# ---------------------------------------------------------------------------
# the driver's layout: draws in columns 1: of the kernel's own outputs
# ---------------------------------------------------------------------------

def _in_place(z):
    """A path buffer holding the draws z in columns 1:; column 0 is the
    kernel's to write."""
    buf = np.full((z.shape[0], z.shape[1] + 1), np.nan)
    buf[:, 1:] = z
    return buf


def _planar(kernel, args, z1, z2, in_place):
    """(xs, ys, div) of a planar kernel, with its draws in separate arrays
    or in columns 1: of xs and ys."""
    n, steps = z1.shape
    div = np.zeros(n, dtype=bool)
    if in_place:
        xs, ys = _in_place(z1), _in_place(z2)
        kernel(*args, xs[:, 1:], ys[:, 1:], xs, ys, div)
    else:
        xs, ys = np.empty((n, steps + 1)), np.empty((n, steps + 1))
        kernel(*args, z1, z2, xs, ys, div)
    return xs, ys, div


@pytest.mark.parametrize("name", ["huge_rate", "small_guard",
                                  "eps_1e-4_deep_substeps"])
def test_split_writes_over_its_own_draws(monkeypatch, name):
    # tiles of 8 steps: the run crosses two tile boundaries
    n, steps = 7, 19
    monkeypatch.setattr(_kernels, "_BLOCK_ELEMS", 8 * n)
    args, z1, z2 = _case(name, n, steps=steps)
    apart = _planar(split, args, z1, z2, in_place=False)
    own = _planar(split, args, z1, z2, in_place=True)
    for label, a, b in zip(("xs", "ys", "div"), apart, own):
        assert _bits_equal(a, b), label
    if name != "eps_1e-4_deep_substeps":
        assert own[2].any()  # lanes diverge, and freeze over their draws


@pytest.mark.parametrize("kernel", ["rescaled_euler", "slowtime_euler"])
def test_euler_writes_over_its_own_draws(kernel):
    # unit drift scale and noise: some lanes leave the guard mid-run
    z1, z2 = _noise(2, 7, 120, (0.0, 1.0, 5.0, 20.0))
    args = (1.0, -2.0, 1.0, 1.0, 1e-2, 4.0)
    apart = _planar(getattr(_kernels, kernel), args, z1, z2, in_place=False)
    own = _planar(getattr(_kernels, kernel), args, z1, z2, in_place=True)
    for label, a, b in zip(("xs", "ys", "div"), apart, own):
        assert _bits_equal(a, b), label
    assert 0 < own[2].sum() < own[2].size


def test_em_writes_over_its_own_draws():
    z, _ = _noise(6, 7, 200, (1.0, 3.0))
    apart = np.empty((7, 201))
    _kernels.limit_sq_em(0.5, 2.0, 2.0, 1e-2, z, apart)
    own = _in_place(z)
    _kernels.limit_sq_em(0.5, 2.0, 2.0, 1e-2, own[:, 1:], own)
    assert _bits_equal(apart, own)


@pytest.mark.parametrize("coeffs", sorted(OU2D_COEFFS))
def test_ou2d_writes_over_its_own_draws(monkeypatch, coeffs):
    # tiles of 8 steps: the run crosses two tile boundaries
    n = 7
    monkeypatch.setattr(_kernels, "_BLOCK_ELEMS", 8 * n)
    decay, sd = OU2D_COEFFS[coeffs]
    z1, z2 = _noise(9, n, 19, (1.0, 2.0))
    apart = np.empty((n, 20))
    _kernels.ou2d_radius(0.7, decay, sd, z1, z2, apart)
    own, b2 = _in_place(z1), _in_place(z2)
    _kernels.ou2d_radius(0.7, decay, sd, own[:, 1:], b2[:, 1:], own)
    assert _bits_equal(apart, own)


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


# a step short enough that the bridge exponent falls below -700 inside the
# barriers
H_FINE = 1e-5
DECAY_FINE = math.exp(-H_FINE)
SD_FINE = math.sqrt(-math.expm1(-2.0 * H_FINE) / 2.0)


def _bridge_exponent(x, lo):
    # the kernel's exponent at the lower barrier for a step with z = 0
    return (x - lo) * -2.0 * (x * DECAY_FINE - lo) / H_FINE


@pytest.mark.parametrize("mode", sorted(MODES))
def test_exit_zero_uniforms_and_shared_clocks_match_oracle(mode):
    # u = 0 hits exactly where exp of the bridge exponent has not
    # underflowed to 0, so a block holding one runs without the kernel's
    # floor on the exponent; lanes that share a start time share a clock
    lo, hi, _ = MODES[mode]
    n, chunk = 8, 64
    rng = np.random.default_rng(11)
    z = rng.standard_normal((n, chunk))
    u = rng.random((n, chunk, 2))
    # lanes 3-7 run on their draws from near the lower barrier
    x = lo + 0.002 * np.arange(n)
    # lanes 0-3 start at 0.25, lanes 4 and 5 at 0 and -0, lanes 6 and 7 at
    # 0.5
    t = np.array([0.25, 0.25, 0.25, 0.25, 0.0, -0.0, 0.5, 0.5])
    tau = np.full(n, np.nan)
    done = np.zeros(n, dtype=bool)
    # lanes 0 and 1 start inside the lower barrier, with no noise and u = 1
    # except a u = 0 against the lower barrier on step 0
    for i, gap in ((0, 0.06), (1, 0.062)):
        x[i] = lo + gap
        z[i] = 0.0
        u[i] = 1.0
        u[i, 0, 0] = 0.0
    assert -745.0 < _bridge_exponent(x[0], lo) < -700.0  # exp > 0: a hit
    assert _bridge_exponent(x[1], lo) < -746.0  # exp = 0: no hit
    # lane 2 shares lanes 0 and 1's clock and is knocked out on step 30
    x[2], z[2], u[2] = lo + 0.05, 0.0, 1.0
    z[2, 30] = -1e3
    args = (x, t, tau, done, z, u, lo, hi, DECAY_FINE, SD_FINE, H_FINE)
    got = _run_exit(args)
    ref = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    ref[:2] = _exit_oracle(*ref)
    for name, a, b in zip(("x", "t", "tau", "done"), got, ref):
        assert _bits_equal(a, b), name
    _, t_out, tau_out, done_out = got
    assert done_out[0] and tau_out[0] == 0.25 + 0.5 * H_FINE
    assert not done_out[1] and np.isnan(tau_out[1])
    clock = 0.25
    for _ in range(30):
        clock += H_FINE
    assert done_out[2] and tau_out[2] == clock + 0.5 * H_FINE
    assert t_out[2] == clock + H_FINE
    # some of the lanes on their draws exit, some run on
    assert 0 < done_out[3:].sum() < n - 3
