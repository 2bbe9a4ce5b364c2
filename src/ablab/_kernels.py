"""Hot time-stepping loops, vectorized over paths with numpy.

Each kernel advances a batch of paths (one row per path) from pre-drawn
standard-normal (and uniform) arrays and writes into caller-owned output
arrays.  A given seed therefore fixes the draws, and the draws fix the
result bit for bit.

The splitting and exit-time kernels step only the lanes that have work: the
paths that need substeps, and the paths that have not exited.  Each lane
runs the same floating-point operations whatever the batch, so a path's
result does not depend on the other paths in it.  Their work buffers are
allocated once per call and written with ``out=``: fresh temporaries whose
size changed from step to step fragmented the malloc heap and raised peak
memory by several percent.

The exit-time kernel steps its live lanes in blocks of steps: only the OU
recursion runs once per step, and everything else (gathering the draws,
the clocks, the bridge-crossing tests, finding each lane's first exit) runs
once per block on (steps x lanes) arrays of about ``_BLOCK_ELEMS`` elements.
With a few dozen lanes left, numpy's per-call cost, not arithmetic, sets the
price of a step, and a step then costs two numpy calls instead of about
thirty.  Lanes that start a block at the same time share one clock column,
advanced by one ``np.add.accumulate``.  The bridge's crossing chance
exp(P) underflows for most steps, and numpy's exp is 20-40x slower on
arguments below about -708, so P is raised to ``_EXP_FLOOR`` = -700 first:
while every uniform of the block exceeds ``_U_MIN``, no hit test can tell.

Both step loops, and the tiled ``ou2d_radius``, keep two rules.  They step
on (steps x lanes) tiles or blocks of about ``_BLOCK_ELEMS`` elements stored
steps-major, so that a step reads and writes contiguous rows: a column of a
row-major (paths x steps) array touches one cache line per path, and each
tile is copied in and out once instead.  And each constant operand of a
per-step ufunc call is a 0-d float64 array, built once: numpy converts a
Python float operand on every call, which on a few hundred lanes costs about
as much as the arithmetic.

Every kernel that ``model.replica_reduce`` drives (``rescaled_split``,
``slowtime_euler`` and ``ou2d_radius``) keeps one more rule: it reads the
draws of step k before it writes the state after step k, column k + 1 of
its outputs.  So its draws may be columns ``1:`` of its own output arrays,
and the paths overwrite their noise in place: the driver holds two
path-sized arrays per batch, not two of draws and two of paths.
The tiled kernels copy a tile's draws before they write the tile's states.

``first_passages`` is the one alternating first-passage walk along a
stored row: the band crossings and the excursions are both read with it.

Three kernels have no caller in the package and are kept for the layer
timings only.  ``rescaled_euler`` (plain Euler-Maruyama on the fast-slow
system, and the tests' oracle for ``rescaled_split``) and ``limit_sq_em``
(an Euler scheme on the square of the limit, which ``ou2d_radius`` samples
exactly) keep the in-place rule.  ``scan_crossings`` writes the walk of the
band crossings into fixed-width index buffers and flags the rows that
overflow them; ``analysis.crossing_stats`` reads ``first_passages``
directly.

``benchmarks/layer_timings.py`` times each kernel at fixed shapes.
"""

from __future__ import annotations

import math

import numpy as np

MAX_SUBSTEPS = 4096
_EXP_CLAMP = 60.0
# elements of one (steps x lanes) tile or block of the step loops
_BLOCK_ELEMS = 1 << 15


def _const(value) -> np.ndarray:
    # a read-only 0-d float64 array, for a ufunc operand used on every step
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


_ONE, _HALF, _NEG2, _TINY = (_const(v) for v in (1.0, 0.5, -2.0, 1e-12))
# ou_exit_chunk's floor on exp's argument, used while every uniform of a
# block exceeds _U_MIN > exp(_EXP_FLOOR); -inf is no floor
_EXP_FLOOR, _NO_FLOOR = _const(-700.0), _const(-np.inf)
_U_MIN = 1e-300
_CLAMP = _const(_EXP_CLAMP)
# the largest substep rate kept before the cast: int(c) + 1 <= MAX_SUBSTEPS
_RATE_CAP = _const(MAX_SUBSTEPS - 1)


def _ou_var_vec(lam: np.ndarray, h, out=None, tmp=None,
                small=None) -> np.ndarray:
    # Variance of an OU increment over h with rate lam (valid for lam <= 0
    # too): -expm1(min(-2 lam h, 60)) / (2 lam), and h where |lam h| < 1e-12.
    # It is computed as expm1(w) / (-2 lam), the same double, and the lanes with
    # |lam h| < 1e-12 are set to h afterwards; lam = 0 gives 0/0 there, so
    # call this under np.errstate(invalid="ignore").  h is a float or a 0-d
    # array.  out, tmp (float) and small (bool) are optional work buffers
    # shaped like lam; the result is written into out.
    u = np.multiply(lam, h, out=tmp)
    var = np.multiply(u, _NEG2, out=out)
    np.minimum(var, _CLAMP, out=var)
    np.expm1(var, out=var)
    small = np.less(np.abs(u, out=u), _TINY, out=small)
    np.divide(var, np.multiply(lam, _NEG2, out=u), out=var)
    if np.count_nonzero(small):
        np.copyto(var, h, where=small)
    return var


# ---------------------------------------------------------------------------
# fast-slow system, splitting scheme (exact OU substep in x, explicit y step)
# ---------------------------------------------------------------------------

def rescaled_split(x0, y0, inv_eps, damp, h, dtheta_max, guard,
                   z1, z2, xs, ys, div):
    # Each step computes the plain one-step update at full width.  A lane
    # needs substeps when c = |x| inv_eps h / dtheta_max >= 1: its count
    # int(c) + 1, capped at MAX_SUBSTEPS, exceeds 1 exactly then, and a NaN
    # c takes the plain step either way.  Only those lanes are gathered;
    # their count is int(min(c, MAX_SUBSTEPS - 1)) + 1, clipped in float
    # before the cast, which would wrap for c >= 2**63.  They are sorted by
    # descending count and sub-stepped on prefix slices (substep i runs on
    # the lanes that still need it); their drift result and end rate are
    # scattered back before the noise is added at full width.  Every lane
    # runs the operations of the scalar scheme, so the result does not
    # depend on the batch: -(a b) is computed as a (-b), which is the same
    # double, and no product or sum is reassociated.
    #
    # The steps run in tiles of s steps stored steps-major: the draws of a
    # tile are copied into (s, n) buffers, z2 scaled by sqrt(h) there, and
    # row j + 1 of XB and YB receives the state after step j (row 0 holds
    # the state the tile starts from); each tile then goes to xs and ys in
    # one transposed copy.  The per-step allocations left are the index
    # arrays of the substepped lanes.
    n_paths, n_steps = z1.shape
    s_max = max(1, min(n_steps, _BLOCK_ELEMS // max(n_paths, 1)))
    inv_eps_a, damp_a, h_a, neg_h_a, dtheta_a, sqrt_h_a = (
        _const(v) for v in (inv_eps, damp, h, -h, dtheta_max, math.sqrt(h)))
    # full-width buffers, then compacted ones (the first m entries are used)
    a, b, c, u, cx, cy, cq, ct, chs, chalf = (np.empty(n_paths)
                                              for _ in range(10))
    cns = np.empty(n_paths, dtype=np.int64)
    multi = np.empty(n_paths, dtype=bool)
    small = np.empty(n_paths, dtype=bool)
    alive = np.ones(n_paths, dtype=bool)
    all_alive = True
    XB, YB = np.empty((s_max + 1, n_paths)), np.empty((s_max + 1, n_paths))
    Z1, Z2 = np.empty((s_max, n_paths)), np.empty((s_max, n_paths))
    XB[0] = x0
    YB[0] = y0
    xs[:, 0] = XB[0]
    ys[:, 0] = YB[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(0, n_steps, s_max):
            s = min(s_max, n_steps - k)
            np.copyto(Z1[:s], z1[:, k:k + s].T)
            np.copyto(Z2[:s], z2[:, k:k + s].T)
            Z2[:s] *= sqrt_h_a
            xr, yr, z1r, z2r = list(XB), list(YB), list(Z1), list(Z2)
            for j in range(s):
                x, y, xn, yn = xr[j], yr[j], xr[j + 1], yr[j + 1]
                np.abs(x, out=c)
                c *= inv_eps_a
                c *= h_a
                c /= dtheta_a
                np.greater_equal(c, _ONE, out=multi)
                if not all_alive:
                    multi &= alive

                # plain step: exact OU decay of x at the rate lam of the start
                lam = np.multiply(y, inv_eps_a, out=a)
                lam += damp_a
                np.multiply(lam, neg_h_a, out=xn)  # -(lam h)
                np.minimum(xn, _CLAMP, out=xn)
                np.exp(xn, out=xn)
                xn *= x

                m = np.count_nonzero(multi)
                if m:
                    # Strang-split drift substeps: half y-step, exact
                    # x-decay at the midpoint rate, half y-step; noise added
                    # once at the end, at the rate of the end point.
                    sel = np.flatnonzero(multi)
                    cc = c.take(sel, out=cq[:m], mode="clip")
                    sel = sel[np.negative(cc, out=cc).argsort()]
                    c.take(sel, out=cc, mode="clip")
                    np.minimum(cc, _RATE_CAP, out=cc)
                    ns = cns[:m]
                    ns[...] = cc
                    ns += 1
                    x.take(sel, out=cx[:m], mode="clip")
                    y.take(sel, out=cy[:m], mode="clip")
                    hs = np.divide(h_a, ns, out=chs[:m])
                    np.multiply(hs, _HALF, out=chalf[:m])
                    np.negative(hs, out=hs)
                    np.multiply(cx[:m], cx[:m], out=cq[:m])
                    cq[:m] *= inv_eps_a
                    cnt = 0
                    for i in range(int(ns[0])):
                        if cnt == 0 or ns[cnt - 1] <= i:
                            # the lanes with nsub > i: a prefix of the sort
                            cnt = m - int(ns[::-1].searchsorted(i, "right"))
                            X, Y, Q, T = cx[:cnt], cy[:cnt], cq[:cnt], ct[:cnt]
                            HALF, NHS = chalf[:cnt], chs[:cnt]
                        # Q holds X*X*inv_eps on entry and on exit
                        Q -= np.multiply(Y, damp_a, out=T)
                        Q *= HALF
                        Y += Q
                        np.multiply(Y, inv_eps_a, out=T)
                        T += damp_a
                        T *= NHS  # -(lam hs)
                        np.minimum(T, _CLAMP, out=T)
                        np.exp(T, out=T)
                        X *= T
                        np.multiply(X, X, out=Q)
                        Q *= inv_eps_a
                        np.subtract(Q, np.multiply(Y, damp_a, out=T), out=T)
                        T *= HALF
                        Y += T
                    xn[sel] = cx[:m]
                    lamm = np.multiply(cy[:m], inv_eps_a, out=ct[:m])
                    lamm += damp_a
                    lam[sel] = lamm

                # OU noise over h at rate lam, then the y step (explicit for
                # the plain lanes; the substepped lanes keep their drift
                # result)
                var = _ou_var_vec(lam, h_a, out=b, tmp=u, small=small)
                np.sqrt(var, out=var)
                var *= z1r[j]
                xn += var
                np.multiply(xn, xn, out=yn)
                yn *= inv_eps_a
                yn -= np.multiply(y, damp_a, out=b)
                yn *= h_a
                yn += y
                if m:
                    yn[sel] = cy[:m]
                yn += z2r[j]

                # divergence check; while every lane is alive and none blew
                # up the new state is simply (xn, yn)
                np.abs(xn, out=a)
                np.maximum(a, np.abs(yn, out=b), out=a)
                top = a.max(initial=0.0)
                if not (all_alive and top <= guard and math.isfinite(top)):
                    blown = np.isfinite(xn, out=multi)
                    blown &= np.isfinite(yn, out=small)
                    np.logical_not(blown, out=blown)
                    blown |= np.greater(np.abs(xn, out=a), guard, out=small)
                    blown |= np.greater(np.abs(yn, out=a), guard, out=small)
                    div |= np.logical_and(alive, blown, out=small)
                    np.greater(alive, blown, out=alive)  # alive & ~blown
                    dead = np.logical_not(alive, out=small)
                    np.copyto(xn, x, where=dead)
                    np.copyto(yn, y, where=dead)
                    all_alive = bool(alive.all())
            xs[:, k + 1:k + 1 + s] = XB[1:s + 1].T
            ys[:, k + 1:k + 1 + s] = YB[1:s + 1].T
            XB[0] = XB[s]
            YB[0] = YB[s]


# ---------------------------------------------------------------------------
# plain Euler-Maruyama for both time scales of the perturbed system
# ---------------------------------------------------------------------------

def _affine_euler(x0, y0, c, d, s, h, guard, z1, z2, xs, ys, div):
    # dx = (-c x y - d x) dt + s dW1, dy = (c x^2 - d y) dt + s dW2.  A
    # path that leaves the guard or goes non-finite keeps its last state.
    n_paths, n_steps = z1.shape
    amp = s * math.sqrt(h)
    x = np.full(n_paths, x0, dtype=np.float64)
    y = np.full(n_paths, y0, dtype=np.float64)
    alive = np.ones(n_paths, dtype=bool)
    xs[:, 0] = x
    ys[:, 0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            xn = x + (-x * y * c - d * x) * h + amp * z1[:, k]
            yn = y + (x * x * c - d * y) * h + amp * z2[:, k]
            blown = ~(np.isfinite(xn) & np.isfinite(yn)) \
                | (np.abs(xn) > guard) | (np.abs(yn) > guard)
            newly = alive & blown
            div |= newly
            x = np.where(alive & ~newly, xn, x)
            y = np.where(alive & ~newly, yn, y)
            alive &= ~newly
            xs[:, k + 1] = x
            ys[:, k + 1] = y


def rescaled_euler(x0, y0, inv_eps, damp, h, guard, z1, z2, xs, ys, div):
    """Fast-slow system: drift scale 1/eps, damping, unit noise."""
    _affine_euler(x0, y0, inv_eps, damp, 1.0, h, guard, z1, z2, xs, ys, div)


def slowtime_euler(x0, y0, eps, damp, h, guard, z1, z2, xs, ys, div):
    """Slow-time system: unit drift scale, damping eps, noise sqrt(eps)."""
    _affine_euler(x0, y0, 1.0, damp * eps, math.sqrt(eps), h, guard,
                  z1, z2, xs, ys, div)


# ---------------------------------------------------------------------------
# limit process, positivity-preserving direct scheme on s = y^2
# ---------------------------------------------------------------------------

def limit_sq_em(y0, a_drift, b_drift, h, z, ys):
    n_paths, n_steps = z.shape
    sqrt_h = math.sqrt(h)
    s = np.full(n_paths, y0 * y0, dtype=np.float64)
    ys[:, 0] = y0
    for k in range(n_steps):
        s = s + (a_drift - b_drift * s) * h \
            + 2.0 * np.sqrt(s) * sqrt_h * z[:, k]
        s = np.abs(s)
        ys[:, k + 1] = np.sqrt(s)


# ---------------------------------------------------------------------------
# exact sampler: radius of a 2-d unit-damping OU process from (0, y0)
# ---------------------------------------------------------------------------

def ou2d_radius(y0, decay, sd, z1, z2, rs):
    # decay and sd: one value per step, or one value for every step.  The
    # steps run in tiles of s steps stored steps-major, as in
    # rescaled_split: a tile's draws are copied into (s, n) buffers and
    # scaled there by sd, row j + 1 of U and V receives the OU state after
    # step j (row 0 holds the state the tile starts from), and the tile's
    # radii come from one hypot and go to rs in one transposed copy.
    # Each coordinate runs u * decay + sd * z step by step, as a
    # one-step-at-a-time loop does, so the result is the same bit for bit.
    n_paths, n_steps = z1.shape
    s_max = max(1, min(n_steps, _BLOCK_ELEMS // max(n_paths, 1)))
    decay = np.broadcast_to(decay, n_steps)
    sd = np.broadcast_to(sd, n_steps)
    U, V = np.empty((s_max + 1, n_paths)), np.empty((s_max + 1, n_paths))
    Z1, Z2 = np.empty((s_max, n_paths)), np.empty((s_max, n_paths))
    U[0] = 0.0
    V[0] = y0
    rs[:, 0] = abs(y0)
    for k in range(0, n_steps, s_max):
        s = min(s_max, n_steps - k)
        np.copyto(Z1[:s], z1[:, k:k + s].T)
        np.copyto(Z2[:s], z2[:, k:k + s].T)
        np.multiply(sd[k:k + s, None], Z1[:s], out=Z1[:s])
        np.multiply(sd[k:k + s, None], Z2[:s], out=Z2[:s])
        ur, vr, z1r, z2r = list(U), list(V), list(Z1), list(Z2)
        # each step's decay as a 0-d view, not a numpy scalar
        for j in range(s):
            d = decay[k + j, ...]
            np.add(np.multiply(ur[j], d, out=ur[j + 1]), z1r[j],
                   out=ur[j + 1])
            np.add(np.multiply(vr[j], d, out=vr[j + 1]), z2r[j],
                   out=vr[j + 1])
        radii = np.hypot(U[1:s + 1], V[1:s + 1], out=Z1[:s])
        rs[:, k + 1:k + 1 + s] = radii.T
        U[0] = U[s]
        V[0] = V[s]


# ---------------------------------------------------------------------------
# OU first-exit times with Brownian-bridge crossing detection
# ---------------------------------------------------------------------------

def ou_exit_chunk(x, t, tau, done, z, u, lo, hi, decay, sd, h):
    # Steps only the live lanes, kept packed in the first m entries of the
    # work buffers with their index into the batch, in blocks of s steps
    # stored steps-major as (s, m) views of flat buffers allocated once per
    # call.  s * m stays near _BLOCK_ELEMS, so s grows as lanes exit and
    # the last few stragglers cross a whole chunk in one block.  Per step
    # only the recursion x * decay + z * sd runs, one row; the draws are
    # gathered, and the clocks, the crossing chances, the hit tests and
    # each lane's first hit computed, once per block on whole arrays.
    #
    # Clocks: lanes that start the block at the same t run the same sums
    # t + h + h + ..., so the block keeps one clock column per distinct
    # start (one in all: in ou_exit_mc every live path has the same t) and
    # advances them with one np.add.accumulate, which adds in step order;
    # each lane reads its column by index.
    #
    # Crossing chances: exp(P), P = -2 (x - b)(xn - b) / h, underflows for
    # most steps, and numpy's exp is 20-40x slower on arguments below about
    # -708.  A hit needs u < exp(P).  Below _EXP_FLOOR = -700, exp(P) stays
    # under exp(-700) ~ 1e-304, so while every u of the block exceeds
    # _U_MIN = 1e-300 no such P hits, whether or not it is raised to the
    # floor: the block raises P to _EXP_FLOOR before exp.  Generator.random
    # returns multiples of 2**-53, so only a block holding an exact 0 runs
    # without the floor (u = 0 hits wherever exp(P) > 0, which the floor
    # would change).
    #
    # Lanes keep stepping past their exit to the block's end; those steps
    # are discarded.  A lane that exits gets tau (from t before the step),
    # done, x (before the step) and t written at the block's end; the
    # others are written back at the end of the chunk.  Every lane runs the
    # operations of a one-step-at-a-time loop in the same order, so the
    # result is the same bit for bit.  x and t are updated in place and
    # returned.
    chunk = z.shape[1]
    live = np.flatnonzero(~done)
    m = live.size
    flat = max(_BLOCK_ELEMS, m)
    xb = np.empty(flat + m)  # (s + 1, m)
    zs, p, q = np.empty(flat), np.empty(flat), np.empty(flat)
    g = np.empty(flat, dtype=np.complex128)
    hit, tmp = np.empty(flat, dtype=bool), np.empty(flat, dtype=bool)
    gi = np.empty(flat, dtype=np.intp)
    xl, tl = np.empty(m), np.empty(m)
    spare = np.empty(m, dtype=live.dtype)
    x.take(live, out=xl, mode="clip")
    t.take(live, out=tl, mode="clip")
    # the draws as flat arrays: z[i, k] is zf[i chunk + k], and the pair
    # u[i, k], read as one complex128, is uf[i chunk + k]
    zf, uf = np.ravel(z), np.ravel(u).view(np.complex128)
    half_h = 0.5 * h
    decay_a = _const(decay)
    k = 0
    with np.errstate(over="ignore", under="ignore"):
        while m and k < chunk:
            s = min(chunk - k, max(1, _BLOCK_ELEMS // m))
            L, X, T = live[:m], xl[:m], tl[:m]
            # row j of XB: x before step j
            XB = xb[:(s + 1) * m].reshape(s + 1, m)
            ZS, P, Q, U = (a[:s * m].reshape(s, m) for a in (zs, p, q, g))
            HIT, TMP = (a[:s * m].reshape(s, m) for a in (hit, tmp))
            GI = gi[:s * m].reshape(s, m)  # flat index of each draw

            np.add(np.arange(k, k + s)[:, None], L * chunk, out=GI)
            zf.take(GI, out=ZS, mode="clip")
            ZS *= sd
            XB[0] = X
            xr, zr = list(XB), list(ZS)
            for j in range(s):
                xo = xr[j + 1]
                np.multiply(xr[j], decay_a, out=xo)
                np.add(xo, zr[j], out=xo)
            XA, XN = XB[:s], XB[1:]
            # row j of CK: t before step j, one column per distinct start
            starts, col = np.unique(T, return_inverse=True)
            CK = np.full((s + 1, starts.size), h)
            CK[0] = starts
            np.add.accumulate(CK, axis=0, out=CK)
            uf.take(GI, out=U, mode="clip")
            k += s
            floor = (_EXP_FLOOR if U.view(np.float64).min() > _U_MIN
                     else _NO_FLOOR)
            HIT.fill(False)
            if lo > -np.inf:
                # exp(-2 (x - lo)(xn - lo) / h): the bridge's crossing chance
                np.multiply(np.subtract(XA, lo, out=P), -2.0, out=P)
                P *= np.subtract(XN, lo, out=Q)
                P /= h
                np.maximum(P, floor, out=P)
                np.exp(P, out=P)
                HIT |= np.less(U.real, P, out=TMP)
                HIT |= np.less_equal(XN, lo, out=TMP)
            if hi < np.inf:
                np.multiply(np.subtract(hi, XA, out=P), -2.0, out=P)
                P *= np.subtract(hi, XN, out=Q)
                P /= h
                np.maximum(P, floor, out=P)
                np.exp(P, out=P)
                HIT |= np.less(U.imag, P, out=TMP)
                HIT |= np.greater_equal(XN, hi, out=TMP)

            exited = HIT.any(axis=0)
            n_hit = np.count_nonzero(exited)
            if n_hit:
                cols = np.flatnonzero(exited)
                first = HIT.argmax(axis=0)[cols]
                out, ck = L[cols], col[cols]
                tau[out] = CK[first, ck] + half_h
                done[out] = True
                x[out] = XB[first, cols]
                t[out] = CK[first + 1, ck]
                np.logical_not(exited, out=exited)
                m -= n_hit
                L.compress(exited, out=spare[:m])
                live, spare = spare, live
                XB[s].compress(exited, out=xl[:m])
                CK[s].take(col.compress(exited), out=tl[:m])
            else:
                X[...] = XB[s]
                CK[s].take(col, out=T)
        x[live[:m]] = xl[:m]
        t[live[:m]] = tl[:m]
    return x, t


# ---------------------------------------------------------------------------
# alternating first passages: band crossings and excursions
# ---------------------------------------------------------------------------

def first_passages(enter, leave):
    """Visits along one row, as (i, j) pairs: i is the first index from the
    previous j + 1 at which ``enter`` holds, j the first index from i at
    which ``leave`` holds.  A visit that never leaves has j = None and ends
    the walk.  enter and leave are boolean rows of one length."""
    start = 0
    while start < enter.size:
        # argmax stops at the first True, and gives 0 when there is none
        i = start + int(enter[start:].argmax())
        if not enter[i]:
            return
        j = i + int(leave[i:].argmax())
        if not leave[j]:
            yield i, None
            return
        yield i, j
        start = j + 1


def scan_crossings(ys, delta, tau_idx, sig_idx, n_tau, n_sig, overflow):
    # taus: entries into |y| <= delta, sigmas: the exits to |y| >= 2 delta
    # that follow them (for delta > 0 no index is both).  A row with more
    # taus than tau_idx holds is flagged in overflow and keeps the first;
    # buffers (L + 1) // 2 wide for rows of length L cannot overflow.
    capacity = tau_idx.shape[1]
    ay = np.abs(ys)
    for r, (enter, leave) in enumerate(zip(ay <= delta, ay >= 2.0 * delta)):
        nt = ns = 0
        for i, j in first_passages(enter, leave):
            if nt >= capacity:
                overflow[r] = True
                break
            tau_idx[r, nt] = i
            nt += 1
            if j is not None:
                sig_idx[r, ns] = j
                ns += 1
        n_tau[r] = nt
        n_sig[r] = ns
