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

``benchmarks/layer_timings.py`` times each kernel at fixed shapes.
"""

from __future__ import annotations

import math

import numpy as np

MAX_SUBSTEPS = 4096
_EXP_CLAMP = 60.0


def _ou_var_vec(lam: np.ndarray, h: float, out=None, tmp=None,
                small=None) -> np.ndarray:
    # Variance of an OU increment over h with rate lam (valid for lam <= 0
    # too): -expm1(min(-2 lam h, 60)) / (2 lam), and h where |lam h| < 1e-12.
    # It is computed as expm1(w) / (-2 lam), the same double, and the lanes with
    # |lam h| < 1e-12 are set to h afterwards; lam = 0 gives 0/0 there, so
    # call this under np.errstate(invalid="ignore").  out, tmp (float) and
    # small (bool) are optional work buffers shaped like lam; the result is
    # written into out.
    u = np.multiply(lam, h, out=tmp)
    var = np.multiply(u, -2.0, out=out)
    np.minimum(var, _EXP_CLAMP, out=var)
    np.expm1(var, out=var)
    small = np.less(np.abs(u, out=u), 1e-12, out=small)
    np.divide(var, np.multiply(lam, -2.0, out=u), out=var)
    if np.count_nonzero(small):
        np.copyto(var, h, where=small)
    return var


# ---------------------------------------------------------------------------
# fast-slow system, splitting scheme (exact OU substep in x, explicit y step)
# ---------------------------------------------------------------------------

def rescaled_split(x0, y0, inv_eps, damp, h, dtheta_max, guard,
                   z1, z2, xs, ys, div):
    # Each step computes the plain one-step update at full width.  Only the
    # lanes with nsub > 1 are gathered, sorted by descending nsub and
    # sub-stepped on prefix slices (substep j runs on the lanes that still
    # need it); their drift result and end rate are scattered back before
    # the noise is added at full width.  Every lane runs the operations of
    # the scalar scheme, so the result does not depend on the batch: -(a b)
    # is computed as a (-b), which is the same double, and no product or sum
    # is reassociated.  The per-step allocations left are the index arrays
    # of the substepped lanes.
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
            np.minimum(nsub, MAX_SUBSTEPS, out=nsub)
            np.greater(nsub, 1, out=multi)
            if not all_alive:
                multi &= alive

            # plain step: exact OU decay of x at the rate lam of the start
            lam = np.multiply(y, inv_eps, out=a)
            lam += damp
            np.multiply(lam, -h, out=xn)  # -(lam h)
            np.minimum(xn, _EXP_CLAMP, out=xn)
            np.exp(xn, out=xn)
            xn *= x

            m = np.count_nonzero(multi)
            if m:
                # Strang-split drift substeps: half y-step, exact x-decay at
                # the midpoint rate, half y-step; noise added once at the end,
                # at the rate of the end point.
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
                        # the lanes with nsub > j: a prefix of the sort
                        cnt = m - int(ns[::-1].searchsorted(j, "right"))
                        X, Y, Q, T = cx[:cnt], cy[:cnt], cq[:cnt], ct[:cnt]
                        HALF, NHS = chalf[:cnt], chs[:cnt]
                    # Q holds X*X*inv_eps on entry and on exit
                    Q -= np.multiply(Y, damp, out=T)
                    Q *= HALF
                    Y += Q
                    np.multiply(Y, inv_eps, out=T)
                    T += damp
                    T *= NHS  # -(lam hs)
                    np.minimum(T, _EXP_CLAMP, out=T)
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

            # OU noise over h at rate lam, then the y step (explicit for the
            # plain lanes; the substepped lanes keep their drift result)
            var = _ou_var_vec(lam, h, out=b, tmp=c, small=small)
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

            # divergence check; while every lane is alive and none blew up
            # the new state is simply (xn, yn)
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
    # decay and sd: one value per step, or one value for every step
    n_paths, n_steps = z1.shape
    decay = np.broadcast_to(decay, n_steps)
    sd = np.broadcast_to(sd, n_steps)
    u = np.zeros(n_paths, dtype=np.float64)
    v = np.full(n_paths, y0, dtype=np.float64)
    rs[:, 0] = abs(y0)
    for k in range(n_steps):
        u = u * decay[k] + sd[k] * z1[:, k]
        v = v * decay[k] + sd[k] * z2[:, k]
        rs[:, k + 1] = np.hypot(u, v)


# ---------------------------------------------------------------------------
# OU first-exit times with Brownian-bridge crossing detection
# ---------------------------------------------------------------------------

def ou_exit_chunk(x, t, tau, done, z, u, lo, hi, decay, sd, h):
    # Steps only the live lanes, kept packed in the first m entries of the
    # work buffers with their index into the batch.  A lane that exits gets
    # tau (from t before the step), done, x and t written at once; the
    # others are written back at the end of the chunk.  x and t are updated
    # in place and returned.
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
                # exp(-2 (x - lo)(xn - lo) / h): the bridge's crossing chance
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


# ---------------------------------------------------------------------------
# up-crossing detection between the |y|=delta and |y|=2*delta levels
# ---------------------------------------------------------------------------

def scan_crossings(ys, delta, tau_idx, sig_idx, n_tau, n_sig, overflow):
    n_paths, length = ys.shape
    two_delta = 2.0 * delta
    capacity = tau_idx.shape[1]
    ay = np.abs(ys)
    for i in range(n_paths):
        a = ay[i]
        pos = 0
        nt = 0
        ns = 0
        while pos < length:
            if nt == ns:
                hits = np.nonzero(a[pos:] <= delta)[0]
            else:
                hits = np.nonzero(a[pos:] >= two_delta)[0]
            if hits.size == 0:
                break
            pos += int(hits[0])
            if nt == ns:
                if nt >= capacity:
                    overflow[i] = True
                    break
                tau_idx[i, nt] = pos
                nt += 1
            else:
                sig_idx[i, ns] = pos
                ns += 1
            pos += 1
        n_tau[i] = nt
        n_sig[i] = ns


