"""Hot time-stepping loops, compiled with numba when available.

Every kernel exists in two semantically identical variants: a scalar-loop
``*_nb`` version compiled with ``@njit`` and a vectorized ``*_np`` numpy
version.  The public names dispatch to one of them, chosen once at import
time: set ``ABLAB_NUMBA=0`` to force the numpy fallback.  Both variants
consume pre-drawn standard-normal (and uniform) arrays, so a given seed
produces the same draws on either backend; floating-point results agree to
rounding but are only guaranteed bit-stable within a backend.

``benchmarks/layer_timings.py`` times each kernel at fixed shapes.
"""

from __future__ import annotations

import math
import os

import numpy as np

_ENV_FLAG = os.environ.get("ABLAB_NUMBA", "1").strip().lower()
NUMBA_ENABLED = _ENV_FLAG not in ("0", "false", "off", "no")

if NUMBA_ENABLED:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        NUMBA_ENABLED = False

BACKEND = "numba" if NUMBA_ENABLED else "numpy"

# Caps shared by both backends.
MAX_SUBSTEPS = 4096
_EXP_CLAMP = 60.0


def _ou_var_scalar(lam: float, h: float) -> float:
    # Variance of an OU increment over h with rate lam (valid for lam <= 0 too).
    u = lam * h
    if abs(u) < 1e-12:
        return h
    w = -2.0 * u
    if w > _EXP_CLAMP:
        w = _EXP_CLAMP
    return -math.expm1(w) / (2.0 * lam)


def _ou_var_vec(lam: np.ndarray, h: float) -> np.ndarray:
    u = lam * h
    w = np.minimum(-2.0 * u, _EXP_CLAMP)
    lam_safe = np.where(np.abs(lam) < 1e-300, 1.0, lam)
    var = -np.expm1(w) / (2.0 * lam_safe)
    return np.where(np.abs(u) < 1e-12, h, var)


# ---------------------------------------------------------------------------
# fast-slow system, splitting scheme (exact OU substep in x, explicit y step)
# ---------------------------------------------------------------------------

def _rescaled_split_np(x0, y0, inv_eps, damp, h, dtheta_max, guard,
                       z1, z2, xs, ys, div):
    n_paths, n_steps = z1.shape
    sqrt_h = math.sqrt(h)
    x = np.full(n_paths, x0, dtype=np.float64)
    y = np.full(n_paths, y0, dtype=np.float64)
    alive = np.ones(n_paths, dtype=bool)
    xs[:, 0] = x
    ys[:, 0] = y
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n_steps):
            lam = y * inv_eps + damp
            ang = np.abs(x) * inv_eps * h
            nsub = np.clip((ang / dtheta_max).astype(np.int64) + 1,
                           1, MAX_SUBSTEPS)
            one = nsub == 1

            xa = x * np.exp(np.minimum(-lam * h, _EXP_CLAMP)) \
                + np.sqrt(_ou_var_vec(lam, h)) * z1[:, k]
            ya = y + (xa * xa * inv_eps - damp * y) * h + sqrt_h * z2[:, k]

            xb = x.copy()
            yb = y.copy()
            multi = alive & ~one
            if multi.any():
                # Strang-split drift substeps: half y-step, exact x-decay at
                # the midpoint rate, half y-step; noise added once at the end.
                hs = h / nsub
                nmax = int(nsub[multi].max())
                for j in range(nmax):
                    act = multi & (j < nsub)
                    yh = yb + (xb * xb * inv_eps - damp * yb) * (0.5 * hs)
                    lamm = yh * inv_eps + damp
                    xn = xb * np.exp(np.minimum(-lamm * hs, _EXP_CLAMP))
                    yn = yh + (xn * xn * inv_eps - damp * yh) * (0.5 * hs)
                    xb = np.where(act, xn, xb)
                    yb = np.where(act, yn, yb)
                lamm = yb * inv_eps + damp
                xb = np.where(multi,
                              xb + np.sqrt(_ou_var_vec(lamm, h)) * z1[:, k],
                              xb)
                yb = np.where(multi, yb + sqrt_h * z2[:, k], yb)

            xn = np.where(one, xa, xb)
            yn = np.where(one, ya, yb)
            blown = ~(np.isfinite(xn) & np.isfinite(yn)) \
                | (np.abs(xn) > guard) | (np.abs(yn) > guard)
            newly = alive & blown
            div |= newly
            x = np.where(alive & ~newly, xn, x)
            y = np.where(alive & ~newly, yn, y)
            alive &= ~newly
            xs[:, k + 1] = x
            ys[:, k + 1] = y


def _make_rescaled_split_nb():
    ou_var = njit(cache=True)(_ou_var_scalar)

    @njit(cache=True)
    def kernel(x0, y0, inv_eps, damp, h, dtheta_max, guard,
               z1, z2, xs, ys, div):
        n_paths, n_steps = z1.shape
        sqrt_h = math.sqrt(h)
        for i in range(n_paths):
            x = x0
            y = y0
            xs[i, 0] = x
            ys[i, 0] = y
            dead = False
            for k in range(n_steps):
                if dead:
                    xs[i, k + 1] = x
                    ys[i, k + 1] = y
                    continue
                ang = abs(x) * inv_eps * h
                nsub = int(ang / dtheta_max) + 1
                if nsub > MAX_SUBSTEPS:
                    nsub = MAX_SUBSTEPS
                if nsub == 1:
                    lam = y * inv_eps + damp
                    a = -lam * h
                    if a > _EXP_CLAMP:
                        a = _EXP_CLAMP
                    xn = x * math.exp(a) + math.sqrt(ou_var(lam, h)) * z1[i, k]
                    yn = y + (xn * xn * inv_eps - damp * y) * h \
                        + sqrt_h * z2[i, k]
                else:
                    hs = h / nsub
                    xn = x
                    yn = y
                    for _ in range(nsub):
                        yn = yn + (xn * xn * inv_eps - damp * yn) * (0.5 * hs)
                        lam = yn * inv_eps + damp
                        a = -lam * hs
                        if a > _EXP_CLAMP:
                            a = _EXP_CLAMP
                        xn = xn * math.exp(a)
                        yn = yn + (xn * xn * inv_eps - damp * yn) * (0.5 * hs)
                    lam = yn * inv_eps + damp
                    xn = xn + math.sqrt(ou_var(lam, h)) * z1[i, k]
                    yn = yn + sqrt_h * z2[i, k]
                if (not math.isfinite(xn)) or (not math.isfinite(yn)) \
                        or abs(xn) > guard or abs(yn) > guard:
                    div[i] = True
                    dead = True
                else:
                    x = xn
                    y = yn
                xs[i, k + 1] = x
                ys[i, k + 1] = y

    return kernel


# ---------------------------------------------------------------------------
# fast-slow system, plain Euler-Maruyama (cross-validation scheme)
# ---------------------------------------------------------------------------

def _rescaled_euler_np(x0, y0, inv_eps, damp, h, guard, z1, z2, xs, ys, div):
    n_paths, n_steps = z1.shape
    sqrt_h = math.sqrt(h)
    x = np.full(n_paths, x0, dtype=np.float64)
    y = np.full(n_paths, y0, dtype=np.float64)
    alive = np.ones(n_paths, dtype=bool)
    xs[:, 0] = x
    ys[:, 0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            xn = x + (-x * y * inv_eps - damp * x) * h + sqrt_h * z1[:, k]
            yn = y + (x * x * inv_eps - damp * y) * h + sqrt_h * z2[:, k]
            blown = ~(np.isfinite(xn) & np.isfinite(yn)) \
                | (np.abs(xn) > guard) | (np.abs(yn) > guard)
            newly = alive & blown
            div |= newly
            x = np.where(alive & ~newly, xn, x)
            y = np.where(alive & ~newly, yn, y)
            alive &= ~newly
            xs[:, k + 1] = x
            ys[:, k + 1] = y


def _make_rescaled_euler_nb():
    @njit(cache=True)
    def kernel(x0, y0, inv_eps, damp, h, guard, z1, z2, xs, ys, div):
        n_paths, n_steps = z1.shape
        sqrt_h = math.sqrt(h)
        for i in range(n_paths):
            x = x0
            y = y0
            xs[i, 0] = x
            ys[i, 0] = y
            dead = False
            for k in range(n_steps):
                if not dead:
                    xn = x + (-x * y * inv_eps - damp * x) * h \
                        + sqrt_h * z1[i, k]
                    yn = y + (x * x * inv_eps - damp * y) * h \
                        + sqrt_h * z2[i, k]
                    if (not math.isfinite(xn)) or (not math.isfinite(yn)) \
                            or abs(xn) > guard or abs(yn) > guard:
                        div[i] = True
                        dead = True
                    else:
                        x = xn
                        y = yn
                xs[i, k + 1] = x
                ys[i, k + 1] = y

    return kernel


# ---------------------------------------------------------------------------
# slow-time system, plain Euler-Maruyama, noise amplitude sqrt(eps)
# ---------------------------------------------------------------------------

def _slowtime_euler_np(x0, y0, eps, damp, h, guard, z1, z2, xs, ys, div):
    n_paths, n_steps = z1.shape
    amp = math.sqrt(eps) * math.sqrt(h)
    x = np.full(n_paths, x0, dtype=np.float64)
    y = np.full(n_paths, y0, dtype=np.float64)
    alive = np.ones(n_paths, dtype=bool)
    xs[:, 0] = x
    ys[:, 0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            xn = x + (-x * y - damp * eps * x) * h + amp * z1[:, k]
            yn = y + (x * x - damp * eps * y) * h + amp * z2[:, k]
            blown = ~(np.isfinite(xn) & np.isfinite(yn)) \
                | (np.abs(xn) > guard) | (np.abs(yn) > guard)
            newly = alive & blown
            div |= newly
            x = np.where(alive & ~newly, xn, x)
            y = np.where(alive & ~newly, yn, y)
            alive &= ~newly
            xs[:, k + 1] = x
            ys[:, k + 1] = y


def _make_slowtime_euler_nb():
    @njit(cache=True)
    def kernel(x0, y0, eps, damp, h, guard, z1, z2, xs, ys, div):
        n_paths, n_steps = z1.shape
        amp = math.sqrt(eps) * math.sqrt(h)
        for i in range(n_paths):
            x = x0
            y = y0
            xs[i, 0] = x
            ys[i, 0] = y
            dead = False
            for k in range(n_steps):
                if not dead:
                    xn = x + (-x * y - damp * eps * x) * h + amp * z1[i, k]
                    yn = y + (x * x - damp * eps * y) * h + amp * z2[i, k]
                    if (not math.isfinite(xn)) or (not math.isfinite(yn)) \
                            or abs(xn) > guard or abs(yn) > guard:
                        div[i] = True
                        dead = True
                    else:
                        x = xn
                        y = yn
                xs[i, k + 1] = x
                ys[i, k + 1] = y

    return kernel


# ---------------------------------------------------------------------------
# limit process, positivity-preserving direct scheme on s = y^2
# ---------------------------------------------------------------------------

def _limit_sq_em_np(y0, a_drift, b_drift, h, z, ys):
    n_paths, n_steps = z.shape
    sqrt_h = math.sqrt(h)
    s = np.full(n_paths, y0 * y0, dtype=np.float64)
    ys[:, 0] = y0
    for k in range(n_steps):
        s = s + (a_drift - b_drift * s) * h \
            + 2.0 * np.sqrt(s) * sqrt_h * z[:, k]
        s = np.abs(s)
        ys[:, k + 1] = np.sqrt(s)


def _make_limit_sq_em_nb():
    @njit(cache=True)
    def kernel(y0, a_drift, b_drift, h, z, ys):
        n_paths, n_steps = z.shape
        sqrt_h = math.sqrt(h)
        for i in range(n_paths):
            s = y0 * y0
            ys[i, 0] = y0
            for k in range(n_steps):
                s = s + (a_drift - b_drift * s) * h \
                    + 2.0 * math.sqrt(s) * sqrt_h * z[i, k]
                s = abs(s)
                ys[i, k + 1] = math.sqrt(s)

    return kernel


# ---------------------------------------------------------------------------
# exact sampler: radius of a 2-d unit-damping OU process from (0, y0)
# ---------------------------------------------------------------------------

def _ou2d_radius_np(y0, decay, sd, z1, z2, rs):
    n_paths, n_steps = z1.shape
    u = np.zeros(n_paths, dtype=np.float64)
    v = np.full(n_paths, y0, dtype=np.float64)
    rs[:, 0] = abs(y0)
    for k in range(n_steps):
        u = u * decay + sd * z1[:, k]
        v = v * decay + sd * z2[:, k]
        rs[:, k + 1] = np.hypot(u, v)


def _make_ou2d_radius_nb():
    @njit(cache=True)
    def kernel(y0, decay, sd, z1, z2, rs):
        n_paths, n_steps = z1.shape
        for i in range(n_paths):
            u = 0.0
            v = y0
            rs[i, 0] = abs(y0)
            for k in range(n_steps):
                u = u * decay + sd * z1[i, k]
                v = v * decay + sd * z2[i, k]
                rs[i, k + 1] = math.hypot(u, v)

    return kernel


# ---------------------------------------------------------------------------
# OU first-exit times with Brownian-bridge crossing detection
# ---------------------------------------------------------------------------

def _ou_exit_chunk_np(x, t, tau, done, z, u, lo, hi, decay, sd, h):
    n_paths, chunk = z.shape
    alive = ~done
    with np.errstate(over="ignore", under="ignore"):
        for k in range(chunk):
            xn = np.where(alive, x * decay + sd * z[:, k], x)
            crossed = np.zeros(n_paths, dtype=bool)
            if lo > -np.inf:
                p = np.exp(-2.0 * (x - lo) * (xn - lo) / h)
                crossed |= (xn <= lo) | (u[:, k, 0] < p)
            if hi < np.inf:
                p = np.exp(-2.0 * (hi - x) * (hi - xn) / h)
                crossed |= (xn >= hi) | (u[:, k, 1] < p)
            crossed &= alive
            tau[crossed] = t[crossed] + 0.5 * h
            done |= crossed
            t = np.where(alive, t + h, t)
            x = np.where(alive & ~crossed, xn, x)
            alive &= ~crossed
    return x, t


def _make_ou_exit_chunk_nb():
    @njit(cache=True)
    def kernel(x, t, tau, done, z, u, lo, hi, decay, sd, h):
        n_paths, chunk = z.shape
        for i in range(n_paths):
            if done[i]:
                continue
            xi = x[i]
            ti = t[i]
            for k in range(chunk):
                xn = xi * decay + sd * z[i, k]
                crossed = False
                if lo > -np.inf:
                    if xn <= lo:
                        crossed = True
                    else:
                        e = -2.0 * (xi - lo) * (xn - lo) / h
                        if u[i, k, 0] < math.exp(e):
                            crossed = True
                if (not crossed) and hi < np.inf:
                    if xn >= hi:
                        crossed = True
                    else:
                        e = -2.0 * (hi - xi) * (hi - xn) / h
                        if u[i, k, 1] < math.exp(e):
                            crossed = True
                ti += h
                if crossed:
                    tau[i] = ti - 0.5 * h
                    done[i] = True
                    break
                xi = xn
            x[i] = xi
            t[i] = ti
        return x, t

    return kernel


# ---------------------------------------------------------------------------
# up-crossing detection between the |y|=delta and |y|=2*delta levels
# ---------------------------------------------------------------------------

def _scan_crossings_np(ys, delta, tau_idx, sig_idx, n_tau, n_sig, overflow):
    n_paths, length = ys.shape
    two_delta = 2.0 * delta
    max_ev = tau_idx.shape[1]
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
                if nt >= max_ev:
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


def _make_scan_crossings_nb():
    @njit(cache=True)
    def kernel(ys, delta, tau_idx, sig_idx, n_tau, n_sig, overflow):
        n_paths, length = ys.shape
        two_delta = 2.0 * delta
        max_ev = tau_idx.shape[1]
        for i in range(n_paths):
            nt = 0
            ns = 0
            seeking_tau = True
            for k in range(length):
                a = abs(ys[i, k])
                if seeking_tau:
                    if a <= delta:
                        if nt >= max_ev:
                            overflow[i] = True
                            break
                        tau_idx[i, nt] = k
                        nt += 1
                        seeking_tau = False
                else:
                    if a >= two_delta:
                        sig_idx[i, ns] = k
                        ns += 1
                        seeking_tau = True
            n_tau[i] = nt
            n_sig[i] = ns

    return kernel


if NUMBA_ENABLED:
    rescaled_split = _make_rescaled_split_nb()
    rescaled_euler = _make_rescaled_euler_nb()
    slowtime_euler = _make_slowtime_euler_nb()
    limit_sq_em = _make_limit_sq_em_nb()
    ou2d_radius = _make_ou2d_radius_nb()
    ou_exit_chunk = _make_ou_exit_chunk_nb()
    scan_crossings = _make_scan_crossings_nb()
else:
    rescaled_split = _rescaled_split_np
    rescaled_euler = _rescaled_euler_np
    slowtime_euler = _slowtime_euler_np
    limit_sq_em = _limit_sq_em_np
    ou2d_radius = _ou2d_radius_np
    ou_exit_chunk = _ou_exit_chunk_np
    scan_crossings = _scan_crossings_np


def implementations() -> dict:
    """Both backend variants of each kernel, for benchmarks and tests."""
    numpy_impl = {
        "rescaled_split": _rescaled_split_np,
        "rescaled_euler": _rescaled_euler_np,
        "slowtime_euler": _slowtime_euler_np,
        "limit_sq_em": _limit_sq_em_np,
        "ou2d_radius": _ou2d_radius_np,
        "ou_exit_chunk": _ou_exit_chunk_np,
        "scan_crossings": _scan_crossings_np,
    }
    out = {"numpy": numpy_impl}
    if NUMBA_ENABLED:
        out["numba"] = {
            "rescaled_split": rescaled_split,
            "rescaled_euler": rescaled_euler,
            "slowtime_euler": slowtime_euler,
            "limit_sq_em": limit_sq_em,
            "ou2d_radius": ou2d_radius,
            "ou_exit_chunk": ou_exit_chunk,
            "scan_crossings": scan_crossings,
        }
    return out
