"""The limiting process: a damped 2-d radial Bessel diffusion.

On (0, inf) the process solves dY = (1/(2Y) - Y) dt + dW and is exactly the
radius of a two-dimensional unit-damping OU process, which gives an
exact-in-law sampler with no discretization bias.  Its generator is

    A f(y) = f''(y)/2 + (1/(2y) - y) f'(y),   y > 0,

extended to y = 0 by the limit value and set to 0 for y < 0.  Functions in
the generator's domain have one-sided derivative vanishing at 0+, which is
what makes the origin inaccessible.  Inaccessible means the origin is never
hit, not that small neighbourhoods of it are avoided: at stationarity
P(Y < delta) = 1 - e^{-delta^2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import _kernels
from .model import replica_reduce
# not called here: the benchmark tracer wraps normal_matrix by this name
from .sde import TimeGrid, normal_matrix  # noqa: F401

VARIANTS = ("damped", "no_dissipation")


@dataclass(frozen=True)
class TestFunction:
    """A test function with closed-form derivatives.

    ``df_over_y_limit0`` is the analytic limit of f'(y)/y at 0+, supplied in
    closed form because the generator's value at the origin hinges on it.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    d2f: Callable[[np.ndarray], np.ndarray]
    df_over_y_limit0: float | None
    in_domain: bool

    def __call__(self, y):
        return self.f(y)


def gauss_bump() -> TestFunction:
    e = lambda y: np.exp(-np.square(y))
    return TestFunction(
        name="exp(-y^2)",
        f=e,
        df=lambda y: -2.0 * y * e(y),
        d2f=lambda y: (4.0 * np.square(y) - 2.0) * e(y),
        df_over_y_limit0=-2.0,
        in_domain=True,
    )


def lorentzian() -> TestFunction:
    return TestFunction(
        name="1/(1+y^2)",
        f=lambda y: 1.0 / (1.0 + np.square(y)),
        df=lambda y: -2.0 * y / (1.0 + np.square(y)) ** 2,
        d2f=lambda y: (6.0 * np.square(y) - 2.0) / (1.0 + np.square(y)) ** 3,
        df_over_y_limit0=-2.0,
        in_domain=True,
    )


def square_fn() -> TestFunction:
    # unbounded: pointwise tests only
    return TestFunction(
        name="y^2",
        f=lambda y: np.square(y),
        df=lambda y: 2.0 * y,
        d2f=lambda y: 2.0 * np.ones_like(np.asarray(y, dtype=np.float64)),
        df_over_y_limit0=2.0,
        in_domain=True,
    )


def cos_square() -> TestFunction:
    return TestFunction(
        name="cos(y^2)",
        f=lambda y: np.cos(np.square(y)),
        df=lambda y: -2.0 * y * np.sin(np.square(y)),
        d2f=lambda y: -2.0 * np.sin(np.square(y))
        - 4.0 * np.square(y) * np.cos(np.square(y)),
        df_over_y_limit0=0.0,
        in_domain=True,
    )


# The shipped test functions by CLI name; all satisfy f'(0) = 0.
TEST_FUNCTIONS = {"exp": gauss_bump(), "inv": lorentzian(),
                  "y2": square_fn(), "cos": cos_square()}


@dataclass(frozen=True)
class LimitParams:
    """Start and variant of the limit process; the horizon is the grid's."""

    y0: float
    variant: str = "damped"

    def __post_init__(self):
        if not self.y0 > 0.0:
            raise ValueError("y0 must be positive (the origin is never hit)")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")


def radial_drift(y):
    """The drift 1/(2y) - y of the damped limit at y > 0."""
    return 0.5 / y - y


def generator_apply(f: TestFunction, y):
    """A f at y: the displayed formula for y > 0, its limit at 0, 0 below."""
    arr = np.asarray(y, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    pos = arr > 0.0
    if pos.any():
        yp = arr[pos]
        out[pos] = 0.5 * f.d2f(yp) + radial_drift(yp) * f.df(yp)
    zero = arr == 0.0
    if zero.any():
        if not f.in_domain or f.df_over_y_limit0 is None:
            raise ValueError(
                f"{f.name}: generator limit at 0 needs f'(y)/y -> const")
        out[zero] = 0.5 * f.d2f(np.zeros(1))[0] + 0.5 * f.df_over_y_limit0
    return float(out[0]) if scalar else out


def _drift_coeffs(variant: str) -> tuple[float, float]:
    # d(Y^2) = (a - b Y^2) dt + 2|Y| dW
    if variant == "damped":
        return 2.0, 2.0
    return 3.0, 0.0


def _em_advance(p: LimitParams, grid: TimeGrid, z1, z2):
    """Direct discretization, positivity-preserving: (ys,) from one batch
    of draws.  It reads z1 only.

    The square S = Y^2 satisfies dS = (a - b S) dt + 2 sqrt(S) dW with
    (a, b) = (2, 2) for the damped variant and (3, 0) without dissipation;
    S is stepped explicitly, reflecting rare negative excursions, and the
    path returned is sqrt(S) > 0.
    """
    ys = np.empty((z1.shape[0], grid.n_steps + 1))
    a, b = _drift_coeffs(p.variant)
    _kernels.limit_sq_em(p.y0, a, b, grid.step, z1, ys)
    return (ys,)


def _exact_step_coeffs(h: float) -> tuple[float, float]:
    decay = math.exp(-h)
    sd = math.sqrt(-math.expm1(-2.0 * h) / 2.0)
    return decay, sd


def _exact_advance(y0: float, decay, sd, z1, z2):
    """Exact-in-law sampler: (rs,) from one batch of draws, the radius of
    the 2-d OU process dZ = -Z dt + dW from Z0 = (0, y0), stepped by exact
    Gaussian transitions with ``(decay, sd)`` per step or for every step."""
    rs = np.empty((z1.shape[0], z1.shape[1] + 1))
    _kernels.ou2d_radius(y0, decay, sd, z1, z2, rs)
    return (rs,)


def limit_exact_reduce(p: LimitParams, grid: TimeGrid, master_seed: int,
                       n_replicas: int, reduce_fn,
                       batch_size: int | None = None) -> dict:
    """``replica_reduce`` over the exact sampler; ``reduce_fn(times, rs)``."""
    if p.variant != "damped":
        raise ValueError("exact sampler exists for the damped variant only")
    advance = partial(_exact_advance, p.y0, *_exact_step_coeffs(grid.step))
    return replica_reduce(advance, grid.times(), master_seed, n_replicas,
                          reduce_fn, batch_size)


def limit_exact_terminal(y0: float, times, n: int,
                         master_seed: int) -> np.ndarray:
    """Exact draws of the damped radial process at the given times.

    Jumps the underlying 2-d OU process through the strictly increasing
    ``times`` in single exact transitions; returns shape (n, len(times)).
    Draw i is replica i of ``replica_reduce``.
    """
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if not (np.diff(times) > 0.0).all() or times[0] <= 0.0:
        raise ValueError("times must be strictly increasing and positive")
    ts = np.concatenate([[0.0], times])
    decay, sd = zip(*(_exact_step_coeffs(t - t_prev)
                      for t_prev, t in zip(ts[:-1], ts[1:])))
    out = replica_reduce(partial(_exact_advance, y0, decay, sd), ts,
                         master_seed, n, lambda _, rs: {"rs": rs})
    return out["rs"][:, 1:]


def expected_square(y0: float, t):
    """Closed-form E[Y_t^2] of the damped variant from the generator applied
    to y^2: d/dt E[Y^2] = 2 - 2 E[Y^2], so E[Y_t^2] = 1 + (y0^2 - 1)e^{-2t}.
    """
    t = np.asarray(t, dtype=np.float64)
    return 1.0 + (y0 * y0 - 1.0) * np.exp(-2.0 * t)


def stationary_square_cdf(s):
    """Stationary CDF of Y^2 (damped variant): Exp(1), i.e. 1 - e^{-s}."""
    return -np.expm1(-np.asarray(s, dtype=np.float64))


def stationary_mean() -> float:
    """Stationary E[Y] for the damped variant: sqrt(pi)/2."""
    return math.sqrt(math.pi) / 2.0
