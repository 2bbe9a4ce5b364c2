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


@dataclass(frozen=True)
class TestFunction:
    """A test function f with f'(0+) = 0 and its generator in closed form.

    ``af`` is A f on y > 0, written as f''/2 + radial_drift * f' with the
    factors that f' and f'' share computed once.  ``af0`` is A f(0+) =
    (f''(0) + lim f'(y)/y) / 2, the generator's value at the origin.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    af: Callable[[np.ndarray], np.ndarray]
    af0: float

    def __call__(self, y):
        return self.f(y)


def gauss_bump() -> TestFunction:
    def af(y):
        s = np.square(y)
        ey = np.exp(-s)
        return 0.5 * ((4.0 * s - 2.0) * ey) \
            + radial_drift(y) * (-2.0 * y * ey)

    return TestFunction("exp(-y^2)", lambda y: np.exp(-np.square(y)), af,
                        af0=-2.0)


def lorentzian() -> TestFunction:
    def af(y):
        s = np.square(y)
        q = 1.0 + s
        return 0.5 * ((6.0 * s - 2.0) / q ** 3) \
            + radial_drift(y) * (-2.0 * y / q ** 2)

    return TestFunction("1/(1+y^2)", lambda y: 1.0 / (1.0 + np.square(y)),
                        af, af0=-2.0)


def square_fn() -> TestFunction:
    # unbounded: pointwise tests only
    return TestFunction(
        "y^2", np.square,
        lambda y: 0.5 * (2.0 * np.ones_like(y)) + radial_drift(y) * (2.0 * y),
        af0=2.0)


def cos_square() -> TestFunction:
    def af(y):
        s = np.square(y)
        sin_s = np.sin(s)
        return 0.5 * (-2.0 * sin_s - 4.0 * s * np.cos(s)) \
            + radial_drift(y) * (-2.0 * y * sin_s)

    return TestFunction("cos(y^2)", lambda y: np.cos(np.square(y)), af,
                        af0=0.0)


# The shipped test functions by CLI name; all satisfy f'(0) = 0.
TEST_FUNCTIONS = {"exp": gauss_bump(), "inv": lorentzian(),
                  "y2": square_fn(), "cos": cos_square()}


@dataclass(frozen=True)
class LimitParams:
    """Start of the limit process; the horizon is the grid's."""

    y0: float

    def __post_init__(self):
        if not 0.0 < self.y0 < math.inf:
            raise ValueError("y0 must be positive and finite (0 is never hit)")


def radial_drift(y):
    """The drift 1/(2y) - y of the damped limit at y > 0."""
    return 0.5 / y - y


# Points per tile of generator_apply.  On a 262 x 1001 block, A f cost
# 38-45 ns/point through a boolean gather of the whole block, 21-35 with
# np.where on the whole block, and 11-18 on tiles of 4096-16384 points,
# where each temporary of the closed form fits in cache (2-core x86-64 VM).
_GENERATOR_TILE = 1 << 14


def generator_apply(f: TestFunction, y):
    """A f at y: the displayed formula for y > 0, its limit at 0, 0 below.

    ``f.af`` runs on every point of a tile and ``where`` keeps its values
    at y > 0 only; af is elementwise, so each kept value has the bits it
    has on the positive points alone.  The values thrown away include
    0.5/y at y = 0 and the products it feeds, hence the errstate.
    """
    arr = np.asarray(y, dtype=np.float64)
    out = np.empty(arr.shape)  # C-contiguous, so its flat view is a view
    flat, out_flat = arr.reshape(-1), out.reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, flat.size, _GENERATOR_TILE):
            tile = flat[start:start + _GENERATOR_TILE]
            dest = out_flat[start:start + _GENERATOR_TILE]
            dest[...] = np.where(tile > 0.0, f.af(tile), 0.0)
            dest[tile == 0.0] = f.af0
    return out


def _exact_step_coeffs(h: float) -> tuple[float, float]:
    decay = math.exp(-h)
    sd = math.sqrt(-math.expm1(-2.0 * h) / 2.0)
    return decay, sd


def _exact_advance(y0: float, decay, sd, b1, b2):
    """Exact-in-law sampler: (rs,) from one batch of draws, written over
    the draws in b1, the radius of the 2-d OU process dZ = -Z dt + dW from
    Z0 = (0, y0), stepped by exact Gaussian transitions with ``(decay,
    sd)`` per step or for every step.  b2 is dropped when this returns."""
    _kernels.ou2d_radius(y0, decay, sd, b1[:, 1:], b2[:, 1:], b1)
    return (b1,)


def limit_exact_reduce(p: LimitParams, grid: TimeGrid, master_seed: int,
                       n_replicas: int, reduce_fn,
                       batch_size: int | None = None) -> dict:
    """``replica_reduce`` over the exact sampler; ``reduce_fn(times, rs)``."""
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
    """Closed-form E[Y_t^2] from the generator applied to y^2:
    d/dt E[Y^2] = 2 - 2 E[Y^2], so E[Y_t^2] = 1 + (y0^2 - 1)e^{-2t}.
    """
    t = np.asarray(t, dtype=np.float64)
    return 1.0 + (y0 * y0 - 1.0) * np.exp(-2.0 * t)


def stationary_square_cdf(s):
    """Stationary CDF of Y^2: Exp(1), i.e. 1 - e^{-s}."""
    return -np.expm1(-np.asarray(s, dtype=np.float64))


def stationary_mean() -> float:
    """Stationary E[Y]: sqrt(pi)/2."""
    return math.sqrt(math.pi) / 2.0
