"""Seeded noise streams, uniform time grids and path records.

All randomness in the package flows through counter-based Philox streams
keyed by ``(master_seed, stream_id)``: the same key always reproduces the
same draws, and distinct stream ids give statistically independent
sequences regardless of scheduling or batching.  Each row of
``normal_matrix`` is a pure function of ``(master_seed, stream_id)`` and its
length: the batch it is drawn in, and the rows beside it, do not change it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_GUARD = 1.0e6


@dataclass(frozen=True)
class RngStream:
    """One reproducible noise stream, keyed by (master_seed, stream_id)."""

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def normal_matrix(master_seed: int, stream_ids: np.ndarray | list[int],
                  n: int) -> np.ndarray:
    """Stack independent N(0,1) rows, one stream per row.

    Row ``i`` equals ``standard_normal(n)`` from
    ``RngStream(master_seed, stream_ids[i]).generator()`` bit for bit: it
    is a pure function of ``(master_seed, stream_ids[i])`` and ``n``,
    whatever the batch.  Philox is counter-based, so a stream is
    only a key and a counter; one bit generator is re-keyed per row, which
    is far cheaper than constructing one per row.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    out = np.empty((len(ids), n), dtype=np.float64)
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    # The state setter copies these values, so one dict serves every row.
    # Plain ints, not arrays: the setter indexes them element by element.
    # An empty buffer (buffer_pos 4) and no cached uint32 start each row on
    # a fresh stream, exactly as a newly constructed Philox does.
    key = [int(master_seed), 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for row, sid in zip(out, ids.tolist()):
        key[1] = sid
        bitgen.state = state
        gen.standard_normal(out=row)
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid covering [t0, horizon] with n_steps steps of size step."""

    t0: float
    horizon: float
    step: float
    n_steps: int = field(init=False)

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        span = self.horizon - self.t0
        if not span > 0.0:
            raise ValueError("horizon must exceed t0")
        # tolerate float noise in span/step before taking the ceiling
        n = math.ceil(span / self.step - 1e-9)
        object.__setattr__(self, "n_steps", max(n, 1))

    def times(self) -> np.ndarray:
        return self.t0 + self.step * np.arange(self.n_steps + 1)


@dataclass
class PathSample:
    """A single trajectory on a grid, with its RNG provenance."""

    grid: TimeGrid
    states: np.ndarray  # (n_steps + 1, d)
    master_seed: int
    stream_ids: tuple[int, ...]
    scheme: str
    diverged: bool = False

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=np.float64))
        if self.states.shape[0] != self.grid.n_steps + 1:
            raise ValueError("states length must equal n_steps + 1")
        if not self.diverged and not np.isfinite(self.states).all():
            raise ValueError("non-finite states in a path not flagged diverged")

