"""Seeded noise streams, uniform time grids and path records.

All randomness in the package flows through counter-based Philox streams
keyed by ``(master_seed, stream_id)``: the same key always reproduces the
same draws, and distinct stream ids give statistically independent
sequences regardless of scheduling or batching.  Each row of
``normal_matrix`` is a pure function of ``(master_seed, stream_id)`` and its
length: the batch it is drawn in, and the rows beside it, do not change it.

``normal_matrix`` draws a row in one of two ways, chosen by the row length
alone, and both give numpy's own ``standard_normal`` bits.  Rows longer than
one Philox4x64 block (four words) are drawn one stream at a time.  Shorter
rows are drawn for all streams at once: a numpy Philox4x64-10 computes each
stream's first block, and numpy's ziggurat fast path turns each word into a
draw.  The ziggurat's tables are read from numpy's generator on first use.
A row with any draw off the fast path is redrawn one stream at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_GUARD = 1.0e6
# Points per batch of the replica driver (model.batch_rows), and so the most
# points one path may hold: criterion 2 (838-row batches) takes 23.2-24.9 s
# and peaks at 210.7 MB.  2^22 would halve its batches to 419 rows, below
# the ~1000 lanes where the splitting kernel stops gaining (512 lanes at
# h = 1e-3: 85 against 52 ns/path-step at 1024, eps = 0.1).
BATCH_ELEMS = 1 << 23


@dataclass(frozen=True)
class RngStream:
    """One reproducible noise stream, keyed by (master_seed, stream_id)."""

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 (Salmon et al., SC'11) as numpy's Philox bit generator runs
# it: multipliers, Weyl key increments and rounds.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Rows of at most one Philox4x64 block of words are drawn all at once, in
# tiles of rows whose uint64 temporaries stay near cache size.
_BLOCK_WORDS = 4
_ROW_TILE = 1 << 14


def normal_matrix(master_seed: int, stream_ids: np.ndarray | list[int],
                  n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Stack independent N(0,1) rows, one stream per row.

    Row ``i`` equals ``standard_normal(n)`` from
    ``RngStream(master_seed, stream_ids[i]).generator()`` bit for bit: it
    is a pure function of ``(master_seed, stream_ids[i])`` and ``n``,
    whatever the batch.  The row length alone picks one of two paths:

    - rows of more than four draws are drawn one stream at a time;
    - rows of at most four draws read at most the first Philox block of
      their stream, and all rows take numpy's ziggurat fast path at once.
      A row with any draw off the fast path (the tail layer, the layer
      with no fast path, or a wedge test) is redrawn one stream at a time,
      because a rejection reads a variable number of words.

    ``out``, when given, is a float64 (len(stream_ids), n) array whose rows
    are contiguous, such as columns ``1:`` of a path buffer; the rows are
    drawn into it and it is returned.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    if out is None:
        out = np.empty((len(ids), n), dtype=np.float64)
    elif out.shape != (len(ids), n) or out.dtype != np.float64:
        raise ValueError(f"out must be float64 of shape {(len(ids), n)}, "
                         f"got {out.dtype} {out.shape}")
    if n > _BLOCK_WORDS:
        _stream_rows(master_seed, ids, out)
    else:
        _block_rows(master_seed, ids, out)
    return out


def _block_rows(master_seed: int, ids: np.ndarray, out: np.ndarray) -> None:
    """Fill rows of at most four draws from the first Philox block of each
    stream, as ``standard_normal`` would read it word by word."""
    wi, ki = _ziggurat_tables()
    n = out.shape[1]
    for start in range(0, len(ids), _ROW_TILE):
        tile = slice(start, start + _ROW_TILE)
        rows, tile_ids = out[tile], ids[tile]
        fast = np.ones(len(tile_ids), dtype=bool)
        for j, w in enumerate(_philox_block(master_seed, tile_ids)[:n]):
            layer = (w & 0xFF).astype(np.intp)
            rabs = (w >> 9) & ((1 << 52) - 1)
            x = rabs.astype(np.float64) * wi[layer]
            rows[:, j] = np.negative(x, out=x, where=(w & 0x100) != 0)
            fast &= rabs < ki[layer]
        slow = np.flatnonzero(~fast)
        redrawn = np.empty((len(slow), n))
        _stream_rows(master_seed, tile_ids[slow], redrawn)
        rows[slow] = redrawn


def _stream_rows(master_seed: int, ids: np.ndarray, out: np.ndarray) -> None:
    """Fill row ``i`` of ``out`` from stream ``ids[i]``, one row at a time.

    Philox is counter-based, so a stream is only a key and a counter; one
    bit generator is re-keyed per row, which is far cheaper than
    constructing one per row.
    """
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


def _mulhilo(m: int, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * a, for a
    constant m and a uint64 array a, from 32-bit limbs.  Array arithmetic
    wraps silently where scalar arithmetic would warn."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & 0xFFFFFFFF, a >> 32
    # neither partial sum can carry out of 64 bits
    t = a_lo * m_hi + ((a_lo * m_lo) >> 32)
    u = a_hi * m_lo + (t & 0xFFFFFFFF)
    hi = a_hi * m_hi + (t >> 32) + (u >> 32)
    return hi, a * np.uint64(m)


def _philox_block(master_seed: int, ids: np.ndarray) -> list[np.ndarray]:
    """The first block of four words of each stream: what
    ``np.random.Philox(key=[master_seed, sid]).random_raw(4)`` returns for
    every ``sid`` in ``ids``.

    numpy increments the counter before it computes a block, so the first
    block is at counter (1, 0, 0, 0).  On that counter the first round
    only moves the key into the counter words, which start at
    (master_seed, 0, sid, M0)."""
    k0, k1 = int(master_seed), ids
    c = [np.full_like(ids, k0), np.zeros_like(ids), ids,
         np.full_like(ids, _PHILOX_M[0])]
    for _ in range(_PHILOX_ROUNDS - 1):
        k0 = (k0 + _PHILOX_W[0]) % (1 << 64)
        k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c[2])
        c = [hi1 ^ c[1] ^ np.uint64(k0), lo1, hi0 ^ c[3] ^ k1, lo0]
    return c


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat layer widths ``wi`` and, per layer, a bound ``ki``
    below which every magnitude takes the fast path.

    ``standard_normal`` splits a word w into layer w & 0xff, sign bit 8
    and magnitude rabs = (w >> 9) & (2^52 - 1); it returns
    ±rabs * wi[layer] at once when rabs < ki[layer], and otherwise runs a
    tail or wedge test that reads more words.  Both tables are read from
    numpy's own generator, by planting a word at the head of its buffer:

    - ``wi[i]`` is the draw of magnitude 1 in layer i;
    - floor(2^52 wi[i-1] / wi[i]) bounds the fast-path limit of layer
      i >= 2 from below, and it is kept only if magnitude bound - 1 takes
      the fast path, that is, the draw reads one word and no new block.

    Layers without a kept bound (always 0 and 1, the tail and the layer
    with no fast path) get ki = 0: their draws always take the slow path.
    """
    gen = np.random.Generator(np.random.Philox(key=0))
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 0,
             "has_uint32": 0, "uinteger": 0}

    def draw(layer: int, rabs: int) -> tuple[float, bool]:
        state["buffer"][0] = (rabs << 9) | layer
        gen.bit_generator.state = state
        x = gen.standard_normal()
        after = gen.bit_generator.state
        return x, after["buffer_pos"] == 1 \
            and not after["state"]["counter"].any()

    layers = range(256)
    wi = np.array([draw(i, 1)[0] for i in layers])
    ki = np.zeros(256, dtype=np.uint64)
    for i in layers[2:]:
        bound = min(int(2.0 ** 52 * wi[i - 1] / wi[i]), 1 << 52)
        if bound > 0 and draw(i, bound - 1)[1]:
            ki[i] = bound
    # cached for the process and shared by every caller
    wi.flags.writeable = ki.flags.writeable = False
    return wi, ki


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with n_steps steps of size step: the
    one place a run states its horizon.  The horizon must be a whole number
    of steps, so the last point is the horizon to rounding (0.7 + 1.1e-16
    at T = 0.7, h = 1e-3).  A grid holds at most BATCH_ELEMS points."""

    horizon: float
    step: float
    n_steps: int = field(init=False)

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        ratio = self.horizon / self.step
        if not math.isfinite(ratio):
            raise ValueError(f"horizon {self.horizon} / step {self.step} "
                             f"is not a finite number of steps")
        n = round(ratio)
        if n + 1 > BATCH_ELEMS:
            raise ValueError(f"{ratio:.3g} steps of {self.step}: a path "
                             f"holds at most {BATCH_ELEMS} points")
        # 1e-9 forgives the float noise of horizon / step
        if n < 1 or abs(ratio - n) > 1e-9:
            raise ValueError(f"horizon {self.horizon} is not a whole number "
                             f"of steps of {self.step}")
        object.__setattr__(self, "n_steps", n)

    def times(self) -> np.ndarray:
        return self.step * np.arange(self.n_steps + 1)


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

