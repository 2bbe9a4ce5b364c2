"""Spans and exact work counts around the calls into each ``ablab`` layer.

The tracer replaces each layer function under the name its caller looks it
up by (``ablab.model.normal_matrix``, ``ablab._kernels.rescaled_split``,
...) with a wrapper that records a span and, after the span has ended,
updates the layer's counters from the call's arguments and outputs.  No
source module is changed; ``Tracer.installed()`` puts the originals back.

A span is (name, start, end, parent index).  Spans stay in memory until the
benchmark writes them out.  A layer's self time is the summed duration of
its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import time
from collections import defaultdict
from typing import Callable

import numpy as np
from ablab._kernels import MAX_SUBSTEPS

# span of the tracer's own argument binding and counting
COUNTING = "trace.counting"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(dict)
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(dict)
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, before=None, count=None,
             rewrite=None) -> Callable:
        """Wrap fn in a span.

        ``rewrite(tracer, bound)`` may replace arguments (e.g. wrap a
        callback) before the call.  ``before(counters, arguments)`` counts
        what the arguments alone determine, even if the call then raises,
        and returns state for ``count(counters, arguments, out, state)``,
        which runs after a normal return.  Both run in spans of their own
        (``COUNTING``), so the tracer's work is charged neither to the layer
        nor to its caller.
        """
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(COUNTING):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if rewrite is not None:
                    rewrite(self, bound)
                state = None if before is None \
                    else before(self.counts[name], bound.arguments)
            with self.span(name):
                out = fn(*bound.args, **bound.kwargs)
            if count is not None:
                with self.span(COUNTING):
                    count(self.counts[name], bound.arguments, out, state)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function of LAYERS while inside the block."""
        saved = []
        try:
            for module_name, attr, name, hooks in LAYERS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, **hooks))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return dict(out)

    def exact_counts(self) -> dict[str, dict[str, float]]:
        return {k: dict(v) for k, v in sorted(self.counts.items())}


# ---------------------------------------------------------------------------
# counters, computed from call arguments and outputs
# ---------------------------------------------------------------------------

def _add(c: dict, key: str, value) -> None:
    c[key] = c.get(key, 0) + int(value)


def _peak(c: dict, key: str, value) -> None:
    c[key] = max(c.get(key, 0), int(value))


def _count_noise(c, a, out, state):
    _add(c, "rows", len(a["stream_ids"]))
    _add(c, "draws", len(a["stream_ids"]) * a["n"])


def _count_ou2d(c, a, out, state):
    _add(c, "path_steps", a["z1"].size)


def _count_split(c, a, out, state):
    # The kernel's own substep rule, applied to the x it started each step
    # from; dead paths are included, as the kernel computes nsub for them.
    z1 = a["z1"]
    x = a["xs"][:, :-1]
    with np.errstate(invalid="ignore", over="ignore"):
        raw = (np.abs(x) * a["inv_eps"] * a["h"] / a["dtheta_max"]) \
            .astype(np.int64) + 1
    nsub = np.clip(raw, 1, MAX_SUBSTEPS)
    _add(c, "path_steps", z1.size)
    _add(c, "substeps", nsub.sum())
    _add(c, "cap_hits", np.count_nonzero(raw >= MAX_SUBSTEPS))
    _add(c, "diverged", np.count_nonzero(a["div"]))


def _exit_before(c, a):
    return a["t"].copy()


def _count_exit(c, a, out, t_before):
    _, t_after = out
    _add(c, "path_steps", a["z"].size)
    _add(c, "steps_taken", np.rint((t_after - t_before) / a["h"]).sum())


def _wrap_reduce_fn(tracer, bound):
    bound.arguments["reduce_fn"] = tracer.wrap(
        "analysis.reduce_fn", bound.arguments["reduce_fn"])


def _count_rescaled_reduce(c, a, out, state):
    # per batch: z1, z2 (nb x steps), xs, ys (nb x steps+1), div (nb bools)
    nb = min(a["batch_size"], a["n_replicas"])
    steps = a["grid"].n_steps
    _peak(c, "path_bytes", nb * (2 * steps * 8 + 2 * (steps + 1) * 8 + 1))


def _count_limit_reduce(c, a, out, state):
    # per batch: z1, z2 (nb x steps), rs (nb x steps+1)
    nb = min(a["batch_size"], a["n_replicas"])
    steps = a["grid"].n_steps
    _peak(c, "path_bytes", nb * (2 * steps * 8 + (steps + 1) * 8))


def _count_exit_mc(c, a):
    # standard normals (n x chunk) plus uniform pairs (n x chunk x 2)
    _peak(c, "buffer_bytes", a["n"] * a["chunk"] * 3 * 8)


def _count_pde(c, a, out, state):
    # the solver's step rule: each snapshot interval, then the remainder
    grid = a["grid"]
    snaps = a["snapshot_times"]
    snaps = [grid.t_final] if snaps is None else sorted(map(float, snaps))
    steps, t_prev = 0, 0.0
    for t in snaps:
        if t - t_prev > 0.0:
            steps += max(1, math.ceil((t - t_prev) / grid.dt - 1e-12))
        t_prev = t
    if t_prev < grid.t_final * (1 - 1e-12):
        steps += max(1, math.ceil((grid.t_final - t_prev) / grid.dt - 1e-12))
    _add(c, "node_steps", steps * grid.n_points)


_NOISE = dict(count=_count_noise)
_KERNELS = [
    ("rescaled_split", dict(count=_count_split)),
    ("rescaled_euler", {}),
    ("slowtime_euler", {}),
    ("limit_sq_em", {}),
    ("ou2d_radius", dict(count=_count_ou2d)),
    ("ou_exit_chunk", dict(before=_exit_before, count=_count_exit)),
    ("scan_crossings", {}),
]

# (module, attribute, span name, hooks): each layer function under the name
# its caller looks it up by.
LAYERS = [
    ("ablab.model", "normal_matrix", "sde.normal_matrix", _NOISE),
    ("ablab.limit", "normal_matrix", "sde.normal_matrix", _NOISE),
    *[("ablab._kernels", k, f"kernels.{k}", hooks) for k, hooks in _KERNELS],
    ("ablab.analysis", "rescaled_reduce", "model.rescaled_reduce",
     dict(rewrite=_wrap_reduce_fn, count=_count_rescaled_reduce)),
    ("ablab.pde", "rescaled_reduce", "model.rescaled_reduce",
     dict(rewrite=_wrap_reduce_fn, count=_count_rescaled_reduce)),
    ("ablab.analysis", "limit_exact_reduce", "limit.limit_exact_reduce",
     dict(rewrite=_wrap_reduce_fn, count=_count_limit_reduce)),
    ("ablab.limit", "limit_exact_terminal", "limit.limit_exact_terminal", {}),
    ("ablab.pde", "limit_exact_terminal", "limit.limit_exact_terminal", {}),
    ("ablab.analysis", "generator_apply", "limit.generator_apply", {}),
    ("ablab.analysis", "_scan_batch", "analysis._scan_batch", {}),
    ("ablab.analysis", "ou_exit_mc", "analysis.ou_exit_mc",
     dict(before=_count_exit_mc)),
    ("ablab.analysis", "ou_exit_two_sided", "analysis.quadrature", {}),
    ("ablab.analysis", "ou_exit_one_sided", "analysis.quadrature", {}),
    ("ablab.pde", "solve_limit_pde", "pde.solve_limit_pde",
     dict(count=_count_pde)),
]
