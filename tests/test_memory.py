"""Peak memory of the estimators that set the package's peaks.

numpy reports its buffers to ``tracemalloc``, so the traced peak of one
call bounds what a batch of paths, a reducer's row block and a slice of
exit-time draws hold at once.
"""

import tracemalloc

from ablab.analysis import martingale_residual_limit, ou_exit_mc
from ablab.limit import gauss_bump

MB = 1 << 20


def _peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def test_exit_time_draws_come_in_row_slices():
    # a whole first chunk of 20 000 paths is 20 000 x 512 x 3 doubles
    # (246 MB); row slices hold a few MB of draws at a time
    assert _peak_mb(ou_exit_mc, 0.1, "two_sided", 20_000, 7) < 64


def test_reducer_runs_on_row_blocks():
    # the T = 10 control: one batch of 256 paths of 10 001 points (20 MB
    # per array); A f on the whole batch built about seven more such
    # temporaries, on row blocks they are cache-sized
    assert _peak_mb(martingale_residual_limit, 0.1, gauss_bump(), 10.0,
                    256, 74) < 100
