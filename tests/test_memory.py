"""Peak memory of the estimators that set the package's peaks.

numpy reports its buffers to ``tracemalloc``, so the traced peak of one
call bounds what a batch of paths, a reducer's row block, a slice of
exit-time draws and a tile of short noise rows hold at once.  A batch
draws its noise into the path buffers its kernel then overwrites, so it
holds one path-sized array per stream.  The generator A f runs on
cache-sized tiles of the reducer's row block, so beyond its output it holds
a few tile-sized temporaries.

scipy is imported at the first exit-time quadrature, and that import alone
traces about 27 MB, so the oracles run once before any peak is traced.
"""

import tracemalloc

import numpy as np
import pytest

from ablab.analysis import martingale_residual, martingale_residual_limit, \
    ou_exit_mc, ou_exit_one_sided, ou_exit_two_sided
from ablab.limit import gauss_bump, generator_apply, lorentzian
from ablab.model import ModelParams, rescaled_reduce, terminal_state
from ablab.sde import TimeGrid, normal_matrix

MB = 1 << 20


@pytest.fixture(autouse=True, scope="module")
def _oracles_loaded():
    ou_exit_two_sided(0.1)
    ou_exit_one_sided(0.1)


def _peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def test_exit_time_draws_come_in_row_slices():
    # a whole first chunk of 20 000 paths is 20 000 x 512 x 3 doubles
    # (246 MB); slices of 512 rows drawn into two buffers hold 6 MB of
    # draws (9.1 MB in all), and drawing each slice anew, while the last
    # slice's draws were still bound, held 10.8 MB
    assert _peak_mb(ou_exit_mc, 0.1, "two_sided", 20_000, 7) < 10


def test_reducer_runs_on_row_blocks():
    # the T = 10 control: one batch of 256 paths of 10 001 points (19.5 MB
    # per array), two buffers while the kernel runs; A f on the whole batch
    # built about seven more such temporaries, on row blocks of 2^18 points
    # they are 2 MB each, and on the generator's tiles 128 kB
    assert _peak_mb(martingale_residual_limit, 0.1, gauss_bump(), 10.0,
                    256, 74) < 42


def test_generator_holds_its_output_and_tiles():
    # 2^18 points, the size of a reducer's row block: the output is 2 MB;
    # a boolean gather of the whole block held 11-13 MB
    y = np.random.default_rng(3).normal(0.5, 2.0, 1 << 18)
    assert _peak_mb(generator_apply, lorentzian(), y) < 3.5


def test_martingale_residual_holds_no_block_sized_generator_temporaries():
    # fastslow's shape, 1024 paths of 1001 points: two 8 MB path buffers,
    # then the reducer's 2^18-point row blocks; a boolean gather of A f
    # on a row block added about 13 MB (34 MB in all)
    assert _peak_mb(martingale_residual, ModelParams(epsilon=1e-2),
                    lorentzian(), 1.0, 1024, 72) < 24


def test_terminal_reducer_holds_two_path_arrays():
    # one batch of 2000 paths of 1001 points: the draws are written over
    # by xs and ys, so the batch holds two such arrays, not four
    n, grid = 2000, TimeGrid(1.0, 1e-3)
    path_mb = n * (grid.n_steps + 1) * 8 / MB
    assert _peak_mb(rescaled_reduce, ModelParams(epsilon=0.1), grid, 11, n,
                    terminal_state) < 2.5 * path_mb


def test_short_noise_rows_come_in_row_tiles():
    # the output of 2^21 three-draw rows is 48 MB; whole-batch uint64
    # temporaries of the Philox rounds would be hundreds of MB
    ids = np.arange(1 << 21, dtype=np.uint64)
    assert _peak_mb(normal_matrix, 5, ids, 3) < 48 + 4
