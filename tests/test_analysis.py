import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ablab import _kernels, analysis, limit, model
from ablab.analysis import (MOMENT_SCALING_LADDER, MOMENT_SCALING_WINDOW,
                            ExcursionRecord, ScalingFit, StatReport,
                            _excursion_rows, _scan_batch, crossing_stats,
                            excursion_anatomy, excursion_probability,
                            ks_critical_value, ks_one_sample, ks_statistic,
                            martingale_residual,
                            martingale_residual_limit, martingale_residuals,
                            ou_exit_mc, ou_exit_one_sided, ou_exit_two_sided,
                            terminal_law_gap, x_collapse_gap,
                            x_second_moment, x_second_moment_scaling)
from ablab.limit import gauss_bump
from ablab.model import ModelParams, _rescaled_advance, draw_buffer
from ablab.pde import cauchy_2d_mc
from ablab.sde import TimeGrid


def scan_oracle(y, delta):
    """Brute-force index-by-index reading of the stopping times."""
    taus, sigmas = [], []
    seeking_tau = True
    for i, v in enumerate(y):
        if seeking_tau and abs(v) <= delta:
            taus.append(i)
            seeking_tau = False
        elif not seeking_tau and abs(v) >= 2 * delta:
            sigmas.append(i)
            seeking_tau = True
    return taus, sigmas


def padded(rows, delta):
    """The rows as one batch, padded to one length with a value inside the
    band's gap (delta < |y| < 2 delta), which starts no crossing."""
    ys = np.full((len(rows), max(len(r) for r in rows)), 1.5 * delta)
    for i, r in enumerate(rows):
        ys[i, :len(r)] = r
    return ys


def scan_rows(rows, delta):
    """Run _scan_batch on the rows as one batch.  Returns (taus, sigmas)
    index lists per row."""
    return [([i for i, _ in visits], [j for _, j in visits if j is not None])
            for visits in _scan_batch(padded(rows, delta), delta)]


def assert_rows_match_oracle(rows, delta):
    for row, got in zip(rows, scan_rows(rows, delta)):
        assert got == scan_oracle(row, delta)


def test_detect_constant_path_no_crossings():
    rows = [np.full(50, 0.9), np.full(50, -0.9), np.full(50, 0.61)]
    assert scan_rows(rows, delta=0.3) == [([], [])] * 3


def test_detect_sawtooth_known_indices():
    delta = 0.3
    y = np.array([1.0, 0.8, 0.25, 0.1, 0.4, 0.7, 0.9, 0.2, 0.5])
    # tau at index 2 (|y|<=0.3), sigma at index 5 (|y|>=0.6), tau at 7;
    # the same path mirrored, and a constant row, in the same batch
    got = scan_rows([y, -y, np.full(9, 0.9)], delta)
    assert got == [([2, 7], [5]), ([2, 7], [5]), ([], [])]


def test_detect_matches_scan_oracle_on_brownian_path():
    rng = np.random.default_rng(42)
    rows = [np.cumsum(math.sqrt(1e-3) * rng.standard_normal(10_000)) + y0
            for y0 in (1.0, 0.0, -0.7, 2.5)]
    assert_rows_match_oracle(rows, 0.5)
    # each row's reading does not depend on the rows batched with it
    for row in rows:
        assert scan_rows([row], 0.5) == [scan_oracle(row, 0.5)]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=2,
                         max_size=120), min_size=1, max_size=4),
       st.floats(0.05, 1.0))
def test_stopping_record_interleaving_property(rows, delta):
    for taus, sigmas in scan_rows(rows, delta):
        assert len(taus) - 1 <= len(sigmas) <= len(taus)
        assert all(t < s for t, s in zip(taus, sigmas))
        assert all(s < t for s, t in zip(sigmas, taus[1:]))
    assert_rows_match_oracle(rows, delta)


def test_scan_batch_reads_every_crossing_of_a_zigzag():
    # a 10,001-point zigzag enters the band at every even index and leaves
    # it at every odd one: 5,001 taus and 5,000 sigmas, all read, beside a
    # constant row that has none
    delta = 0.3
    zigzag = np.append(np.tile([0.0, 1.0], 5000), 0.0)
    assert zigzag.size == 10_001
    got = scan_rows([zigzag, np.full(10_001, 0.9)], delta)
    assert got == [(list(range(0, 10_001, 2)), list(range(1, 10_001, 2))),
                   ([], [])]


def test_scan_crossings_kernel_keeps_the_walks_first_visits():
    # the fixed-width kernel that only the layer timings call: each row
    # keeps the first `width` visits of the walk, and a row with more is
    # flagged
    delta, width = 0.3, 4
    rng = np.random.default_rng(5)
    rows = [np.append(np.tile([0.0, 1.0], width), 0.0),  # width + 1 taus
            np.tile([0.0, 1.0], width),  # exactly width visits
            np.tile([0.0, 1.0], 3 * width),
            np.full(9, 0.9),
            np.cumsum(math.sqrt(1e-3) * rng.standard_normal(2000)) + 0.5]
    ys = padded(rows, delta)
    n = len(rows)
    tau_idx = np.zeros((n, width), dtype=np.int64)
    sig_idx = np.zeros((n, width), dtype=np.int64)
    n_tau, n_sig = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    overflow = np.zeros(n, dtype=bool)
    _kernels.scan_crossings(ys, delta, tau_idx, sig_idx, n_tau, n_sig,
                            overflow)
    walks = _scan_batch(ys, delta)
    assert overflow.tolist() == [len(v) > width for v in walks]
    assert overflow[:4].tolist() == [True, False, True, False]
    for r, visits in enumerate(walks):
        kept = visits[:width]
        assert tau_idx[r, :n_tau[r]].tolist() == [i for i, _ in kept]
        assert sig_idx[r, :n_sig[r]].tolist() \
            == [j for _, j in kept if j is not None]


def test_stat_report_basics():
    rep = StatReport.from_samples(np.array([1.0, 2.0, 3.0]), tag="t")
    assert rep.estimate == 2.0 and rep.n_replicas == 3
    assert rep.std_error == pytest.approx(1.0 / math.sqrt(3))
    with pytest.raises(ValueError):
        StatReport(estimate=0.0, std_error=0.0, n_replicas=1)


def test_scaling_fit_validation_and_slope():
    eps = [0.1, 0.01, 0.001]
    est = [0.1 ** 0.9, 0.01 ** 0.9, 0.001 ** 0.9]
    fit = ScalingFit.from_points(eps, est, [1e-4, 1e-5, 1e-6])
    assert fit.slope == pytest.approx(0.9, abs=1e-12)
    with pytest.raises(ValueError):
        ScalingFit.from_points([0.1, 0.2, 0.3], est, [1, 1, 1])


def test_x_second_moment_bound_and_preconditions():
    p = ModelParams(epsilon=1e-3, alpha=0.1, x0=0.0, y0=2.0)
    with pytest.raises(ValueError):
        x_second_moment(p, 0.01, 100, 1)  # below the relaxation time
    rep = x_second_moment(p, 0.1, 2000, 11, h=1e-3)
    assert rep.estimate <= 5.0 * (1e-3) ** 0.9
    assert rep.config["exclusion_rate"] < 0.01


def test_x_second_moment_out_of_asymptotics_control():
    # eps = 1: no separation; just O(1) and finite, no bound asserted.
    # At delta = 1 the conditioning band swallows most paths, so the
    # exclusion-rate warning is expected to fire.
    p = ModelParams(epsilon=1.0, alpha=0.1, x0=0.0, y0=2.0)
    with pytest.warns(UserWarning, match="exclusion rate"):
        rep = x_second_moment(p, 1.0, 1000, 12, h=1e-3)
    assert np.isfinite(rep.estimate) and 1e-3 < rep.estimate < 10.0


def test_x_second_moment_scaling_slope():
    fit = x_second_moment_scaling(MOMENT_SCALING_LADDER, 0.1, 0.2, 2000, 13,
                                  h=1e-3)
    lo, hi = MOMENT_SCALING_WINDOW
    assert lo <= fit.slope <= hi


def test_martingale_residual_constant_function_is_zero():
    p = ModelParams(epsilon=0.1, x0=0.0, y0=2.0)
    zero = lambda y: np.zeros_like(np.asarray(y, dtype=np.float64))
    const = limit.TestFunction(
        name="const(3.0)",
        f=lambda y: np.full_like(np.asarray(y, dtype=np.float64), 3.0),
        af=zero, af0=0.0)
    rep = martingale_residual(p, const, 0.5, 100, 14, h=1e-2)
    assert abs(rep.estimate) < 1e-13 and rep.std_error < 1e-13


def test_martingale_residual_shrinks_with_epsilon():
    f = gauss_bump()
    n = 20_000
    r1 = martingale_residual(ModelParams(epsilon=0.1, x0=0.0, y0=2.0),
                             f, 1.0, n, 15, h=1e-3)
    r2 = martingale_residual(ModelParams(epsilon=0.01, x0=0.0, y0=2.0),
                             f, 1.0, n, 15, h=1e-3)
    assert abs(r2.estimate) < abs(r1.estimate)
    assert abs(r2.estimate) < 3 * r2.std_error + 0.02


def test_martingale_residual_limit_control():
    rep = martingale_residual_limit(2.0, gauss_bump(), 1.0, 10_000, 16,
                                    h=1e-3)
    assert abs(rep.estimate) < 3 * rep.std_error


def test_x_collapse_gap_trivial_and_small():
    p = ModelParams(epsilon=1e-3, x0=0.0, y0=2.0)
    # F independent of x: exactly zero
    rep0 = x_collapse_gap(p, lambda x, y: np.cos(y), 0.5, 100, 17, h=1e-3)
    assert rep0.estimate == 0.0 and rep0.std_error == 0.0
    # F(x, y) = x: bounded via the second-moment bound (Cauchy-Schwarz)
    rep = x_collapse_gap(p, lambda x, y: x, 0.5, 4000, 18, h=1e-3)
    assert abs(rep.estimate) < 3 * rep.std_error \
        + 2.0 * math.sqrt(5.0 * (1e-3) ** 0.9)


def test_x_collapse_gap_decreases_with_epsilon():
    F = lambda x, y: np.minimum(np.abs(x), 1.0)
    n = 4000
    g1 = x_collapse_gap(ModelParams(epsilon=0.1, x0=0.0, y0=2.0),
                        F, 0.5, n, 19, h=1e-3)
    g2 = x_collapse_gap(ModelParams(epsilon=0.001, x0=0.0, y0=2.0),
                        F, 0.5, n, 19, h=1e-3)
    assert g2.estimate < g1.estimate


def test_terminal_law_gap_projection_and_size():
    rep = terminal_law_gap(ModelParams(epsilon=0.01, x0=3.0, y0=4.0),
                           gauss_bump(), 1.0, 4000, 20, h=5e-4)
    assert rep.y_pi == 5.0
    rep2 = terminal_law_gap(ModelParams(epsilon=0.001, x0=0.0, y0=2.0),
                            gauss_bump(), 1.0, 4000, 21, h=1e-3)
    assert abs(rep2.gap.estimate) < 3 * rep2.gap.std_error + 0.02
    assert rep2.ks_stat < rep2.ks_critical


def test_end_of_path_estimators_apply_observables_once(monkeypatch):
    # every terminal estimator reduces through model.terminal_state and
    # applies its observable to all n replicas at once, so its report does
    # not depend on the batch or block sizes
    n, T = 12, 0.05
    p = ModelParams(epsilon=1e-3, x0=0.5, y0=1.0)
    origin = ModelParams(epsilon=1e-3, x0=0.0, y0=0.0)  # 4 of 12 dip
    calls = []

    def recording(fn):
        def observable(*args):
            calls.append(np.shape(args[0]))
            return fn(*args)
        return observable

    F = recording(lambda x, y: np.minimum(np.abs(x), 1.0) + np.cos(y))
    f = dataclasses.replace(gauss_bump(), f=recording(gauss_bump().f))
    f2 = recording(lambda x, y: np.exp(-np.square(y)) / (1.0 + np.square(x)))
    estimators = {  # name: (call, observable calls)
        "x_collapse_gap": (lambda: x_collapse_gap(p, F, T, n, 31), 2),
        "terminal_law_gap": (lambda: terminal_law_gap(p, f, T, n, 32), 2),
        "excursion_probability":
            (lambda: excursion_probability(origin, 0.1, T, n, 33), 0),
        "x_second_moment":
            (lambda: x_second_moment(ModelParams(epsilon=1e-3), T, n, 34), 0),
        "cauchy_2d_mc": (lambda: cauchy_2d_mc(0.5, 1.0, T, f2, p, n, 35), 1),
    }
    reports = {}
    for small in (False, True):
        if small:  # batches of 5 rows and blocks of 2 at h = 1e-3
            monkeypatch.setattr(model, "BATCH_ELEMS", 300)
            monkeypatch.setattr(model, "BLOCK_ELEMS", 120)
            assert model.batch_rows(51) == 5 and model.block_rows(51) == 2
        for name, (run, n_calls) in estimators.items():
            calls.clear()
            rep = run()
            assert calls == [(n,)] * n_calls, name
            assert reports.setdefault(name, rep) == rep, name


def test_fast_slow_estimators_drop_and_count_the_diverged_path():
    # at h = 100 eps one of these 200 paths trips the divergence guard and
    # freezes at (-0.00018, -0.324): each estimator counts it, drops it and
    # estimates from the other 199 paths of one direct driver call
    p = ModelParams(epsilon=1e-3, x0=1.0, y0=2.0)
    T, h, n, seed = 1.0, 0.1, 200, 1
    raw = model.rescaled_reduce(p, TimeGrid(T, h), seed, n,
                                lambda ts, xs, ys, div:
                                {"xs": xs, "ys": ys, "div": div})
    assert raw["div"].sum() == 1
    xs, ys = raw["xs"][~raw["div"]], raw["ys"][~raw["div"]]
    xT, yT = xs[:, -1], ys[:, -1]
    f, a = gauss_bump(), 0.3
    ups = [len(scan_oracle(y, p.delta())[1]) for y in ys]
    expected = {
        "x_collapse_gap": (
            x_collapse_gap(p, analysis.clipped_abs_x, T, n, seed, h=h),
            np.minimum(np.abs(xT), 1.0)),
        "terminal_law_gap": (
            terminal_law_gap(p, f, T, n, seed, h=h).gap,
            f(yT) - f(np.hypot(xT, yT))),
        "crossing_stats": (crossing_stats(p, T, n, seed, h=h).mean_n, ups),
        "excursion_probability": (
            excursion_probability(p, a, T, n, seed, h=h),
            ys.min(axis=1) <= -a),
    }
    for name, (rep, samples) in expected.items():
        assert rep.config["diverged"] == 1, name
        assert rep.n_replicas == n - 1, name
        assert rep.estimate == StatReport.from_samples(samples).estimate, name
    # the frozen path dips below -a: kept, it would lift the estimate
    assert expected["excursion_probability"][0].estimate == 8 / 199
    res = martingale_residual(p, f, T, n, seed, h=h)
    assert (res.config["diverged"], res.n_replicas) == (1, n - 1)


def test_divergence_rule_keeps_warns_drops_and_raises():
    x = np.arange(5.0)
    out, k = analysis.drop_diverged({"x": x, "div": np.zeros(5, bool)})
    assert k == 0 and out == {"x": x} and out["x"] is x
    with pytest.warns(UserWarning, match="1 of 5 replicas diverged"):
        out, k = analysis.drop_diverged({"x": x, "div": x == 2.0})
    assert k == 1 and out["x"].tolist() == [0.0, 1.0, 3.0, 4.0]
    # more than half diverged, or fewer than two paths left
    for div in (x < 3.0, np.array([True, False])):
        with pytest.raises(analysis.DegenerateRun,
                           match=f"divergence-dominated run: {div.sum()} "
                                 f"of {div.size} replicas tripped the guard"):
            analysis.drop_diverged({"x": x[:div.size], "div": div})


def test_ou_exit_two_sided_small_delta_asymptotics():
    # Brownian limit: 3 delta^2
    for d, rel in [(1e-3, 0.01), (0.01, 0.01)]:
        assert ou_exit_two_sided(d) == pytest.approx(3 * d * d, rel=rel)


def test_ou_exit_one_sided_small_delta_asymptotics():
    d = 1e-3
    assert ou_exit_one_sided(d) == pytest.approx(math.sqrt(math.pi) * d,
                                                 rel=5e-3)


def test_ou_exit_one_sided_linear_lower_bound():
    for d in [0.01, 0.05, 0.1, 0.2, 0.3]:
        assert ou_exit_one_sided(d) >= d


def test_ou_exit_two_sided_monotone_in_delta():
    ds = np.linspace(0.02, 0.9, 12)
    us = [ou_exit_two_sided(d) for d in ds]
    assert (np.diff(us) > 0).all()


def test_ou_exit_quadrature_rejects_large_delta():
    with pytest.raises(ValueError):
        ou_exit_two_sided(6.0)


def test_ou_exit_mc_matches_quadrature():
    for mode, d, n in [("two_sided", 0.05, 20_000),
                       ("one_sided", 0.1, 20_000)]:
        oracle = (ou_exit_two_sided if mode == "two_sided"
                  else ou_exit_one_sided)(d)
        rep = ou_exit_mc(d, mode, n, 22)
        assert abs(rep.estimate - oracle) < 3 * rep.std_error, (mode, d)


def _exit_taus(monkeypatch, *args):
    # ou_exit_mc's report and the per-path exit times it averaged
    seen = []
    from_samples = StatReport.from_samples.__func__

    def record(cls, samples, **config):
        seen.append(np.array(samples))
        return from_samples(cls, samples, **config)

    with monkeypatch.context() as mp:
        mp.setattr(StatReport, "from_samples", classmethod(record))
        rep = ou_exit_mc(*args)
    return rep, seen[0]


def test_ou_exit_mc_censors_at_the_horizon(monkeypatch):
    # stop after the first chunk: tau becomes min(tau, t_max) path by path,
    # and the paths of the first chunk read the same draws either way
    args = (0.1, "one_sided", 2000, 5)
    full, tau = _exit_taus(monkeypatch, *args)
    assert full.config["censored"] == 0 and full.config["bias_bound"] == 0.0
    h = full.config["h"]
    t_max = 0.0
    for _ in range(analysis.EXIT_FIRST_CHUNK):  # the first chunk's end
        t_max += h
    monkeypatch.setattr(analysis, "_exit_horizon", lambda scale, n: t_max)
    rep, tau_c = _exit_taus(monkeypatch, *args)
    cut = np.minimum(tau, t_max)
    assert rep.config["t_max"] == t_max
    assert rep.config["censored"] == np.count_nonzero(tau > t_max) > 0
    assert np.array_equal(tau_c, cut)
    assert rep.estimate == cut.mean()
    # the bias the censoring caused stays under the reported bound
    assert 0.0 < full.estimate - rep.estimate <= rep.config["bias_bound"]


@pytest.mark.parametrize("chunk, first", [(512, [32, 64, 128, 256, 512]),
                                          (100, [32, 64, 100])])
def test_ou_exit_mc_chunks_double_up_to_chunk(chunk, first, monkeypatch):
    # 200 paths fit one slice of every chunk, so each kernel call is one
    # chunk: its steps start at 32 and double, then stay at ``chunk``
    steps = []
    kernel = _kernels.ou_exit_chunk

    def record(x, t, tau, done, z, *args):
        steps.append(z.shape[1])
        return kernel(x, t, tau, done, z, *args)

    monkeypatch.setattr(_kernels, "ou_exit_chunk", record)
    ou_exit_mc(0.1, "one_sided", 200, 13, chunk=chunk)
    assert len(steps) > len(first) + 1
    assert steps == first + [chunk] * (len(steps) - len(first))


@pytest.mark.parametrize("mode", ["two_sided", "one_sided"])
def test_ou_exit_mc_does_not_depend_on_the_draw_slices(mode, monkeypatch):
    # the draws come in row slices of live paths: 1-row and 7-row slices
    # give the report of the default slices, bit for bit
    args = (0.1, mode, 200, 13)
    ref = ou_exit_mc(*args)
    for rows in (1, 7):
        monkeypatch.setattr(model, "BLOCK_ELEMS", rows * 512)
        assert model.block_rows(512) == rows
        rep = ou_exit_mc(*args)
        assert (rep.estimate, rep.std_error, rep.config) \
            == (ref.estimate, ref.std_error, ref.config), rows


def test_ou_exit_mc_horizon_rule():
    rep = ou_exit_mc(0.1, "two_sided", 500, 6)
    assert rep.config["censored"] == 0 and rep.config["bias_bound"] == 0.0
    assert rep.config["t_max"] == ou_exit_two_sided(0.1) + math.log(500)


def test_crossing_stats_bounds_hold():
    p = ModelParams(epsilon=1e-2, alpha=0.1, x0=0.0, y0=2.0)
    cs = crossing_stats(p, 5.0, 400, 23, h=1e-3)
    assert cs.bounds["n_ok"]
    assert cs.bounds["sigma_minus_tau_ok"]
    assert cs.bounds["tau_minus_sigma_ok"]
    assert cs.mean_n.estimate > 0.1  # crossings do happen at this delta


def test_crossing_stats_counts_a_sigma_on_the_last_grid_point():
    # the last point of this grid rounds to 0.7000000000000001 > T, and
    # every sigma, one landing there too, is an up-crossing
    assert TimeGrid(0.7, 1e-3).times()[-1] > 0.7
    n = 2000
    cs = crossing_stats(ModelParams(epsilon=0.1, y0=1.0), 0.7, n, 1, h=1e-3)
    assert round(cs.mean_n.estimate * n) \
        == cs.mean_sigma_minus_tau.config["events"]


def test_crossing_stats_far_start_no_crossings():
    p = ModelParams(epsilon=1e-2, alpha=0.1, x0=0.0, y0=5.0)
    cs = crossing_stats(p, 1.0, 300, 24, h=1e-3)
    assert cs.mean_n.config["frac_zero"] >= 0.99


def test_excursion_probability_trivial_and_positive():
    p = ModelParams(epsilon=0.2, x0=0.0, y0=1.0)
    rep = excursion_probability(p, 100.0, 2.0, 200, 25, h=1e-3)
    assert rep.estimate == 0.0
    rep2 = excursion_probability(
        ModelParams(epsilon=0.2, x0=0.0, y0=1.0), 0.25, 20.0, 200, 26,
        h=2e-3)
    assert rep2.estimate > 0.0


def test_excursion_probability_decreases_with_epsilon():
    kw = dict(a=0.5, t=5.0, n=1500, h=1e-3)
    p1 = excursion_probability(ModelParams(epsilon=0.2, x0=0.0, y0=1.0),
                               kw["a"], kw["t"], kw["n"], 27, h=kw["h"])
    p2 = excursion_probability(ModelParams(epsilon=0.05, x0=0.0, y0=1.0),
                               kw["a"], kw["t"], kw["n"], 27, h=kw["h"])
    assert p2.estimate < p1.estimate


def test_excursion_anatomy_synthetic():
    y = np.array([1.0, 0.5, -0.1, -0.6, -0.4, 0.2, 0.9, 0.8])
    x = np.array([0.0, 0.1, 0.2, 0.05, -0.3, 0.1, 0.0, 0.0])
    ts = TimeGrid(0.7, 0.1).times()
    [recs] = _excursion_rows(ts, x[None], y[None], a=0.5)
    assert len(recs) == 1
    assert recs[0].entry_time == pytest.approx(0.3)
    assert recs[0].return_time == pytest.approx(0.6)
    assert recs[0].max_abs_x == pytest.approx(0.3)
    assert recs[0].min_y == pytest.approx(-0.6)


def test_excursion_anatomy_no_dips_empty():
    y = np.linspace(1.0, 2.0, 10)
    ts = TimeGrid(0.1 * 9, 0.1).times()
    assert _excursion_rows(ts, np.zeros((1, 10)), y[None], a=0.5)[0] == []


def anatomy_oracle(ts, x, y, a):
    """Index-by-index reading of the excursions with the signed levels
    +-a: an entry at the first y <= -a, a return at the next y >= a, and
    the largest |x| and the least y in between; the last excursion may
    stay open."""
    records, entry = [], None
    for k in range(len(y)):
        if entry is None:
            if y[k] > -a:
                continue
            entry, top, low = k, abs(x[k]), y[k]
        top, low = max(top, abs(x[k])), min(low, y[k])
        if y[k] >= a:
            records.append(ExcursionRecord(float(ts[entry]), float(ts[k]),
                                           float(top), float(low)))
            entry = None
    if entry is not None:
        records.append(ExcursionRecord(float(ts[entry]), None, float(top),
                                       float(low)))
    return records


def test_anatomy_matches_oracle_on_brownian_paths():
    rng = np.random.default_rng(42)
    ys = np.array([np.cumsum(math.sqrt(1e-3) * rng.standard_normal(10_000))
                   + y0 for y0 in (1.0, 0.0, -0.7, 2.5)])
    xs = 0.1 * rng.standard_normal(ys.shape)
    ts = np.arange(ys.shape[1]) * 1e-3
    per_row = [anatomy_oracle(ts, x, y, 0.25) for x, y in zip(xs, ys)]
    # several excursions on a row, and one left open at the end
    assert sum(len(recs) > 1 for recs in per_row) >= 2
    assert any(recs[-1].return_time is None for recs in per_row if recs)
    rows = _excursion_rows(ts, xs, ys, 0.25)
    assert rows.shape == (len(ys),) and list(rows) == per_row
    for x, y, recs in zip(xs, ys, per_row):
        assert _excursion_rows(ts, x[None], y[None], 0.25)[0] == recs


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=2,
                max_size=120), st.floats(0.05, 1.0))
def test_excursion_record_interleaving_property(row, a):
    # on the times 0, 1, 2, ... each time is the index it was read at
    y = np.array(row)
    ts = np.arange(y.size, dtype=np.float64)
    [recs] = _excursion_rows(ts, y[::-1, None].T, y[None], a)
    assert recs == anatomy_oracle(ts, y[::-1], y, a)
    returns = [r.return_time for r in recs]
    assert None not in returns[:-1]
    for prev, rec in zip([None, *returns], recs):
        assert y[int(rec.entry_time)] <= -a
        assert prev is None or rec.entry_time > prev
        if rec.return_time is not None:
            assert rec.return_time > rec.entry_time
            assert y[int(rec.return_time)] >= a


def test_batched_anatomy_equals_per_path_records(monkeypatch):
    # the estimator reads the anatomy off batches of the driver; it must
    # give the records of the paths simulated one at a time on their own
    # streams (2i, 2i + 1), in path order
    p = ModelParams(epsilon=0.2, x0=0.0, y0=1.0)
    grid = TimeGrid(5.0, 1e-3)
    ts = grid.times()
    n, seed = 6, 82
    batch = excursion_anatomy(p, 0.25, 5.0, n, seed, h=1e-3)
    per_path = []
    for i in range(n):
        xs, ys, _ = _rescaled_advance(
            p, grid, "splitting",
            draw_buffer(seed, [2 * i], grid.n_steps + 1),
            draw_buffer(seed, [2 * i + 1], grid.n_steps + 1))
        [recs] = _excursion_rows(ts, xs, ys, 0.25)
        per_path.append(recs)
    assert sum(len(recs) > 0 for recs in per_path) >= 2
    assert batch == [rec for recs in per_path for rec in recs]
    # in batches of 4 rows and blocks of 2, the rows' lists join in order
    monkeypatch.setattr(model, "BATCH_ELEMS", 4 * len(ts))
    monkeypatch.setattr(model, "BLOCK_ELEMS", 2 * len(ts))
    assert excursion_anatomy(p, 0.25, 5.0, n, seed, h=1e-3) == batch
    for a, n_bad in ((0.0, n), (0.25, 1)):
        with pytest.raises(ValueError):
            excursion_anatomy(p, a, 5.0, n_bad, seed)


def test_fused_residuals_equal_single_function_calls():
    # one pass over the paths serves every test function, byte for byte
    p = ModelParams(epsilon=0.05, x0=0.3, y0=1.5)
    fs = (gauss_bump(), limit.lorentzian(), limit.cos_square())
    fused = martingale_residuals(p, fs, 0.2, 64, 17, h=1e-2)
    alone = [martingale_residual(p, f, 0.2, 64, 17, h=1e-2) for f in fs]
    assert fused == alone
    assert len({r.estimate for r in fused}) == len(fs)


def test_ks_helpers():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(2000)
    b = rng.standard_normal(2000)
    assert ks_statistic(a, b) < ks_critical_value(2000, 2000)
    c = rng.standard_normal(2000) + 1.0
    assert ks_statistic(a, c) > ks_critical_value(2000, 2000)
    from scipy.stats import ks_2samp, kstest, norm
    assert ks_statistic(a, c) == pytest.approx(ks_2samp(a, c).statistic,
                                               rel=1e-12)
    # one sample against a cdf, with its 1% critical value
    stat, critical = ks_one_sample(a, norm.cdf)
    assert stat == pytest.approx(kstest(a, norm.cdf).statistic, rel=1e-12)
    assert critical == pytest.approx(1.6276 / math.sqrt(2000), rel=1e-4)
    assert stat < critical < ks_one_sample(c, norm.cdf)[0]
