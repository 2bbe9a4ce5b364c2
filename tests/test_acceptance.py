"""The acceptance battery against its stored report.

``data/acceptance_seed42.json`` is the report of ``ablab acceptance --seed
42``, every criterion and the byte-identical rerun.  A refactor that
changes a draw, an operation order or a threshold changes these bytes.  The
whole command takes minutes, so only the cheap criteria (1, 3, 4, 5 and 10)
and criterion 8 (metastable excursions, about 5 s, through the rescaled
driver) are checked against their entries here, with three parts of
criterion 6: its crossing statistics and its two exit-time Monte Carlo runs
at delta = 0.1, two-sided and one-sided (about 2 s each), the only stored
outputs of the band-crossing scan and of the exit-time kernel's upper- and
lower-barrier tests.  Of criterion 9, the five limit-PDE values
(one Crank-Nicolson solve, about 0.05 s) and the Monte Carlo value of the
probe (2, 0) (2-3.5 s) are checked, the only stored output of
``cauchy_2d_mc``.  Of criterion 7, the linear x-collapse gap (about
2.3 s) and the limit control (about 5 s, 50,000 exact paths in six
batches: the only stored output of ``limit_exact_reduce`` over many
batches) are checked.  A refactor is proven against the whole file by hand.
The stored bytes hold only where numpy dispatches the package's float64
ufuncs to the SIMD targets in ``data/simd_targets.json``
(``simd_targets.py``).  The criteria left out,
with their times in seconds in the two passes of one run
(``BENCH_21.json``, 2-core host; criterion 9 from ``BENCH_25.json``,
criterion 6 from ``BENCH_27.json``):

- 2, exact radial identity: 17.3, 16.6;
- 6's other two exit-time Monte Carlo runs and its asymptotics (the
  whole criterion: 10.4, 10.4, against 13.0, 14.2 before its exit-time
  kernel skipped exp's underflow path, timed in the same session);
- 7's martingale residuals, terminal-law gaps and clipped x-collapse
  ladder (the whole criterion: 20.8, 23.2);
- 9's other four Monte Carlo probes (the whole criterion: 16.6, 12.3,
  against 15.9, 15.1 with the explicit solver it replaced, timed in the
  same session; 10.4, 10.4 in ``BENCH_21.json``);
- 11, the rerun of the whole battery, byte for byte.
"""

import ast
import json
import inspect
import textwrap
from pathlib import Path

import numpy as np
import pytest

from ablab.acceptance import BATTERY, _seed, results_to_json
from ablab.analysis import (crossing_stats, martingale_residual_limit,
                            ou_exit_mc, x_collapse_gap)
from ablab.limit import gauss_bump
from ablab.model import ModelParams, project_pi
from ablab.pde import Grid1D, cauchy_2d_mc, solve_limit_pde
from ablab.reporting import _jsonable
from simd_targets import RECORD, UFUNCS, require_recorded_targets

FULL = Path(__file__).parent / "data" / "acceptance_seed42.json"
CHEAP = (1, 3, 4, 5, 10)


def _reported_cid(fn):
    """The cid a criterion reports, read from its CriterionResult call
    without running it."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    (cid,) = {node.args[0].value for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "CriterionResult"}
    return cid


def test_battery_lists_criteria_1_to_10_in_order():
    assert [_reported_cid(fn) for fn in BATTERY] == list(range(1, 11))


def _stored_entries(cids):
    full = json.loads(FULL.read_text())
    return [c for c in full["criteria"] if c["cid"] in cids]


def test_full_report_holds_the_cheap_criteria_and_passes():
    full = json.loads(FULL.read_text())
    assert [c["cid"] for c in full["criteria"]] == list(range(1, 12))
    assert full["seed"] == 42 and full["all_passed"]


def test_cheap_criteria_match_the_stored_report():
    require_recorded_targets()
    results = [BATTERY[cid - 1](42) for cid in CHEAP]
    assert [r.cid for r in results] == list(CHEAP)
    assert json.loads(results_to_json(results, 42))["criteria"] \
        == _stored_entries(CHEAP)


def test_criterion_8_matches_its_stored_entry():
    require_recorded_targets()
    result = BATTERY[7](42)
    assert result.cid == 8
    assert json.loads(results_to_json([result], 42))["criteria"] \
        == _stored_entries((8,))


def _as_stored(obj):
    """obj as the report stores it: through _jsonable and a JSON round trip."""
    return json.loads(json.dumps(_jsonable(obj)))


def test_criterion_6_crossings_match_their_stored_entry():
    (stored,) = _stored_entries((6,))
    cs = crossing_stats(ModelParams(epsilon=1e-2, x0=0.0, y0=2.0), 5.0,
                        2000, _seed(42, 67), h=1e-3)
    assert _as_stored(cs) == stored["details"]["crossings"]


def _check_exit_mc_entry(mode, stream):
    # criterion 6's run of ou_exit_mc at delta = 0.1 against its entry
    (stored,) = _stored_entries((6,))
    rep = ou_exit_mc(0.1, mode, 50_000, _seed(42, stream))
    got = {"mc": rep.estimate, "se": rep.std_error,
           "censored": rep.config["censored"],
           "bias_bound": rep.config["bias_bound"]}
    want = stored["details"][f"{mode}_0.1"]
    assert _as_stored(got) == {k: want[k] for k in got}


def test_criterion_6_two_sided_exit_mc_matches_its_stored_entry():
    _check_exit_mc_entry("two_sided", 62)


def test_criterion_6_one_sided_exit_mc_matches_its_stored_entry():
    _check_exit_mc_entry("one_sided", 64)


def test_criterion_7_linear_collapse_gap_matches_its_stored_entry():
    require_recorded_targets()
    (stored,) = _stored_entries((7,))
    lin = x_collapse_gap(ModelParams(epsilon=1e-3, x0=0.0, y0=2.0),
                         lambda x, y: x, 1.0, 10_000, _seed(42, 79), h=1e-3)
    assert _as_stored(lin) == stored["details"]["collapse_gap"]["linear_gap"]


def test_criterion_7_limit_control_matches_its_stored_entry():
    require_recorded_targets()
    (stored,) = _stored_entries((7,))
    ctrl = martingale_residual_limit(2.0, gauss_bump(), 1.0, 50_000,
                                     _seed(42, 74), h=1e-3)
    assert _as_stored(ctrl) == stored["details"]["limit_control"]


def test_criterion_9_pde_values_and_one_probe_match_their_stored_entry():
    require_recorded_targets()
    (stored,) = _stored_entries((9,))
    probes = stored["details"]
    sol = solve_limit_pde(gauss_bump(), Grid1D(n_points=601, t_final=1.0))
    for key, want in probes.items():
        x0, y0 = map(float, key.removeprefix("probe_").split("_"))
        assert _as_stored(float(sol.at(1.0, project_pi((x0, y0))))) \
            == want["pde"], key
    # the last of the five probes, (2, 0), reads seed _seed(42, 91 + 4)
    f2 = lambda x, y: np.exp(-np.square(y)) / (1.0 + np.square(x))
    rep = cauchy_2d_mc(2.0, 0.0, 1.0, f2, ModelParams(epsilon=1e-3), 10_000,
                       _seed(42, 95))
    assert _as_stored(rep.estimate) == probes["probe_2.0_0.0"]["mc"]


def test_simd_record_names_every_ufunc_the_package_calls():
    # each ufunc named as np.<name> in the package has its targets recorded
    named = set()
    for path in (Path(__file__).parents[1] / "src" / "ablab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) \
                    and getattr(node.value, "id", None) == "np" \
                    and isinstance(getattr(np, node.attr, None), np.ufunc):
                named.add(getattr(np, node.attr).__name__)
    assert named <= set(UFUNCS)
    assert set(json.loads(RECORD.read_text())["targets"]) \
        == set(UFUNCS)


def test_other_simd_targets_fail_naming_both_sets(monkeypatch):
    recorded = json.loads(RECORD.read_text())["targets"]
    host = {**recorded, "exp": {"dd": "X86_V3"}}
    monkeypatch.setattr("simd_targets.host_targets", lambda: host)
    with pytest.raises(pytest.fail.Exception) as failed:
        require_recorded_targets()
    message = str(failed.value)
    assert json.dumps(recorded) in message and json.dumps(host) in message
    assert json.dumps({"exp": {"recorded": recorded["exp"],
                               "host": {"dd": "X86_V3"}}}) in message
