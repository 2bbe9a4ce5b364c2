"""The acceptance battery's cheap criteria against a stored report.

``data/acceptance_seed42_cheap.json`` is ``results_to_json`` of criteria
1, 3, 4, 5 and 10 at seed 42, written before the package's test-only code
and duplicate pass rules were removed.  A refactor that changes a draw, an
operation order or a threshold changes these bytes.

``data/acceptance_seed42.json`` is the report of ``ablab acceptance --seed
42``, every criterion and the byte-identical rerun.  It takes minutes to
run, so only its cheap criteria and criterion 8 (metastable excursions,
about 5 s, through the rescaled driver) are checked here; a refactor is
proven against the whole file by hand.  The criteria left out, with their
times in seconds in the two passes of one run (``BENCH_13.json``, 2-core
host):

- 2, exact radial identity: 23.6, 23.5;
- 6, exit-time oracles: 17.7, 13.3;
- 7, weak convergence to the limit process: 29.8, 29.9;
- 9, limit Cauchy problem: 13.4, 14.9;
- 11, the rerun of the whole battery, byte for byte.
"""

import ast
import json
import inspect
import textwrap
from pathlib import Path

from ablab.acceptance import BATTERY, results_to_json

GOLDEN = Path(__file__).parent / "data" / "acceptance_seed42_cheap.json"
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


def test_cheap_criteria_match_the_stored_report():
    results = [BATTERY[cid - 1](42) for cid in CHEAP]
    assert [r.cid for r in results] == list(CHEAP)
    assert results_to_json(results, 42) == GOLDEN.read_text()


def test_full_report_holds_the_cheap_criteria_and_passes():
    full = json.loads(FULL.read_text())
    cheap = json.loads(GOLDEN.read_text())
    by_cid = {c["cid"]: c for c in full["criteria"]}
    assert sorted(by_cid) == list(range(1, 12))
    assert [by_cid[c["cid"]] for c in cheap["criteria"]] == cheap["criteria"]
    assert full["seed"] == cheap["seed"] == 42 and full["all_passed"]


def test_criterion_8_matches_its_stored_entry():
    result = BATTERY[7](42)
    assert result.cid == 8
    full = json.loads(FULL.read_text())
    stored = [c for c in full["criteria"] if c["cid"] == 8]
    assert json.loads(results_to_json([result], 42))["criteria"] == stored
