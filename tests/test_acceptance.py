"""The acceptance battery's cheap criteria against a stored report.

``data/acceptance_seed42_cheap.json`` is ``results_to_json`` of criteria
1, 3, 4, 5 and 10 at seed 42, written before the package's test-only code
and duplicate pass rules were removed.  A refactor that changes a draw, an
operation order or a threshold changes these bytes.
"""

import ast
import inspect
import textwrap
from pathlib import Path

from ablab.acceptance import BATTERY, results_to_json

GOLDEN = Path(__file__).parent / "data" / "acceptance_seed42_cheap.json"
CHEAP = (1, 3, 4, 5, 10)


def _reported_cid(fn):
    """The cid a criterion reports, read from its CriterionResult call
    without running it (criterion 6 does not finish at seed 42)."""
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
