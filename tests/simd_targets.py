"""The SIMD targets under which the stored byte references were written.

numpy runs each float64 ufunc on the widest SIMD target the host supports,
and the targets' loops differ in the last bits: ``exp``, ``expm1``, ``log``,
``sin`` and ``cos`` among others.  So ``data/acceptance_seed42.json`` and
the goldens under ``data/cli`` and ``data/simulate`` reproduce only where
numpy dispatches the package's ufuncs as ``data/simd_targets.json`` records.
The tests that compare bytes with those files call
``require_recorded_targets`` first: on a host with other targets they fail
with both sets named, instead of reading as a regression of the program.

Print this host's record with ``python tests/simd_targets.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

RECORD = Path(__file__).parent / "data" / "simd_targets.json"

# Every ufunc the package calls on float64, by name or through an operator.
UFUNCS = ("absolute", "add", "arctan2", "cos", "divide", "equal", "exp",
          "expm1", "greater", "greater_equal", "hypot", "isfinite", "less",
          "less_equal", "log", "logical_and", "logical_not", "maximum",
          "minimum", "multiply", "negative", "power", "sin", "spacing",
          "sqrt", "square", "subtract")


def host_targets() -> dict[str, dict[str, str]]:
    """The ``current`` target of each float64 loop of UFUNCS on this host,
    by loop signature; {} for a ufunc whose loops numpy does not dispatch."""
    info = opt_func_info(func_name="^(%s)$" % "|".join(UFUNCS),
                         signature="float64")
    return {name: {sig: loop["current"]
                   for sig, loop in info.get(name, {}).items()
                   if set(sig[:getattr(np, name).nin]) == {"d"}}
            for name in UFUNCS}


def host_record() -> dict:
    return {"numpy": np.__version__, "targets": host_targets()}


def require_recorded_targets():
    """Fail, naming both sets, unless this host dispatches the package's
    float64 ufuncs to the targets the byte references were written with."""
    recorded, host = json.loads(RECORD.read_text()), host_record()
    if host["targets"] == recorded["targets"]:
        return
    differ = {name: {"recorded": recorded["targets"].get(name),
                     "host": host["targets"].get(name)}
              for name in sorted({*recorded["targets"], *host["targets"]})
              if recorded["targets"].get(name) != host["targets"].get(name)}
    pytest.fail(
        "the stored bytes were written where numpy "
        f"{recorded['numpy']} dispatched {json.dumps(recorded['targets'])}; "
        f"this host runs numpy {host['numpy']} and dispatches "
        f"{json.dumps(host['targets'])}; they differ in "
        f"{json.dumps(differ)}", pytrace=False)


if __name__ == "__main__":
    print(json.dumps(host_record(), indent=1, sort_keys=True))
