"""What a fresh interpreter loads.

scipy serves only the exit-time quadratures and the energy cross-check of
the unperturbed flow, so importing the package, its command line included,
loads no scipy module, nor does a solve of the limit PDE; the first
quadrature loads it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from ablab.analysis import ou_exit_two_sided

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import importlib, json, pkgutil, sys
import ablab, ablab.cli
for mod in pkgutil.iter_modules(ablab.__path__):
    importlib.import_module("ablab." + mod.name)
def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded = scipy_loaded()
from ablab.limit import square_fn
from ablab.pde import Grid1D, solve_limit_pde
solve_limit_pde(square_fn(), Grid1D(n_points=101, t_final=0.1))
after_pde = scipy_loaded()
from ablab.analysis import ou_exit_two_sided
value = ou_exit_two_sided(0.1)
print(json.dumps({"on_import": loaded, "after_pde": after_pde,
                  "value": value,
                  "integrate": "scipy.integrate" in sys.modules}))
"""


def test_the_package_loads_scipy_only_at_its_first_quadrature():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout)
    assert seen["on_import"] == []
    assert seen["after_pde"] == []
    assert seen["integrate"]
    assert seen["value"] == ou_exit_two_sided(0.1)
