"""The benchmark's tracer (``benchmarks/instrument.py``) replaces package
functions under the names their callers look them up by, and its counters
read call arguments by name.  A rename in the package must fail here
rather than in a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

import pytest

INSTRUMENT = Path(__file__).resolve().parents[1] / "benchmarks" \
    / "instrument.py"


@pytest.fixture(scope="module")
def instrument():
    spec = importlib.util.spec_from_file_location("_bench_instrument",
                                                  INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # import it without writing beside it
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _names_read(hook) -> set[str]:
    """The keys a hook reads from its argument mapping: ``a["xs"]`` in
    ``before(c, a)`` and ``count(c, a, out, state)``, and
    ``bound.arguments["reduce_fn"]`` in ``rewrite(tracer, bound)``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(hook)))
    arg = tree.body[0].args.args[1].arg
    names = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            continue
        target = node.value
        if isinstance(target, ast.Attribute) and target.attr == "arguments":
            target = target.value
        if isinstance(target, ast.Name) and target.id == arg:
            names.add(node.slice.value)
    return names


def test_every_traced_layer_binds_the_names_its_counters_read(instrument):
    read = set()
    for module_name, attr, span, hooks in instrument.LAYERS:
        fn = getattr(importlib.import_module(module_name), attr)
        params = set(inspect.signature(fn).parameters)
        for role, hook in hooks.items():
            names = _names_read(hook)
            assert names, f"{span}: {role} hook reads no argument"
            missing = names - params
            assert not missing, \
                f"{module_name}.{attr} lacks {sorted(missing)} ({role})"
            read |= names
    # the extraction above sees the counters it is meant to guard
    assert {"xs", "div", "z1", "inv_eps", "dtheta_max", "z", "t", "h",
            "stream_ids", "n", "batch_size", "n_replicas", "grid",
            "reduce_fn", "chunk", "snapshot_times"} <= read

