"""The benchmark's tracer (``benchmarks/instrument.py``) replaces package
functions under the names their callers look them up by, and its counters
read call arguments by name; the layer timings and the workloads call
package functions directly.  A rename in the package, or a change of a
called function's parameters, must fail here rather than in a benchmark
run."""

import ast
import importlib
import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
INSTRUMENT = BENCHMARKS / "instrument.py"


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


def _package_names(tree) -> dict:
    """Local name -> object for each ``from ablab... import name``."""
    names = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "ablab"):
            continue
        for alias in node.names:
            try:
                obj = importlib.import_module(f"{node.module}.{alias.name}")
            except ModuleNotFoundError:
                obj = getattr(importlib.import_module(node.module),
                              alias.name)
            names[alias.asname or alias.name] = obj
    return names


def _callee(func, names):
    """The package object that a call's function expression names
    (``limit.limit_exact_terminal``, ``ModelParams``), or None."""
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if isinstance(func, ast.Attribute):
        owner = _callee(func.value, names)
        if owner is not None:
            assert hasattr(owner, func.attr), \
                f"{ast.unparse(func)}: no such attribute"
            return getattr(owner, func.attr)
    return None


@pytest.mark.parametrize("caller, expected", [
    ("layer_timings.py", {"sde.normal_matrix", "_kernels.rescaled_split",
                          "_kernels.ou2d_radius", "_kernels.ou_exit_chunk",
                          "limit.generator_apply", "pde.solve_limit_pde"}),
    ("workloads.py", {"limit.limit_exact_terminal", "pde.feynman_kac_mc",
                      "analysis.martingale_residual_limit",
                      "analysis.ou_exit_mc", "ModelParams", "pde.Grid1D"}),
])
def test_every_direct_call_binds_the_callee_signature(caller, expected):
    tree = ast.parse((BENCHMARKS / caller).read_text())
    names = _package_names(tree)
    bound = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = _callee(node.func, names)
        if fn is None or any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            continue
        label = ast.unparse(node.func)
        try:
            inspect.signature(fn).bind(
                *node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as e:
            pytest.fail(f"{caller}:{node.lineno}: {label}: {e}")
        bound.add(label)
    # the extraction above sees the calls it is meant to guard
    assert expected <= bound, sorted(expected - bound)
