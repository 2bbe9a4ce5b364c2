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

from ablab import analysis, pde
from ablab.limit import gauss_bump
from ablab.model import ModelParams, batch_rows
from test_pde import PDE_CASES

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
    # pinned so that a kernel losing damp or a_drift, b_drift, which the
    # package passes as constants, fails here and not in a benchmark run
    ("layer_timings.py", {"sde.normal_matrix", "_kernels.rescaled_split",
                          "_kernels.rescaled_euler", "_kernels.slowtime_euler",
                          "_kernels.limit_sq_em", "_kernels.ou2d_radius",
                          "_kernels.ou_exit_chunk", "limit.generator_apply",
                          "pde.solve_limit_pde"}),
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


def test_every_traced_driver_call_passes_the_batch_rule(instrument,
                                                       monkeypatch):
    # the driver counters compute min(a["batch_size"], ...): a traced call
    # that leaves the batch size to the driver's default breaks --trace 1
    calls = []
    for module_name, attr, span, hooks in instrument.LAYERS:
        count = hooks.get("count")
        if count is None or "batch_size" not in _names_read(count):
            continue
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)

        def recording(*args, _fn=fn, _label=f"{module_name}.{attr}",
                      **kwargs):
            bound = inspect.signature(_fn).bind(*args, **kwargs)
            calls.append((_label, bound.arguments))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, recording)
    p, T, n, f = ModelParams(epsilon=1e-3), 0.1, 4, gauss_bump()
    estimators = {
        "x_second_moment": lambda: analysis.x_second_moment(p, T, n, 1),
        "martingale_residuals":
            lambda: analysis.martingale_residuals(p, (f,), T, n, 2),
        "x_collapse_gap":
            lambda: analysis.x_collapse_gap(p, analysis.clipped_abs_x, T,
                                            n, 3),
        "terminal_law_gap": lambda: analysis.terminal_law_gap(p, f, T, n, 4),
        "crossing_stats": lambda: analysis.crossing_stats(p, T, n, 5),
        "excursion_probability":
            lambda: analysis.excursion_probability(p, 0.5, T, n, 6),
        "excursion_anatomy":
            lambda: analysis.excursion_anatomy(p, 0.5, T, n, 9),
        "martingale_residual_limit":
            lambda: analysis.martingale_residual_limit(1.0, f, T, n, 7),
        "cauchy_2d_mc":
            lambda: pde.cauchy_2d_mc(0.5, 1.0, T, lambda x, y: x * y, p,
                                     n, 8),
    }
    seen = set()
    for name, run in estimators.items():
        calls.clear()
        run()
        assert calls, f"{name} made no traced driver call"
        for label, args in calls:
            assert args.get("batch_size") \
                == batch_rows(len(args["grid"].times())), (name, label)
            seen.add(label)
    # the selection above finds the three driver names the tracer wraps
    assert seen == {"ablab.analysis.rescaled_reduce",
                    "ablab.analysis.limit_exact_reduce",
                    "ablab.pde.rescaled_reduce"}


@pytest.mark.parametrize("initial, n_points, t_final, times", PDE_CASES)
def test_pde_node_steps_count_the_steps_the_solver_takes(
        instrument, monkeypatch, initial, n_points, t_final, times):
    # the tracer keeps its own copy of the solver's step rule
    taken = []
    step = pde._CrankNicolson.step

    def counted(self, *args, **kwargs):
        taken.append(1)
        return step(self, *args, **kwargs)

    monkeypatch.setattr(pde._CrankNicolson, "step", counted)
    grid = pde.Grid1D(n_points=n_points, t_final=t_final)
    pde.solve_limit_pde(initial(), grid, snapshot_times=times)
    counts = {}
    instrument._count_pde(counts, {"grid": grid, "snapshot_times": times},
                          None, None)
    assert counts["node_steps"] == n_points * len(taken) > 0
