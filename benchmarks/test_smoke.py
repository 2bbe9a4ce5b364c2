"""Smoke test of the benchmark itself, at tiny replica counts.

    python3 -m pytest benchmarks/test_smoke.py
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from instrument import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
TINY = 1e-3


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def results(request):
    w = request.param
    return w, {trace: measure.measure(w, SEED, 0.0, trace, scale=TINY)
               for trace in (False, True)}


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_every_named_metric_is_emitted_with_its_unit(results):
    _, res = results
    end_to_end = dict(res[False]["metrics"])
    # set-up is timed by run.py in fresh interpreters, not by measure.py
    assert "setup_s" not in end_to_end
    end_to_end["setup_s"] = {"value": 1.0, "unit": "s"}
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        emitted = end_to_end if not trace else res[True]["metrics"]
        assert sorted(emitted) == sorted(m["name"] for m in SPEC[section])
        for m in SPEC[section]:
            assert emitted[m["name"]]["unit"] == m["unit"], m["name"]
            assert isinstance(emitted[m["name"]]["value"], (int, float))


def test_runs_are_correct_and_counted(results):
    _, res = results
    for r in res.values():
        assert r["correct"], r["wrong"]
        assert r["attempted"] == len(r["ops"]) >= 1
        assert 0 <= r["failed"] <= r["attempted"]
        assert r["meta"]["seed"] == SEED


def test_noise_layer_is_absent_on_exit_pde(results):
    w, res = results
    rows = res[True]["metrics"]["sde.normal_matrix.rows"]["value"]
    if w == "exit_pde":
        assert rows == 0
    else:
        assert rows > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_agree(workload):
    ops = workloads.operations(workload, SEED, TINY)
    _, plain, _ = measure.run_pass(ops)
    tracer = Tracer()
    with tracer.installed():
        _, traced, _ = measure.run_pass(ops, tracer)
    assert measure.outputs(ops, traced) == measure.outputs(ops, plain)
    assert any(not s[0].startswith("op.") for s in tracer.spans)
    for module_name, attr, _, _ in LAYERS:
        fn = getattr(importlib.import_module(module_name), attr)
        assert not hasattr(fn, "__wrapped__"), (module_name, attr)


def test_setup_is_timed_in_fresh_interpreters():
    samples = run.setup_seconds("exit_pde")
    assert len(samples) == run.SETUP_SAMPLES
    assert all(t > 0.0 and ref > 0.0 for t, ref in samples)
