import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from ablab.acceptance import criterion_moment_scaling
from ablab.analysis import WEAK_GAP_SLACK, z_threshold
from ablab import __version__, model
from ablab.cli import SETTINGS, main
from simd_targets import require_recorded_targets


def run(args, out=None):
    if out is not None:
        args = [*args, "--out", str(out)]
    return CliRunner().invoke(main, args)


def test_lemma1_passes_by_the_criterion_5_window(tmp_path):
    window = criterion_moment_scaling(42).details["window"]
    result = run(["lemma1", "--replicas", "64"], tmp_path)
    report = json.loads((tmp_path / "xmoment_scaling.json").read_text())
    # without --horizon it runs at t = 0.2, and both reports say so
    assert report["params"]["t"] == 0.2
    header = (tmp_path / "xmoment_scaling.csv").read_text().splitlines()[0]
    assert "t=0.2" in header.split()
    assert report["threshold"] == window
    lo, hi = window
    assert report["passed"] == (lo <= report["estimate"] <= hi)
    assert result.exit_code == (0 if report["passed"] else 1)


@pytest.mark.parametrize("replicas", [50, 2])
def test_an_exclusion_dominated_lemma1_run_exits_3(tmp_path, replicas):
    # over t = 30 every replica dips below delta, so none is kept: a
    # degenerate run, reported before any mean of an empty sample is taken
    result = run(["lemma1", "--replicas", str(replicas), "--horizon", "30",
                  "--seed", "0"], tmp_path)
    assert result.exit_code == 3, result.output
    assert f"exclusion-dominated run: 0 of {replicas} replicas kept" \
        in result.output
    assert list(tmp_path.iterdir()) == []


def test_config_errors_exit_2(tmp_path, monkeypatch):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("epsilon = 1e-3\nepsilonn = 1e-2\n")
    result = run(["project", "--config", str(bad_key)])
    assert result.exit_code == 2
    assert "unknown key 'epsilonn'" in result.output
    result = run(["project", "--config", str(tmp_path / "missing.cfg")])
    assert result.exit_code == 2
    assert "cannot read config file" in result.output
    result = run(["lemma1", "--epsilons", "0.1,0.01"], tmp_path)
    assert result.exit_code == 2
    assert not (tmp_path / "xmoment_scaling.json").exists()
    # values the package itself rejects with ValueError, before any noise
    # is drawn
    def no_draws(*args, **kwargs):
        raise AssertionError("noise drawn for a rejected setting")

    monkeypatch.setattr(model, "normal_matrix", no_draws)
    for args in (["simulate", "--step", "0"],
                 # a horizon that is not a whole number of steps
                 ["simulate", "--horizon", "0.25", "--step", "0.1"],
                 # horizon / step overflows to infinity
                 ["simulate", "--step", "1e-320"],
                 ["simulate", "--horizon", "inf"],
                 ["lemma1", "--horizon", "0.01"],
                 ["pde", "--horizon", "0"],
                 ["pde", "--horizon", "inf"],
                 ["martingale", "--replicas", "1"],
                 ["martingale", "--replicas", "0"],
                 ["crossings", "--replicas", "0"],
                 # a start that is not finite, which every path would
                 # leave on its first step
                 ["crossings", "--replicas", "50", "--y0", "nan"],
                 ["crossings", "--replicas", "50", "--x0", "inf"],
                 ["simulate", "--x0", "inf"],
                 ["weak-gap", "--x0", "nan"],
                 ["simulate", "--epsilon", "inf"],
                 # a finite start whose projection overflows to inf
                 ["simulate", "--system", "limit-exact", "--x0", "1.5e308",
                  "--y0", "1.5e308"],
                 ["weak-gap", "--x0", "1.5e308", "--y0", "1.5e308",
                  "--replicas", "8", "--horizon", "0.01"]):
        out = tmp_path / args[0] / args[-1]
        result = run(args, out)
        assert result.exit_code == 2, (args, result.output)
        assert "config error:" in result.output, args
        assert not out.exists() or list(out.iterdir()) == [], args


def test_project_prints_the_projected_start():
    result = run(["project", "--x0", "3", "--y0", "4"])
    assert result.exit_code == 0
    assert result.output.strip() == "5.0"


@pytest.mark.parametrize("command, epsilon", [
    ("crossings", ["--epsilon", "1e-21"]),
    ("weak-gap", ["--epsilon", "1e-21"]),
    ("martingale", ["--epsilon", "1e-21"]),
    ("excursions", ["--epsilons", "1e-19,1e-20,1e-21"])])
def test_a_divergence_dominated_run_exits_3(tmp_path, command, epsilon):
    # at these epsilons every one of the 8 paths trips the guard: each
    # fast-slow command stops on one rule, before it writes a report
    result = run([command, *epsilon, "--x0", "1", "--y0", "1",
                  "--horizon", "0.003", "--replicas", "8"], tmp_path)
    assert result.exit_code == 3, result.output
    assert "divergence-dominated run: 8 of 8 replicas tripped the guard" \
        in result.output
    assert list(tmp_path.iterdir()) == []


def test_simulate_divergence_exits_3(tmp_path):
    # at this epsilon the one path trips the guard, as in the test above
    result = run(["simulate", "--epsilon", "1e-21", "--x0", "1", "--y0", "1",
                  "--horizon", "0.003"], tmp_path)
    assert result.exit_code == 3, result.output
    assert "divergence guard tripped" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("system", ["limit-exact"])
def test_a_limit_path_starts_at_the_projected_start(tmp_path, system):
    # the planar path from (3, 4) has radius 5, so its limit starts at 5
    result = run(["simulate", "--system", system, "--x0", "3", "--y0", "4",
                  "--horizon", "0.01"], tmp_path)
    assert result.exit_code == 0, result.output
    rows = (tmp_path / f"path_{system}_seed42.csv").read_text().splitlines()
    assert rows[1:3] == ["t,y", "0,5"]


@pytest.mark.parametrize("system", ["limit-exact"])
def test_a_limit_system_rejects_epsilon_and_polar(tmp_path, system):
    args = ["simulate", "--system", system, "--horizon", "0.01"]
    for option in (["--epsilon", "0.5"], ["--polar"]):
        out = tmp_path / option[0][2:]
        result = run([*args, *option], out)
        assert result.exit_code == 2, result.output
        assert f"--system {system} does not read {option[0]}" \
            in result.output
        assert not out.exists() or list(out.iterdir()) == []
    # a config file serves every command, so its keys stay ignored
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("epsilon = 0.5\npolar = true\n")
    out = tmp_path / "config"
    result = run([*args, "--config", str(cfg)], out)
    assert result.exit_code == 0, result.output
    rows = (out / f"path_{system}_seed42.csv").read_text().splitlines()
    assert rows[1] == "t,y"


def test_a_json_path_rejects_polar(tmp_path):
    # a JSON path has no radius or angle columns
    args = ["simulate", "--format", "json", "--horizon", "0.01"]
    result = run([*args, "--polar"], tmp_path / "polar")
    assert result.exit_code == 2, result.output
    assert "--format json does not read --polar" in result.output
    assert not (tmp_path / "polar").exists() \
        or list((tmp_path / "polar").iterdir()) == []
    # a config file serves every command, so its keys stay ignored
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("polar = true\n")
    for out, extra in (("config", ["--config", str(cfg)]), ("plain", [])):
        result = run([*args, *extra], tmp_path / out)
        assert result.exit_code == 0, result.output
    assert (tmp_path / "config" / "path_rescaled_seed42.json").read_text() \
        == (tmp_path / "plain" / "path_rescaled_seed42.json").read_text()


GOLDEN = Path(__file__).parent / "data" / "simulate"
GOLDEN_VERSION = "0.1.0"  # the package version the golden files carry
# Each case's id is written out, so adding or deleting a case renames no
# other; the ids are the ones pytest first gave the cases by position.
GOLDEN_CASES = {
    "rescaled.csv-args0": ("rescaled.csv", ["--system", "rescaled"]),
    "rescaled.json-args1": ("rescaled.json", ["--system", "rescaled",
                                              "--format", "json"]),
    "rescaled_polar.csv-args3": ("rescaled_polar.csv",
                                 ["--system", "rescaled", "--polar"]),
    "slowtime.csv-args4": ("slowtime.csv", ["--system", "slowtime"]),
    "slowtime.json-args5": ("slowtime.json", ["--system", "slowtime",
                                              "--format", "json"]),
    "limit-exact.csv-args8": ("limit-exact.csv", ["--system",
                                                  "limit-exact"]),
    "limit-exact.json-args9": ("limit-exact.json", ["--system",
                                                    "limit-exact",
                                                    "--format", "json"]),
}


@pytest.mark.parametrize("case, args", list(GOLDEN_CASES.values()),
                         ids=list(GOLDEN_CASES))
def test_simulate_writes_the_golden_path(tmp_path, case, args):
    require_recorded_targets()
    # the golden files were written by the per-system single-path
    # simulators that replica 0 of the batch driver replaced
    system = args[1]
    # the limit system has no epsilon, and rejects one given to it
    epsilon = [] if system == "limit-exact" else ["--epsilon", "0.01"]
    result = run(["simulate", "--seed", "7", "--horizon", "0.01", "--step",
                  "0.001", *epsilon, *args], tmp_path)
    assert result.exit_code == 0, result.output
    fmt = case.rsplit(".", 1)[1]
    written = (tmp_path / f"path_{system}_seed7.{fmt}").read_text()
    golden = (GOLDEN / case).read_text()
    if fmt == "json":
        doc, want = json.loads(written), json.loads(golden)
        assert doc.pop("version") == __version__
        assert want.pop("version") == GOLDEN_VERSION
        assert doc == want
    else:
        meta, body = written.split("\n", 1)
        want_meta, want_body = golden.split("\n", 1)
        assert meta == want_meta.replace(f"ablab={GOLDEN_VERSION}",
                                         f"ablab={__version__}")
        assert body == want_body


def test_simulate_takes_only_the_systems_with_a_golden_path(tmp_path):
    systems = {args[1] for _, args in GOLDEN_CASES.values()}
    assert set(SETTINGS["system"]["type"].choices) == systems
    result = run(["simulate", "--system", "limit"], tmp_path)
    assert result.exit_code == 2
    assert "Invalid value for '--system'" in result.output
    assert list(tmp_path.iterdir()) == []


def test_euler_arnold_exits_0(tmp_path):
    result = run(["euler-arnold"], tmp_path)
    assert result.exit_code == 0
    report = json.loads((tmp_path / "euler_arnold.json").read_text())
    assert report["passed"] and report["estimate"] == 0


def _martingale_rule(report):
    ctrl = report["params"]["control"]
    return abs(ctrl["estimate"]) < z_threshold(ctrl["std_error"])


@pytest.mark.parametrize("command, report_name, extra_rule", [
    ("martingale", "martingale.json", _martingale_rule),
    ("weak-gap", "weak_gap.json", lambda report: True),
])
def test_weak_gap_reports_follow_the_threshold_table(tmp_path, command,
                                                     report_name, extra_rule):
    result = run([command, "--replicas", "64"], tmp_path)
    report = json.loads((tmp_path / report_name).read_text())
    thresh = z_threshold(report["std_error"], WEAK_GAP_SLACK)
    assert report["threshold"] == thresh
    assert report["passed"] == (abs(report["estimate"]) < thresh
                                and extra_rule(report))
    assert result.exit_code == (0 if report["passed"] else 1)


def test_weak_gap_draws_each_stream_once(tmp_path, monkeypatch):
    # the KS reference sample must be independent of both simulations, so
    # no (master_seed, stream_id) may be read twice in one run
    drawn = []
    normal_matrix = model.normal_matrix

    def recording_normal_matrix(master_seed, stream_ids, n, out=None):
        drawn.extend((master_seed, int(sid)) for sid in stream_ids)
        return normal_matrix(master_seed, stream_ids, n, out=out)

    monkeypatch.setattr(model, "normal_matrix", recording_normal_matrix)
    result = run(["weak-gap", "--replicas", "32"], tmp_path)
    assert result.exit_code in (0, 1), result.output
    assert len(drawn) == 3 * 2 * 32
    assert len(set(drawn)) == len(drawn)


def test_martingale_rejects_a_start_at_the_origin_before_drawing(
        tmp_path, monkeypatch):
    # the limit control starts at the projected start, 0 here, which
    # LimitParams rejects: no path of the perturbed system is simulated
    def no_draws(*args, **kwargs):
        raise AssertionError("noise drawn for a rejected start")

    monkeypatch.setattr(model, "normal_matrix", no_draws)
    result = run(["martingale", "--x0", "0", "--y0", "0", "--replicas",
                  "32"], tmp_path)
    assert result.exit_code == 2
    assert "y0 must be positive" in result.output
    assert list(tmp_path.iterdir()) == []


CLI_GOLDEN = Path(__file__).parent / "data" / "cli"


def _with_version(golden: str) -> str:
    return golden.replace(f'"version": "{GOLDEN_VERSION}"',
                          f'"version": "{__version__}"').replace(
        f"ablab={GOLDEN_VERSION}", f"ablab={__version__}")


@pytest.mark.parametrize("command, files", [
    ("lemma1", ["xmoment_scaling.csv", "xmoment_scaling.json"]),
    ("crossings", ["crossings.json"]),
    ("martingale", ["martingale.json"]),
    ("weak-gap", ["weak_gap.json"]),
    ("excursions", ["excursions.json"]),
    ("euler-arnold", ["euler_arnold.json"]),
])
def test_report_commands_write_the_golden_reports(tmp_path, command, files):
    require_recorded_targets()
    # the golden files and printed lines were written while every command
    # still took the same shared options
    args = [command] if command == "euler-arnold" \
        else [command, "--replicas", "32"]
    result = run(args, tmp_path)
    assert result.exit_code == 0, result.output
    assert result.output.replace(str(tmp_path), "OUT") \
        == (CLI_GOLDEN / f"{command}.stdout").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    for name in files:
        assert (tmp_path / name).read_text() \
            == _with_version((CLI_GOLDEN / name).read_text())


# Each command takes --config plus the settings it reads.
OPTIONS = {
    "simulate": {"config", "system", "epsilon", "x0", "y0", "horizon",
                 "step", "seed", "out", "format", "polar"},
    "project": {"config", "x0", "y0"},
    "lemma1": {"config", "epsilons", "horizon", "step", "replicas", "seed",
               "out"},
    "crossings": {"config", "epsilon", "alpha", "x0", "y0", "horizon",
                  "step", "replicas", "seed", "out"},
    "martingale": {"config", "epsilon", "x0", "y0", "horizon", "f", "step",
                   "replicas", "seed", "out"},
    "weak-gap": {"config", "epsilon", "x0", "y0", "horizon", "f", "step",
                 "replicas", "seed", "out"},
    "excursions": {"config", "epsilons", "a", "horizon", "x0", "y0", "step",
                   "replicas", "seed", "out"},
    "pde": {"config", "f", "horizon", "n-points", "seed", "out"},
    "euler-arnold": {"config", "seed", "out"},
    "acceptance": {"config", "seed", "out"},
}
# The options every command used to take, whether it read them or not.
SHARED_BEFORE = ("epsilon", "alpha", "x0", "y0", "horizon", "step",
                 "replicas", "seed", "variant", "out", "format", "fresh-seed")
REMOVED = [(command, option) for command, options in OPTIONS.items()
           for option in SHARED_BEFORE if option not in options]
# The second names a horizon, a start and a test function once had, and the
# scheme option that no command takes since each system has one scheme.
RETIRED = [(command, option) for command in OPTIONS
           for option in ("x", "y", "t", "t-final", "initial", "scheme")]


def test_each_command_takes_only_the_settings_it_reads():
    taken = {name: {opt[2:] for param in cmd.params if param.name != "help"
                    for opt in param.opts}
             for name, cmd in main.commands.items()}
    assert taken == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 73
    assert len(REMOVED) == 66


def test_every_setting_is_read_by_some_command():
    read = {param.name for cmd in main.commands.values()
            for param in cmd.params} - {"config", "help"}
    assert read == set(SETTINGS)
    assert len(SETTINGS) == 16


@pytest.mark.parametrize("command, option", REMOVED + RETIRED)
def test_an_option_the_command_does_not_read_exits_2(command, option):
    result = run([command, f"--{option}"])
    assert result.exit_code == 2
    assert "No such option" in result.output
    assert f"--{option}" in result.output


def test_config_precedence(tmp_path):
    cfg = tmp_path / "lab.cfg"
    # one file serves every command: project ignores replicas and polar
    cfg.write_text("x0 = 3\ny0 = 4  # start\nreplicas = 5\npolar = true\n")
    assert run(["project", "--config", str(cfg)]).output == "5.0\n"
    assert run(["project", "--config", str(cfg), "--y0", "0"]).output \
        == "3.0\n"
    assert run(["project", "--y0", "0", "--config", str(cfg)]).output \
        == "3.0\n"
    # a key outside SETTINGS is an error, variant and scheme included
    for key, value in (("delta", "0.1"), ("variant", "dissipative"),
                       ("scheme", "euler")):
        cfg.write_text(f"{key} = {value}\n")
        result = run(["project", "--config", str(cfg)])
        assert result.exit_code == 2
        assert f"unknown key {key!r}" in result.output


def test_one_config_file_sets_horizon_start_and_f_for_every_command(
        tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("horizon = 0.3\nx0 = 3\ny0 = 4\nf = inv\n"
                   "replicas = 16\n")
    assert run(["project", "--config", str(cfg)]).output == "5.0\n"
    reports = {"lemma1": "xmoment_scaling.json",
               "excursions": "excursions.json", "pde": "pde_probes.json"}
    params = {}
    for command, name in reports.items():
        out = tmp_path / command
        result = run([command, "--config", str(cfg)], out)
        assert result.exit_code in (0, 1), result.output
        params[command] = json.loads((out / name).read_text())["params"]
    # each report keeps its own key for the horizon
    assert params["lemma1"]["t"] == 0.3
    assert params["excursions"]["t"] == 0.3
    assert params["pde"]["t_final"] == 0.3
    assert params["pde"]["initial"] == "1/(1+y^2)"
    header = (tmp_path / "lemma1" / "xmoment_scaling.csv").read_text()
    assert "t=0.3" in header.splitlines()[0].split()


def test_polar_from_a_config_file_writes_the_polar_columns(tmp_path):
    require_recorded_targets()
    cfg = tmp_path / "polar.cfg"
    cfg.write_text("polar = true\nseed = 7\nhorizon = 0.01\n"
                   "step = 0.001\nepsilon = 0.01\n")
    out = tmp_path / "out"
    result = run(["simulate", "--config", str(cfg)], out)
    assert result.exit_code == 0, result.output
    meta, body = (out / "path_rescaled_seed7.csv").read_text().split("\n", 1)
    want_meta, want_body = (GOLDEN / "rescaled_polar.csv").read_text() \
        .split("\n", 1)
    assert meta == want_meta.replace(f"ablab={GOLDEN_VERSION}",
                                     f"ablab={__version__}")
    assert body == want_body
