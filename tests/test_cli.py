import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from ablab.acceptance import criterion_moment_scaling
from ablab.analysis import WEAK_GAP_SLACK, z_threshold
from ablab import __version__, model
from ablab.cli import main


def run(args, out=None):
    if out is not None:
        args = [*args, "--out", str(out)]
    return CliRunner().invoke(main, args)


def test_lemma1_passes_by_the_criterion_5_window(tmp_path):
    window = criterion_moment_scaling(42).details["window"]
    result = run(["lemma1", "--replicas", "64"], tmp_path)
    report = json.loads((tmp_path / "xmoment_scaling.json").read_text())
    # without --t it runs at t = 0.2, and both reports say so
    assert report["params"]["t"] == 0.2
    header = (tmp_path / "xmoment_scaling.csv").read_text().splitlines()[0]
    assert "t=0.2" in header.split()
    assert report["threshold"] == window
    lo, hi = window
    assert report["passed"] == (lo <= report["estimate"] <= hi)
    assert result.exit_code == (0 if report["passed"] else 1)


def test_config_errors_exit_2(tmp_path):
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
    # values the package itself rejects with ValueError
    for args in (["simulate", "--step", "0"],
                 ["lemma1", "--t", "0.01"],
                 ["pde", "--t-final", "0"],
                 ["martingale", "--replicas", "1"],
                 ["martingale", "--replicas", "0"],
                 ["crossings", "--replicas", "0"]):
        out = tmp_path / args[0] / args[-1]
        result = run(args, out)
        assert result.exit_code == 2, (args, result.output)
        assert "config error:" in result.output, args
        assert not out.exists() or list(out.iterdir()) == [], args


def test_project_prints_the_projected_start():
    result = run(["project", "--x", "3", "--y", "4"])
    assert result.exit_code == 0
    assert result.output.strip() == "5.0"


def test_simulate_euler_divergence_exits_3(tmp_path):
    result = run(["simulate", "--scheme", "euler", "--epsilon", "1e-4",
                  "--step", "0.01"], tmp_path)
    assert result.exit_code == 3
    assert "divergence guard tripped" in result.output
    assert list(tmp_path.iterdir()) == []


GOLDEN = Path(__file__).parent / "data" / "simulate"
GOLDEN_VERSION = "0.1.0"  # the package version the golden files carry


@pytest.mark.parametrize("case, args", [
    ("rescaled.csv", ["--system", "rescaled"]),
    ("rescaled.json", ["--system", "rescaled", "--format", "json"]),
    ("rescaled_euler.json", ["--system", "rescaled", "--scheme", "euler",
                             "--format", "json"]),
    ("rescaled_polar.csv", ["--system", "rescaled", "--polar"]),
    ("slowtime.csv", ["--system", "slowtime"]),
    ("slowtime.json", ["--system", "slowtime", "--format", "json"]),
    ("limit-em.csv", ["--system", "limit-em"]),
    ("limit-em.json", ["--system", "limit-em", "--format", "json"]),
    ("limit-em_nodiss.json", ["--system", "limit-em", "--variant",
                              "no-dissipation", "--format", "json"]),
    ("limit-exact.csv", ["--system", "limit-exact"]),
    ("limit-exact.json", ["--system", "limit-exact", "--format", "json"]),
])
def test_simulate_writes_the_golden_path(tmp_path, case, args):
    # the golden files were written by the per-system single-path
    # simulators that replica 0 of the batch driver replaced
    result = run(["simulate", "--seed", "7", "--horizon", "0.01", "--step",
                  "0.001", "--epsilon", "0.01", *args], tmp_path)
    assert result.exit_code == 0, result.output
    system = args[1]
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

    def recording_normal_matrix(master_seed, stream_ids, n):
        drawn.extend((master_seed, int(sid)) for sid in stream_ids)
        return normal_matrix(master_seed, stream_ids, n)

    monkeypatch.setattr(model, "normal_matrix", recording_normal_matrix)
    result = run(["weak-gap", "--replicas", "32"], tmp_path)
    assert result.exit_code in (0, 1), result.output
    assert len(drawn) == 3 * 2 * 32
    assert len(set(drawn)) == len(drawn)


def test_simulate_limit_exact_rejects_no_dissipation(tmp_path):
    # the exact sampler exists for the damped variant only
    result = run(["simulate", "--system", "limit-exact", "--variant",
                  "no-dissipation", "--horizon", "0.01"], tmp_path)
    assert result.exit_code == 2
    assert "damped variant only" in result.output
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
    "simulate": {"config", "system", "scheme", "epsilon", "x0", "y0",
                 "horizon", "variant", "step", "seed", "out", "format",
                 "polar", "fresh-seed"},
    "project": {"config", "x", "y"},
    "lemma1": {"config", "epsilons", "t", "alpha", "step", "replicas",
               "seed", "out", "fresh-seed"},
    "crossings": {"config", "epsilon", "alpha", "x0", "y0", "horizon",
                  "variant", "step", "replicas", "seed", "out",
                  "fresh-seed"},
    "martingale": {"config", "epsilon", "x0", "y0", "horizon", "variant",
                   "f", "step", "replicas", "seed", "out", "fresh-seed"},
    "weak-gap": {"config", "epsilon", "x0", "y0", "horizon", "variant", "f",
                 "step", "replicas", "seed", "out", "fresh-seed"},
    "excursions": {"config", "epsilons", "a", "t", "x0", "y0", "variant",
                   "step", "replicas", "seed", "out", "fresh-seed"},
    "pde": {"config", "initial", "t-final", "n-points", "seed", "out",
            "fresh-seed"},
    "euler-arnold": {"config", "seed", "out", "fresh-seed"},
    "acceptance": {"config", "seed", "out", "fresh-seed"},
}
# The options every command used to take, whether it read them or not.
SHARED_BEFORE = ("epsilon", "alpha", "x0", "y0", "horizon", "step",
                 "replicas", "seed", "variant", "out", "format", "fresh-seed")
REMOVED = [(command, option) for command, options in OPTIONS.items()
           for option in SHARED_BEFORE if option not in options]


def test_each_command_takes_only_the_settings_it_reads():
    taken = {name: {opt[2:] for param in cmd.params if param.name != "help"
                    for opt in param.opts}
             for name, cmd in main.commands.items()}
    assert taken == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 89
    assert len(REMOVED) == 56


@pytest.mark.parametrize("command, option", REMOVED)
def test_an_option_the_command_does_not_read_exits_2(command, option):
    result = run([command, f"--{option}"])
    assert result.exit_code == 2
    assert "No such option" in result.output
    assert f"--{option}" in result.output


def test_config_precedence(tmp_path):
    cfg = tmp_path / "lab.cfg"
    # one file serves every command: project ignores replicas and polar
    cfg.write_text("x = 3\ny = 4  # start\nreplicas = 5\npolar = true\n")
    assert run(["project", "--config", str(cfg)]).output == "5.0\n"
    assert run(["project", "--config", str(cfg), "--y", "0"]).output \
        == "3.0\n"
    assert run(["project", "--y", "0", "--config", str(cfg)]).output \
        == "3.0\n"
    cfg.write_text("delta = 0.1\n")
    result = run(["project", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "unknown key 'delta'" in result.output


def test_polar_from_a_config_file_writes_the_polar_columns(tmp_path):
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
