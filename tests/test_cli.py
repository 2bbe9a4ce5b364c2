import json

from click.testing import CliRunner

from ablab.acceptance import criterion_moment_scaling
from ablab.cli import main


def test_lemma1_passes_by_the_criterion_5_window(tmp_path):
    window = criterion_moment_scaling(42).details["window"]
    result = CliRunner().invoke(main, ["lemma1", "--replicas", "64",
                                       "--out", str(tmp_path)])
    report = json.loads((tmp_path / "xmoment_scaling.json").read_text())
    assert report["threshold"] == window
    lo, hi = window
    assert report["passed"] == (lo <= report["estimate"] <= hi)
    assert result.exit_code == (0 if report["passed"] else 1)
