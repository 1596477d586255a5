"""scripts/run_all.py: every subcommand into one report tree, exiting with
the largest stage exit code."""

import importlib.util
import json
from pathlib import Path

from lpsquare import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all.py"
SMALL = ("--set", "grid.N=64", "--set", "scales.M=8",
         "--set", "family.max_level=3",
         "--set", "corpus.one=sine(k=2) | constant()",
         "--set", "corpus.two=step(x0=0.5) | power-regularized(alpha=0.25)")


def load_run_all():
    # loaded from its path: scripts is not an installed package
    spec = importlib.util.spec_from_file_location("run_all", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN_ALL = load_run_all()
STAGES = RUN_ALL.STAGES


def run_all(argv):
    return RUN_ALL.main(argv)


def test_every_subcommand_is_a_stage():
    assert STAGES == tuple(cli._COMMANDS)


def test_passing_stages_exit_0_and_write_the_summary(tmp_path):
    out = tmp_path / "full"
    assert run_all(["--out", str(out), *SMALL]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary == {"stages": dict.fromkeys(STAGES, 0), "all_passed": True}
    for stage in STAGES:
        assert (out / stage.replace("-", "_") / "manifest.json").is_file()


def test_refused_stages_exit_2(tmp_path):
    out = tmp_path / "full"
    assert run_all(["--out", str(out), *SMALL, "--set", "scales.M=1"]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary == {"stages": dict.fromkeys(STAGES, 2), "all_passed": False}


def test_output_root_that_cannot_be_created_exits_2(tmp_path, capsys):
    out = tmp_path / "F"
    out.write_text("kept")
    assert run_all(["--out", str(out), *SMALL]) == 2
    out_text, err = capsys.readouterr()
    assert "error: output.dir" in err and "File exists" in err
    assert "Traceback" not in err
    assert "== " not in out_text  # no stage ran
    assert out.read_text() == "kept"


def test_summary_that_cannot_be_written_exits_2(tmp_path, capsys):
    out = tmp_path / "full"
    (out / "summary.json").mkdir(parents=True)
    assert run_all(["--out", str(out), *SMALL]) == 2
    err = capsys.readouterr().err
    assert "error: output.dir" in err and "Is a directory" in err
    assert "Traceback" not in err
