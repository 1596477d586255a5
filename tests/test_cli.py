"""End-to-end command-line tests on small grids."""

import ast
import csv
import dataclasses
import ctypes
import gc
import json
import math
import os
import tempfile
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsquare import cli, kernels, operators, report
from lpsquare.cli import build_parser, main
from lpsquare.czd import cz_decompose
from lpsquare.grid import dyadic_cubes
from lpsquare.oscillation import single_cube_value
from lpsquare.report import (FUNCTION_FAMILIES, WEIGHT_FAMILIES, _SCHEMA,
                             default_corpus, load_config)

FAST = ("--set", "grid.N=256", "--set", "scales.M=12",
        "--set", "family.max_level=4")
# five entries named a to e
FIVE = ("--set", "corpus.a=step() | constant()",
        "--set", "corpus.b=sine(k=2) | power-regularized(alpha=0.25)",
        "--set", "corpus.c=log-spike(x0=0.3) | piecewise(seed=3)",
        "--set", "corpus.d=random-martingale(seed=5) | constant()",
        "--set", "corpus.e=sawtooth(k=4) | piecewise(seed=2)")


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    return code, out, manifest


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["jn", "--jobs", "3", "--set", "grid.N=64"])
    assert args.command == "jn"
    assert args.jobs == 3
    assert args.overrides == ["grid.N=64"]
    with pytest.raises(SystemExit):
        parser.parse_args(["frobnicate"])


def test_kernel_check_passes(tmp_path, capsys):
    code, out, manifest = run(tmp_path, "kernel-check", *FAST)
    assert code == 0
    assert manifest["all_passed"] is True
    names = {c["name"] for c in manifest["criteria"]}
    assert "certified:poisson-derivative" in names
    assert "negative-control-rejected" in names
    lines = (out / "kernel_check.csv").read_text().strip().split("\n")
    assert lines[0] == "kernel,n,residual,c1,c2,passed,expected"
    assert len(lines) == 5
    stdout = capsys.readouterr().out
    assert "[PASS] certified:poisson-derivative" in stdout


def test_weights_report(tmp_path):
    code, out, manifest = run(tmp_path, "weights", *FAST)
    assert code == 0
    lines = (out / "weights.csv").read_text().strip().split("\n")
    assert lines[0] == "pair,a1,a2,doubling_ok,doubling_margin,stability_rel"
    assert len(lines) == 13
    by_name = {line.split(",")[0]: line for line in lines[1:]}
    a1 = float(by_name["step-const"].split(",")[1])
    assert a1 == pytest.approx(1.0)


def test_operators_report(tmp_path):
    code, out, manifest = run(tmp_path, "operators", *FAST)
    assert code == 0
    lines = (out / "operators.csv").read_text().strip().split("\n")
    assert lines[0] == "pair,operator,l2_ratio"
    assert len(lines) == 1 + 12 * 3
    ratios = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(np.isfinite(r) and r >= 0 for r in ratios)
    names = {c["name"] for c in manifest["criteria"]}
    assert "constant-annihilated" in names


def test_theorem_suite_report(tmp_path):
    code, out, manifest = run(tmp_path, "theorem-suite", *FAST)
    assert code == 0
    lines = (out / "theorem_suite.csv").read_text().strip().split("\n")
    assert lines[0] == "pair,operator,blo_value,bmo_value,ratio"
    assert len(lines) == 1 + 12 * 3
    assert (out / "theorem_suite_plot.py").exists()
    kern = manifest["kernels"][0]
    assert kern["name"] == "poisson-derivative"
    assert kern["lambda_star"] == 8.0


def test_theorem_suite_refuses_uncertified_kernel(tmp_path, capsys):
    code, out, manifest = run(
        tmp_path, "theorem-suite", "--set", "grid.N=128",
        "--set", "tolerances.kernel=nonvanishing-hat")
    assert code == 2
    assert manifest["all_passed"] is False
    assert "not certified" in manifest["criteria"][0]["detail"]
    err = capsys.readouterr().err
    assert "not certified" in err


def test_operators_refuses_the_negative_control_naming_its_residual(
        tmp_path, capsys):
    assert_refused(tmp_path, capsys,
                   ("operators", "--set", "grid.N=64",
                    "--set", "tolerances.kernel=nonvanishing-hat"),
                   "kernel 'nonvanishing-hat' is not certified: its "
                   "vanishing residual 8.862e-01 exceeds 1e-06")


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
def test_manifest_kernels_share_one_record_shape(tmp_path, n, N):
    records = {}
    for command in ("kernel-check", "operators", "theorem-suite"):
        code, _, manifest = run(tmp_path / command, command,
                                "--set", f"grid.n={n}", "--set", f"grid.N={N}",
                                "--set", "scales.M=4",
                                "--set", "family.max_level=2")
        assert code == 0
        records[command] = manifest["kernels"]
    keys = {"name", "n", "certified", "residual", "tol_vanish", "c1", "c2"}
    assert [set(r) for r in records["kernel-check"]] == \
        [keys] * (3 if n == 1 else 2)
    [operators_record] = records["operators"]
    [suite_record] = records["theorem-suite"]
    assert set(operators_record) == keys
    assert set(suite_record) == keys | {"lambda_star"}
    # each record's certificate is the kernel_check.csv row of its kernel
    csv_path = tmp_path / "kernel-check" / "out" / "kernel_check.csv"
    with csv_path.open() as fh:
        rows = {row["kernel"]: row for row in csv.DictReader(fh)}
    for record in [*records["kernel-check"], operators_record, suite_record]:
        row = rows[record["name"]]
        assert (int(row["n"]), float(row["residual"]), float(row["c1"]),
                float(row["c2"])) == (n, record["residual"], record["c1"],
                                      record["c2"])
        assert record["certified"] is True and record["tol_vanish"] == 1e-6


def test_jn_report(tmp_path):
    code, out, manifest = run(tmp_path, "jn", *FAST)
    assert code == 0
    tail = (out / "jn_tail_blo_logspike-const.csv").read_text()
    assert tail.startswith("lambda,measured,bound,margin\n")
    assert (out / "jn_tail_blo_logspike-const_plot.py").exists()
    eq_lines = (out / "equivalence.csv").read_text().strip().split("\n")
    assert eq_lines[0] == "pair,p,blo_p,blo,ratio,k_bound"
    assert len(eq_lines) == 1 + 12 * 3
    for line in eq_lines[1:]:
        _, _, blo_p, blo, ratio, k = line.split(",")
        assert float(blo) <= float(blo_p) * (1 + 1e-12)
        assert float(ratio) <= float(k)
    worst = min(float(c["detail"].split("=")[1])
                for c in manifest["criteria"]
                if c["name"].startswith("tail-"))
    assert worst >= 1.0


def test_unknown_override_is_rejected(tmp_path, capsys):
    code, out, manifest = run(tmp_path, "weights", "--set", "grid.mesh=4")
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err
    assert manifest["all_passed"] is False
    assert manifest["criteria"] == [{
        "name": "weights-preconditions", "passed": False,
        "detail": "unknown config key grid.mesh"}]


def test_unknown_config_section_is_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[grid]\nN = 128\n[mesh]\nsize = 4\n")
    code, out, manifest = run(tmp_path, "jn", "--config", str(cfgfile))
    assert code == 2
    assert "unknown config section [mesh]" in capsys.readouterr().err
    assert manifest["all_passed"] is False
    assert manifest["criteria"][0]["name"] == "jn-preconditions"
    assert "[mesh]" in manifest["criteria"][0]["detail"]


def test_config_file_and_set_seed(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(
        "[grid]\nN = 128\n"
        "[family]\nmax_level = 3\n"
        "[corpus]\nonly = sine(k=2) | constant()\n")
    out = tmp_path / "out"
    code = main(["weights", "--config", str(cfgfile),
                 "--set", "corpus.seed=777", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 777
    assert manifest["grid"]["N"] == 128
    lines = (out / "weights.csv").read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("only,")


def test_jobs_do_not_change_output(tmp_path):
    args = ("jn", "--set", "grid.N=128", "--set", "family.max_level=3")
    _, out1, _ = run(tmp_path / "serial", *args)
    code, out2, _ = run(tmp_path / "parallel", *args, "--jobs", "3")
    assert code == 0
    for path in sorted(out1.glob("*.csv")):
        assert (out2 / path.name).read_bytes() == path.read_bytes()


def test_rerun_is_byte_identical(tmp_path):
    args = ("theorem-suite", "--set", "grid.N=128",
            "--set", "scales.M=8", "--set", "family.max_level=3")
    _, out1, _ = run(tmp_path / "a", *args)
    _, out2, _ = run(tmp_path / "b", *args)
    assert (out1 / "theorem_suite.csv").read_bytes() == \
        (out2 / "theorem_suite.csv").read_bytes()


def assert_refused(tmp_path, capsys, argv, message):
    code, out, manifest = run(tmp_path, *argv)
    assert code == 2
    assert manifest["all_passed"] is False
    assert message in manifest["criteria"][-1]["detail"]
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("spelling", [
    ("--out=",), ("--out", ""), ("--set", "output.dir="),
    ("--config", "run.ini")])
def test_empty_output_dir_is_refused(tmp_path, capsys, monkeypatch, spelling):
    # an empty directory would write every table into the current one
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text("[output]\ndir =\n")
    code = main(["jn", "--set", "grid.N=64", "--set", "family.max_level=3",
                 *spelling])
    assert code == 2
    # the refused run's manifest goes to the default directory, alone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "run.ini"]
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["manifest.json"]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["criteria"] == [{
        "name": "jn-preconditions", "passed": False,
        "detail": "output.dir must not be empty"}]
    assert "output.dir must not be empty" in capsys.readouterr().err


TINY = ("--set", "grid.N=64", "--set", "scales.M=8",
        "--set", "family.max_level=3")


@pytest.mark.parametrize("usage", [(), ("--jobs", "x")],
                         ids=["file", "jobs-x"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_output_dir_that_cannot_be_created_is_refused(tmp_path, capsys,
                                                      command, usage):
    # a regular file where the output directory should go
    out = tmp_path / "F"
    out.write_text("kept")
    assert main([command, *TINY, *usage, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: output.dir {str(out)!r} cannot be written: [Errno" in err
    assert "File exists" in err and "Traceback" not in err
    assert out.read_text() == "kept"


@pytest.mark.parametrize("blocked", ["kernel_check.csv", "manifest.json"])
def test_table_or_manifest_that_cannot_be_written_is_refused(tmp_path, capsys,
                                                            blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(["kernel-check", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: output.dir {str(out)!r} cannot be written: [Errno" in err
    assert "Is a directory" in err and "Traceback" not in err


def test_malformed_number_is_refused(tmp_path, capsys):
    assert_refused(tmp_path, capsys, ("weights", "--set", "grid.N=abc"),
                   "grid.N='abc' is not a valid int")


def test_zero_lambda_nodes_is_refused(tmp_path, capsys):
    assert_refused(tmp_path, capsys,
                   ("jn", "--set", "grid.N=64", "--set", "family.max_level=2",
                    "--set", "tolerances.lambda_nodes=0"),
                   "lambda_nodes must be at least 1")


def test_nan_sigma_is_refused(tmp_path, capsys):
    assert_refused(tmp_path, capsys,
                   ("jn", "--set", "grid.N=64", "--set", "family.max_level=2",
                    "--set", "tolerances.sigma=nan"),
                   "sigma must exceed 1")


@pytest.mark.parametrize("command, setting, message", [
    ("weights", "grid.N=0", "grid.N must be at least 1"),
    ("weights", "grid.L=inf", "grid.L='inf' is not finite"),
    ("jn", "tolerances.sigma=inf", "tolerances.sigma='inf' is not finite"),
    ("weights", "scales.M=abc", "scales.M='abc' is not a valid int"),
    ("jn", "tolerances.sigma=abc",
     "tolerances.sigma='abc' is not a valid float"),
    ("kernel-check", "grid.L=nan", "grid.L must be positive"),
    ("kernel-check", "scales.t_min=0", "scales.t_min must be positive"),
    ("operators", "tolerances.sigma=1", "tolerances.sigma must exceed 1"),
    ("kernel-check", "grid.N=3", "grid.N must be a power of two"),
    ("kernel-check", "grid.L=0", "grid.L must be positive"),
    ("kernel-check", "grid.L=-1", "grid.L must be positive"),
    ("kernel-check", "family.max_level=-1",
     "family.max_level must be at least 0"),
    ("weights", "scales.M=1", "scales.M must be at least 2"),
    ("weights", "scales.t_min=-1", "scales.t_min must be positive"),
    ("weights", "scales.t_max=0", "scales.t_max must be positive"),
    ("weights", "tolerances.max_gen=0",
     "tolerances.max_gen must be at least 1"),
    ("kernel-check", "grid.n=3", "grid.n must be 1 or 2"),
    ("weights", "grid.n=0", "grid.n must be 1 or 2"),
])
def test_malformed_setting_is_refused_by_every_command(
        tmp_path, capsys, command, setting, message):
    assert_refused(tmp_path, capsys, (command, "--set", setting), message)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_corpus_parameter_is_refused(tmp_path, capsys, value):
    # step(x0=nan) would realize the zero function and pass every criterion
    assert_refused(tmp_path, capsys,
                   ("weights", "--set", f"corpus.x=step(x0={value})|constant()"),
                   f"corpus entry 'x': x0='{value}' is not finite")


@pytest.mark.parametrize("command", ["weights", "operators", "theorem-suite",
                                     "jn"])
@pytest.mark.parametrize("function", ["step(width=0)", "sine(k=0)",
                                      "random-martingale(depth=0)",
                                      "random-martingale(depth=-3)"])
def test_zero_function_is_refused(tmp_path, capsys, command, function):
    # every oscillation ratio and l2 ratio divides by the function's norm
    assert_refused(tmp_path, capsys,
                   (command, "--set", "grid.N=64", "--set", "scales.M=4",
                    "--set", "family.max_level=2",
                    "--set", f"corpus.z={function} | constant()"),
                   "corpus entry 'z': the function realizes to zero")


@pytest.mark.parametrize("command", ["weights", "operators", "theorem-suite",
                                     "jn"])
@pytest.mark.parametrize("entry, message", [
    # a constant's BMO norm is 0, so every ratio would read inf
    ("step(width=1) | constant()",
     "corpus entry 'x': the function realizes to the constant 1.0 on the 1D "
     "N=64 grid"),
    ("sawtooth(k=0) | constant()",
     "corpus entry 'x': the function realizes to the constant -0.5"),
    ("sine(k=0, phase=1) | constant()",
     "corpus entry 'x': the function realizes to the constant 0.84"),
    ("step(xo=0.3) | constant()",
     "corpus entry 'x': step has no parameter 'xo'; valid: a, x0, width, "
     "seed"),
    ("step() | piecewise(lo=-1)",
     "corpus entry 'x': the weight is not strictly positive on the 1D N=64 "
     "grid"),
    ("step() | constant(c=0)",
     "corpus entry 'x': the weight is not strictly positive on the 1D N=64 "
     "grid: its minimum is 0.0"),
    ("step() | piecewise(level=7)",
     "corpus entry 'x': piecewise level=7 must lie between 0 and "
     "log2(N)=6"),
    ("step() | piecewise(level=-1)",
     "corpus entry 'x': piecewise level=-1 must lie between 0 and "
     "log2(N)=6"),
    # positive, but about 7e-46 at its minimum
    ("step() | power-regularized(alpha=25)",
     "corpus entry 'x': the weight falls below EPS_MIN=1e-12 on the 1D N=64 "
     "grid"),
    ("step() | piecewise(lo=3)",
     "corpus entry 'x': piecewise lo=3.0 must not exceed hi=1.5"),
    ("random-martingale(seed=-1) | constant()",
     "corpus entry 'x': seed='-1' must be non-negative"),
    # log(0) and 0^-1 at a sample on the spike; a positive power of 0 is
    # refused as a weight that is not strictly positive
    ("log-spike(x0=0, eps=0) | constant()",
     "corpus entry 'x': log-spike eps=0.0 leaves the distance to x0=0.0 at 0 "
     "on a sample"),
    ("step() | power-regularized(alpha=-1, x0=0.5, eps=-1)",
     "corpus entry 'x': power-regularized eps=-1.0 leaves the distance to "
     "x0=0.5 at 0 on a sample"),
])
def test_corpus_entry_is_refused(tmp_path, capsys, command, entry, message):
    assert_refused(tmp_path, capsys,
                   (command, "--set", "grid.N=64", "--set", "scales.M=4",
                    "--set", "family.max_level=2",
                    "--set", f"corpus.x={entry}"), message)


def test_jn_refuses_a_dual_weight_below_the_floor(tmp_path, capsys):
    # the weight peaks at 64^4, so w^-2 at p = 1.5 dips to about 3.6e-15
    assert_refused(tmp_path, capsys,
                   ("jn", "--set", "grid.N=64", "--set", "family.max_level=2",
                    "--set", "corpus.x=step() | power-regularized(alpha=-4)"),
                   "corpus entry 'x': w^(-1/(p-1)) at p=1.5: the weight falls "
                   "below EPS_MIN=1e-12 on the 1D N=64 grid")


def test_weights_refusal_on_the_refined_grid_names_the_entry(tmp_path,
                                                             capsys):
    # x0 = h/2 at N=64 is a sample only of the 2N grid, where the weight
    # dips to 1e-20
    assert_refused(tmp_path, capsys,
                   ("weights", "--set", "grid.N=64",
                    "--set", "family.max_level=3",
                    "--set", "corpus.x=step() | power-regularized(alpha=5, "
                             "x0=0.0078125, eps=1e-4)"),
                   "corpus entry 'x': the weight falls below EPS_MIN=1e-12 "
                   "on the 1D N=128 grid")


def test_weights_realizes_each_function_once(tmp_path, monkeypatch):
    grids = []
    realize_function = report.realize_function

    def counting(spec, n, L, N, base_seed=0):
        grids.append(N)
        return realize_function(spec, n, L, N, base_seed)

    monkeypatch.setattr(report, "realize_function", counting)
    code, _, _ = run(tmp_path, "weights", *FAST, *FIVE)
    assert code == 0
    assert grids == [256] * 5


FLOAT_KEYS = [f"{section}.{key}" for section, keys in _SCHEMA.items()
              for key, (kind, *_) in keys.items() if kind is float]


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_nan_is_refused_for_every_float_key(tmp_path, capsys, command, key):
    # refused while reading the settings, whether or not command reads key
    code, out, manifest = run(tmp_path, command, "--set", "grid.N=64",
                              "--set", "family.max_level=2",
                              "--set", "scales.M=4", "--set", f"{key}=nan")
    assert code == 2
    assert manifest["all_passed"] is False
    [criterion] = manifest["criteria"]
    assert criterion["name"] == f"{command}-preconditions"
    assert criterion["detail"].startswith(key)
    assert key in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_removed_vanish_setting_is_refused_by_every_command(tmp_path, capsys,
                                                            command):
    # kernels are certified at kernels.TOL_VANISH alone; the key is unknown
    code, out, manifest = run(tmp_path, command, "--set", "grid.N=64",
                              "--set", "family.max_level=2",
                              "--set", "scales.M=4",
                              "--set", "tolerances.vanish=1e-6")
    assert code == 2
    [criterion] = manifest["criteria"]
    assert criterion["name"] == f"{command}-preconditions"
    assert criterion["detail"] == "unknown config key tolerances.vanish"
    assert "unknown config key tolerances.vanish" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("n, name, valid", [
    (1, "bogus", "poisson-derivative, gauss-derivative, hermite2, "
                 "nonvanishing-hat"),
    (2, "hermite2", "poisson-derivative, gauss-derivative, gaussian-bump")],
    ids=["1d", "2d"])
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_unshipped_kernel_is_refused_by_every_command(tmp_path, capsys,
                                                      command, n, name,
                                                      valid):
    # refused while reading the settings, whether or not the command
    # builds the kernel; the names valid in grid.n's dimension are listed
    code, out, manifest = run(tmp_path, command, "--set", f"grid.n={n}",
                              "--set", "grid.N=16",
                              "--set", "family.max_level=2",
                              "--set", "scales.M=4",
                              "--set", f"tolerances.kernel={name}")
    message = (f"tolerances.kernel: no kernel {name!r} ships in dimension "
               f"{n}; valid: {valid}")
    assert code == 2
    [criterion] = manifest["criteria"]
    assert criterion["name"] == f"{command}-preconditions"
    assert criterion["detail"] == message
    assert message in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_negative_seed_is_refused_by_every_command(tmp_path, capsys, command):
    # refused while reading the settings, even when no entry is seeded
    code, out, manifest = run(tmp_path, command, "--set", "grid.N=64",
                              "--set", "family.max_level=2",
                              "--set", "scales.M=4",
                              "--set", "corpus.a=step() | constant()",
                              "--set", "corpus.seed=-1")
    assert code == 2
    [criterion] = manifest["criteria"]
    assert criterion["name"] == f"{command}-preconditions"
    assert criterion["detail"] == "corpus.seed must be non-negative"
    assert "corpus.seed must be non-negative" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_lpsquare_seed_in_the_environment_changes_nothing(tmp_path,
                                                          monkeypatch,
                                                          command):
    # the corpus seed is a setting like any other: --config or --set only
    args = (command, "--set", "grid.N=64", "--set", "family.max_level=2",
            "--set", "scales.M=4",
            "--set", "corpus.a=random-martingale(seed=5) | piecewise(seed=3)")
    code, out, _ = run(tmp_path / "unset", *args)
    want = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert want
    for value in ("777", "x", "-1"):
        monkeypatch.setenv("LPSQUARE_SEED", value)
        got_code, got, _ = run(tmp_path / value, *args)
        assert got_code == code
        assert {p.name: p.read_bytes() for p in got.glob("*.csv")} == want


# The programs that read settings, and the one environment access they make.
SETTINGS_READERS = [*sorted(Path(report.__file__).parent.glob("*.py")),
                    *(Path(__file__).resolve().parents[1] / "scripts" / name
                      for name in ("run_all.py", "corpus_gallery.py"))]
_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv",
                "unsetenv"}


def test_settings_are_read_from_no_environment_variable():
    found = []
    for path in SETTINGS_READERS:
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    None)
            imported = (isinstance(node, ast.ImportFrom) and
                        any(a.name in _ENVIRONMENT for a in node.names))
            if name in _ENVIRONMENT or imported:
                found.append((path.name, lines[node.lineno - 1].strip()))
    assert found == [
        ("cli.py", 'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")')]


def test_operators_refuses_an_l2_norm_that_underflows(tmp_path, capsys):
    # (1e-200)^2 underflows, so every l2 ratio would divide by zero
    assert_refused(tmp_path, capsys,
                   ("operators", "--set", "grid.N=64", "--set", "scales.M=4",
                    "--set", "corpus.x=step(a=1e-200) | constant()"),
                   "corpus entry 'x': the function's weighted L2 norm "
                   "underflows to 0 on the 1D N=64 grid")


def test_jn_refuses_a_blo_p_norm_that_underflows(tmp_path, capsys):
    # blo is 1e-200 > 0, but (1e-200)^2 underflows, so the equivalence
    # ratio at p=2 would read 0
    assert_refused(tmp_path, capsys,
                   ("jn", "--set", "grid.N=64", "--set", "family.max_level=2",
                    "--set", "corpus.x=step(a=1e-200) | constant()"),
                   "corpus entry 'x': the BLO_p norm at p=2 underflows to 0 "
                   "on the 1D N=64 grid")


@pytest.mark.parametrize("command", ["operators", "theorem-suite"])
def test_suites_raise_no_warning(tmp_path, command):
    # lambda* lies one above the threshold below which g*_lambda warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run(tmp_path, command, "--set", "grid.N=64",
                         "--set", "scales.M=8", "--set", "family.max_level=3")
    assert code == 0


def test_a_shipped_kernel_that_fails_its_certificate_is_refused(
        tmp_path, monkeypatch, capsys):
    # the certificate of the 1D Poisson kernel measures a residual above
    # TOL_VANISH; its constructor still returns it, and certified() judges
    measure = kernels.certify

    def patched(kernel):
        rep = measure(kernel)
        if (kernel.name, kernel.n) == ("poisson-derivative", 1):
            rep = dataclasses.replace(rep, p1_residual=1e-3)
        return rep

    monkeypatch.setattr(kernels, "certify", patched)
    cli._certified_kernel.cache_clear()
    code, out, manifest = run(tmp_path / "check", "kernel-check")
    assert code == 1
    failed = [c["name"] for c in manifest["criteria"] if not c["passed"]]
    assert failed == ["certified:poisson-derivative"]
    assert [k["certified"] for k in manifest["kernels"]] == [False, True, True]
    rows = (out / "kernel_check.csv").read_text().strip().split("\n")
    assert rows[1].startswith("poisson-derivative,1,0.001,")
    assert rows[1].endswith(",False,pass")
    capsys.readouterr()
    assert_refused(tmp_path / "operators", capsys,
                   ("operators", "--set", "grid.N=64", "--set", "scales.M=4"),
                   "kernel 'poisson-derivative' is not certified: its "
                   "vanishing residual 1.000e-03 exceeds 1e-06")


def test_kernel_check_fails_when_the_control_certifies(tmp_path,
                                                       monkeypatch):
    # a certifier that no longer sees the control's mass must fail the run:
    # the control is declared, not told apart by its measured residual
    measure = kernels.certify
    monkeypatch.setattr(kernels, "certify", lambda kernel: dataclasses.replace(
        measure(kernel), p1_residual=0.0))
    for n, name in ((1, "nonvanishing-hat"), (2, "gaussian-bump")):
        code, out, manifest = run(tmp_path / f"{n}d", "kernel-check",
                                  "--set", f"grid.n={n}")
        assert code == 1
        failed = [c["name"] for c in manifest["criteria"] if not c["passed"]]
        assert failed == ["negative-control-rejected"]
        assert name not in {k["name"] for k in manifest["kernels"]}
        rows = (out / "kernel_check.csv").read_text().strip().split("\n")
        assert rows[-1].startswith(f"{name},{n},0.0,")
        assert rows[-1].endswith(",True,fail")


# every subcommand on a tiny grid; the random settings come after it, and
# their values are short, so no random setting asks for a large grid
TINY = ("--set=grid.N=16", "--set=family.max_level=2", "--set=scales.M=4")
# every key, a corpus entry, an unknown key, an unknown section and no dot
SETTING_KEYS = [f"{s}.{k}" for s, keys in load_config().text.items()
                for k in keys] + ["corpus.pair", "grid.mesh", "mesh.N", "grid"]
VALUES = ["", "0", "-1", "1", "2", "3", "1.5", "0.01", "0.125", "1e-3",
          "inf", "-inf", "nan", "1e999", "abc", " 7 ", "gauss-derivative",
          "hermite2", "sine(k=2) | constant()", "sine(k=x) | constant()"]
SETTING = st.builds("{}={}".format, st.sampled_from(SETTING_KEYS),
                    st.one_of(st.sampled_from(VALUES), st.text(max_size=2)))
# corpus entries of the declared families, each parameter declared or
# misspelt; level never takes 25, which would draw 2^25 values per axis if
# its refusal were lost
PARAMETER_VALUES = ["0", "-1", "0.5", "1", "3", "25"]


def _parameter(key):
    values = PARAMETER_VALUES[:-1] if key == "level" else PARAMETER_VALUES
    return st.sampled_from(values).map(f"{key}={{}}".format)


def _family_text(families):
    def text(family):
        keys = [*families[family].__kwdefaults__, "seed"]
        params = st.sampled_from(keys + [key + "_" for key in keys])
        return st.lists(params.flatmap(_parameter), max_size=3).map(
            lambda items: f"{family}({', '.join(items)})")
    return st.sampled_from(list(families)).flatmap(text)


ENTRY = st.builds("corpus.{}={} | {}".format, st.sampled_from("pq"),
                  _family_text(FUNCTION_FAMILIES),
                  _family_text(WEIGHT_FAMILIES))


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(cli._COMMANDS)),
       items=st.lists(SETTING, max_size=2),
       entries=st.lists(ENTRY, max_size=2))
def test_any_settings_give_a_verdict_and_a_manifest(command, items, entries):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        # --set=TEXT, so that text starting with "-" is a setting's value
        code = main([command, *TINY,
                     *(f"--set={item}" for item in [*items, *entries]),
                     "--out", str(out)])
        assert code in (0, 1, 2)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["all_passed"] is (code == 0)


@pytest.mark.parametrize("name", ["a/b", "..", ".", "", "a\0b", "a,b", 'a"b',
                                  "a\\b", "a\rb", "a\nb"])
def test_entry_name_that_is_not_a_file_name_is_refused(tmp_path, capsys,
                                                       name):
    # the name is part of the jn_tail_* file names, a CSV cell and string
    # literals of the plot scripts
    assert_refused(tmp_path, capsys,
                   ("jn", "--set", "grid.N=64", "--set", "family.max_level=2",
                    "--set", f"corpus.{name}=sine(k=2) | constant()"),
                   f"corpus entry name {name!r} is not a plain file name")


def test_crash_exits_3_with_an_error_criterion(tmp_path, capsys, monkeypatch):
    def crash(cfg, jobs, manifest):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "weights", crash)
    code, _, manifest = run(tmp_path, "weights", *FAST)
    assert code == 3
    assert manifest["all_passed"] is False
    assert manifest["criteria"] == [{
        "name": "weights-error", "passed": False,
        "detail": "RuntimeError: boom"}]
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_lone_scale_endpoint_keeps_the_other_default(tmp_path):
    default = cli._make_scales(load_config(overrides=FAST[1::2]))
    for key, value in (("t_min", 0.01), ("t_max", 0.125)):
        cfg = load_config(overrides=(*FAST[1::2], f"scales.{key}={value}"))
        scales = cli._make_scales(cfg)
        assert getattr(scales, key) == value
        other = "t_max" if key == "t_min" else "t_min"
        assert getattr(scales, other) == getattr(default, other)
    _, out1, _ = run(tmp_path / "default", "operators", *FAST)
    code, out2, _ = run(tmp_path / "t_max", "operators", *FAST,
                        "--set", "scales.t_max=0.125")
    assert code == 0
    assert (out1 / "operators.csv").read_bytes() != \
        (out2 / "operators.csv").read_bytes()


@pytest.mark.parametrize("n", [1, 2])
def test_coarse_grid_runs_a_configured_scale_window(tmp_path, n):
    # at N=8 the default window [2h, L/4] is empty; a window that sets both
    # endpoints never builds it, and the constant check runs on 16 samples
    code, out, manifest = run(tmp_path, "operators", "--set", f"grid.n={n}",
                              "--set", "grid.N=8",
                              "--set", "scales.t_min=0.01",
                              "--set", "scales.t_max=0.2",
                              "--set", "scales.M=4")
    assert code == 0
    assert manifest["criteria"][-1]["name"] == "constant-annihilated"
    assert (out / "operators.csv").exists()


@pytest.mark.parametrize("n,setting,refused", [
    (2, "grid.L=1e80", None), (2, "grid.L=1e-100", None),
    (1, "grid.L=1e150", None), (1, "grid.L=1e-150", None),
    (1, "grid.L=1e160", "grid.L"),              # L^2 overflows
    (1, "grid.L=1e-160", "grid.L"),             # (L/N)^2 underflows
    (2, "grid.L=1e155", "grid.L"),
    (2, "grid.L=1e-200", "grid.L"),
    (2, "scales.t_max=1e160", "scales.t_max"),  # t^2 overflows
    (2, "scales.t_min=1e-200", "scales.t_min"),  # t^2 underflows
])
@pytest.mark.parametrize("command", ["weights", "operators", "theorem-suite",
                                     "jn"])
def test_box_sides_and_scales_far_from_1_run_or_are_refused(
        tmp_path, command, n, setting, refused):
    code, _, manifest = run(tmp_path, command, "--set", f"grid.n={n}",
                            "--set", setting, "--set", "grid.N=32",
                            "--set", "scales.M=8",
                            "--set", "family.max_level=3",
                            "--set", "corpus.a=step() | constant()")
    if refused:
        assert code == 2
        assert manifest["criteria"][-1]["detail"].startswith(refused)
        return
    assert code == 0
    for entry in manifest["entries"]:
        assert all(math.isfinite(v)
                   for v in entry.get("tail_bounds", {}).values())


def test_theorem_suite_refuses_a_scale_window_whose_ratio_overflows(
        tmp_path, capsys):
    # 1e300 / 1e-300 overflows, so every scale weight log(ratio)/(M-1)
    # would be infinite; pytest turns any RuntimeWarning into an error
    assert_refused(tmp_path, capsys,
                   ("theorem-suite", "--set", "grid.N=32", "--set",
                    "scales.M=8", "--set", "family.max_level=3",
                    "--set", "scales.t_min=1e-300",
                    "--set", "scales.t_max=1e300"),
                   "scales.t_min=1e-300 and scales.t_max=1e+300: the ratio "
                   "t_max/t_min of the scale window overflows")


def test_operators_refuses_an_operator_that_overflows(tmp_path, capsys):
    # |psi_t * f|^2 overflows for f of size 1e200; the refusal names the
    # entry, not the first of the batch
    assert_refused(tmp_path, capsys,
                   ("operators", "--set", "grid.N=32", "--set", "scales.M=8",
                    "--set", "family.max_level=3",
                    "--set", "corpus.a=step() | constant()",
                    "--set", "corpus.x=step(a=1e200) | constant()"),
                   "corpus entry 'x': the g operator overflows on the 1D N=32 "
                   "grid over the scales [0.0625, 0.25]")


def test_operators_refuses_an_l2_norm_that_overflows(tmp_path, capsys):
    # the operators stay finite, but (1e152)^2 times a weight of up to
    # 64^3 overflows the function's weighted L2 norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_refused(tmp_path, capsys,
                       ("operators", "--set", "grid.N=64",
                        "--set", "scales.M=8",
                        "--set", "corpus.x=step(a=1e152) | "
                        "power-regularized(alpha=-3)"),
                       "corpus entry 'x': the function's weighted L2 norm "
                       "overflows on the 1D N=64 grid")


@pytest.mark.parametrize("command", ["operators", "theorem-suite"])
def test_manifest_records_tail_bounds_and_cache_per_entry(tmp_path, command):
    code, _, manifest = run(tmp_path, command, *FAST, "--jobs", "2")
    assert code == 0
    entries = manifest["entries"]
    assert len(entries) == 12
    ops = {"g", "s", "gstar_8"} | ({"gstar_9"} if command == "operators"
                                   else set())
    for entry in entries:
        assert set(entry["tail_bounds"]) == ops
        assert all(np.isfinite(v) and v > 0
                   for v in entry["tail_bounds"].values())
        # M=12 scales, each building one kernel spectrum and one mask
        # spectrum per cone or g*_lam operator, once for the whole batch
        assert entry["spectra_built"] == 12 * len(ops)
    # each of the two workers ran its 6 entries as one batch
    assert [e["batch_size"] for e in entries] == [6] * 12


@pytest.mark.parametrize("command", ["operators", "theorem-suite"])
def test_operator_csvs_do_not_depend_on_jobs(tmp_path, command):
    _, out1, _ = run(tmp_path / "serial", command, *FAST)
    code, out2, _ = run(tmp_path / "parallel", command, *FAST, "--jobs", "2")
    assert code == 0
    csvs = sorted(out1.glob("*.csv"))
    assert csvs
    for path in csvs:
        assert (out2 / path.name).read_bytes() == path.read_bytes()


def test_uneven_chunks_write_the_same_csvs_as_one_batch(tmp_path):
    # five entries on two workers: chunks of 3 and 2
    for command in ("operators", "theorem-suite"):
        _, out1, serial = run(tmp_path / command / "1", command, *FAST,
                              *FIVE)
        code, out2, parallel = run(tmp_path / command / "2", command, *FAST,
                                   *FIVE, "--jobs", "2")
        assert code == 0
        assert [e["batch_size"] for e in serial["entries"]] == [5] * 5
        assert [e["batch_size"] for e in parallel["entries"]] == \
            [3, 3, 3, 2, 2]
        assert [e["name"] for e in parallel["entries"]] == list("abcde")
        csvs = sorted(out1.glob("*.csv"))
        assert csvs
        for path in csvs:
            assert (out2 / path.name).read_bytes() == path.read_bytes()


def assert_children_reaped():
    """No child of this process is left, and gc is unfrozen again."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert gc.get_freeze_count() == 0


@pytest.fixture
def forks(monkeypatch):
    """Counts the children that os.fork starts from this process."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@pytest.mark.parametrize("command",
                         ["weights", "operators", "theorem-suite", "jn"])
def test_pool_never_exceeds_the_work_items(tmp_path, forks, command):
    _, out1, _ = run(tmp_path / "1", command, *FAST, *FIVE)
    assert forks == []
    code, out64, _ = run(tmp_path / "64", command, *FAST, *FIVE,
                         "--jobs", "64")
    assert code == 0
    # one child per entry: min(jobs, items)
    assert len(forks) == 5
    assert_children_reaped()
    csvs = sorted(out1.glob("*.csv"))
    assert csvs
    for path in csvs:
        assert (out64 / path.name).read_bytes() == path.read_bytes()


def test_child_refusal_exits_2_naming_the_first_entry(tmp_path, capsys,
                                                      forks):
    # chunks (a, b, c) and (d, e): both children refuse an entry
    bad = "step(width=0) | constant()"
    code, out, manifest = run(tmp_path, "weights", *FAST, *FIVE,
                              "--set", f"corpus.b={bad}",
                              "--set", f"corpus.e={bad}", "--jobs", "2")
    assert code == 2
    assert len(forks) == 2
    assert_children_reaped()
    [criterion] = manifest["criteria"]
    assert criterion["name"] == "weights-preconditions"
    assert "corpus entry 'b'" in criterion["detail"]
    err = capsys.readouterr().err
    assert "error: corpus entry 'b'" in err
    assert not list(out.glob("*.csv"))


def test_child_crash_exits_3_with_the_child_traceback(tmp_path, capsys,
                                                      monkeypatch, forks):
    jn_row = cli._jn_row

    def boom_in_child(entry, cfg):
        if entry.name == "d":
            raise RuntimeError(f"boom in pid {os.getpid()}")
        return jn_row(entry, cfg)

    monkeypatch.setattr(cli, "_jn_row", boom_in_child)
    code, _, manifest = run(tmp_path, "jn", *FAST, *FIVE, "--jobs", "2")
    assert code == 3
    assert_children_reaped()
    [criterion] = manifest["criteria"]
    assert criterion["name"] == "jn-error"
    assert criterion["detail"] == f"RuntimeError: boom in pid {forks[1]}"
    err = capsys.readouterr().err
    # the child's frames, then the parent's
    assert err.index("in boom_in_child") < err.index("in _pmap")
    assert err.rstrip().endswith(f"RuntimeError: boom in pid {forks[1]}")


def test_unpicklable_child_exception_becomes_a_runtime_error(
        tmp_path, capsys, monkeypatch, forks):
    class Local(Exception):
        pass

    def raise_local(entry, cfg):
        raise Local("not importable")

    monkeypatch.setattr(cli, "_weights_row", raise_local)
    code, _, manifest = run(tmp_path, "weights", *FAST, "--jobs", "2")
    assert code == 3
    assert len(forks) == 2
    assert_children_reaped()
    [criterion] = manifest["criteria"]
    assert criterion["detail"].startswith("RuntimeError: ")
    assert "Local: not importable" in criterion["detail"]
    assert "in raise_local" in capsys.readouterr().err


def test_child_dying_without_a_result_exits_3(tmp_path, capsys,
                                              monkeypatch, forks):
    def die(entry, cfg):
        if entry.name == "d":
            os._exit(7)

    monkeypatch.setattr(cli, "_weights_row", die)
    code, _, manifest = run(tmp_path, "weights", *FAST, *FIVE,
                            "--jobs", "2")
    assert code == 3
    assert len(forks) == 2
    assert_children_reaped()
    [criterion] = manifest["criteria"]
    assert criterion["detail"] == (
        "RuntimeError: the child computing corpus entries ['d', 'e'] "
        "exited without a result (exit status 7)")
    assert "Traceback" in capsys.readouterr().err


def test_parent_raises_before_later_children_finish(tmp_path, monkeypatch,
                                                    forks):
    # the first chunk fails at once; the second would run for minutes
    def first_fails(entry, cfg):
        if entry.name == "a":
            raise ValueError("corpus entry 'a': refused")
        time.sleep(600)

    monkeypatch.setattr(cli, "_jn_row", first_fails)
    start = time.monotonic()
    code, _, _ = run(tmp_path, "jn", *FAST, *FIVE, "--jobs", "2")
    assert code == 2
    assert time.monotonic() - start < 60
    assert len(forks) == 2
    assert_children_reaped()


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_manifest_records_the_peak_rss_of_each_process(tmp_path, command):
    _, _, serial = run(tmp_path / "1", command, *FAST, *FIVE)
    code, _, pooled = run(tmp_path / "2", command, *FAST, *FIVE,
                          "--jobs", "2")
    assert code == 0
    assert serial["peak_rss_mib"]["chunks"] == []
    chunks = pooled["peak_rss_mib"]["chunks"]
    # kernel-check runs no corpus, so it forks no child
    assert len(chunks) == (0 if command == "kernel-check" else 2)
    assert all(peak > 0 for peak in chunks)
    assert serial["peak_rss_mib"]["launcher"] > 0
    assert pooled["peak_rss_mib"]["launcher"] > 0


def test_constant_check_runs_once_last_in_the_last_chunk(tmp_path,
                                                         monkeypatch, forks):
    g_function = operators.g_function
    ran_in = tmp_path / "pid"

    def recording(*args):
        ran_in.write_text(str(os.getpid()))
        return g_function(*args)

    monkeypatch.setattr(operators, "g_function", recording)
    criteria = []
    for jobs in ("1", "2", "3"):
        forks.clear()
        code, _, manifest = run(tmp_path / jobs, "operators", *FAST, *FIVE,
                                "--jobs", jobs)
        assert code == 0
        names = [c["name"] for c in manifest["criteria"]]
        assert names.count("constant-annihilated") == 1
        assert names[-1] == "constant-annihilated"
        criteria.append(manifest["criteria"])
        # the launcher with one chunk, else the child of the last chunk
        assert int(ran_in.read_text()) == (forks[-1] if forks
                                           else os.getpid())
    assert criteria[0] == criteria[1] == criteria[2]


def test_constant_check_failed_in_a_child_fails_the_run(tmp_path,
                                                        monkeypatch):
    def uncorrected(kernel, n, L, N, t):
        d, reps, where, _ = operators._orbits(n, L, N)
        return (operators.evaluate(kernel, operators._radius(d / t, reps))
                / t**n)[where]

    monkeypatch.setattr(operators, "_sampled_kernel", uncorrected)
    code, _, manifest = run(tmp_path, "operators", *FAST, *FIVE,
                            "--jobs", "2")
    assert code == 1
    [failed] = [c for c in manifest["criteria"] if not c["passed"]]
    assert failed == manifest["criteria"][-1]
    assert failed["name"] == "constant-annihilated"


@pytest.mark.parametrize("command", ["operators", "theorem-suite"])
def test_pass_draws_functions_and_weights_follow_it(tmp_path, monkeypatch,
                                                    command):
    events = []
    stack_pass = operators._stack_pass
    function_on = report.CorpusEntry.function_on
    weight_on = report.CorpusEntry.weight_on

    def logged(kind, realize):
        def realized(entry, *grid):
            events.append(f"{kind}:{entry.name}")
            return realize(entry, *grid)
        return realized

    def logged_pass(kernel, fs, *args):
        events.append(f"pass:{len(fs)}")
        return stack_pass(kernel, fs, *args)

    monkeypatch.setattr(operators, "_stack_pass", logged_pass)
    monkeypatch.setattr(report.CorpusEntry, "function_on",
                        logged("f", function_on))
    monkeypatch.setattr(report.CorpusEntry, "weight_on",
                        logged("w", weight_on))
    # room for two members of four operators on N=256: passes of 2, 2, 1
    monkeypatch.setattr(operators, "STACK_BYTES", 2 * 8 * 256 * (4 + 6))
    code, _, _ = run(tmp_path, command, *FAST, *FIVE)
    assert code == 0
    # operators ends with the pass of its constant check
    assert events == ["f:a", "f:b", "pass:2", "w:a", "w:b",
                      "f:c", "f:d", "pass:2", "w:c", "w:d",
                      "f:e", "pass:1", "w:e",
                      *(["pass:1"] if command == "operators" else [])]


@pytest.mark.parametrize("command", ["operators", "theorem-suite"])
def test_child_refusing_a_weight_after_its_pass_names_the_entry(
        tmp_path, capsys, forks, command):
    code, _, manifest = run(
        tmp_path, command, "--set", "grid.N=64", "--set", "scales.M=4",
        "--set", "family.max_level=2", "--set", "corpus.a=step() | constant()",
        "--set", "corpus.x=step() | power-regularized(alpha=25)",
        "--jobs", "2")
    assert code == 2
    assert len(forks) == 2
    assert_children_reaped()
    message = ("corpus entry 'x': the weight falls below EPS_MIN=1e-12 on the "
               "1D N=64 grid")
    [criterion] = manifest["criteria"]
    assert criterion["name"] == f"{command}-preconditions"
    assert criterion["detail"].startswith(message)
    assert f"error: {message}" in capsys.readouterr().err


def test_missing_mallopt_is_skipped(tmp_path, monkeypatch):
    _, out1, _ = run(tmp_path / "glibc", "jn", *FAST)
    # a C library without mallopt
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
    code, out2, _ = run(tmp_path / "none", "jn", *FAST)
    assert code == 0
    csvs = sorted(out1.glob("*.csv"))
    assert csvs
    for path in csvs:
        assert (out2 / path.name).read_bytes() == path.read_bytes()


def test_main_sets_both_malloc_thresholds(tmp_path, monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL",
                        lambda name: SimpleNamespace(mallopt=mallopt))
    assert main(["kernel-check", "--out", str(tmp_path)]) == 0
    # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD
    assert calls == [(-3, 32 << 20), (-1, 256 << 20)]


@pytest.mark.parametrize("command", ["operators", "theorem-suite"])
def test_chunk_split_into_passes_writes_the_same_csvs(tmp_path, monkeypatch,
                                                      command):
    _, out1, _ = run(tmp_path / "whole", command, *FAST)
    # room for five members of four operators on N=256: passes of 5, 5, 2
    monkeypatch.setattr(operators, "STACK_BYTES", 5 * 8 * 256 * (4 + 6))
    code, out2, manifest = run(tmp_path / "split", command, *FAST)
    assert code == 0
    assert [e["batch_size"] for e in manifest["entries"]] == [5] * 10 + [2] * 2
    assert [e["name"] for e in manifest["entries"]] == \
        [e.name for e in default_corpus()]
    csvs = sorted(out1.glob("*.csv"))
    assert csvs
    for path in csvs:
        assert (out2 / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("argv, command, message", [
    (["weights", "--jobs", "x"], "weights", "invalid int value: 'x'"),
    (["kernel-check", "--jobs", "0"], "kernel-check",
     "argument --jobs: must be at least 1, got 0"),
    (["operators", "--jobs=-3"], "operators",
     "argument --jobs: must be at least 1, got -3"),
    (["jn", "--bogus"], "jn", "unrecognized arguments: --bogus"),
    (["frobnicate"], "lpsquare", "invalid choice: 'frobnicate'"),
    # an option's value that names a subcommand is not the subcommand
    (["--config", "weights", "jn", "--jobs", "x"], "jn",
     "invalid int value: 'x'"),
])
def test_command_line_error_writes_a_manifest(tmp_path, capsys, argv,
                                              command, message):
    out = tmp_path / "out"
    assert main([*argv, f"--out={out}"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["all_passed"] is False
    [criterion] = manifest["criteria"]
    assert criterion["name"] == f"{command}-preconditions"
    assert message in criterion["detail"]
    err = capsys.readouterr().err
    assert err.startswith("usage: lpsquare") and message in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("extra", [(), ("--jobs", "0")])
def test_abbreviated_option_is_refused(tmp_path, capsys, monkeypatch, extra):
    # --ou is not --out: the run is refused, and its manifest goes to the
    # default directory
    monkeypatch.chdir(tmp_path)
    assert main(["kernel-check", "--ou", "DIR", *extra]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    [criterion] = manifest["criteria"]
    assert criterion["detail"] == "unrecognized arguments: --ou DIR"
    assert "unrecognized arguments: --ou DIR" in capsys.readouterr().err


def test_options_may_come_before_the_subcommand(tmp_path):
    args = build_parser().parse_args(["--jobs", "2", "--set", "grid.N=64",
                                      "jn", "--set", "family.max_level=3"])
    assert args.command == "jn"
    assert args.jobs == 2
    assert args.overrides == ["grid.N=64", "family.max_level=3"]
    _, before, _ = run(tmp_path / "before", "--set", "grid.N=64",
                       "--set", "family.max_level=3", "weights")
    _, after, _ = run(tmp_path / "after", "weights", "--set", "grid.N=64",
                      "--set", "family.max_level=3")
    assert (before / "weights.csv").read_bytes() == \
        (after / "weights.csv").read_bytes()


def test_exit_collection_is_skipped_by_one_handler(tmp_path, monkeypatch):
    handlers = []

    def unregister(fn):
        # atexit.unregister removes every registration of fn
        handlers[:] = [h for h in handlers if h is not fn]

    monkeypatch.setattr(cli.atexit, "register", handlers.append)
    monkeypatch.setattr(cli.atexit, "unregister", unregister)
    # run_all calls main once per stage in one process
    for command in ("kernel-check", "weights", "weights"):
        code, _, _ = run(tmp_path / command, command, "--set", "grid.N=64",
                         "--set", "family.max_level=3")
        assert code == 0
    assert handlers == [gc.freeze]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weights", "--help"])
    assert exc.value.code == 0
    assert "--jobs" in capsys.readouterr().out


def oracle_witness(kind, f, w, cubes, p=None):
    """First maximal cube of the per-cube scan, as the manifest records it."""
    vals = [single_cube_value(kind, f, w, q, p) for q in cubes]
    q = cubes[vals.index(max(vals))]
    return {"center": list(q.center), "side": q.side, "level": q.level}


def test_manifest_records_witness_cubes(tmp_path):
    code, _, suite = run(tmp_path / "suite", "theorem-suite", *FAST,
                         "--jobs", "2")
    assert code == 0
    code, _, jn = run(tmp_path / "jn", "jn", *FAST)
    assert code == 0
    kernel = cli._certified_kernel("poisson-derivative", 1)
    lam = cli._lambda_star(kernel)
    corpus = list(default_corpus())
    assert [e["name"] for e in suite["entries"]] == [e.name for e in corpus]
    assert [e["name"] for e in jn["entries"]] == [e.name for e in corpus]
    for entry, suite_rec, jn_rec in zip(corpus, suite["entries"],
                                        jn["entries"]):
        f, w = entry.realize(1, 1.0, 256, 1234)
        family = dyadic_cubes(f, 4)
        expect = {"bmo": oracle_witness("bmo", f, w, family)}
        scales = cli._make_scales(load_config(overrides=FAST[1::2]))
        [results] = cli._operator_results(kernel, [f], scales, (lam,))
        for op, res in results.items():
            expect[f"blo:{op}"] = oracle_witness("blo", res.values, w, family)
        assert suite_rec["witnesses"] == expect
        expect = {"blo": oracle_witness("blo", f, w, family)}
        for p in (1.5, 2.0, 3.0):
            expect[f"blo_p:{p:g}"] = oracle_witness("blo_p", f, w, family, p)
        assert jn_rec["witnesses"] == expect


@pytest.mark.parametrize("grid", [("grid.N=256",),
                                  ("grid.n=2", "grid.N=16")])
def test_jn_row_builds_no_single_sample_sum_table(monkeypatch, grid):
    # the local scan stops at two-sample cubes, and the default family
    # stops above them, so the level-N sum tables are never built
    realized = []
    realize = report.CorpusEntry.realize

    def keep(self, *args):
        realized.append(realize(self, *args))
        return realized[-1]

    monkeypatch.setattr(report.CorpusEntry, "realize", keep)
    cfg = load_config(overrides=(*grid, "family.max_level=3"))
    for entry in default_corpus():
        cli._jn_row(entry, cfg)
    assert len(realized) == len(default_corpus())
    for f, w in realized:
        for pyr in (f.pyramid, w.pyramid):
            assert ("sum", pyr.depth - 1) in pyr._tables
            assert ("sum", pyr.depth) not in pyr._tables


def test_manifest_records_tree_shape_per_entry(tmp_path):
    code, _, manifest = run(tmp_path, "jn", *FAST, "--jobs", "2")
    assert code == 0
    corpus = list(default_corpus())
    records = [e["tree"] for e in manifest["entries"]]
    assert len(records) == len(corpus)
    cfg = load_config()
    for entry, rec in zip(corpus, records):
        f, w = entry.realize(1, 1.0, 256, 1234)
        tree = cz_decompose(f, w, sigma=cfg.sigma, max_gen=cfg.max_gen)
        assert rec == {
            "nodes_per_gen": [len(g) for g in tree.generations],
            "blocks_visited": tree.blocks_visited}
    # some entries select cubes; a tree without a cut at max_gen subdivides
    # every block of levels 0 .. log2(N) - 2
    assert sum(sum(r["nodes_per_gen"]) for r in records) > 0
    assert max(r["blocks_visited"] for r in records) == 2 ** 7 - 1
