"""End-to-end command-line tests on small grids."""

import csv
import dataclasses
import ctypes
import gc
import json
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
from lpsquare.grid import Cube, dyadic_cubes, grid_function
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
                   "kernel 'nonvanishing-hat' is not certified for use at "
                   "tolerances.vanish=1e-06 (residual 8.862e-01)")


@pytest.mark.parametrize("vanish, bound", [
    ("1e-06", "tolerances.vanish=1e-06"),
    ("10", "the default bound 1e-06, at which square_functions refuses")])
def test_operators_refusal_names_the_bound_that_failed(tmp_path, capsys,
                                                       vanish, bound):
    # a residual of 0.886 passes tolerances.vanish=10; the default bound
    # is the one it fails
    assert_refused(tmp_path, capsys,
                   ("operators", "--set", "grid.N=64",
                    "--set", "tolerances.kernel=nonvanishing-hat",
                    "--set", f"tolerances.vanish={vanish}"),
                   f"kernel 'nonvanishing-hat' is not certified for use at "
                   f"tolerances.vanish={vanish} (residual 8.862e-01): "
                   f"the residual exceeds {bound}")


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


def test_config_file_and_env_seed(tmp_path, monkeypatch):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(
        "[grid]\nN = 128\n"
        "[family]\nmax_level = 3\n"
        "[corpus]\nonly = sine(k=2) | constant()\n")
    monkeypatch.setenv("LPSQUARE_SEED", "777")
    out = tmp_path / "out"
    code = main(["weights", "--config", str(cfgfile), "--out", str(out)])
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


def test_malformed_number_is_refused(tmp_path, capsys):
    assert_refused(tmp_path, capsys, ("weights", "--set", "grid.N=abc"),
                   "grid.N='abc' is not a valid int")


def test_malformed_env_seed_is_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LPSQUARE_SEED", "x")
    assert_refused(tmp_path, capsys, ("weights", "--set", "grid.N=64"),
                   "corpus.seed='x' is not a valid int")


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
    ("jn", "tolerances.vanish=abc",
     "tolerances.vanish='abc' is not a valid float"),
    ("kernel-check", "tolerances.vanish=nan",
     "tolerances.vanish must be positive"),
    ("kernel-check", "tolerances.vanish=0",
     "tolerances.vanish must be positive"),
    ("operators", "tolerances.vanish=-1e-6",
     "tolerances.vanish must be positive"),
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
              for key, (kind, _) in keys.items() if kind is float]


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
@pytest.mark.parametrize("source", ["set", "env"])
def test_negative_seed_is_refused_by_every_command(tmp_path, capsys,
                                                   monkeypatch, command,
                                                   source):
    # refused while reading the settings, even when no entry is seeded
    seed = ("--set", "corpus.seed=-1") if source == "set" else ()
    if source == "env":
        monkeypatch.setenv("LPSQUARE_SEED", "-1")
    code, out, manifest = run(tmp_path, command, "--set", "grid.N=64",
                              "--set", "family.max_level=2",
                              "--set", "scales.M=4",
                              "--set", "corpus.a=step() | constant()", *seed)
    assert code == 2
    [criterion] = manifest["criteria"]
    assert criterion["name"] == f"{command}-preconditions"
    assert criterion["detail"] == "corpus.seed must be non-negative"
    assert "corpus.seed must be non-negative" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


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


def test_kernel_check_certifies_against_the_configured_vanish(tmp_path):
    _, out, manifest = run(tmp_path / "default", "kernel-check")
    assert {k["tol_vanish"] for k in manifest["kernels"]} == {1e-6}
    default_rows = (out / "kernel_check.csv").read_text().split("\n")
    # a looser threshold is recorded and judges every row
    code, out, manifest = run(tmp_path / "loose", "kernel-check",
                              "--set", "tolerances.vanish=1e-3")
    assert code == 0
    assert {k["tol_vanish"] for k in manifest["kernels"]} == {1e-3}
    assert all(k["certified"] for k in manifest["kernels"])
    assert (out / "kernel_check.csv").read_text().split("\n") == default_rows
    # so loose that the negative control passes: the run fails on it
    code, out, manifest = run(tmp_path / "lax", "kernel-check",
                              "--set", "tolerances.vanish=1.0")
    assert code == 1
    failed = [c["name"] for c in manifest["criteria"] if not c["passed"]]
    assert failed == ["negative-control-rejected"]
    control = (out / "kernel_check.csv").read_text().strip().split("\n")[-1]
    assert control.startswith("nonvanishing-hat,1,")
    assert control.endswith(",True,fail")
    # tighter than the Poisson kernel's 2.5e-11: its row fails, CSV included
    code, out, manifest = run(tmp_path / "tight", "kernel-check",
                              "--set", "tolerances.vanish=1e-12")
    assert code == 1
    failed = [c["name"] for c in manifest["criteria"] if not c["passed"]]
    assert failed == ["certified:poisson-derivative"]
    rows = (out / "kernel_check.csv").read_text().strip().split("\n")
    assert rows[1].startswith("poisson-derivative,1,")
    assert rows[1].endswith(",False,pass")


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


@pytest.mark.parametrize("name", ["a/b", "..", ".", "", "a\0b"])
def test_entry_name_that_is_not_a_file_name_is_refused(tmp_path, capsys,
                                                       name):
    # the name is part of the jn_tail_* file names
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


def test_family_is_built_once_per_geometry():
    family = cli._family(1, 1.0, 64, 3)
    assert family is cli._family(1, 1.0, 64, 3)
    assert family == dyadic_cubes(grid_function(1, 1.0, 64, np.zeros(64)), 3)
    with pytest.raises(ValueError, match="too deep for N=4"):
        cli._family(1, 1.0, 4, 3)


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


@pytest.mark.parametrize("command", ["operators", "theorem-suite"])
def test_operator_kernel_is_judged_at_the_configured_vanish(tmp_path,
                                                            command):
    # the 1D Poisson kernel's residual is 2.5e-11
    tiny = ("--set", "grid.N=64", "--set", "scales.M=4",
            "--set", "family.max_level=2")
    code, out, manifest = run(tmp_path / "tight", command, *tiny,
                              "--set", "tolerances.vanish=1e-12")
    assert code == 2
    [criterion] = manifest["criteria"]
    assert criterion["name"] == f"{command}-preconditions"
    assert not criterion["passed"]
    assert "tolerances.vanish=1e-12" in criterion["detail"]
    assert not list(out.glob("*.csv"))
    code, _, _ = run(tmp_path / "loose", command, *tiny,
                     "--set", "tolerances.vanish=1e-10")
    assert code == 0
    # a loose tolerance does not admit the control, which square_functions
    # refuses at the default: it is refused here, naming both
    code, _, manifest = run(tmp_path / "lax", command, *tiny,
                            "--set", "tolerances.kernel=nonvanishing-hat",
                            "--set", "tolerances.vanish=1.0")
    assert code == 2
    [criterion] = manifest["criteria"]
    assert ("kernel 'nonvanishing-hat' is not certified for use at "
            "tolerances.vanish=1 (residual 8.862e-01)") in criterion["detail"]
    assert manifest["kernels"] == []


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
    kernel = cli._certified_kernel("poisson-derivative", 1, 1e-6)
    lam = cli._lambda_star(kernel, 1)
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


def test_manifest_records_tree_shape_per_entry(tmp_path):
    code, _, manifest = run(tmp_path, "jn", *FAST, "--jobs", "2")
    assert code == 0
    corpus = list(default_corpus())
    records = [e["tree"] for e in manifest["entries"]]
    assert len(records) == len(corpus)
    cfg = load_config()
    for entry, rec in zip(corpus, records):
        f, w = entry.realize(1, 1.0, 256, 1234)
        tree = cz_decompose(f, w, Cube((0.5,), 1.0, level=0),
                            sigma=cfg.sigma, max_gen=cfg.max_gen)
        assert rec == {
            "nodes_per_gen": [len(g) for g in tree.generations],
            "blocks_visited": tree.blocks_visited}
    # some entries select cubes; a tree without a cut at max_gen subdivides
    # every block of levels 0 .. log2(N) - 2
    assert sum(sum(r["nodes_per_gen"]) for r in records) > 0
    assert max(r["blocks_visited"] for r in records) == 2 ** 7 - 1
