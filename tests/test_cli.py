"""End-to-end command-line tests on small grids."""

import json

import numpy as np
import pytest

from lpsquare.cli import build_parser, main

FAST = ("--set", "grid.N=256", "--set", "scales.M=12",
        "--set", "family.max_level=4")


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
    code = main(["weights", "--set", "grid.mesh=4",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


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
        cache = entry["spectrum_cache"]
        assert cache["bytes"] > 0
        # M=12 scales, each looking up one kernel and one mask per cone
        # or g*_lam operator
        assert cache["hits"] + cache["misses"] == 12 * len(ops)
    # every entry after a worker's first one finds its spectra cached
    assert sum(e["spectrum_cache"]["hits"] for e in entries) > 0


@pytest.mark.parametrize("command", ["operators", "theorem-suite"])
def test_operator_csvs_do_not_depend_on_jobs(tmp_path, command):
    _, out1, _ = run(tmp_path / "serial", command, *FAST)
    code, out2, _ = run(tmp_path / "parallel", command, *FAST, "--jobs", "2")
    assert code == 0
    csvs = sorted(out1.glob("*.csv"))
    assert csvs
    for path in csvs:
        assert (out2 / path.name).read_bytes() == path.read_bytes()
