"""The benchmark's traced mode wraps library functions by name: every one
of them must still exist, and every traced family scan must still take its
family as a parameter named `cubes`.  It also reads the results (a tree's
nodes and checks, the corpus entry being realized), so each subcommand is
run under the tracer end to end as well."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lpsquare
from lpsquare import cli

SRC = str(Path(lpsquare.__file__).resolve().parent.parent)
TINY = ["--set", "grid.n=1", "--set", "grid.N=64", "--set", "scales.M=8",
        "--set", "family.max_level=3", "--jobs", "1"]
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# the family scans whose `cubes` argument the tracer counts, by layer
SCANS = {"weights": ("a1_constant", "ap_constant", "doubling_report"),
         "oscillation": ("blo_constant", "bmo_norm", "blo_p_norm")}


def load_tracer():
    # loaded from its path: perfbench is not an installed package
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracer = load_tracer()
    missing = [f"{module.__name__}.{name}" for module, name in tracer.TRACED
               if not callable(getattr(module, name, None))]
    assert missing == []
    assert callable(tracer.report.CorpusEntry.realize)


def test_every_traced_scan_takes_cubes():
    tracer = load_tracer()
    traced = {(module.__name__.rsplit(".", 1)[-1], name)
              for module, name in tracer.TRACED}
    for layer, names in SCANS.items():
        module = getattr(tracer, layer)
        for name in names:
            assert (layer, name) in traced
            fn = getattr(module, name)
            assert "cubes" in inspect.signature(fn).parameters, name


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_subcommand_runs_traced(tmp_path, command):
    done = subprocess.run(
        [sys.executable, str(TRACER), str(tmp_path), "--", command, *TINY,
         "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        timeout=300)
    assert done.returncode == 0, done.stderr
    trace = json.loads((tmp_path / "trace.json").read_text())
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert trace["calls"]["cli.main"] == 1
    counts = trace["counts"]
    if command == "jn":
        nodes = sum(sum(e["tree"]["nodes_per_gen"])
                    for e in manifest["entries"])
        assert counts["czd.tree_nodes"] == nodes > 0
        assert counts["czd.invariant_checks"] > 0
        # the BLO and BLO_p scan is timed in the oscillation layer
        assert counts["oscillation.cubes_scanned"] > 0
    if command == "weights":
        assert counts["weights.cubes_scanned"] > 0
