"""What a launch loads: each subcommand imports only the library modules it
runs, no launch imports numpy.ma or a process pool, and README's library
example runs.

Every check runs in a fresh interpreter, so no other test's imports count.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lpsquare

SRC = str(Path(lpsquare.__file__).resolve().parent.parent)
README = Path(__file__).resolve().parents[1] / "README.md"
BASE = {"lpsquare", "lpsquare.cli", "lpsquare.grid", "lpsquare.report",
        "lpsquare.weights"}
# library modules each subcommand runs, beyond those cli itself imports
RUNS = {
    "kernel-check": {"lpsquare.kernels"},
    "weights": set(),
    "operators": {"lpsquare.kernels", "lpsquare.operators"},
    "theorem-suite": {"lpsquare.kernels", "lpsquare.operators",
                      "lpsquare.oscillation"},
    "jn": {"lpsquare.czd", "lpsquare.oscillation"},
}
TINY = ["--set", "grid.N=64", "--set", "scales.M=8",
        "--set", "family.max_level=3", "--jobs", "1"]


def launch(*lines: str) -> tuple[set[str], set[str]]:
    """Import lpsquare.cli in a fresh interpreter, run lines there, and
    return the lpsquare modules and the numpy subpackages then loaded."""
    script = "\n".join([
        "import json, sys", "import lpsquare.cli", *lines,
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] "
        "in ('lpsquare', 'numpy') and m.count('.') <= 1)))"])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC},
                          check=True)
    modules = set(json.loads(done.stdout.splitlines()[-1]))
    ours = {m for m in modules if m.split(".")[0] == "lpsquare"}
    return ours, modules - ours


def test_importing_cli_loads_no_subcommand_module():
    ours, numpy = launch()
    assert ours == BASE
    assert "numpy.ma" not in numpy
    assert "numpy.polynomial" not in numpy


@pytest.mark.parametrize("command", sorted(RUNS))
def test_each_subcommand_loads_only_what_it_runs(tmp_path, command):
    argv = [command, *TINY, "--out", str(tmp_path / "out")]
    # a failed assert exits non-zero, and launch raises
    ours, numpy = launch(f"assert lpsquare.cli.main({argv!r}) == 0")
    assert ours == BASE | RUNS[command]
    assert "numpy.ma" not in numpy
    # Gauss–Legendre nodes load with the first kernel certification
    assert ("numpy.polynomial" in numpy) == ("lpsquare.kernels" in ours)


def test_gauss_legendre_nodes_load_on_first_certification():
    ours, numpy = launch("import lpsquare.kernels")
    assert "lpsquare.kernels" in ours
    assert "numpy.polynomial" not in numpy
    _, numpy = launch("import lpsquare.kernels",
                      "lpsquare.kernels.kernel_registry('gauss-derivative', 1)")
    assert "numpy.polynomial" in numpy


def test_readme_python_example_runs():
    [example] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    done = subprocess.run([sys.executable, "-c", example], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC},
                          check=True)
    # the BLO constant of the log spike's g function
    assert float(done.stdout) == pytest.approx(0.5313271523010675, rel=1e-9)


@pytest.mark.parametrize("runs", [False, True])
def test_no_launch_loads_a_process_pool(tmp_path, runs):
    # children are forked directly; no concurrent.futures or multiprocessing
    argv = ["jn", *TINY[:-2], "--jobs", "2", "--out", str(tmp_path / "out")]
    script = "\n".join([
        "import sys", "import lpsquare.cli",
        *([f"assert lpsquare.cli.main({argv!r}) == 0"] if runs else []),
        "print(sorted(m for m in sys.modules if m.split('.')[0] "
        "in ('concurrent', 'multiprocessing')))"])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC},
                          check=True)
    assert done.stdout.splitlines()[-1] == "[]"
