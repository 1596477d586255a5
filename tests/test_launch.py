"""What a launch loads: each subcommand imports only the library modules it
runs, no launch imports numpy.ma, numpy.polynomial or a process pool,
importing cli leaves OpenBLAS one thread unless the caller set a count, and
README's library example runs.

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
    # the Gauss–Legendre rule ships as data, so no launch solves for it
    assert "numpy.polynomial" not in numpy


def test_kernel_certification_loads_no_numpy_polynomial():
    ours, numpy = launch("import lpsquare.kernels",
                         "lpsquare.kernels.kernel_registry('gauss-derivative', 1)",
                         "lpsquare.kernels.kernel_registry('gauss-derivative', 2)")
    assert "lpsquare.kernels" in ours
    assert "numpy.polynomial" not in numpy


def test_importing_operators_loads_numpy_fft():
    # so that forked children inherit it rather than each importing it
    _, numpy = launch("import lpsquare.operators")
    assert "numpy.fft" in numpy


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="no /proc/self/status to count threads in")
@pytest.mark.parametrize("setting, threads", [(None, 1), ("2", 2)])
def test_importing_cli_runs_openblas_on_one_thread_unless_set(setting,
                                                              threads):
    if threads > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS runs no more threads than there are CPUs")
    # the environment is built here: once a test has imported cli
    # in-process, this process carries OPENBLAS_NUM_THREADS too
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    script = "\n".join([
        "import os, re", "import lpsquare.cli",
        "print(os.environ['OPENBLAS_NUM_THREADS'])",
        "print(re.search(r'^Threads:\\s*(\\d+)$', "
        "open('/proc/self/status').read(), re.M)[1])"])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout.split() == [setting or "1", str(threads)]


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


@pytest.mark.parametrize("setting, code", [
    ("family.max_level=3", 0),
    ("corpus.x=step() | constant(c=0)", 2)])
def test_launch_prints_every_criterion_and_exits_with_main(tmp_path, setting,
                                                          code):
    # main's exit handler runs at the end of a real launch, as the console
    # script makes one
    out = tmp_path / "out"
    argv = ["weights", "--set", "grid.N=64", "--set", setting,
            "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from lpsquare.cli import main; sys.exit(main())",
         *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == code
    criteria = json.loads((out / "manifest.json").read_text())["criteria"]
    assert criteria
    assert done.stdout.splitlines() == [
        f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}" +
        (f" ({c['detail']})" if c["detail"] else "") for c in criteria]
    assert (done.stderr == "") == (code == 0)
