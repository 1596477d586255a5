"""Every CSV of the benchmark's tiny workloads against its shipped reference.

Each step of perfbench/run.py's TINY_WORKLOADS (2D N=16 operators, weights
and jn, 1D N=256 theorem-suite, 1D N=1024 jn) runs in-process with the
benchmark's own settings at corpus seed 1234, and every CSV cell must lie
within the benchmark's REL_TOL of perfbench/references/tiny.  This is the
suite's only check of 2D output values.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from lpsquare.cli import main

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
SEED = 1234


def load_run():
    # loaded from its path: perfbench is not an installed package; its
    # dataclasses look their module up in sys.modules while it loads
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


run = load_run()
STEPS = [(name, i, step) for name, wl in run.TINY_WORKLOADS.items()
         for i, step in enumerate(wl.steps)]


@pytest.mark.parametrize(
    "workload,i,step", STEPS,
    ids=[f"{name}-{run.step_key(i, step)}" for name, i, step in STEPS])
def test_tiny_step_matches_reference(tmp_path, workload, i, step):
    reference = run.load_reference(workload, SEED, tiny=True)[
        run.step_key(i, step)]
    out = tmp_path / "out"
    assert main(run.step_args(step, SEED, 1, out)) == 0
    tables = run.output_tables(out)
    assert sorted(tables) == sorted(reference)
    for name, text in tables.items():
        got = [row.split(",") for row in text.splitlines()]
        want = [row.split(",") for row in reference[name].splitlines()]
        assert [len(r) for r in got] == [len(r) for r in want], name
        worst = max(((run.cell_error(g, w), g, w)
                     for gr, wr in zip(got, want) for g, w in zip(gr, wr)),
                    key=lambda e: e[0])
        assert worst[0] <= run.REL_TOL, (name, worst)
