"""scripts/bench.py: alternating pairs, with run.py and git stubbed out."""

import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
SPEC = {
    "run_seconds": 30,
    "workloads": [{"name": "tree"}, {"name": "family"}],
    "end_to_end": [{"name": "wall_s", "better": "lower"},
                   {"name": "entries_per_s", "better": "higher"}],
}


def load_bench():
    # loaded from its path: scripts is not an installed package
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root: Path, name: str) -> Path:
    path = root / name
    (path / "src").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return path


class FakeRuns:
    """Stands in for subprocess.run: git and numpy answer at once, and the
    n-th run.py launch of a checkout reads wall_s from its list."""

    def __init__(self, walls: dict[str, list[float | None]]):
        self.walls = {name: list(w) for name, w in walls.items()}
        self.launched: list[tuple[str, str]] = []

    def __call__(self, argv, **kwargs):
        if argv[0] == "git":
            out = "0123abc" if "rev-parse" in argv else ""
            return subprocess.CompletedProcess(argv, 0, out, "")
        if argv[1] == "-c":
            return subprocess.CompletedProcess(argv, 0, "2.4.6\n", "")
        assert kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
        side = Path(argv[1]).parents[1].name
        workload = argv[argv.index("--workload") + 1]
        assert argv[argv.index("--seconds") + 1] == "30"
        self.launched.append((side, workload))
        wall = self.walls[side].pop(0)
        if wall is None:
            return subprocess.CompletedProcess(argv, 1, "", "boom")
        line = {"correct": True, "attempted": 12, "failed": 0, "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "entries_per_s": {"value": 12 / wall, "unit": "entries/s"}}}
        return subprocess.CompletedProcess(argv, 0,
                                           "log\n" + json.dumps(line), "")


@pytest.fixture
def bench(tmp_path, monkeypatch):
    module = load_bench()
    monkeypatch.setattr(module, "ROOT", tmp_path)
    return module


def test_pairs_alternate_and_count_wins(bench, tmp_path, monkeypatch):
    new, old = checkout(tmp_path, "new"), checkout(tmp_path, "old")
    # tree: pairs 1-3, then family: pairs 1-3
    fake = FakeRuns({"new": [1.0, 2.0, 3.0, 1.0, 1.0, 1.0],
                     "old": [2.0, 2.0, 1.0, 1.5, 1.5, 1.5]})
    monkeypatch.setattr(bench, "subprocess", SimpleNamespace(run=fake))
    assert bench.main(["x", "--checkout", str(new), "--against", str(old),
                       "--pairs", "3"]) == 0
    # against first in odd pairs, checkout first in even ones
    order = ["old", "new", "new", "old", "old", "new"]
    assert fake.launched == ([(s, "tree") for s in order]
                             + [(s, "family") for s in order])
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert record["pairs"] == 3
    assert record["checkout"] == record["against"] == {
        "commit": "0123abc", "dirty": False, "src_bytecode": False}
    tree = record["workloads"]["tree"]
    assert [r["metrics"]["wall_s"]["value"] for r in tree["runs"]["checkout"]] \
        == [1.0, 2.0, 3.0]
    assert tree["medians"] == {"checkout": {"wall_s": 2.0, "entries_per_s": 6.0},
                               "against": {"wall_s": 2.0, "entries_per_s": 6.0}}
    for name in ("wall_s", "entries_per_s"):
        assert tree["wins"][name] == {"checkout": 1, "against": 1, "ties": 1}
        assert record["workloads"]["family"]["wins"][name] == {
            "checkout": 3, "against": 0, "ties": 0}


def test_a_failed_run_counts_for_neither_side(bench, tmp_path, monkeypatch):
    new, old = checkout(tmp_path, "new"), checkout(tmp_path, "old")
    fake = FakeRuns({"new": [1.0, None, 1.0, 1.0], "old": [2.0, 2.0, 2.0, 2.0]})
    monkeypatch.setattr(bench, "subprocess", SimpleNamespace(run=fake))
    assert bench.main(["x", "--checkout", str(new), "--against", str(old),
                       "--pairs", "2"]) == 1
    tree = json.loads((tmp_path / "BENCH_x.json").read_text())["workloads"]["tree"]
    assert tree["runs"]["checkout"][1] is None
    assert tree["wins"]["wall_s"] == {"checkout": 1, "against": 0, "ties": 0}
    assert tree["medians"]["checkout"]["wall_s"] == 1.0


@pytest.mark.parametrize("argv", [[], ["--pairs", "2"], ["--against", "."],
                                  ["--against", ".", "--pairs", "0"]])
def test_pairs_need_a_second_checkout_and_a_positive_count(bench, argv):
    with pytest.raises(SystemExit) as exc:
        bench.main(["x", *argv])
    assert exc.value.code == 2
