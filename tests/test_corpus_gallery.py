"""scripts/corpus_gallery.py: one CSV per corpus pair plus an index."""

import csv
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lpsquare.grid import axis_coords
from lpsquare.report import default_corpus, load_config

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "corpus_gallery.py"


def gallery(argv):
    spec = importlib.util.spec_from_file_location("corpus_gallery", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)


def written(out):
    return sorted(p.name for p in out.iterdir())


def read_floats(path):
    """The header and the rows of a CSV whose every cell is a float."""
    with path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array([[float(cell) for cell in row] for row in rows])


def test_config_file_writes_its_pairs_and_an_index(tmp_path):
    entries = tmp_path / "pairs.ini"
    entries.write_text("[corpus]\n"
                       "one = sine(k=2) | constant()\n"
                       "two = step(x0=0.5) | piecewise(seed=4)\n")
    out = tmp_path / "gallery"
    assert gallery(["--config", str(entries), "--out", str(out),
                    "--set", "grid.N=16"]) == 0
    assert written(out) == ["index.csv", "one.csv", "two.csv"]
    lines = (out / "one.csv").read_text().splitlines()
    assert lines[0] == "x,f,w" and len(lines) == 17
    index = (out / "index.csv").read_text().splitlines()
    assert index[0] == "pair,f_min,f_max,w_min,w_max"
    assert [row.split(",")[0] for row in index[1:]] == ["one", "two"]


def test_no_entries_writes_the_default_pairs(tmp_path):
    names = sorted(f"{e.name}.csv" for e in default_corpus())
    assert len(names) == 12
    out = tmp_path / "gallery"
    assert gallery(["--out", str(out), "--set", "grid.N=16"]) == 0
    assert written(out) == sorted(names + ["index.csv"])
    # every cell of every pair file is a plain decimal float
    for name in names:
        header, cells = read_floats(out / name)
        assert header == ["x", "f", "w"] and cells.shape == (16, 3)
    # a config file whose [corpus] section lists no pairs: the same
    empty = tmp_path / "empty.ini"
    empty.write_text("[corpus]\n")
    again = tmp_path / "again"
    assert gallery(["--config", str(empty), "--out", str(again),
                    "--set", "grid.N=16"]) == 0
    assert {p: (again / p).read_bytes() for p in written(again)} == \
        {p: (out / p).read_bytes() for p in written(out)}


def test_samples_follow_the_config_grid_and_seed(tmp_path):
    # the grid and seed come from the file, the output dir from output.dir
    out = tmp_path / "gallery"
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[grid]\nN = 64\nL = 2.0\n"
                       "[corpus]\nseed = 7\n"
                       "mart = random-martingale(seed=5) | piecewise(seed=3)\n"
                       f"[output]\ndir = {out}\n")
    assert gallery(["--config", str(cfgfile)]) == 0
    assert written(out) == ["index.csv", "mart.csv"]
    cfg = load_config(cfgfile)
    [entry] = cfg.corpus
    f, w = entry.realize(1, 2.0, 64, 7)
    header, cells = read_floats(out / "mart.csv")
    assert header == ["x", "f", "w"]
    assert np.array_equal(cells, np.column_stack(
        [axis_coords(f), f.values, w.values]))
    with (out / "index.csv").open(newline="") as fh:
        [_, row] = list(csv.reader(fh))
    assert row[0] == "mart"
    assert [float(c) for c in row[1:]] == [f.values.min(), f.values.max(),
                                          w.values.min(), w.values.max()]
    # --set overrides the file, as it does for the lpsquare command
    again = tmp_path / "again"
    assert gallery(["--config", str(cfgfile), "--set", "corpus.seed=8",
                    "--out", str(again)]) == 0
    f8, _ = entry.realize(1, 2.0, 64, 8)
    assert np.array_equal(read_floats(again / "mart.csv")[1][:, 1], f8.values)
    assert not np.array_equal(f8.values, f.values)


@pytest.mark.parametrize("setting, message", [
    ("grid.N=3", "grid.N must be a power of two"),
    ("grid.L=-1", "grid.L must be positive"),
    ("corpus.seed=-5", "corpus.seed must be non-negative"),
    ("grid.n=2", "grid.n=2: the gallery's columns are one dimensional"),
    ("corpus.flat=step(width=0) | constant()", "corpus entry 'flat'"),
    ("corpus.index=step() | constant()", "corpus entry 'index'"),
])
def test_refused_setting_exits_2_and_writes_nothing(tmp_path, capsys,
                                                    setting, message):
    out = tmp_path / "gallery"
    out.mkdir()
    # the refused entry comes after an accepted one
    assert gallery(["--out", str(out), "--set", "corpus.a=sine() | constant()",
                    "--set", setting]) == 2
    assert written(out) == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_output_dir_that_cannot_be_created_exits_2(tmp_path, capsys):
    out = tmp_path / "F"
    out.write_text("kept")
    assert gallery(["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: output.dir {str(out)!r} cannot be "
                          f"written: [Errno")
    assert "File exists" in err and "Traceback" not in err
    assert out.read_text() == "kept"
