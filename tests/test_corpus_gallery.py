"""scripts/corpus_gallery.py: one CSV per corpus pair plus an index."""

import importlib.util
from pathlib import Path

from lpsquare.report import default_corpus

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "corpus_gallery.py"


def gallery(argv):
    spec = importlib.util.spec_from_file_location("corpus_gallery", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)


def written(out):
    return sorted(p.name for p in out.iterdir())


def test_entries_file_writes_its_pairs_and_an_index(tmp_path):
    entries = tmp_path / "pairs.ini"
    entries.write_text("[corpus]\n"
                       "one = sine(k=2) | constant()\n"
                       "two = step(x0=0.5) | piecewise(seed=4)\n")
    out = tmp_path / "gallery"
    assert gallery(["--entries", str(entries), "--out", str(out),
                    "--N", "16"]) == 0
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
    assert gallery(["--out", str(out), "--N", "16"]) == 0
    assert written(out) == sorted(names + ["index.csv"])
    # an entries file whose [corpus] section lists no pairs: the same
    empty = tmp_path / "empty.ini"
    empty.write_text("[corpus]\n")
    again = tmp_path / "again"
    assert gallery(["--entries", str(empty), "--out", str(again),
                    "--N", "16"]) == 0
    assert {p: (again / p).read_bytes() for p in written(again)} == \
        {p: (out / p).read_bytes() for p in written(out)}
