#!/usr/bin/env python3
"""Dump every corpus pair to CSV for quick plotting and inspection.

Writes one file per pair with columns x, f, w (one dimensional runs
only) plus a small index table with summary statistics.  Useful when
tuning corpus entries or debugging a surprising ratio.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from lpsquare.grid import axis_coords
from lpsquare.report import Table, load_config, table_csv


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/gallery", help="output directory")
    ap.add_argument("--entries", default=None,
                    help="optional config file (INI with a [corpus] section); "
                    "the built-in corpus when it lists no pairs")
    ap.add_argument("--N", type=int, default=1024, help="samples per axis")
    ap.add_argument("--L", type=float, default=1.0, help="box side")
    ap.add_argument("--seed", type=int, default=1234, help="base seed")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    corpus = load_config(args.entries).corpus
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for entry in corpus:
        f, w = entry.realize(1, args.L, args.N, args.seed)
        x = axis_coords(f)
        lines = ["x,f,w"]
        lines += [f"{xi!r},{fi!r},{wi!r}"
                  for xi, fi, wi in zip(x, f.values, w.values)]
        (out / f"{entry.name}.csv").write_text("\n".join(lines) + "\n")
        rows.append((entry.name, float(np.min(f.values)), float(np.max(f.values)),
                     float(np.min(w.values)), float(np.max(w.values))))
    index = Table("index", ("pair", "f_min", "f_max", "w_min", "w_max"),
                  tuple(rows))
    (out / "index.csv").write_text(table_csv(index))
    print(f"wrote {len(rows)} pair files to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
