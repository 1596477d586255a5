#!/usr/bin/env python3
"""Dump every corpus pair to CSV for quick plotting and inspection.

Writes one file per pair with columns x, f, w, sampled on the config's
one dimensional grid at its corpus seed, plus a small index table with
summary statistics.  --config, --set and --out mean what they mean to the
lpsquare command.  A refused setting or corpus entry prints an error and
exits 2 before any file is written, and an output directory that cannot
be created or written exits 2 the same way.  Useful when tuning corpus
entries or debugging a surprising ratio.
"""

from __future__ import annotations

import argparse
import sys

from lpsquare.grid import axis_coords
from lpsquare.report import (RunConfig, Table, emit_report, load_config,
                             unwritable)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None,
                    help="INI config; defaults apply when omitted")
    ap.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="SECTION.KEY=VALUE")
    ap.add_argument("--out", default=None,
                    help="output directory (overrides output.dir)")
    return ap.parse_args(argv)


def realize_pairs(cfg: RunConfig) -> list:
    """(entry, f, w) for each corpus entry on the config's grid; a
    refusal is a ValueError."""
    if cfg.n != 1:
        raise ValueError(f"grid.n={cfg.n}: the gallery's columns are one "
                         f"dimensional")
    if any(entry.name == "index" for entry in cfg.corpus):
        raise ValueError("corpus entry 'index' would overwrite index.csv")
    return [(entry, *entry.realize(1, cfg.L, cfg.N, cfg.seed))
            for entry in cfg.corpus]


def main(argv=None) -> int:
    args = parse_args(argv)
    out = () if args.out is None else (f"output.dir={args.out}",)
    try:
        cfg = load_config(args.config, (*args.overrides, *out))
        pairs = realize_pairs(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    index = []
    try:
        for entry, f, w in pairs:
            rows = zip(axis_coords(f).tolist(), f.values.tolist(),
                       w.values.tolist())
            emit_report([Table(entry.name, ("x", "f", "w"), tuple(rows))],
                        cfg.dir)
            index.append((entry.name, float(f.values.min()),
                          float(f.values.max()), float(w.values.min()),
                          float(w.values.max())))
        emit_report([Table("index", ("pair", "f_min", "f_max", "w_min",
                                     "w_max"), tuple(index))], cfg.dir)
    except OSError as exc:
        print(f"error: {unwritable(cfg.dir, exc)}", file=sys.stderr)
        return 2
    print(f"wrote {len(pairs)} pair files to {cfg.dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
