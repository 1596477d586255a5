#!/usr/bin/env python3
"""Run every lpsquare subcommand in sequence and summarize the results.

Each stage writes its tables and manifest into its own subdirectory of
the chosen output root, so a full run leaves a self-contained report
tree behind.  The script exits with the largest stage exit code: 0 when
every stage passed, 1 when a criterion failed, 2 when a stage was refused
and 3 when one crashed.  An output root that cannot be created exits 2
before any stage runs, and a summary that cannot be written exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from lpsquare.cli import main as lpsquare_main
from lpsquare.report import unwritable

STAGES = ("kernel-check", "weights", "operators", "theorem-suite", "jn")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None, help="optional config file")
    ap.add_argument("--out", default="out/full", help="output root directory")
    ap.add_argument("--jobs", type=int, default=1, help="worker processes")
    ap.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="SECTION.KEY=VALUE", help="config overrides")
    return ap.parse_args(argv)


def run_stage(stage: str, args) -> int:
    argv = [stage, "--out", str(Path(args.out) / stage.replace("-", "_")),
            "--jobs", str(args.jobs)]
    if args.config:
        argv += ["--config", args.config]
    for item in args.overrides:
        argv += ["--set", item]
    return lpsquare_main(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.out)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: {unwritable(root, exc)}", file=sys.stderr)
        return 2
    codes = {}
    for stage in STAGES:
        t0 = time.perf_counter()
        codes[stage] = run_stage(stage, args)
        dt = time.perf_counter() - t0
        print(f"== {stage}: exit {codes[stage]} ({dt:.1f}s)")
    summary = {
        "stages": codes,
        "all_passed": all(c == 0 for c in codes.values()),
    }
    try:
        (root / "summary.json").write_text(json.dumps(summary, indent=2)
                                           + "\n")
    except OSError as exc:
        print(f"error: {unwritable(root, exc)}", file=sys.stderr)
        return 2
    print(f"summary written to {root / 'summary.json'}")
    return max(codes.values())


if __name__ == "__main__":
    sys.exit(main())
