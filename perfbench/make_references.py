#!/usr/bin/env python3
"""Write the reference tables that run.py checks every launch against.

    python3 perfbench/make_references.py [--tiny] [WORKLOAD ...]

For each workload and each corpus seed in run.CORPUS_SEEDS (only the
first with --tiny) this runs the workload's subcommands once and stores their CSV tables as
references/<full|tiny>/<workload>/seed-<seed>.json, a map from step key
("0-operators") to {table file name: CSV text}.  Run it only on a commit
whose outputs are trusted: a later run that differs from these tables by
more than run.REL_TOL fails the benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run


def reference_for(name: str, wl: run.Workload, corpus_seed: int) -> dict:
    tables = {}
    for i, step in enumerate(wl.steps):
        key = run.step_key(i, step)
        out = run.OUT_ROOT / "references" / name / key
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        argv = [sys.executable, "-c", run.LAUNCH,
                *run.step_args(step, corpus_seed, run.JOBS, out)]
        code = run.launch(argv, out / "launch.log",
                          time.monotonic() + run.DEADLINE_S).code
        manifest = json.loads((out / "manifest.json").read_text())
        if code != 0 or not manifest["all_passed"]:
            raise SystemExit(f"{name} seed {corpus_seed} {key}: exit {code}, "
                             f"all_passed={manifest['all_passed']}")
        tables[key] = run.output_tables(out)
    return tables


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args(argv)
    run.require_source()
    workloads = run.TINY_WORKLOADS if args.tiny else run.WORKLOADS
    # the smoke run uses --seed 0 only
    seeds = run.CORPUS_SEEDS[:1] if args.tiny else run.CORPUS_SEEDS
    for name in args.workloads or sorted(workloads):
        for seed in seeds:
            path = run.reference_path(name, seed, args.tiny)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(reference_for(name, workloads[name], seed),
                                       indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
