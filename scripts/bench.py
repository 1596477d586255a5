#!/usr/bin/env python3
"""Record alternating benchmark pairs per workload in BENCH_<label>.json.

    python scripts/bench.py LABEL --against DIR --pairs K [--seed N]
        [--checkout DIR]

Runs `perfbench/run.py --trace 0` for each workload that the checkout's
(default: this repository's) BENCHMARK.json declares, each run for the
`run_seconds` that file sets, K pairs per workload: the `against`
checkout (the parent of a change, say) and the checkout alternately,
`against` first in odd pairs (1, 3, ...), the checkout first in even ones,
each run of the run.py of its own checkout, and every workload's pairs one
after the other.  The machine drifts between runs, so only runs made close
together compare.  BENCH_<LABEL>.json is written next to this repository's
BENCHMARK.json.

The record describes each side (`checkout`, `against`): its commit, whether
its tracked files differ from it, and `src_bytecode`, whether any *.pyc sat
under its src/ before the runs.  A launch that imports compiled modules
sets up faster than one that compiles them from source, so two sides
compare fairly only when their `src_bytecode` agree.  run.py runs with
PYTHONDONTWRITEBYTECODE=1, so no launch compiles a checkout for the ones
after it.  The record also holds the seed, the run length, the machine
(platform, Python, nproc), OPENBLAS_NUM_THREADS and OMP_NUM_THREADS as the
caller set them (null where unset) and `numpy.__version__`: the thread
counts decide how many threads numpy's OpenBLAS starts at import, and the
numpy version what an import loads.  Per workload it holds every run of
both sides in order (`runs`: each the result line of run.py, its last
stdout line, with correct, attempted, failed and the end-to-end metrics;
null where a run failed), each side's median of every end-to-end metric
(`medians`), and per metric the number of pairs each side won (`wins`:
`checkout`, `against` and `ties`), better being what the checkout's
BENCHMARK.json says; a pair with a failed run counts for neither side.
Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("checkout", "against")


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def numpy_version() -> str:
    """numpy.__version__ as the benchmark's interpreter imports it."""
    return subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        check=True, capture_output=True, text=True).stdout.strip()


def describe(checkout: Path) -> dict:
    """The checkout's commit, whether its tracked files differ from it, and
    whether compiled modules sit under its src/."""
    return {
        "commit": git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain",
                          "--untracked-files=no")),
        "src_bytecode": any((checkout / "src").rglob("*.pyc")),
    }


def run_workload(checkout: Path, workload: str, seed: int,
                 seconds: float) -> dict | None:
    """The result line of one run.py run, or None if it did not run."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, env=env)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{checkout} {workload}: exit {done.returncode}\n"
              f"{done.stderr}", file=sys.stderr)
        return None
    print(f"{checkout} {workload}: {lines[-1]}")
    return json.loads(lines[-1])


def metric(result: dict | None, name: str) -> float | None:
    if result is None:
        return None
    return result["metrics"][name]["value"]


def compare_pairs(runs: dict[str, list], end_to_end: list[dict]) -> dict:
    """Each side's median of every end-to-end metric and, per metric, the
    pairs each side won; runs[side][i] is the side's run of pair i."""
    medians = {side: {} for side in SIDES}
    wins = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        for side in SIDES:
            values = [v for v in (metric(r, name) for r in runs[side])
                      if v is not None]
            medians[side][name] = (statistics.median(values) if values
                                   else None)
        count = dict.fromkeys((*SIDES, "ties"), 0)
        for mine, theirs in zip(runs["checkout"], runs["against"]):
            a, b = metric(mine, name), metric(theirs, name)
            if a is None or b is None:
                continue
            if a == b:
                count["ties"] += 1
            else:
                count["checkout" if (a < b) == lower else "against"] += 1
        wins[name] = count
    return {"medians": medians, "wins": wins}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="repository checkout whose benchmark runs")
    ap.add_argument("--against", type=Path, required=True,
                    help="second checkout, run alternately with --checkout")
    ap.add_argument("--pairs", type=int, required=True,
                    help="pairs of runs per workload")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")
    checkout = args.checkout.resolve()
    against = args.against.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "label": args.label,
        "checkout": describe(checkout),
        "against": describe(against),
        "pairs": args.pairs,
        "seed": args.seed,
        "seconds": seconds,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": numpy_version(),
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {side: [] for side in SIDES}
        for i in range(1, args.pairs + 1):
            order = ("against", "checkout") if i % 2 else SIDES
            for side in order:
                path = against if side == "against" else checkout
                result = run_workload(path, workload, args.seed, seconds)
                ok = ok and result is not None
                runs[side].append(result)
        record["workloads"][workload] = {
            "runs": runs, **compare_pairs(runs, spec["end_to_end"])}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
