#!/usr/bin/env python3
"""Record one benchmark run per workload in a BENCH_<label>.json file.

    python scripts/bench.py LABEL [--seed N] [--checkout DIR]

Runs `perfbench/run.py --trace 0` of the checkout (default: this
repository) once for each workload that its BENCHMARK.json declares, one
after another, each for the `run_seconds` that file sets, and writes BENCH_<LABEL>.json next to this repository's
BENCHMARK.json. The record holds each workload's result line (the last
stdout line of run.py: correct, attempted, failed and the end-to-end
metrics), the checkout's commit and whether its tracked files differ from
it, the seed, the run length, the machine (platform, Python, nproc) and
`src_bytecode`: whether any *.pyc sat under the checkout's src/ before the
runs.  A launch that imports compiled modules sets up faster than one that
compiles them from source, so two records compare fairly only when their
`src_bytecode` agree.  run.py runs with PYTHONDONTWRITEBYTECODE=1, so no
launch compiles the checkout for the ones after it.  Beside it the record
holds OPENBLAS_NUM_THREADS and OMP_NUM_THREADS as the caller set them (null
where unset) and `numpy.__version__`: the thread counts decide how many
threads numpy's OpenBLAS starts at import, and the numpy version what an
import loads, so records compare only when these agree too.  Two records
compare field by field. Exits 1 if any workload did not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def numpy_version() -> str:
    """numpy.__version__ as the benchmark's interpreter imports it."""
    return subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        check=True, capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="repository checkout whose benchmark runs")
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    record = {
        "label": args.label,
        "commit": git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain",
                          "--untracked-files=no")),
        "seed": args.seed,
        "seconds": spec["run_seconds"],
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_bytecode": any((checkout / "src").rglob("*.pyc")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": numpy_version(),
        "workloads": {},
    }
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        done = subprocess.run(
            [sys.executable, str(checkout / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, env=env)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exit {done.returncode}\n{done.stderr}",
                  file=sys.stderr)
            ok = False
            continue
        record["workloads"][workload] = json.loads(lines[-1])
        print(f"{workload}: {lines[-1]}")
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
