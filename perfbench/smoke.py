#!/usr/bin/env python3
"""Smoke run of the benchmark on tiny grids (about a minute).

    python3 perfbench/smoke.py

Runs run.py --tiny on every workload of BENCHMARK.json, untraced and
traced, and checks the result line: exactly the keys correct, attempted,
failed and metrics; a correct run with no failures; and every end-to-end
(untraced) or per-layer (traced) metric of BENCHMARK.json present, with its
unit, and no other.  Exits 1 on the first run that does not pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def check(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} "
                        f"attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    for name, unit in wanted.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name].get("unit") != unit:
            problems.append(f"metric {name} has unit {got[name].get('unit')}, "
                            f"not {unit}")
        elif not isinstance(got[name].get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    problems.extend(f"metric {name} not in BENCHMARK.json"
                    for name in sorted(set(got) - set(wanted)))
    return problems


def main() -> int:
    status = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            problems = check(workload, trace)
            print(f"{workload} --trace {trace}: "
                  + ("ok" if not problems else "; ".join(problems)))
            status = status or int(bool(problems))
    return status


if __name__ == "__main__":
    sys.exit(main())
