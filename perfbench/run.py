#!/usr/bin/env python3
"""The lpsquare benchmark: one named workload through the `lpsquare` CLI.

    python3 perfbench/run.py --workload {spectral,family,tree} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere; it builds nothing and imports the package from the
`src/` directory next to this one.  Load model: a closed loop with one
client.  Each CLI subcommand is launched in a fresh interpreter, one at a
time, as the console script runs it (plus one stderr line marking the end
of the import), so no in-process cache carries over from one subcommand to
the next; each launch uses the two-worker pool (JOBS).  A pass runs a
workload's subcommands in order; passes repeat while the next one is
expected to end within --seconds, and there are at least MIN_PASSES.
Every pass uses the default 12-entry corpus and M=64; --seed picks the
corpus seed (`corpus.seed`) from CORPUS_SEEDS, for each of which reference
tables ship in references/.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
one untraced pass at --jobs JOBS, then two untraced passes at --jobs 1
alternating with two traced passes under tracer.py at --jobs 1, and prints the per-layer metrics: self times,
exact counts (which must agree between the two traced passes) and the
tracing overhead.

Every launch is checked: exit code 0, `all_passed` in manifest.json, and
every CSV cell within REL_TOL of the reference.  The last stdout line is
one JSON object {correct, attempted, failed, metrics}.  The exit code is 2
when the benchmark cannot run at all (no source tree, no references).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
REFERENCES = HERE / "references"

# --seed N selects CORPUS_SEEDS[N % 4].  1234 is the CLI's default seed;
# the others are held out, so a gain tuned on one can be re-checked on
# another.  The seed changes the random-martingale and piecewise entries.
CORPUS_SEEDS = (1234, 5, 77, 2025)
ENTRIES = 12          # entries of the default corpus, per subcommand
SCALES_M = 64
MAX_LEVEL = 6
SETUP_PROBES = 3      # import-only launches at the start of a run
REL_TOL = 1e-9        # largest relative difference a CSV cell may show
ABS_FLOOR = 1e-12     # cells below this magnitude compare absolutely
DEADLINE_S = 170.0    # every launch is killed after this much run time
MIN_PASSES = 2        # every timed figure is a median over passes
# Timed launches (--trace 0) use the two-worker pool, one worker per vCPU
# of the 2-vCPU machine the bounds were set on.  A lone process there migrates
# between vCPUs that the host slows unequally; at --jobs 1 a 5-seed wall_s
# spread of 23% fell to 9% at --jobs 2 on the same grids.
JOBS = 2
TRACED_PASSES = 2

# A launch is the console script plus one stderr line with the
# CLOCK_MONOTONIC time at which `lpsquare.cli` finished importing, which
# splits the launch into set-up and subcommand time.
IMPORTED = "lpsquare.cli imported at"
PROBE = ("import sys, time; import lpsquare.cli; "
         f"print({IMPORTED!r}, repr(time.monotonic()), file=sys.stderr)")
LAUNCH = ("import sys, time; from lpsquare.cli import main; "
          f"print({IMPORTED!r}, repr(time.monotonic()), file=sys.stderr, "
          "flush=True); sys.exit(main())")


@dataclass(frozen=True)
class Step:
    command: str
    n: int
    N: int
    max_level: int = MAX_LEVEL


@dataclass(frozen=True)
class Workload:
    steps: tuple[Step, ...]
    main_layers: tuple[str, ...]   # layers a traced run must see spans from


# Why each workload exists is in README.md next to this file.
WORKLOADS = {
    "spectral": Workload((Step("operators", 2, 128),
                          Step("theorem-suite", 1, 16384)), ("operators",)),
    "family": Workload((Step("weights", 2, 64, 5), Step("jn", 2, 64, 5)),
                       ("weights", "oscillation", "grid")),
    "tree": Workload((Step("jn", 1, 65536),), ("czd",)),
}

# Same subcommands on grids small enough for the smoke run (smoke.py).
TINY_WORKLOADS = {
    "spectral": Workload((Step("operators", 2, 16),
                          Step("theorem-suite", 1, 256)), ("operators",)),
    "family": Workload((Step("weights", 2, 16, 3), Step("jn", 2, 16, 3)),
                       ("weights", "oscillation", "grid")),
    "tree": Workload((Step("jn", 1, 1024),), ("czd",)),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "entries_per_s": "entries/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# launching


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("LPSQUARE_SEED", None)   # the seed goes in as --set
    return env


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass(frozen=True)
class Launch:
    code: int
    start: float             # time.monotonic() before the process starts
    end: float               # ... after it has been waited for
    cpu: float               # user+sys s of it and every descendant it waited for
    imported: float | None   # when `lpsquare.cli` finished importing

    @property
    def setup(self) -> float | None:
        return None if self.imported is None else self.imported - self.start


def launch(argv: list[str], log: Path, deadline: float) -> Launch:
    """Run argv to completion, output to log.  cpu counts pool workers,
    which the CLI process waits for."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(log, "wb") as sink:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=sink, stderr=subprocess.STDOUT,
                                start_new_session=True)
        # Popen.wait(timeout) polls in steps of up to 50 ms, which would
        # show in the timings; wait blocking and kill from a timer instead.
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                 kill_group, (proc.pid,))
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        end = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Launch(code, start, end, cpu, imported_at(log))


def imported_at(log: Path) -> float | None:
    for line in log.read_text(errors="replace").splitlines():
        if line.startswith(IMPORTED):
            return float(line.rsplit(" ", 1)[1])
    return None


def step_args(step: Step, corpus_seed: int, jobs: int, out: Path) -> list[str]:
    return [step.command,
            "--set", f"grid.n={step.n}", "--set", f"grid.N={step.N}",
            "--set", f"scales.M={SCALES_M}",
            "--set", f"family.max_level={step.max_level}",
            "--set", f"corpus.seed={corpus_seed}",
            "--jobs", str(jobs), "--out", str(out)]


def step_key(i: int, step: Step) -> str:
    return f"{i}-{step.command}"


# ---------------------------------------------------------------------------
# checking outputs against the references


def cell_error(got: str, want: str) -> float:
    if got == want:
        return 0.0
    try:
        a, b = float(got), float(want)
    except ValueError:
        return math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    err = abs(a - b) / max(abs(a), abs(b), ABS_FLOOR)
    return err if math.isfinite(err) else math.inf


def table_error(got: str, want: str) -> float:
    got_rows = [r.split(",") for r in got.splitlines()]
    want_rows = [r.split(",") for r in want.splitlines()]
    if [len(r) for r in got_rows] != [len(r) for r in want_rows]:
        return math.inf
    return max((cell_error(g, w) for gr, wr in zip(got_rows, want_rows)
                for g, w in zip(gr, wr)), default=0.0)


def output_tables(out: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(out.glob("*.csv"))}


def check_launch(out: Path, reference: dict[str, str]) -> tuple[float, str | None]:
    """(largest relative cell error, reason the launch failed or None)."""
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError):
        return math.inf, "no readable manifest.json"
    tables = output_tables(out)
    if sorted(tables) != sorted(reference):
        return math.inf, f"tables {sorted(tables)} != reference {sorted(reference)}"
    err = max((table_error(tables[name], reference[name]) for name in tables),
              default=0.0)
    if not manifest.get("all_passed"):
        return err, "manifest all_passed is false"
    if err > REL_TOL:
        return err, f"CSV cells differ from the reference by {err:.3g}"
    return err, None


def reference_path(workload: str, corpus_seed: int, tiny: bool) -> Path:
    return REFERENCES / ("tiny" if tiny else "full") / workload / f"seed-{corpus_seed}.json"


def load_reference(workload: str, corpus_seed: int, tiny: bool) -> dict:
    path = reference_path(workload, corpus_seed, tiny)
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read reference {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    launches: list[Launch] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    max_err: float = 0.0
    traces: list[tuple[str, dict]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        """First launch to last exit."""
        return self.launches[-1].end - self.launches[0].start

    @property
    def cpu(self) -> float:
        return sum(l.cpu for l in self.launches)


def run_pass(name: str, wl: Workload, corpus_seed: int, reference: dict,
             deadline: float, jobs: int, traced: bool = False) -> Pass:
    """One pass over the workload's steps; outputs are checked after the
    last launch exits, so checking stays out of the timed span."""
    result = Pass()
    outs = [OUT_ROOT / name / step_key(i, step) for i, step in enumerate(wl.steps)]
    for out in outs:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
    for step, out in zip(wl.steps, outs):
        args = step_args(step, corpus_seed, jobs, out)
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(out), "--", *args]
        else:
            argv = [sys.executable, "-c", LAUNCH, *args]
        result.launches.append(launch(argv, out / "launch.log", deadline))
    for i, (step, out, done) in enumerate(zip(wl.steps, outs, result.launches)):
        problem = launch_problem(out, done.code,
                                 reference.get(step_key(i, step), {}), result)
        if problem is None and traced:
            try:
                result.traces.append(
                    (step.command, json.loads((out / "trace.json").read_text())))
            except (OSError, ValueError):
                problem = "no readable trace.json"
        if problem is not None:
            result.failures.append(f"{step_key(i, step)}: {problem}")
    return result


def launch_problem(out: Path, code: int, reference: dict[str, str],
                   result: Pass) -> str | None:
    if code != 0:
        return f"exit code {code}"
    err, problem = check_launch(out, reference)
    result.max_err = max(result.max_err, err)
    return problem


def setup_probe(name: str, i: int, deadline: float) -> float:
    """Seconds from process start until `lpsquare.cli` is imported."""
    log = OUT_ROOT / name / f"setup-{i}.log"
    log.parent.mkdir(parents=True, exist_ok=True)
    probe = launch([sys.executable, "-c", PROBE], log, deadline)
    if probe.code != 0 or probe.setup is None:
        raise BenchError(f"`import lpsquare.cli` failed; see {log}")
    return probe.setup


# ---------------------------------------------------------------------------
# metrics


def median(values) -> float:
    return float(statistics.median(values))


def entries_per_s(p: Pass) -> float:
    """Corpus entries per second of subcommand time, set-up excluded."""
    busy = sum(l.end - (l.imported or l.start) for l in p.launches)
    return ENTRIES * len(p.launches) / busy


def end_to_end(passes: list[Pass], setups: list[float]) -> dict[str, float]:
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "wall_s": median(p.wall for p in passes),
        "setup_s": median(setups),
        "entries_per_s": median(entries_per_s(p) for p in passes),
        "cpu_s": median(p.cpu for p in passes),
        "peak_rss_mb": peak,
    }


@dataclass
class LayerTotals:
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    cli_s: dict[str, float] = field(default_factory=dict)
    spans: int = 0

    def add(self, command: str, trace: dict) -> None:
        for k, v in trace["self_s"].items():
            self.self_s[k] = self.self_s.get(k, 0.0) + v
        for k, v in trace["calls"].items():
            self.calls[k] = self.calls.get(k, 0) + v
        for k, v in trace["counts"].items():
            self.counts[k] = self.counts.get(k, 0) + v
        self.cli_s[command] = (self.cli_s.get(command, 0.0)
                               + trace["self_s"].get("cli.main", 0.0))
        self.spans += trace["spans"]

    def exact(self) -> dict[str, int]:
        """Everything that must repeat exactly between traced passes."""
        return {**{f"calls:{k}": v for k, v in self.calls.items()},
                **{f"count:{k}": v for k, v in self.counts.items()},
                "spans": self.spans}


# per-layer time metric -> span names whose self times it sums
SELF_TIMES = {
    "report.realize_s": ("report.realize",),
    "report.emit_s": ("report.emit_report",),
    "kernels.evaluate_s": ("kernels.evaluate",),
    "kernels.certify_s": ("kernels.certify",),
    "operators.g_function_s": ("operators.g_function",),
    "operators.area_integral_s": ("operators.area_integral",),
    "operators.g_star_s": ("operators.g_star",),
    "operators.convolve_s": ("operators.convolve",),
    "weights.a1_s": ("weights.a1_constant",),
    "weights.ap_s": ("weights.ap_constant",),
    "weights.doubling_s": ("weights.doubling_report",),
    "weights.power_weight_s": ("weights.power_weight",),
    "oscillation.blo_s": ("oscillation.blo_constant",),
    "oscillation.bmo_s": ("oscillation.bmo_norm",),
    "oscillation.blo_p_s": ("oscillation.blo_p_norm",),
    "grid.cube_region_s": ("grid.cube_region",),
    "czd.decompose_s": ("czd.cz_decompose",),
    "czd.local_constants_s": ("czd.cube_local_constants",),
    "czd.jn_verify_s": ("czd.jn_blo_verify", "czd.jn_bmo_verify"),
}
CLI_COMMANDS = ("weights", "operators", "theorem-suite", "jn")


def layer_counts(t: LayerTotals) -> dict[str, float]:
    calls, counts = t.calls, t.counts
    fields = sum(calls.get(f"operators.{op}", 0)
                 for op in ("g_function", "area_integral", "g_star"))
    lookups = calls.get("grid.dyadic_address", 0)
    return {
        "report.realize_calls": calls.get("report.realize", 0),
        "report.csv_bytes": counts.get("report.csv_bytes", 0),
        "kernels.evaluate_calls": calls.get("kernels.evaluate", 0),
        "kernels.evaluate_points": counts.get("kernels.evaluate_points", 0),
        "operators.convolve_calls": calls.get("operators.convolve", 0),
        "operators.convolve_per_field":
            calls.get("operators.convolve", 0) / fields if fields else 0.0,
        "operators.fft_calls": counts.get("operators.fft_calls", 0),
        "operators.fft_bytes": counts.get("operators.fft_bytes", 0),
        "weights.cubes_scanned": counts.get("weights.cubes_scanned", 0),
        "oscillation.cubes_scanned": counts.get("oscillation.cubes_scanned", 0),
        "grid.cube_region_calls": calls.get("grid.cube_region", 0),
        "grid.level_blocks_calls": calls.get("grid.level_blocks", 0),
        "grid.dyadic_address_calls": lookups,
        "grid.dyadic_hit_frac":
            counts.get("grid.dyadic_address_hits", 0) / lookups if lookups else 0.0,
        "czd.tree_nodes": counts.get("czd.tree_nodes", 0),
        "czd.invariant_checks": counts.get("czd.invariant_checks", 0),
    }


def per_layer(traced: list[Pass], untraced: Pass,
              serial: list[Pass]) -> dict[str, float]:
    totals = [totals_of(p) for p in traced]
    metrics: dict[str, float] = {}
    for cmd in CLI_COMMANDS:
        metrics[f"cli.{cmd}_s"] = median(t.cli_s.get(cmd, 0.0) for t in totals)
    metrics["cli.cpu_util"] = untraced.cpu / (untraced.wall * JOBS)
    for metric, names in SELF_TIMES.items():
        metrics[metric] = median(sum(t.self_s.get(n, 0.0) for n in names)
                                 for t in totals)
    metrics.update(layer_counts(totals[0]))
    metrics["trace.overhead_s"] = (median(p.wall for p in traced)
                                   - median(p.wall for p in serial))
    metrics["trace.spans"] = totals[0].spans
    return metrics


def totals_of(p: Pass) -> LayerTotals:
    t = LayerTotals()
    for command, trace in p.traces:
        t.add(command, trace)
    return t


def trace_problems(traced: list[Pass], wl: Workload) -> list[str]:
    """Counts that differ between traced passes; main layers without spans."""
    problems = []
    totals = [totals_of(p) for p in traced]
    first = totals[0].exact()
    for t in totals[1:]:
        other = t.exact()
        for key in sorted(set(first) | set(other)):
            if first.get(key) != other.get(key):
                problems.append(f"count {key} differs between traced passes: "
                                f"{first.get(key)} != {other.get(key)}")
    for layer in wl.main_layers:
        if not any(v > 0 for k, v in totals[0].calls.items()
                   if k.startswith(layer + ".")):
            problems.append(f"layer {layer} recorded no spans")
    return problems


# ---------------------------------------------------------------------------
# driver


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-run grids (see smoke.py); references "
                    "ship for seeds that are multiples of 4 only")
    return ap.parse_args(argv)


def require_source() -> None:
    if not (SRC / "lpsquare" / "cli.py").is_file():
        raise BenchError(f"no lpsquare source tree at {SRC}")


def run(args) -> tuple[dict, list[str]]:
    """(result object, human-readable report lines)."""
    require_source()
    wl = (TINY_WORKLOADS if args.tiny else WORKLOADS)[args.workload]
    corpus_seed = CORPUS_SEEDS[args.seed % len(CORPUS_SEEDS)]
    reference = load_reference(args.workload, corpus_seed, args.tiny)
    deadline = time.monotonic() + DEADLINE_S
    lines = [f"workload {args.workload}: corpus seed {corpus_seed}, "
             f"jobs {JOBS}, steps "
             + ", ".join(f"{s.command} {s.n}D N={s.N}" for s in wl.steps)]
    if args.trace:
        untraced = run_pass(args.workload, wl, corpus_seed, reference,
                            deadline, JOBS)
        # serial and traced passes alternate, so host drift hits both alike
        serial, traced = [], []
        for _ in range(TRACED_PASSES):
            serial.append(run_pass(args.workload, wl, corpus_seed, reference,
                                   deadline, 1))
            traced.append(run_pass(args.workload, wl, corpus_seed, reference,
                                   deadline, 1, traced=True))
        passes = [untraced, *serial, *traced]
        problems = trace_problems(traced, wl)
        metrics = per_layer(traced, untraced, serial)
        units = {k: layer_unit(k) for k in metrics}
        lines.append(f"untraced wall {untraced.wall:.3f} s (jobs {JOBS}); "
                     "serial " + ", ".join(f"{p.wall:.3f}" for p in serial)
                     + " s; traced " + ", ".join(f"{p.wall:.3f}" for p in traced)
                     + " s")
    else:
        setups = [setup_probe(args.workload, i, deadline)
                  for i in range(SETUP_PROBES)]
        passes = []
        t0 = time.monotonic()
        while True:
            passes.append(run_pass(args.workload, wl, corpus_seed, reference,
                                   deadline, JOBS))
            elapsed = time.monotonic() - t0
            slowest = max(p.wall for p in passes)
            if passes[-1].failures or time.monotonic() + slowest > deadline:
                break
            if len(passes) >= MIN_PASSES and elapsed + slowest > args.seconds:
                break
        # every launch sets up once more
        setups += [l.setup for p in passes for l in p.launches
                   if l.setup is not None]
        problems = []
        metrics = end_to_end(passes, setups)
        units = END_TO_END_UNITS
        walls = sorted(p.wall for p in passes)
        lines.append(f"{len(passes)} passes, wall per pass "
                     + ", ".join(f"{w:.3f}" for w in walls) + f" s; {len(setups)} "
                     f"set-ups, {min(setups):.3f}-{max(setups):.3f} s")
    launches = sum(len(p.launches) for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = len(failures)
    max_err = max(p.max_err for p in passes)
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"  {name:28s} {shown} {units[name]}")
    lines.append(f"  {'failed_frac':28s} {failed / launches:.6g} ratio")
    lines.append(f"  {'result_max_rel_err':28s} {max_err:.6g} ratio")
    lines.extend(f"FAILED {f}" for f in failures + problems)
    result = {
        "correct": not failures and not problems,
        "attempted": launches,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_frac", "_util")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, lines = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
