"""Command-line entry point wiring all modules into runnable experiments.

Subcommands: kernel-check, weights, operators, theorem-suite, jn.  One
parser reads the subcommand and the options every subcommand takes
(--config, --set, --jobs, --out), which may come before or after it.  Every
invocation writes a manifest (even on failure or on a command-line error)
plus one CSV per result table; exit status is 0 exactly when every
assertion of the invoked suite passed.  All but kernel-check judge each
corpus entry where they compute it, as an outcome of criteria, table
parts and a manifest record, which _gather records in corpus order.
Under --jobs K the corpus is cut into at most K contiguous chunks, and
each chunk runs in its own forked child; the outcomes come back in
corpus order, so the output does not depend on K.  operators and
theorem-suite compute a chunk as one batch.

Importing this module loads only cli, report, grid and weights; each
subcommand imports the other modules it runs where it uses them, before
it forks, so that the children inherit them.  main freezes every object
at interpreter exit, so that finalization's collections skip them; it
returns its exit status rather than ending the process, since scripts and
tests call it in-process.  Importing this module sets
OPENBLAS_NUM_THREADS to 1 unless the caller set it.
"""

from __future__ import annotations

import argparse
import atexit
import collections
import ctypes
import dataclasses
import functools
import gc
import math
import os
import pickle
import signal
import sys
import traceback
from pathlib import Path

# Set before numpy first loads, so that OpenBLAS starts no worker threads:
# no BLAS call is left in the library, and the --jobs children are its only
# parallelism.  A value the caller set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .grid import Cube, GridFunction, dyadic_cubes
from .report import (
    RunManifest,
    RunConfig,
    StageTimer,
    Table,
    emit_report,
    load_config,
    unwritable,
)
from .weights import a1_constant, ap_constant, doubling_report, power_weight

__all__ = ["main", "build_parser"]


# Largest relative change of an entry's A1 constant when weights refines
# the grid from N to 2N.
STABILITY_LIMIT = 0.05

# glibc mallopt parameters (malloc.h) and the values main sets; 32 MiB is
# the largest mmap threshold glibc accepts on 64-bit hosts.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20


def _make_scales(cfg: RunConfig):
    """The configured scale window; an unset endpoint keeps its default."""
    from .operators import default_scales
    return default_scales(cfg, cfg.M, cfg.t_min, cfg.t_max)


@functools.lru_cache(maxsize=8)
def _certified_kernel(name: str, n: int):
    """Registry lookup that only hands back a certified kernel, the one
    square_functions accepts."""
    from .kernels import TOL_VANISH, certified, kernel_registry
    kernel = kernel_registry(name, n)
    if not certified(kernel):
        raise ValueError(f"kernel {name!r} is not certified: its vanishing "
                         f"residual {kernel.report.p1_residual:.3e} exceeds "
                         f"{TOL_VANISH:g}")
    return kernel


def _kernel_record(kernel) -> dict:
    """manifest.kernels' record of kernel's certificate, judged at
    TOL_VANISH."""
    from .kernels import TOL_VANISH, certified
    rep = kernel.report
    return {"name": kernel.name, "n": kernel.n, "certified": certified(kernel),
            "residual": rep.p1_residual, "tol_vanish": TOL_VANISH,
            "c1": rep.c1, "c2": rep.c2}


def _lambda_star(kernel, n: int) -> float:
    from .operators import lambda_warn_threshold
    return lambda_warn_threshold(kernel, n) + 1.0


def _gather(manifest: RunManifest, outcomes) -> list[Table]:
    """Records each entry's (criteria, tables, record) outcome in corpus
    order, and joins the table parts that share a name into one table."""
    joined: dict[str, tuple[Table, list]] = {}
    for criteria, tables, record in outcomes:
        for criterion in criteria:
            manifest.record(*criterion)
        if record is not None:
            manifest.entries.append(record)
        for table in tables:
            joined.setdefault(table.name, (table, []))[1].extend(table.rows)
    return [dataclasses.replace(table, rows=tuple(rows))
            for table, rows in joined.values()]


def _each(fn):
    """The chunk worker that applies fn(entry, cfg) to each entry."""
    return lambda entries, cfg: (fn(entry, cfg) for entry in entries)


def _chunks(items, jobs: int) -> list:
    """items cut into at most jobs contiguous runs, longest first, whose
    lengths differ by at most one."""
    k = max(1, min(jobs, len(items)))
    q, r = divmod(len(items), k)
    cuts = [i * q + min(i, r) for i in range(k + 1)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


class _ChildTraceback(Exception):
    """The formatted traceback of an exception raised in a forked child,
    attached as the cause of the exception the parent re-raises."""


def _outcome(fn, chunk, cfg: RunConfig) -> bytes:
    """Pickled (True, list(fn(chunk, cfg))), or (False, (exception, its
    formatted traceback)) when fn raises or its result does not pickle; an
    exception that does not survive pickling becomes a RuntimeError."""
    try:
        return pickle.dumps((True, list(fn(chunk, cfg))),
                            pickle.HIGHEST_PROTOCOL)
    except BaseException as exc:
        text = traceback.format_exc()
        try:
            data = pickle.dumps((False, (exc, text)), pickle.HIGHEST_PROTOCOL)
            pickle.loads(data)
            return data
        except Exception:
            last = text.rstrip().splitlines()[-1]
            return pickle.dumps((False, (RuntimeError(last), text)))


def _fork(fn, chunk, cfg: RunConfig):
    """(pid, read end of its pipe) of a forked child that writes
    _outcome(fn, chunk, cfg) to the pipe and exits."""
    r, w = os.pipe()
    # the child must not print what the parent has buffered
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                pipe.write(_outcome(fn, chunk, cfg))
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(0)
    os.close(w)
    return pid, open(r, "rb")


def _pmap(fn, cfg: RunConfig, jobs: int) -> list:
    """fn(chunk, cfg) for each of the at most jobs contiguous chunks of the
    corpus; the per-entry results come back concatenated, in corpus order.

    With more than one chunk, each chunk runs in its own forked child.
    The parent runs none itself, so that no chunk's work adds to what the
    parent already holds; it only waits.  A child's exception is re-raised
    here with the child's traceback as its cause, the first in corpus order
    first, and a child that exits without a result raises RuntimeError.
    Every child is killed and reaped before this returns or raises.
    Without os.fork the chunks run in turn here.
    """
    chunks = _chunks(cfg.corpus, jobs)
    if len(chunks) == 1 or not hasattr(os, "fork"):
        return [res for chunk in chunks for res in fn(chunk, cfg)]
    children = []             # [pid or None once reaped, pipe] per chunk
    try:
        # the children's collections skip the objects inherited from the
        # parent, so they do not copy the pages those live on
        gc.freeze()
        try:
            for chunk in chunks:
                children.append(list(_fork(fn, chunk, cfg)))
        finally:
            gc.unfreeze()
        results = []
        for child, chunk in zip(children, chunks):
            pid, pipe = child
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            child[0] = None
            if not data:
                raise RuntimeError(
                    f"the child computing corpus entries "
                    f"{[e.name for e in chunk]} exited without a result "
                    f"(exit status {os.waitstatus_to_exitcode(status)})")
            ok, value = pickle.loads(data)
            if not ok:
                exc, text = value
                raise exc from _ChildTraceback("\n" + text)
            results.extend(value)
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# kernel-check


def cmd_kernel_check(cfg, jobs, manifest) -> list[Table]:
    from .kernels import certified, shipped_kernels
    n = cfg.n
    usable, controls = shipped_kernels(n)
    rows = []
    for name, make in (usable | controls).items():
        kernel = make()
        rep, passed = kernel.report, certified(kernel)
        detail = f"residual={rep.p1_residual:.3e}"
        if name in usable:
            manifest.record(f"certified:{name}", passed, detail)
            manifest.kernels.append(_kernel_record(kernel))
        else:
            manifest.record("negative-control-rejected", not passed, detail)
        rows.append((name, n, rep.p1_residual, rep.c1, rep.c2, passed,
                     "pass" if name in usable else "fail"))
    return [Table("kernel_check",
                  ("kernel", "n", "residual", "c1", "c2", "passed",
                   "expected"), tuple(rows))]


# ---------------------------------------------------------------------------
# weights


def _weights_row(entry, cfg):
    n, L, N = cfg.n, cfg.L, cfg.N
    _, w = entry.realize(n, L, N, cfg.seed)
    family = dyadic_cubes(cfg, cfg.max_level)
    a1 = a1_constant(w, family)
    a2 = ap_constant(w, 2.0, family)
    doubling = doubling_report(w, family)
    # the 2N grid holds the N grid's samples, so a function that is not
    # constant at N is not constant at 2N: only the weight is realized
    w2 = entry.weight_on(n, L, 2 * N, cfg.seed)
    a1_fine = a1_constant(w2, dyadic_cubes(w2, cfg.max_level))
    stability = abs(a1_fine - a1) / a1
    name, margin = entry.name, doubling.margin
    criteria = [
        (f"doubling:{name}", doubling.all_ok and margin >= 1.0,
         f"margin={margin:.6f}"),
        (f"stability:{name}", stability <= STABILITY_LIMIT,
         f"rel-change={stability:.4f}"),
        (f"a1-sane:{name}", a1 >= 1.0 and a2 <= a1,
         f"a1={a1:.6f} a2={a2:.6f}")]
    row = (name, a1, a2, doubling.all_ok, margin, stability)
    return criteria, [Table("weights",
                            ("pair", "a1", "a2", "doubling_ok",
                             "doubling_margin", "stability_rel"),
                            (row,))], None


def cmd_weights(cfg, jobs, manifest) -> list[Table]:
    return _gather(manifest, _pmap(_each(_weights_row), cfg, jobs))


# ---------------------------------------------------------------------------
# operators


def _operator_results(kernel, fs, scales, lams):
    """g, S and g*_lam for each lam in lams from one pass over the scales,
    per function of the batch fs, keyed by operator name in that order;
    yielded as square_functions computes them."""
    from .operators import OperatorSpec, square_functions
    specs = [OperatorSpec("g"), OperatorSpec("s"),
             *(OperatorSpec("gstar", lam) for lam in lams)]
    stream = square_functions(kernel, fs, scales, specs)
    return ({spec.name: res for spec, res in zip(specs, results)}
            for results in stream)


def _cube_record(cube: Cube) -> dict:
    """A witness cube as the manifest records it."""
    return {"center": list(cube.center), "side": cube.side,
            "level": cube.level}


def _batched_results(kernel, entries, cfg, lams):
    """(entry, f, w, operator results, manifest record) for each entry of a
    chunk.  The record holds each operator's tail_bound, and the spectra
    built by the batch pass that computed the entry, shared by the
    batch_size entries of that pass.  Entries are realized only as
    square_functions draws them, one pass at a time, so that only one
    pass's samples and fields are held.  An operator that overflows on an
    entry is refused naming the entry."""
    from .operators import OperatorOverflow
    realized = collections.deque()

    def functions():
        for entry in entries:
            f, w = entry.realize(cfg.n, cfg.L, cfg.N, cfg.seed)
            realized.append((entry, f, w))
            yield f

    scales = _make_scales(cfg)
    try:
        for results in _operator_results(kernel, functions(), scales, lams):
            entry, f, w = realized.popleft()
            first = next(iter(results.values()))
            yield entry, f, w, results, {
                "name": entry.name,
                "tail_bounds": {op: res.tail_bound
                                for op, res in results.items()},
                "spectra_built": first.spectra_built,
                "batch_size": first.batch_size}
    except OperatorOverflow as exc:
        entry = next(e for e, f, _ in realized if f is exc.f)
        raise ValueError(f"corpus entry {entry.name!r}: {exc} on the "
                         f"{cfg.n}D N={cfg.N} grid over the scales "
                         f"[{scales.t_min:g}, {scales.t_max:g}]") from None


def _operators_rows(kernel, lam, entries, cfg):
    from .operators import OperatorSpec, l2_norm
    for entry, f, w, results, record in _batched_results(kernel, entries, cfg,
                                                         (lam, lam + 1.0)):
        denom = l2_norm(f, w)
        if denom == 0.0 or math.isinf(denom):
            fate = "underflows to 0" if denom == 0.0 else "overflows"
            raise ValueError(f"corpus entry {entry.name!r}: the function's "
                             f"weighted L2 norm {fate} on the "
                             f"{cfg.n}D N={cfg.N} grid")
        norms = {op: l2_norm(res.values, w) for op, res in results.items()}
        # g*_(lam+1) only checks that g*_lam does not grow with lam
        above = norms.pop(OperatorSpec("gstar", lam + 1.0).name)
        mono_ok = above <= norms[OperatorSpec("gstar", lam).name] * (1 + 1e-12)
        rows = tuple((entry.name, op, norm / denom)
                     for op, norm in norms.items())
        criteria = [
            (f"l2-finite:{entry.name}",
             all(math.isfinite(r[2]) for r in rows),
             f"ratios={[round(r[2], 4) for r in rows]}"),
            (f"lambda-monotone:{entry.name}", mono_ok, "")]
        yield criteria, [Table("operators", ("pair", "operator", "l2_ratio"),
                               rows)], record


def cmd_operators(cfg, jobs, manifest) -> list[Table]:
    from .operators import default_scales, g_function
    n, L, N = cfg.n, cfg.L, cfg.N
    kernel = _certified_kernel(cfg.kernel, n)
    manifest.kernels.append(_kernel_record(kernel))
    rows = functools.partial(_operators_rows, kernel, _lambda_star(kernel, n))
    tables = _gather(manifest, _pmap(rows, cfg, jobs))
    # a constant input must be annihilated up to rounding
    size = max(16, min(N, 512))  # at N <= 8 the window [2h, L/4] is empty
    const = GridFunction(n, L, size, np.full((size,) * n, 2.0))
    g0 = g_function(kernel, const, default_scales(const, M=16)).values
    peak = float(np.max(g0.values))
    manifest.record("constant-annihilated", peak < 1e-10,
                    f"max={peak:.3e}")
    return tables


# ---------------------------------------------------------------------------
# theorem-suite


def _theorem_rows(kernel, lam, entries, cfg):
    from .oscillation import blo_constant, bmo_norm
    family = dyadic_cubes(cfg, cfg.max_level)
    for entry, f, w, results, record in _batched_results(kernel, entries, cfg,
                                                         (lam,)):
        bmo_rep = bmo_norm(f, w, family)
        bmo = bmo_rep.value
        witnesses = {"bmo": _cube_record(bmo_rep.argmax)}
        rows, criteria = [], []
        for op, res in results.items():
            blo_rep = blo_constant(res.values, w, family)
            witnesses[f"blo:{op}"] = _cube_record(blo_rep.argmax)
            blo = blo_rep.value
            ratio = blo / bmo if bmo > 0 else float("inf")
            rows.append((entry.name, op, blo, bmo, ratio))
            criteria.append((f"finite:{entry.name}:{op}",
                             math.isfinite(ratio) and blo >= 0.0,
                             f"ratio={ratio:.6f}"))
        record["witnesses"] = witnesses
        yield criteria, [Table("theorem_suite",
                               ("pair", "operator", "blo_value", "bmo_value",
                                "ratio"), tuple(rows), plot="hist")], record


def cmd_theorem_suite(cfg, jobs, manifest) -> list[Table]:
    from . import operators, oscillation  # noqa: F401  loaded before the fork
    # ratios are meaningless without (P1)-(P3); refuse uncertified kernels
    kernel = _certified_kernel(cfg.kernel, cfg.n)
    lam = _lambda_star(kernel, cfg.n)
    manifest.kernels.append({**_kernel_record(kernel),
                             "lambda_star": lam})
    rows = functools.partial(_theorem_rows, kernel, lam)
    [table] = _gather(manifest, _pmap(rows, cfg, jobs))
    sup_by_op: dict[str, float] = {}
    for _, op, _, _, ratio in table.rows:
        sup_by_op[op] = max(sup_by_op.get(op, 0.0), ratio)
    for op, sup in sorted(sup_by_op.items()):
        manifest.record(f"empirical-constant:{op}", math.isfinite(sup),
                        f"sup={sup:.6f}")
    return [table]


# ---------------------------------------------------------------------------
# jn


def _jn_row(entry, cfg):
    from .czd import (cz_decompose, equivalence_constant, jn_blo_verify,
                      jn_bmo_verify)
    from .oscillation import blo_constant
    n, L, nodes = cfg.n, cfg.L, cfg.lambda_nodes
    f, w = entry.realize(n, L, cfg.N, cfg.seed)
    tree = cz_decompose(f, w, sigma=cfg.sigma, max_gen=cfg.max_gen)
    fv = f.values.ravel()
    span_blo = float(fv.max() - fv.min())
    span_bmo = float(np.abs(fv - fv.mean()).max())
    lam_blo = np.linspace(span_blo / nodes, span_blo * 1.05, nodes)
    lam_bmo = np.linspace(span_bmo / nodes, span_bmo * 1.05, nodes)
    rep_blo = jn_blo_verify(f, w, lam_blo, local=tree.local)
    rep_bmo = jn_bmo_verify(f, w, lam_bmo, local=tree.local)
    name = entry.name
    criteria = [
        (f"tree-invariants:{name}", tree.all_ok, f"nodes={len(tree.nodes)}"),
        (f"tail-blo:{name}", rep_blo.all_ok,
         f"worst-margin={rep_blo.worst_margin:.4f}"),
        (f"tail-bmo:{name}", rep_bmo.all_ok,
         f"worst-margin={rep_bmo.worst_margin:.4f}")]
    family = dyadic_cubes(cfg, cfg.max_level)
    a1 = a1_constant(w, family)
    ps = (1.5, 2.0, 3.0)
    nus = {}
    for p in ps:
        try:
            nus[p] = power_weight(w, -1.0 / (p - 1.0))
        except ValueError as exc:
            raise ValueError(f"corpus entry {name!r}: w^(-1/(p-1)) at "
                             f"p={p:g}: {exc}") from None
    # ω^(1-p) is ν at the conjugate exponent p/(p-1), which is in ps too
    blo_rep = blo_constant(f, w, family, ps,
                           tuple(nus[p / (p - 1.0)].values for p in ps))
    blo = blo_rep.value
    witnesses = {"blo": _cube_record(blo_rep.argmax)}
    equiv = []
    for p, blo_p_rep in zip(ps, blo_rep.p_norms):
        k_bound = equivalence_constant(p, n, a1,
                                       ap_constant(nus[p], p, family))
        witnesses[f"blo_p:{p:g}"] = _cube_record(blo_p_rep.argmax)
        blo_p = blo_p_rep.value
        if blo > 0 and blo_p == 0.0:
            raise ValueError(f"corpus entry {name!r}: the BLO_p norm "
                             f"at p={p:g} underflows to 0 on the {n}D "
                             f"N={cfg.N} grid")
        ratio = blo_p / blo if blo > 0 else float("inf")
        equiv.append((name, p, blo_p, blo, ratio, k_bound))
        criteria.append((f"equivalence:{name}:p={p:g}",
                         ratio <= k_bound and blo <= blo_p * (1 + 1e-12),
                         f"ratio={ratio:.4f} K={k_bound:.1f}"))
    tables = [Table(f"jn_tail_{kind}_{name}",
                    ("lambda", "measured", "bound", "margin"),
                    tuple((r.lam, r.measured, r.bound, r.margin)
                          for r in rep.rows), plot="tail")
              for kind, rep in (("blo", rep_blo), ("bmo", rep_bmo))]
    tables.append(Table("jn_summary",
                        ("pair", "blo_worst_margin", "bmo_worst_margin",
                         "tree_nodes"),
                        ((name, rep_blo.worst_margin, rep_bmo.worst_margin,
                          len(tree.nodes)),)))
    tables.append(Table("equivalence",
                        ("pair", "p", "blo_p", "blo", "ratio", "k_bound"),
                        tuple(equiv)))
    record = {"name": name, "witnesses": witnesses,
              "tree": {"nodes_per_gen": [len(g) for g in tree.generations],
                       "blocks_visited": tree.blocks_visited}}
    return criteria, tables, record


def cmd_jn(cfg, jobs, manifest) -> list[Table]:
    from . import czd, oscillation  # noqa: F401  loaded before the fork
    return _gather(manifest, _pmap(_each(_jn_row), cfg, jobs))


# ---------------------------------------------------------------------------
# driver


_COMMANDS = {
    "kernel-check": cmd_kernel_check,
    "weights": cmd_weights,
    "operators": cmd_operators,
    "theorem-suite": cmd_theorem_suite,
    "jn": cmd_jn,
}


class _UsageError(SystemExit):
    """A command line that argparse refuses; exits 2 unless main catches
    it to write the run's manifest first."""

    def __init__(self, message: str):
        super().__init__(2)
        self.message = message


class _Parser(argparse.ArgumentParser):
    """Prints the usage line and raises _UsageError on a command-line
    error; --help still prints and exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _command_and_out(argv: list[str]) -> tuple[str, str | None]:
    """Subcommand (or "lpsquare") and --out value of a refused command line;
    an option's value is never taken for the subcommand."""
    command, out = "lpsquare", None
    args = iter(argv)
    for arg in args:
        if arg in ("--config", "--set", "--jobs", "--out"):
            value = next(args, None)
            if arg == "--out" and value is not None:
                out = value
        elif arg.startswith("--out="):
            out = arg[len("--out="):]
        elif arg in _COMMANDS and command == "lpsquare":
            command = arg
    return command, out


def build_parser() -> argparse.ArgumentParser:
    """One parser for every subcommand, since they all take the same
    options; the options may come before or after the subcommand."""
    parser = _Parser(
        prog="lpsquare", allow_abbrev=False,
        description="square-operator and oscillation-norm experiment runner")
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", default=None,
                        help="INI config; defaults apply when omitted")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="SECTION.KEY=VALUE")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help="output directory (overrides output.dir)")
    return parser


def _keep_freed_memory() -> None:
    """Let glibc's malloc keep freed blocks for reuse: blocks up to
    MMAP_THRESHOLD come from the heap, and up to TRIM_THRESHOLD of free
    heap stays mapped, so a loop that frees and reallocates a large numpy
    temporary does not fault its pages in again each time.  Both are set:
    setting only the trim threshold turns off glibc's dynamic mmap
    threshold.  A C library without mallopt keeps its own policy."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_memory()
    # finalization's full collections skip what is frozen at exit, numpy's
    # objects included; one handler per process however often main runs
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    argv = sys.argv[1:] if argv is None else list(argv)
    failure: str | None = None
    error: str | None = None
    unwritten: str | None = None
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.jobs < 1:
            parser.error(f"argument --jobs: must be at least 1, "
                         f"got {args.jobs}")
        command, out_arg = args.command, args.out
    except _UsageError as exc:
        failure = exc.message
        command, out_arg = _command_and_out(argv)
    # --out is a setting too, applied after --set
    out = () if out_arg is None else (f"output.dir={out_arg}",)
    if failure is None:
        try:
            cfg = load_config(args.config, (*args.overrides, *out))
        except ValueError as exc:
            failure = str(exc)
    if failure is not None:
        # a refused run still gets a manifest, written from the defaults
        # and a non-empty --out
        cfg = load_config(overrides=out if out_arg else ())
    out_dir = Path(cfg.dir)
    # made before the subcommand runs, so that no work is lost to it
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        unwritten = unwritable(out_dir, exc)

    manifest = RunManifest(command, cfg.text)
    timer = StageTimer()
    tables: list[Table] = []
    try:
        if failure is None and unwritten is None:
            manifest.seed = cfg.seed
            manifest.grid = {"n": cfg.n, "L": cfg.L, "N": cfg.N}
            manifest.family = {"kind": "dyadic", "max_level": cfg.max_level}
            with timer.measure(command):
                tables = _COMMANDS[command](cfg, args.jobs, manifest)
    except ValueError as exc:
        failure = str(exc)
    except Exception as exc:
        # a crash must not read as a pass or as a failed criterion
        error = traceback.format_exc()
        manifest.record(f"{command}-error", False,
                        f"{type(exc).__name__}: {exc}")
    finally:
        if failure is not None:
            manifest.record(f"{command}-preconditions", False, failure)
        manifest.timings = timer.stages
        if unwritten is None:
            try:
                with timer.measure("report"):
                    emit_report(tables, out_dir)
                manifest.write(out_dir / "manifest.json")
            except OSError as exc:
                unwritten = unwritable(out_dir, exc)
    for c in manifest.criteria:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}" +
              (f" ({c['detail']})" if c["detail"] else ""))
    for message in (failure, unwritten):
        if message is not None:
            print(f"error: {message}", file=sys.stderr)
    if error is not None:
        print(error, file=sys.stderr, end="")
        return 3
    if failure is not None or unwritten is not None:
        return 2
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
