"""Command-line entry point wiring all modules into runnable experiments.

Subcommands: kernel-check, weights, operators, theorem-suite, jn.  Every
invocation writes a manifest (even on failure or on a command-line error)
plus one CSV per result table; exit status is 0 exactly when every
assertion of the invoked suite passed.  Under --jobs K the corpus is cut
into at most K contiguous chunks, and each chunk runs in its own forked
child; the results come back in corpus order, so the output does not
depend on K.  operators and theorem-suite compute a chunk as one batch.

Importing this module loads only cli, report, grid and weights; each
subcommand imports the other modules it runs where it uses them, before
it forks, so that the children inherit them.
"""

from __future__ import annotations

import argparse
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
from types import SimpleNamespace

import numpy as np

from .grid import Cube, DyadicFamily, dyadic_cubes, grid_function
from .report import (
    RunManifest,
    RunConfig,
    StageTimer,
    Table,
    emit_report,
    load_config,
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


def _make_scales(f, cfg: RunConfig) -> ScaleGrid:
    """The configured scale window; an unset endpoint keeps its default."""
    from .operators import ScaleGrid, default_scales
    default = default_scales(f, M=cfg.M)
    return ScaleGrid(default.t_min if cfg.t_min is None else cfg.t_min,
                     default.t_max if cfg.t_max is None else cfg.t_max, cfg.M)


@functools.lru_cache(maxsize=8)
def _family(n: int, L: float, N: int, max_level: int) -> DyadicFamily:
    """The dyadic cubes of one grid geometry, built once per process."""
    return dyadic_cubes(SimpleNamespace(n=n, L=L, N=N), max_level)


@functools.lru_cache(maxsize=8)
def _certified_kernel(name: str, n: int, vanish: float):
    """Registry lookup that only hands back kernels whose vanishing
    residual is within the configured tolerance."""
    from .kernels import kernel_registry
    kernel = kernel_registry(name, n)
    rep = kernel.report
    if rep is None or not rep.passed or not rep.p1_residual <= vanish:
        residual = "none" if rep is None else f"{rep.p1_residual:.3e}"
        raise ValueError(f"kernel {name!r} is not certified for use at "
                         f"tolerances.vanish={vanish:g} "
                         f"(residual {residual})")
    return kernel


def _lambda_star(kernel, n: int) -> float:
    from .operators import lambda_warn_threshold
    return lambda_warn_threshold(kernel, n) + 1.0


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
    """Pickled (True, fn(chunk, cfg)), or (False, (exception, its formatted
    traceback)) when fn raises or its result does not pickle; an exception
    that does not survive pickling becomes a RuntimeError naming it."""
    try:
        return pickle.dumps((True, fn(chunk, cfg)), pickle.HIGHEST_PROTOCOL)
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
    parent already holds; it only waits.  A child's exception is re-raised here with the child's traceback as its cause,
    the first in corpus order first, and a child that exits without a
    result raises RuntimeError.  Every child is killed and reaped before
    this returns or raises.  Without os.fork the chunks run in turn here.
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
    from .kernels import certify, kernel_registry, nonvanishing_hat_kernel
    n, tol = cfg.n, cfg.vanish
    names = ["poisson-derivative", "gauss-derivative"]
    if n == 1:
        names.append("hermite2")
    rows = []
    for name in names:
        # The constructor already certified the kernel; judge that report
        # against the configured threshold instead of certifying again.
        rep = kernel_registry(name, n).report
        rep = dataclasses.replace(rep, tol_vanish=tol,
                                  passed=rep.p1_residual <= tol)
        manifest.record(f"certified:{name}", rep.passed,
                        f"residual={rep.p1_residual:.3e}")
        manifest.kernels.append({
            "name": name, "n": n, "certified": rep.passed,
            "residual": rep.p1_residual, "tol_vanish": rep.tol_vanish,
            "c1": rep.c1, "c2": rep.c2})
        rows.append((name, n, rep.p1_residual, rep.c1, rep.c2, rep.passed,
                     "pass"))
    if n == 1:
        control = nonvanishing_hat_kernel()
        rep = certify(control, tol_vanish=tol)
        rejected = not rep.passed
        manifest.record("negative-control-rejected", rejected,
                        f"residual={rep.p1_residual:.3e}")
        rows.append((control.name, n, rep.p1_residual, rep.c1, rep.c2,
                     rep.passed, "fail"))
    return [Table("kernel_check",
                  ("kernel", "n", "residual", "c1", "c2", "passed",
                   "expected"), tuple(rows))]


# ---------------------------------------------------------------------------
# weights


def _weights_row(entry, cfg):
    n, L, N = cfg.n, cfg.L, cfg.N
    _, w = entry.realize(n, L, N, cfg.seed)
    family = _family(n, L, N, cfg.max_level)
    a1 = a1_constant(w, family)
    a2 = ap_constant(w, 2.0, family)
    doubling = doubling_report(w, family)
    _, w2 = entry.realize(n, L, 2 * N, cfg.seed)
    a1_fine = a1_constant(w2, _family(n, L, 2 * N, cfg.max_level))
    stability = abs(a1_fine - a1) / a1
    return (entry.name, a1, a2, doubling.all_ok, doubling.margin, stability)


def _weights_rows(entries, cfg):
    return [_weights_row(entry, cfg) for entry in entries]


def cmd_weights(cfg, jobs, manifest) -> list[Table]:
    rows = _pmap(_weights_rows, cfg, jobs)
    for name, a1, a2, dbl_ok, margin, stability in rows:
        manifest.record(f"doubling:{name}", dbl_ok and margin >= 1.0,
                        f"margin={margin:.6f}")
        manifest.record(f"stability:{name}", stability <= STABILITY_LIMIT,
                        f"rel-change={stability:.4f}")
        manifest.record(f"a1-sane:{name}", a1 >= 1.0 and a2 <= a1,
                        f"a1={a1:.6f} a2={a2:.6f}")
    return [Table("weights",
                  ("pair", "a1", "a2", "doubling_ok", "doubling_margin",
                   "stability_rel"), tuple(rows))]


# ---------------------------------------------------------------------------
# operators


def _operator_results(kernel, fs, scales, lams):
    """g, S and g*_lam for each lam in lams from one pass over the scales,
    per function of the batch fs, keyed "g", "s", "gstar_<lam>"; yielded
    as square_functions computes them."""
    from .operators import OperatorSpec, square_functions
    keys = ["g", "s"] + [f"gstar_{lam:g}" for lam in lams]
    specs = [OperatorSpec("g"), OperatorSpec("s")] + \
        [OperatorSpec("gstar", lam=lam) for lam in lams]
    stream = square_functions(kernel, fs, scales, specs)
    return (dict(zip(keys, results)) for results in stream)


def _cube_record(cube: Cube) -> dict:
    """A witness cube as the manifest records it."""
    return {"center": list(cube.center), "side": cube.side,
            "level": cube.level}


def _entry_record(name, results) -> dict:
    """Manifest record of one entry: each operator's tail_bound, and the
    spectra built by the batch pass that computed the entry, shared by the
    batch_size entries of that pass."""
    first = next(iter(results.values()))
    return {
        "name": name,
        "tail_bounds": {op: res.tail_bound for op, res in results.items()},
        "spectra_built": first.spectra_built,
        "batch_size": first.batch_size,
    }


def _batched_results(kernel, entries, cfg, lams):
    """(entry, f, w, operator results) for each entry of a chunk.  Entries
    are realized only as square_functions draws them, one pass at a time,
    so that only one pass's samples and fields are held."""
    realized = collections.deque()

    def functions():
        for entry in entries:
            f, w = entry.realize(cfg.n, cfg.L, cfg.N, cfg.seed)
            realized.append((entry, f, w))
            yield f

    scales = _make_scales(SimpleNamespace(L=cfg.L, N=cfg.N), cfg)
    for results in _operator_results(kernel, functions(), scales, lams):
        yield *realized.popleft(), results


def _operators_rows(entries, cfg):
    from .operators import l2_norm
    kernel = _certified_kernel(cfg.kernel, cfg.n, cfg.vanish)
    lam = _lambda_star(kernel, cfg.n)
    out = []
    for entry, f, w, results in _batched_results(kernel, entries, cfg,
                                                 (lam, lam + 1.0)):
        denom = l2_norm(f, w)
        if denom == 0.0:
            raise ValueError(f"corpus entry {entry.name!r}: the function's "
                             f"weighted L2 norm underflows to 0 on the "
                             f"{cfg.n}D N={cfg.N} grid")
        record = _entry_record(entry.name, results)
        hi = results.pop(f"gstar_{lam + 1.0:g}").values
        rows = [(entry.name, op, l2_norm(res.values, w) / denom)
                for op, res in results.items()]
        mono_ok = l2_norm(hi, w) <= \
            l2_norm(results[f"gstar_{lam:g}"].values, w) * (1 + 1e-12)
        out.append((rows, mono_ok, record))
    return out


def cmd_operators(cfg, jobs, manifest) -> list[Table]:
    from .operators import default_scales, g_function
    n, L, N = cfg.n, cfg.L, cfg.N
    kernel = _certified_kernel(cfg.kernel, n, cfg.vanish)
    manifest.kernels.append({
        "name": cfg.kernel, "n": n, "certified": True,
        "residual": kernel.report.p1_residual})
    results = _pmap(_operators_rows, cfg, jobs)
    rows = []
    for (entry_rows, mono_ok, record), entry in zip(results, cfg.corpus):
        rows.extend(entry_rows)
        manifest.entries.append(record)
        finite = all(math.isfinite(r[2]) for r in entry_rows)
        manifest.record(f"l2-finite:{entry.name}", finite,
                        f"ratios={[round(r[2], 4) for r in entry_rows]}")
        manifest.record(f"lambda-monotone:{entry.name}", mono_ok)
    # a constant input must be annihilated up to rounding
    const = grid_function(n, L, min(N, 512),
                          np.full((min(N, 512),) * n, 2.0))
    g0 = g_function(kernel, const, default_scales(const, M=16)).values
    peak = float(np.max(g0.values))
    manifest.record("constant-annihilated", peak < 1e-10,
                    f"max={peak:.3e}")
    return [Table("operators", ("pair", "operator", "l2_ratio"),
                  tuple(rows))]


# ---------------------------------------------------------------------------
# theorem-suite


def _theorem_rows(entries, cfg):
    from .oscillation import blo_constant, bmo_norm
    kernel = _certified_kernel(cfg.kernel, cfg.n, cfg.vanish)
    family = _family(cfg.n, cfg.L, cfg.N, cfg.max_level)
    lam = _lambda_star(kernel, cfg.n)
    out = []
    for entry, f, w, results in _batched_results(kernel, entries, cfg,
                                                 (lam,)):
        bmo_rep = bmo_norm(f, w, family)
        bmo = bmo_rep.value
        witnesses = {"bmo": _cube_record(bmo_rep.argmax)}
        rows = []
        for op, res in results.items():
            blo_rep = blo_constant(res.values, w, family)
            witnesses[f"blo:{op}"] = _cube_record(blo_rep.argmax)
            blo = blo_rep.value
            ratio = blo / bmo if bmo > 0 else float("inf")
            rows.append((entry.name, op, blo, bmo, ratio))
        record = _entry_record(entry.name, results)
        record["witnesses"] = witnesses
        out.append((rows, record))
    return out


def cmd_theorem_suite(cfg, jobs, manifest) -> list[Table]:
    from . import operators, oscillation  # noqa: F401  loaded before the fork
    # ratios are meaningless without (P1)-(P3); refuse uncertified kernels
    kernel = _certified_kernel(cfg.kernel, cfg.n, cfg.vanish)
    manifest.kernels.append({
        "name": cfg.kernel, "n": cfg.n, "certified": True,
        "residual": kernel.report.p1_residual,
        "lambda_star": _lambda_star(kernel, cfg.n)})
    results = _pmap(_theorem_rows, cfg, jobs)
    rows = []
    sup_by_op: dict[str, float] = {}
    for entry_rows, record in results:
        rows.extend(entry_rows)
        manifest.entries.append(record)
        for name, op, blo, bmo, ratio in entry_rows:
            sup_by_op[op] = max(sup_by_op.get(op, 0.0), ratio)
            manifest.record(f"finite:{name}:{op}",
                            math.isfinite(ratio) and blo >= 0.0,
                            f"ratio={ratio:.6f}")
    for op, sup in sorted(sup_by_op.items()):
        manifest.record(f"empirical-constant:{op}", math.isfinite(sup),
                        f"sup={sup:.6f}")
    return [Table("theorem_suite",
                  ("pair", "operator", "blo_value", "bmo_value", "ratio"),
                  tuple(rows), plot="hist")]


# ---------------------------------------------------------------------------
# jn


def _jn_row(entry, cfg):
    from .czd import (cube_local_constants, cz_decompose,
                      equivalence_constant, jn_blo_verify, jn_bmo_verify)
    from .oscillation import blo_constant, blo_p_norm
    n, L, nodes = cfg.n, cfg.L, cfg.lambda_nodes
    f, w = entry.realize(n, L, cfg.N, cfg.seed)
    box = Cube((L / 2.0,) * n, L, level=0)
    local = cube_local_constants(f, w, box)
    tree = cz_decompose(f, w, box, sigma=cfg.sigma, max_gen=cfg.max_gen,
                        local=local)
    fv = f.values.ravel()
    span_blo = float(fv.max() - fv.min())
    span_bmo = float(np.abs(fv - fv.mean()).max())
    lam_blo = np.linspace(span_blo / nodes, span_blo * 1.05, nodes)
    lam_bmo = np.linspace(span_bmo / nodes, span_bmo * 1.05, nodes)
    rep_blo = jn_blo_verify(f, w, box, lam_blo, strict=False, local=local)
    rep_bmo = jn_bmo_verify(f, w, box, lam_bmo, strict=False, local=local)
    family = _family(n, L, cfg.N, cfg.max_level)
    a1 = a1_constant(w, family)
    blo_rep = blo_constant(f, w, family)
    blo = blo_rep.value
    witnesses = {"blo": _cube_record(blo_rep.argmax)}
    equiv = []
    for p in (1.5, 2.0, 3.0):
        try:
            nu = power_weight(w, -1.0 / (p - 1.0))
        except ValueError as exc:
            raise ValueError(f"corpus entry {entry.name!r}: w^(-1/(p-1)) at "
                             f"p={p:g}: {exc}") from None
        k_bound = equivalence_constant(p, n, a1, ap_constant(nu, p, family))
        blo_p_rep = blo_p_norm(f, w, p, family)
        witnesses[f"blo_p:{p:g}"] = _cube_record(blo_p_rep.argmax)
        blo_p = blo_p_rep.value
        if blo > 0 and blo_p == 0.0:
            raise ValueError(f"corpus entry {entry.name!r}: the BLO_p norm "
                             f"at p={p:g} underflows to 0 on the {n}D "
                             f"N={cfg.N} grid")
        equiv.append((entry.name, p, blo_p, blo,
                      blo_p / blo if blo > 0 else float("inf"), k_bound))
    tail_blo = [(r.lam, r.measured, r.bound, r.margin) for r in rep_blo.rows]
    tail_bmo = [(r.lam, r.measured, r.bound, r.margin) for r in rep_bmo.rows]
    return {
        "name": entry.name,
        "tree_ok": tree.all_ok,
        "tree_nodes": len(tree.nodes),
        "tree": {"nodes_per_gen": [len(g) for g in tree.generations],
                 "blocks_visited": tree.blocks_visited},
        "blo_ok": rep_blo.all_ok,
        "bmo_ok": rep_bmo.all_ok,
        "blo_margin": rep_blo.worst_margin,
        "bmo_margin": rep_bmo.worst_margin,
        "tail_blo": tail_blo,
        "tail_bmo": tail_bmo,
        "equiv": equiv,
        "witnesses": witnesses,
    }


def _jn_rows(entries, cfg):
    return [_jn_row(entry, cfg) for entry in entries]


def cmd_jn(cfg, jobs, manifest) -> list[Table]:
    from . import czd, oscillation  # noqa: F401  loaded before the fork
    results = _pmap(_jn_rows, cfg, jobs)
    tables = []
    summary = []
    equiv_rows = []
    for res in results:
        manifest.entries.append({"name": res["name"],
                                 "witnesses": res["witnesses"],
                                 "tree": res["tree"]})
        manifest.record(f"tree-invariants:{res['name']}", res["tree_ok"],
                        f"nodes={res['tree_nodes']}")
        manifest.record(f"tail-blo:{res['name']}", res["blo_ok"],
                        f"worst-margin={res['blo_margin']:.4f}")
        manifest.record(f"tail-bmo:{res['name']}", res["bmo_ok"],
                        f"worst-margin={res['bmo_margin']:.4f}")
        for name, p, blo_p, blo, ratio, k_bound in res["equiv"]:
            ok = ratio <= k_bound and blo <= blo_p * (1 + 1e-12)
            manifest.record(f"equivalence:{name}:p={p:g}", ok,
                            f"ratio={ratio:.4f} K={k_bound:.1f}")
        equiv_rows.extend(res["equiv"])
        summary.append((res["name"], res["blo_margin"], res["bmo_margin"],
                        res["tree_nodes"]))
        tables.append(Table(f"jn_tail_blo_{res['name']}",
                            ("lambda", "measured", "bound", "margin"),
                            tuple(res["tail_blo"]), plot="tail"))
        tables.append(Table(f"jn_tail_bmo_{res['name']}",
                            ("lambda", "measured", "bound", "margin"),
                            tuple(res["tail_bmo"]), plot="tail"))
    tables.append(Table("jn_summary",
                        ("pair", "blo_worst_margin", "bmo_worst_margin",
                         "tree_nodes"), tuple(summary)))
    tables.append(Table("equivalence",
                        ("pair", "p", "blo_p", "blo", "ratio", "k_bound"),
                        tuple(equiv_rows)))
    return tables


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
    """Subcommand (or "lpsquare") and --out value of a refused command line."""
    command = next((a for a in argv if a in _COMMANDS), "lpsquare")
    out = None
    for i, arg in enumerate(argv):
        if arg == "--out" and i + 1 < len(argv):
            out = argv[i + 1]
        elif arg.startswith("--out="):
            out = arg[len("--out="):]
    return command, out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lpsquare",
        description="square-operator and oscillation-norm experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="INI config; defaults apply when omitted")
        p.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="SECTION.KEY=VALUE")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out", default=None,
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
    argv = sys.argv[1:] if argv is None else list(argv)
    failure: str | None = None
    error: str | None = None
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
    # LPSQUARE_SEED and --out are settings too, applied after --set
    env_seed = os.environ.get("LPSQUARE_SEED")
    seed = () if env_seed is None else (f"corpus.seed={env_seed}",)
    out = () if out_arg is None else (f"output.dir={out_arg}",)
    if failure is None:
        try:
            cfg = load_config(args.config, (*args.overrides, *seed, *out))
        except ValueError as exc:
            failure = str(exc)
    if failure is not None:
        # a refused run still gets a manifest, written from the defaults
        cfg = load_config(overrides=out)
    out_dir = Path(cfg.dir)

    manifest = RunManifest(command, cfg.text)
    timer = StageTimer()
    tables: list[Table] = []
    try:
        if failure is None:
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
        with timer.measure("report"):
            emit_report(tables, out_dir)
        manifest.write(out_dir / "manifest.json")
    for c in manifest.criteria:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}" +
              (f" ({c['detail']})" if c["detail"] else ""))
    if error is not None:
        print(error, file=sys.stderr, end="")
        return 3
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 2
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
