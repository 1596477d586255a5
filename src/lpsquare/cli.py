"""Command-line entry point wiring all modules into runnable experiments.

Subcommands: kernel-check, weights, operators, theorem-suite, jn.  Every
invocation writes a manifest (even on failure) plus one CSV per result
table; exit status is 0 exactly when every assertion of the invoked suite
passed.  Corpus entries are processed in parallel under --jobs with
deterministic output ordering.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .czd import (
    cz_decompose,
    equivalence_constant,
    jn_blo_verify,
    jn_bmo_verify,
)
from .grid import Cube, dyadic_cubes, grid_function
from .kernels import certify, kernel_registry, nonvanishing_hat_kernel
from .operators import (
    OperatorSpec,
    ScaleGrid,
    default_scales,
    g_function,
    l2_norm,
    spectrum_cache_stats,
    square_functions,
)
from .oscillation import blo_constant, blo_p_norm, bmo_norm
from .report import (
    RunManifest,
    StageTimer,
    Table,
    apply_overrides,
    corpus_from_config,
    emit_report,
    load_config,
)
from .weights import a1_constant, ap_constant, doubling_report, power_weight

__all__ = ["main", "build_parser"]


def _setting(cfg, section: str, key: str, kind=int):
    """cfg[section][key] converted by kind; a malformed value is a refusal."""
    value = cfg[section][key]
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"{section}.{key}={value!r} is not a valid "
                         f"{kind.__name__}") from None


def _grid_params(cfg) -> tuple[int, float, int]:
    return (_setting(cfg, "grid", "n"), _setting(cfg, "grid", "L", float),
            _setting(cfg, "grid", "N"))


def _scale_params(cfg) -> tuple[int, float | None, float | None]:
    s = cfg["scales"]
    t_min = float(s["t_min"]) if s["t_min"] else None
    t_max = float(s["t_max"]) if s["t_max"] else None
    return int(s["M"]), t_min, t_max


def _make_scales(f, M, t_min, t_max) -> ScaleGrid:
    if t_min is not None and t_max is not None:
        return ScaleGrid(t_min, t_max, M)
    return default_scales(f, M=M)


def _family(cfg, grid):
    return dyadic_cubes(grid, int(cfg["family"]["max_level"]))


@functools.lru_cache(maxsize=8)
def _certified_kernel(name: str, n: int):
    """Registry lookup that only ever hands back certified kernels."""
    kernel = kernel_registry(name, n)
    if kernel.report is None or not kernel.report.passed:
        raise ValueError(f"kernel {name!r} is not certified for use")
    return kernel


def _lambda_star(kernel, n: int) -> float:
    return 4.0 + (2.0 * kernel.delta + 2.0 * kernel.gamma) / n


def _pmap(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# kernel-check


def cmd_kernel_check(cfg, jobs, manifest) -> list[Table]:
    n, _, _ = _grid_params(cfg)
    tol = float(cfg["tolerances"]["vanish"])
    names = ["poisson-derivative", "gauss-derivative"]
    if n == 1:
        names.append("hermite2")
    rows = []
    for name in names:
        kernel = kernel_registry(name, n)
        rep = kernel.report
        ok = bool(rep.passed and rep.p1_residual < tol)
        manifest.record(f"certified:{name}", ok,
                        f"residual={rep.p1_residual:.3e}")
        manifest.kernels.append({
            "name": name, "n": n, "certified": ok,
            "residual": rep.p1_residual, "c1": rep.c1, "c2": rep.c2})
        rows.append((name, n, rep.p1_residual, rep.c1, rep.c2, ok, "pass"))
    if n == 1:
        control = nonvanishing_hat_kernel()
        rep = certify(control)
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


def _weights_row(args):
    entry, n, L, N, seed, max_level = args
    _, w = entry.realize(n, L, N, seed)
    grid = w.base
    family = dyadic_cubes(grid, max_level)
    a1 = a1_constant(w, family)
    a2 = ap_constant(w, 2.0, family)
    doubling = doubling_report(w, family)
    margin = min((r.bound / r.ratio for r in doubling.rows if r.ratio > 0),
                 default=float("inf"))
    _, w2 = entry.realize(n, L, 2 * N, seed)
    family2 = dyadic_cubes(w2.base, max_level)
    a1_fine = a1_constant(w2, family2)
    stability = abs(a1_fine - a1) / a1
    return (entry.name, a1, a2, doubling.all_ok, margin, stability)


def cmd_weights(cfg, jobs, manifest) -> list[Table]:
    n, L, N = _grid_params(cfg)
    seed = int(cfg["corpus"]["seed"])
    max_level = int(cfg["family"]["max_level"])
    corpus = corpus_from_config(cfg)
    rows = _pmap(_weights_row,
                 [(e, n, L, N, seed, max_level) for e in corpus], jobs)
    for name, a1, a2, dbl_ok, margin, stability in rows:
        manifest.record(f"doubling:{name}", dbl_ok and margin >= 1.0,
                        f"margin={margin:.6f}")
        manifest.record(f"stability:{name}", stability <= 0.05,
                        f"rel-change={stability:.4f}")
        manifest.record(f"a1-sane:{name}", a1 >= 1.0 and a2 <= a1,
                        f"a1={a1:.6f} a2={a2:.6f}")
    return [Table("weights",
                  ("pair", "a1", "a2", "doubling_ok", "doubling_margin",
                   "stability_rel"), tuple(rows))]


# ---------------------------------------------------------------------------
# operators


def _operator_results(kernel, f, scales, lams):
    """g, S and g*_lam for each lam in lams from one pass over the scales,
    keyed "g", "s", "gstar_<lam>"."""
    keys = ["g", "s"] + [f"gstar_{lam:g}" for lam in lams]
    specs = [OperatorSpec("g"), OperatorSpec("s")] + \
        [OperatorSpec("gstar", lam=lam) for lam in lams]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return dict(zip(keys, square_functions(kernel, f, scales, specs)))


def _operator_fields(kernel, f, scales, lam):
    return {op: res.values
            for op, res in _operator_results(kernel, f, scales, (lam,)).items()}


def _entry_record(name, results, cache_before) -> dict:
    """Manifest record of one entry: each operator's tail_bound, and the
    spectrum cache's size with the hits and misses the entry added."""
    cache = spectrum_cache_stats()
    return {
        "name": name,
        "tail_bounds": {op: res.tail_bound for op, res in results.items()},
        "spectrum_cache": {
            "bytes": cache["bytes"],
            "hits": cache["hits"] - cache_before["hits"],
            "misses": cache["misses"] - cache_before["misses"]},
    }


def _operators_row(args):
    entry, n, L, N, seed, scale_params, kernel_name = args
    kernel = _certified_kernel(kernel_name, n)
    f, w = entry.realize(n, L, N, seed)
    scales = _make_scales(f, *scale_params)
    lam = _lambda_star(kernel, n)
    denom = l2_norm(f, w)
    cache_before = spectrum_cache_stats()
    results = _operator_results(kernel, f, scales, (lam, lam + 1.0))
    record = _entry_record(entry.name, results, cache_before)
    hi = results.pop(f"gstar_{lam + 1.0:g}").values
    rows = [(entry.name, op, l2_norm(res.values, w) / denom)
            for op, res in results.items()]
    mono_ok = l2_norm(hi, w) <= \
        l2_norm(results[f"gstar_{lam:g}"].values, w) * (1 + 1e-12)
    return rows, mono_ok, record


def cmd_operators(cfg, jobs, manifest) -> list[Table]:
    n, L, N = _grid_params(cfg)
    seed = int(cfg["corpus"]["seed"])
    scale_params = _scale_params(cfg)
    kernel_name = cfg["tolerances"]["kernel"]
    kernel = _certified_kernel(kernel_name, n)
    manifest.kernels.append({
        "name": kernel_name, "n": n, "certified": True,
        "residual": kernel.report.p1_residual})
    corpus = corpus_from_config(cfg)
    results = _pmap(_operators_row,
                    [(e, n, L, N, seed, scale_params, kernel_name)
                     for e in corpus], jobs)
    rows = []
    for (entry_rows, mono_ok, record), entry in zip(results, corpus):
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


def _theorem_row(args):
    entry, n, L, N, seed, scale_params, max_level, kernel_name = args
    kernel = _certified_kernel(kernel_name, n)
    f, w = entry.realize(n, L, N, seed)
    scales = _make_scales(f, *scale_params)
    family = dyadic_cubes(f, max_level)
    bmo = bmo_norm(f, w, family).value
    lam = _lambda_star(kernel, n)
    rows = []
    cache_before = spectrum_cache_stats()
    results = _operator_results(kernel, f, scales, (lam,))
    for op, res in results.items():
        blo = blo_constant(res.values, w, family).value
        ratio = blo / bmo if bmo > 0 else float("inf")
        rows.append((entry.name, op, blo, bmo, ratio))
    return rows, _entry_record(entry.name, results, cache_before)


def cmd_theorem_suite(cfg, jobs, manifest) -> list[Table]:
    n, L, N = _grid_params(cfg)
    seed = int(cfg["corpus"]["seed"])
    scale_params = _scale_params(cfg)
    max_level = int(cfg["family"]["max_level"])
    kernel_name = cfg["tolerances"]["kernel"]
    # ratios are meaningless without (P1)-(P3); refuse uncertified kernels
    kernel = _certified_kernel(kernel_name, n)
    manifest.kernels.append({
        "name": kernel_name, "n": n, "certified": True,
        "residual": kernel.report.p1_residual,
        "lambda_star": _lambda_star(kernel, n)})
    corpus = corpus_from_config(cfg)
    results = _pmap(_theorem_row,
                    [(e, n, L, N, seed, scale_params, max_level, kernel_name)
                     for e in corpus], jobs)
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


def _jn_rows(args):
    entry, n, L, N, seed, max_level, sigma, max_gen, nodes = args
    f, w = entry.realize(n, L, N, seed)
    box = Cube((L / 2.0,) * n, L, level=0)
    tree = cz_decompose(f, w, box, sigma=sigma, max_gen=max_gen)
    fv = f.values.ravel()
    span_blo = float(fv.max() - fv.min())
    span_bmo = float(np.abs(fv - fv.mean()).max())
    lam_blo = np.linspace(span_blo / nodes, span_blo * 1.05, nodes)
    lam_bmo = np.linspace(span_bmo / nodes, span_bmo * 1.05, nodes)
    rep_blo = jn_blo_verify(f, w, box, lam_blo, strict=False)
    rep_bmo = jn_bmo_verify(f, w, box, lam_bmo, strict=False)
    family = dyadic_cubes(f, max_level)
    a1 = a1_constant(w, family)
    blo = blo_constant(f, w, family).value
    equiv = []
    for p in (1.5, 2.0, 3.0):
        nu = power_weight(w, -1.0 / (p - 1.0))
        k_bound = equivalence_constant(p, n, a1, ap_constant(nu, p, family))
        blo_p = blo_p_norm(f, w, p, family).value
        equiv.append((entry.name, p, blo_p, blo,
                      blo_p / blo if blo > 0 else float("inf"), k_bound))
    tail_blo = [(r.lam, r.measured, r.bound, r.margin) for r in rep_blo.rows]
    tail_bmo = [(r.lam, r.measured, r.bound, r.margin) for r in rep_bmo.rows]
    return {
        "name": entry.name,
        "tree_ok": tree.all_ok,
        "tree_nodes": len(tree.nodes),
        "blo_ok": rep_blo.all_ok,
        "bmo_ok": rep_bmo.all_ok,
        "blo_margin": rep_blo.worst_margin,
        "bmo_margin": rep_bmo.worst_margin,
        "tail_blo": tail_blo,
        "tail_bmo": tail_bmo,
        "equiv": equiv,
    }


def cmd_jn(cfg, jobs, manifest) -> list[Table]:
    n, L, N = _grid_params(cfg)
    seed = int(cfg["corpus"]["seed"])
    max_level = int(cfg["family"]["max_level"])
    tol = cfg["tolerances"]
    sigma = float(tol["sigma"])
    max_gen = int(tol["max_gen"])
    nodes = _setting(cfg, "tolerances", "lambda_nodes")
    if nodes < 1:
        raise ValueError("tolerances.lambda_nodes must be at least 1")
    corpus = corpus_from_config(cfg)
    results = _pmap(_jn_rows,
                    [(e, n, L, N, seed, max_level, sigma, max_gen, nodes)
                     for e in corpus], jobs)
    tables = []
    summary = []
    equiv_rows = []
    for res in results:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, tuple(args.overrides))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env_seed = os.environ.get("LPSQUARE_SEED")
    if env_seed is not None:
        cfg["corpus"]["seed"] = env_seed
    if args.out is not None:
        cfg = apply_overrides(cfg, f"output.dir={args.out}")
    out_dir = Path(cfg["output"]["dir"])

    manifest = RunManifest(args.command, cfg)
    timer = StageTimer()
    tables: list[Table] = []
    failure: str | None = None
    try:
        # LPSQUARE_SEED lands in corpus.seed, so it is checked here too
        manifest.seed = _setting(cfg, "corpus", "seed")
        n, L, N = _grid_params(cfg)
        manifest.grid = {"n": n, "L": L, "N": N}
        manifest.family = {"kind": "dyadic",
                           "max_level": _setting(cfg, "family", "max_level")}
        with timer.measure(args.command):
            tables = _COMMANDS[args.command](cfg, args.jobs, manifest)
    except ValueError as exc:
        failure = str(exc)
        manifest.record(f"{args.command}-preconditions", False, failure)
    finally:
        manifest.timings = timer.stages
        with timer.measure("report"):
            emit_report(tables, out_dir)
        manifest.write(out_dir / "manifest.json")
    for c in manifest.criteria:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}" +
              (f" ({c['detail']})" if c["detail"] else ""))
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 2
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
