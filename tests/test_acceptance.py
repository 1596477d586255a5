"""End-to-end acceptance checklist for the package.

Each test covers one shipped guarantee, prints a single PASS or FAIL
line with the measured margin, and asserts the promised tolerance.
Run with ``pytest -s tests/test_acceptance.py`` to see the checklist.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from lpsquare import czd
from lpsquare.cli import (_certified_kernel, _lambda_star, _operator_results,
                          main)
from lpsquare.czd import (cz_decompose, distribution_function,
                          equivalence_constant, jn_blo_verify, jn_bmo_verify,
                          layer_cake_check)
from lpsquare.grid import Cube, dyadic_cubes
from lpsquare.kernels import certified, kernel_registry
from lpsquare.operators import default_scales
from lpsquare.oscillation import blo_constant, blo_p_norm, bmo_norm
from lpsquare.report import default_corpus
from lpsquare.weights import (Weight, a1_constant, ap_constant,
                              doubling_report, power_weight)

SEED = 1234
LEVEL = 6
BOX = Cube((0.5,), 1.0, level=0)
REL = 1e-12
SLACK = 1.0 + REL

STEP_FAMILIES = ("step", "random-martingale")


def _operator_fields(kernel, f, scales, lam):
    """g, S and g*_lam of f from one pass over the scales, keyed "g", "s"
    and "gstar_<lam>"."""
    [results] = _operator_results(kernel, [f], scales, (lam,))
    return {op: res.values for op, res in results.items()}


def _criterion(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {label}: {detail}"
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def _pairs(N: int):
    return tuple((e, *e.realize(1, 1.0, N, SEED)) for e in default_corpus())


def test_criterion_01_kernel_certification():
    details = []
    ok = True
    for n in (1, 2):
        t0 = time.perf_counter()
        kernel = kernel_registry("poisson-derivative", n)
        dt = time.perf_counter() - t0
        rep = kernel.report
        ok = ok and certified(kernel) and rep.p1_residual < 1e-6 and dt < 10.0
        details.append(f"n={n} residual={rep.p1_residual:.2e} time={dt:.2f}s")
    _criterion(1, "kernel certification", ok, ", ".join(details))


def test_criterion_02_mean_oscillation_comparison():
    worst = 0.0
    for entry, f, w in _pairs(1024):
        family = dyadic_cubes(f, LEVEL)
        blo = blo_constant(f, w, family).value
        bmo = bmo_norm(f, w, family).value
        assert blo > 0, entry.name
        worst = max(worst, bmo / (2.0 * blo))
    _criterion(2, "bmo <= 2 blo", worst <= SLACK,
               f"worst bmo/(2 blo) = {worst:.6f} over {len(_pairs(1024))} pairs")


def test_criterion_03_square_field_oscillation():
    kernel = _certified_kernel("poisson-derivative", 1)
    worst = math.inf
    for entry, f, _ in _pairs(1024):
        scales = default_scales(f, M=48)
        ones = Weight(f.n, f.L, f.N, np.ones_like(f.values))
        family = dyadic_cubes(f, LEVEL)
        fields = _operator_fields(kernel, f, scales, 8.0)
        for op in ("g", "s"):
            field = fields[op]
            base = blo_constant(field, ones, family).value
            square = blo_constant(field.with_values(field.values ** 2),
                                  ones, family).value
            assert base > 0, (entry.name, op)
            worst = min(worst, square / base**2)
    _criterion(3, "blo(F)^2 <= blo(F^2)", worst * SLACK >= 1.0,
               f"worst blo(F^2)/blo(F)^2 = {worst:.6f}")


def test_criterion_04_doubling_bound():
    worst = math.inf
    cubes = 0
    for entry, _, w in _pairs(1024):
        rep = doubling_report(w, dyadic_cubes(w, LEVEL))
        assert rep.all_ok, entry.name
        worst = min(worst, rep.margin)
        cubes += rep.ratios.size
    _criterion(4, "weight doubling", worst * SLACK >= 1.0,
               f"min margin = {worst:.6f} over {cubes} cubes")


def test_criterion_05_stopping_time_invariants():
    worst_dt = 0.0
    nodes = 0
    ok = True
    for entry, f, w in _pairs(4096):
        t0 = time.perf_counter()
        tree = cz_decompose(f, w, sigma=math.e, max_gen=5)
        dt = time.perf_counter() - t0
        worst_dt = max(worst_dt, dt)
        ok = ok and tree.all_ok and dt < 5.0
        for k, gen in enumerate(tree.generations, start=1):
            total = sum((f.L / 2**s.level) ** f.n for s in gen)
            ok = ok and total <= f.L ** f.n / math.e**k * SLACK
        nodes += len(tree.nodes)
    _criterion(5, "tree invariants at depth 5", ok,
               f"{nodes} selected cubes, worst time {worst_dt:.2f}s")


def test_criterion_06_exponential_tail_bound():
    worst = math.inf
    spikes = 0
    for entry, f, w in _pairs(2048):
        spikes += entry.function.family == "log-spike"
        span = float(np.max(f.values) - np.min(f.values))
        rep = jn_blo_verify(f, w, np.linspace(span / 32, span * 1.05, 32))
        assert rep.all_ok, entry.name
        worst = min(worst, rep.worst_margin)
        dev = float(np.max(np.abs(f.values - np.mean(f.values))))
        repb = jn_bmo_verify(f, w, np.linspace(dev / 32, dev * 1.05, 32))
        assert repb.all_ok, entry.name
        worst = min(worst, repb.worst_margin)
    assert spikes >= 1
    _criterion(6, "exponential tail bound", worst >= 1.0,
               f"worst margin = {worst:.4f} ({spikes} log-spike pairs)")


def test_criterion_07_p_norm_equivalence():
    worst_upper = 0.0
    worst_lower = math.inf
    for entry, f, w in _pairs(1024):
        family = dyadic_cubes(f, LEVEL)
        a1 = a1_constant(w, family)
        blo = blo_constant(f, w, family).value
        for p in (1.5, 2.0, 3.0):
            nu = power_weight(w, -1.0 / (p - 1.0))
            bound = equivalence_constant(p, f.n, a1, ap_constant(nu, p, family))
            blop = blo_p_norm(f, w, p, family).value
            worst_upper = max(worst_upper, blop / blo / bound)
            worst_lower = min(worst_lower, blop / blo)
    ok = worst_upper <= 1.0 and worst_lower * SLACK >= 1.0
    _criterion(7, "p-norm equivalence", ok,
               f"max ratio/K = {worst_upper:.2e}, min blo_p/blo = {worst_lower:.6f}")


def _ratio_suite(N: int, M: int) -> dict[str, float]:
    kernel = _certified_kernel("poisson-derivative", 1)
    lam = _lambda_star(kernel)
    sups: dict[str, float] = {}
    for entry in default_corpus():
        f, w = entry.realize(1, 1.0, N, SEED)
        family = dyadic_cubes(f, LEVEL)
        bmo = bmo_norm(f, w, family).value
        fields = _operator_fields(kernel, f, default_scales(f, M=M), lam)
        for op, field in fields.items():
            ratio = blo_constant(field, w, family).value / bmo
            sups[op] = max(sups.get(op, 0.0), ratio)
    return sups


def test_criterion_08_ratio_stability_under_refinement():
    t0 = time.perf_counter()
    base = _ratio_suite(2048, 64)
    base_dt = time.perf_counter() - t0
    fine = _ratio_suite(4096, 128)
    ok = base_dt < 300.0
    details = [f"suite time {base_dt:.1f}s"]
    for op in sorted(base):
        drift = abs(fine[op] - base[op]) / base[op]
        ok = ok and np.isfinite(base[op]) and base[op] > 0 and drift <= 0.10
        details.append(f"{op}: sup={base[op]:.4f} drift={drift:.2%}")
    _criterion(8, "ratio stability under refinement", ok, ", ".join(details))


def test_criterion_09_layer_cake_identity():
    worst_step = 0.0
    worst_smooth = 0.0
    for entry, f, w in _pairs(2048):
        if entry.function.family in STEP_FAMILIES:
            for p in (1.0, 2.0, 3.0):
                _, _, gap = layer_cake_check(f, w, p, mode="step")
                worst_step = max(worst_step, gap)
        else:
            _, _, gap = layer_cake_check(f, w, 2.0, mode="trapezoid",
                                         nodes=10**4)
            worst_smooth = max(worst_smooth, gap)
    ok = worst_step <= REL and worst_smooth < 1e-3
    _criterion(9, "layer cake identity", ok,
               f"step gap = {worst_step:.2e}, smooth gap = {worst_smooth:.2e}")


def test_criterion_10_oracle_equivalence():
    from test_czd import (_profile, assert_same_trees, gf, oracle_tree,
                          regularized_power, tree_records, weight_from)

    compared = 0
    for N in (64, 256):
        for kind in ("logspike", "staircase"):
            f = gf(_profile(N, kind))
            w = weight_from(regularized_power(N, 0.15, x0=0.4))
            for sigma in (1.5, math.e):
                fast = cz_decompose(f, w, sigma=sigma, max_gen=4)
                assert_same_trees(tree_records(fast),
                                  oracle_tree(f, w, BOX, sigma, 4))
                compared += len(fast.nodes)
                assert fast.all_ok
    assert compared > 0

    entry, f, w = _pairs(256)[7]
    lam = np.linspace(float(np.min(f.values)) - 0.5,
                      float(np.max(f.values)) + 0.5, 64)
    h = f.L / f.N
    recount_worst = 0.0
    for mu_kind, p in (("lebesgue", None), ("weight", None),
                       ("power_weight", 2.0)):
        dist = distribution_function(f, mu_kind, w, lam, p=p) \
            if p is not None else distribution_function(f, mu_kind, w, lam)
        for lv, measured in zip(lam, dist):
            total = 0.0
            for idx in range(f.values.size):
                if f.values.ravel()[idx] > lv:
                    wv = w.values.ravel()[idx]
                    if mu_kind == "lebesgue":
                        total += h**f.n
                    elif mu_kind == "weight":
                        total += wv * h**f.n
                    else:
                        total += wv ** (1.0 - p) * h**f.n
            recount_worst = max(recount_worst,
                                abs(total - measured) / max(total, 1e-300))
    ok = recount_worst <= REL
    _criterion(10, "oracle equivalence", ok,
               f"{compared} tree nodes matched, recount gap = {recount_worst:.2e}")


def test_criterion_10_recounts_the_tails_jn_reads():
    # jn's measured column and distribution_function's Lebesgue masses come
    # from one counter, bit for bit; at L=0.7, h is not a dyadic rational,
    # so a prefix sum of h's would round where count * h does not
    for L in (1.0, 0.7):
        for entry in default_corpus():
            f, w = entry.realize(1, L, 256, SEED)
            for verify, dev in (
                    (jn_blo_verify, f.values - f.values.min()),
                    (jn_bmo_verify, np.abs(f.values - f.values.mean()))):
                span = float(dev.max())  # jn's lambda grid
                lam = np.linspace(span / 32, span * 1.05, 32)
                rep = verify(f, w, lam)
                masses = distribution_function(f.with_values(dev),
                                               "lebesgue", w, lam)
                assert [r.measured for r in rep.rows] == masses.tolist()


def test_criterion_10_control_a_counter_that_drops_samples(tmp_path,
                                                           monkeypatch):
    def run_jn(out):
        assert main(["jn", "--jobs", "1", "--set", "grid.N=256",
                     "--set", "family.max_level=4",
                     "--set", "corpus.a=log-spike(x0=0.3) | constant()",
                     "--out", str(out)]) == 0
        return (out / "jn_tail_blo_a.csv").read_bytes()

    honest = run_jn(tmp_path / "honest")
    count = czd._tail_masses

    def half(v, lam, mu):
        return count(v[::2], lam, mu if np.ndim(mu) == 0 else mu[::2])

    monkeypatch.setattr(czd, "_tail_masses", half)
    assert run_jn(tmp_path / "half") != honest
    with pytest.raises(AssertionError, match="FAIL.*criterion 10"):
        test_criterion_10_oracle_equivalence()
