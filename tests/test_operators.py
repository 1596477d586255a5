"""Square operators: quadrature correctness, orderings, truncations."""

import dataclasses
import math

import numpy as np
import pytest

from lpsquare import operators
from lpsquare.grid import GridFunction, from_callable
from lpsquare.kernels import (
    Kernel,
    certify,
    dilate,
    evaluate,
    gauss_derivative_kernel,
    nonvanishing_hat_kernel,
    poisson_derivative_kernel,
)
from lpsquare.operators import (
    OperatorSpec,
    ScaleGrid,
    _periodic_conv,
    annulus_level_cap,
    area_integral,
    clear_spectrum_cache,
    convolve,
    default_scales,
    dilated_area_integral,
    g_function,
    g_star,
    l2_norm,
    lambda_warn_threshold,
    load_result,
    save_result,
    spectrum_cache_stats,
    split_at_scale,
    square_functions,
)
from lpsquare.weights import Weight, constant_weight

POISSON1 = poisson_derivative_kernel(1)


def direct_periodic_conv(field, kern):
    """Reference circular convolution out[i] = sum_m field[i-m] kern[m],
    summed directly in O(N^{2n})."""
    N = field.shape[0]
    idx = np.arange(N)
    A = (idx[:, None] - idx[None, :]) % N
    if field.ndim == 1:
        return field[A] @ kern
    out = np.empty((N, N))
    for i1 in range(N):
        for i2 in range(N):
            out[i1, i2] = float((field[A[i1, :], :][:, A[i2, :]] * kern).sum())
    return out


def oracle_square_function(kernel, f, scales, op, lam=None, aperture=1.0,
                           keep=None):
    """Scale-by-scale direct sums: psi_t * f, then the spatial sum, each by
    direct_periodic_conv, accumulated in the sample domain."""
    n, L, N = f.n, f.L, f.N
    h = L / N
    d = ((np.arange(N) + N // 2) % N - N // 2) * h
    if n == 1:
        pts, dist = d[:, None], np.abs(d)
    else:
        dx, dy = np.meshgrid(d, d, indexing="ij")
        pts = np.stack([dx.ravel(), dy.ravel()], axis=1)
        dist = np.sqrt(dx**2 + dy**2)
    acc = np.zeros(f.values.shape)
    for j, (t, w) in enumerate(zip(scales.nodes, scales.weights)):
        if keep is not None and not keep[j]:
            continue
        kern = (evaluate(kernel, pts / t) / t**n).reshape(f.values.shape)
        F = direct_periodic_conv(f.values, kern - kern.mean()) * h**n
        sq = F * F
        if op == "g":
            acc += w * sq
            continue
        if op == "s":
            spatial = (dist < aperture * t).astype(float)
        else:
            spatial = (t / (t + dist)) ** (lam * n)
        acc += w / t**n * direct_periodic_conv(sq, spatial) * h**n
    return np.sqrt(np.maximum(acc, 0.0))


def odd_kernel():
    """-x exp(-x^2/2): certified, but odd, so its spectrum is imaginary."""
    k = Kernel("odd-gauss", 1,
               lambda p: -p[:, 0] * np.exp(-p[:, 0] ** 2 / 2.0), 2.0, 1.0,
               radial=False)
    rep = certify(k)
    return dataclasses.replace(k, c1=rep.c1, c2=rep.c2, report=rep)


def random_function(n, N, seed=0):
    shape = (N,) if n == 1 else (N, N)
    return GridFunction(n, 1.0, N, np.random.default_rng(seed).normal(size=shape))


def sine(N=256, k=3, L=1.0):
    return from_callable(1, L, N, lambda x: np.sin(2 * math.pi * k * x / L))


def test_scale_grid_weights_sum_to_log_span():
    sg = ScaleGrid(0.01, 1.28, 64)
    assert np.all(np.diff(sg.nodes) > 0)
    assert np.all(sg.weights > 0)
    assert sg.weights.sum() == pytest.approx(math.log(128.0), rel=1e-13)
    with pytest.raises(ValueError):
        ScaleGrid(1.0, 0.5, 8)
    with pytest.raises(ValueError):
        ScaleGrid(0.1, 1.0, 1)


def test_default_scales_conventions():
    f = sine(N=512)
    sg = default_scales(f)
    assert sg.t_min == pytest.approx(2.0 / 512)
    assert sg.t_max == pytest.approx(0.25)
    assert sg.M == 64
    r = sg.refined()
    assert r.t_min == sg.t_min and r.t_max == sg.t_max and r.M == 127


def test_convolve_annihilates_constants_to_rounding():
    f = GridFunction(1, 1.0, 128, np.full(128, 3.25))
    out = convolve(dilate(POISSON1, 0.05), f)
    # mean correction leaves only float rounding, far below tol_vanish
    assert np.max(np.abs(out.values)) < 1e-12


def test_convolve_zero_function():
    f = GridFunction(1, 1.0, 64, np.zeros(64))
    out = convolve(dilate(POISSON1, 0.1), f)
    assert np.all(out.values == 0.0)


def test_convolve_delta_reproduces_kernel_samples():
    N, L, t = 256, 1.0, 0.03
    h = L / N
    i0 = 77
    vals = np.zeros(N)
    vals[i0] = 1.0 / h
    f = GridFunction(1, L, N, vals)
    out = convolve(dilate(POISSON1, t), f).values
    d = ((np.arange(N) - i0 + N // 2) % N - N // 2) * h
    kern = evaluate(POISSON1, d / t) / t
    kern_corr = kern - kern.mean()
    assert np.allclose(out, kern_corr, atol=1e-12)
    # and the raw profile up to the small DC shift
    assert np.max(np.abs(out - kern)) < 5e-3 * np.max(np.abs(kern))


def test_fft_and_direct_convolution_agree():
    rng = np.random.default_rng(5)
    a, k = rng.normal(size=512), rng.normal(size=512)
    d = direct_periodic_conv(a, k)
    ff = _periodic_conv(a, k)
    assert np.allclose(d, ff, rtol=0, atol=1e-10 * np.max(np.abs(d)))
    a2, k2 = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
    d2 = direct_periodic_conv(a2, k2)
    f2 = _periodic_conv(a2, k2)
    assert np.allclose(d2, f2, rtol=0, atol=1e-10)


def test_requires_certified_kernel():
    f = sine(N=64)
    sg = default_scales(f, M=8)
    with pytest.raises(ValueError):
        g_function(nonvanishing_hat_kernel(), f, sg)
    bare = Kernel("anon", 1, lambda p: np.zeros(p.shape[0]), 1.0, 1.0)
    with pytest.raises(ValueError):
        area_integral(bare, f, sg)


def test_g_of_constant_is_negligible():
    f = GridFunction(1, 1.0, 256, np.full(256, 7.0))
    sg = default_scales(f, M=16)
    assert np.max(g_function(POISSON1, f, sg).values.values) < 1e-13
    assert np.max(area_integral(POISSON1, f, sg).values.values) < 1e-13


def test_sine_response_matches_discrete_multiplier():
    # translation invariance forces G(sin) = |multiplier| * |sin|, where the
    # multiplier is the cosine sum of the mean-corrected sampled kernel
    N, k = 256, 3
    f = sine(N=N, k=k)
    sg = ScaleGrid(2.0 / N, 0.25, 32)
    res = g_function(POISSON1, f, sg).values.values
    h = 1.0 / N
    d = ((np.arange(N) + N // 2) % N - N // 2) * h
    amp2 = 0.0
    for t, w in zip(sg.nodes, sg.weights):
        kern = evaluate(POISSON1, d / t) / t
        kern -= kern.mean()
        a = h * float((kern * np.cos(2 * math.pi * k * np.arange(N) / N)).sum())
        amp2 += w * a * a
    expect = math.sqrt(amp2) * np.abs(f.values)
    assert np.allclose(res, expect, atol=1e-10)


def test_sine_l2_ratio_near_closed_form():
    # scale quadrature of the profile's Fourier transform
    # -2 pi |xi| exp(-2 pi |xi|), frozen for L=1, N=256, k=3, M=64
    f = sine(N=256, k=3)
    sg = ScaleGrid(2.0 / 256, 0.25, 64)
    ratio = l2_norm(g_function(POISSON1, f, sg).values) / l2_norm(f)
    assert ratio == pytest.approx(0.4907622537547583, rel=1e-2)


def test_sine_ratio_stable_under_scale_refinement():
    f = sine(N=256, k=3)
    sg = ScaleGrid(2.0 / 256, 0.25, 32)
    r1 = l2_norm(g_function(POISSON1, f, sg).values) / l2_norm(f)
    r2 = l2_norm(g_function(POISSON1, f, sg.refined()).values) / l2_norm(f)
    assert r2 == pytest.approx(r1, rel=0.02)


def test_scaling_covariance_of_g():
    # sin(16 pi x) is sin(32 pi x) dilated by 2 and stays periodic, so
    # G(f_2)(2u) should match G(f)(u); both spectra sit well inside the
    # scale range at this resolution
    N = 4096
    f = sine(N=N, k=8)
    f2 = sine(N=N, k=4)
    sg = ScaleGrid(2.0 / N, 0.25, 96)
    gf = g_function(POISSON1, f, sg).values.values
    gf2 = g_function(POISSON1, f2, sg).values.values
    i = np.arange(N // 2)
    num, den = gf2[2 * i], gf[i]
    keep = den > 1e-3 * den.max()
    assert np.max(np.abs(num[keep] / den[keep] - 1.0)) < 0.01


def test_area_integral_saturates_to_no_cone_quadrature():
    N = 128
    f = sine(N=N, k=5)
    sg = ScaleGrid(2.0 / N, 0.25, 8)
    # aperture so large every sample is inside the cone at every scale
    ell = annulus_level_cap(1, 1.0, sg) + 1
    res = dilated_area_integral(POISSON1, f, ell, sg).values.values
    h = 1.0 / N
    flat = 0.0
    for t, w in zip(sg.nodes, sg.weights):
        F = convolve(dilate(POISSON1, float(t)), f).values
        flat += w / t * float((F * F).sum()) * h
    assert np.allclose(res, math.sqrt(flat), rtol=1e-12)


def test_dilated_aperture_monotone():
    f = sine(N=128, k=4)
    sg = ScaleGrid(2.0 / 128, 0.25, 8)
    s = area_integral(POISSON1, f, sg).values.values
    s1 = dilated_area_integral(POISSON1, f, 1, sg).values.values
    s2 = dilated_area_integral(POISSON1, f, 2, sg).values.values
    assert np.all(s <= s1 * (1 + 1e-12))
    assert np.all(s1 <= s2 * (1 + 1e-12))
    with pytest.raises(ValueError):
        dilated_area_integral(POISSON1, f, 0, sg)


@pytest.mark.filterwarnings("ignore:lambda")
def test_gstar_lambda_monotone_and_errors():
    f = sine(N=128, k=4)
    sg = ScaleGrid(2.0 / 128, 0.25, 8)
    g3 = g_star(POISSON1, f, 3.0, sg).values.values
    g4 = g_star(POISSON1, f, 4.0, sg).values.values
    assert np.all(g4 <= g3 * (1 + 1e-12))
    with pytest.raises(ValueError):
        g_star(POISSON1, f, 0.0, sg)
    with pytest.raises(ValueError):
        g_star(POISSON1, f, -3.0, sg)


def test_gstar_warns_below_threshold():
    f = sine(N=64, k=2)
    sg = ScaleGrid(2.0 / 64, 0.25, 4)
    thr = lambda_warn_threshold(POISSON1, 1)
    assert thr == pytest.approx(7.0)
    with pytest.warns(UserWarning):
        g_star(POISSON1, f, 4.0, sg)
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("error")
        g_star(POISSON1, f, 8.0, sg)


@pytest.mark.filterwarnings("ignore:lambda")
def test_cone_domination_exact_in_quadrature():
    f = sine(N=128, k=4)
    sg = ScaleGrid(2.0 / 128, 0.25, 8)
    lam = 4.0
    s = area_integral(POISSON1, f, sg).values.values
    gs = g_star(POISSON1, f, lam, sg).values.values
    assert np.all(s <= 2 ** (lam / 2) * gs * (1 + 1e-12))


def test_annulus_decomposition_bound():
    f = sine(N=256, k=5)
    sg = ScaleGrid(2.0 / 256, 0.25, 12)
    lam = 8.0
    gs2 = g_star(POISSON1, f, lam, sg).values.values ** 2
    s2 = area_integral(POISSON1, f, sg).values.values ** 2
    cap = annulus_level_cap(1, 1.0, sg)
    rhs = s2.copy()
    for ell in range(1, cap + 1):
        sl = dilated_area_integral(POISSON1, f, ell, sg).values.values
        rhs += 2.0 ** (-ell * lam) * sl**2
    assert np.all(gs2 <= 2.0**lam * rhs * (1 + 1e-10))


def test_split_sandwich_and_energy_partition():
    f = sine(N=256, k=4)
    sg = ScaleGrid(2.0 / 256, 0.25, 16)
    full = g_function(POISSON1, f, sg).values.values
    lo, hi = split_at_scale("g", POISSON1, f, 0.05, sg)
    lov, hiv = lo.values.values, hi.values.values
    assert lo.part == "low" and hi.part == "high"
    assert np.all(lov <= full * (1 + 1e-12))
    assert np.all(hiv <= full * (1 + 1e-12))
    assert np.all(full <= lov + hiv + 1e-12)
    assert np.allclose(lov**2 + hiv**2, full**2, rtol=1e-10, atol=1e-14)


def test_split_at_top_scale_leaves_negligible_high_part():
    # k=16 pushes the spectral mass far below t_max, so the top node is empty
    f = sine(N=256, k=16)
    sg = ScaleGrid(2.0 / 256, 0.25, 16)
    full = g_function(POISSON1, f, sg).values.values
    lo, hi = split_at_scale("g", POISSON1, f, sg.t_max, sg)
    assert np.max(hi.values.values) < 1e-4 * np.max(full)
    assert np.allclose(lo.values.values, full, rtol=1e-7)
    with pytest.raises(ValueError):
        split_at_scale("g", POISSON1, f, sg.t_min, sg)
    with pytest.raises(ValueError):
        split_at_scale("g", POISSON1, f, 2 * sg.t_max, sg)
    with pytest.raises(ValueError):
        split_at_scale("gstar", POISSON1, f, 0.05, sg)


def test_split_works_for_area_integral():
    f = sine(N=128, k=4)
    sg = ScaleGrid(2.0 / 128, 0.25, 8)
    full = area_integral(POISSON1, f, sg).values.values
    lo, hi = split_at_scale("s", POISSON1, f, 0.06, sg)
    assert np.allclose(lo.values.values ** 2 + hi.values.values ** 2,
                       full**2, rtol=1e-10, atol=1e-14)


def test_sublinearity_pointwise():
    rng = np.random.default_rng(3)
    N = 128
    u = GridFunction(1, 1.0, N, rng.normal(size=N))
    v = GridFunction(1, 1.0, N, rng.normal(size=N))
    s = GridFunction(1, 1.0, N, u.values + v.values)
    sg = ScaleGrid(2.0 / N, 0.25, 8)
    for op in (g_function, area_integral):
        a = op(POISSON1, u, sg).values.values
        b = op(POISSON1, v, sg).values.values
        c = op(POISSON1, s, sg).values.values
        assert np.all(c <= a + b + 1e-10)


def test_two_dimensional_smoke():
    N = 16
    f = from_callable(2, 1.0, N,
                      lambda x, y: np.sin(2 * math.pi * x) * np.cos(2 * math.pi * y))
    k2 = gauss_derivative_kernel(2)
    sg = ScaleGrid(2.0 / N, 0.25, 6)
    g = g_function(k2, f, sg).values.values
    s = area_integral(k2, f, sg).values.values
    gs = g_star(k2, f, 8.0, sg).values.values
    assert g.shape == (N, N) and np.all(g >= 0)
    assert np.all(s <= 2 ** (8.0 * 2 / 2) * gs * (1 + 1e-12))
    const = GridFunction(2, 1.0, N, np.full((N, N), 2.0))
    assert np.max(g_function(k2, const, sg).values.values) < 1e-13


def test_tail_bound_reported_and_decreasing():
    f = sine(N=128, k=2)
    r1 = g_function(POISSON1, f, ScaleGrid(2.0 / 128, 0.125, 8))
    r2 = g_function(POISSON1, f, ScaleGrid(2.0 / 128, 0.25, 8))
    assert r1.tail_bound > r2.tail_bound > 0


def test_l2_norm_weighted():
    f = GridFunction(1, 1.0, 16, np.full(16, 2.0))
    assert l2_norm(f) == pytest.approx(2.0)
    w = constant_weight(1, 1.0, 16, 4.0)
    assert l2_norm(f, w) == pytest.approx(4.0)


def test_result_serialization_roundtrip(tmp_path):
    f = sine(N=64, k=2)
    sg = ScaleGrid(2.0 / 64, 0.25, 8)
    res = g_star(POISSON1, f, 8.0, sg)
    p = tmp_path / "gstar.csv"
    save_result(res, p)
    back, meta = load_result(p)
    assert np.array_equal(back.values, res.values.values)
    assert meta["op"] == "gstar"
    assert float(meta["lambda"]) == 8.0
    assert int(meta["M"]) == 8
    assert float(meta["tmin"]) == pytest.approx(2.0 / 64)


# ---------------------------------------------------------------------------
# the one-pass stack and its spectrum cache


@pytest.mark.filterwarnings("ignore:lambda")
@pytest.mark.parametrize("n,N,M", [(1, 64, 10), (2, 8, 5), (2, 16, 6)])
def test_one_pass_matches_direct_sum_oracle(n, N, M):
    kernel = poisson_derivative_kernel(n) if n == 1 else gauss_derivative_kernel(2)
    f = random_function(n, N, seed=N)
    sg = ScaleGrid(1.0 / N, 0.5, M)
    r = float(sg.nodes[M // 2])
    low = sg.nodes < r
    lam = 3.0
    cases = [
        (OperatorSpec("g"), dict(op="g")),
        (OperatorSpec("s"), dict(op="s")),
        (OperatorSpec("s_dilated", ell=1), dict(op="s", aperture=2.0)),
        (OperatorSpec("s_dilated", ell=2), dict(op="s", aperture=4.0)),
        (OperatorSpec("gstar", lam=lam), dict(op="gstar", lam=lam)),
        (OperatorSpec("gstar", lam=lam + 1), dict(op="gstar", lam=lam + 1)),
        (OperatorSpec("g", trunc_r=r, part="low"), dict(op="g", keep=low)),
        (OperatorSpec("g", trunc_r=r, part="high"), dict(op="g", keep=~low)),
        (OperatorSpec("s", trunc_r=r, part="low"), dict(op="s", keep=low)),
        (OperatorSpec("s", trunc_r=r, part="high"), dict(op="s", keep=~low)),
    ]
    results = square_functions(kernel, f, sg, [spec for spec, _ in cases])
    for (spec, kw), res in zip(cases, results):
        ref = oracle_square_function(kernel, f, sg, **kw)
        got = res.values.values
        assert res.op == spec.op and res.part == spec.part
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * ref.max()), spec
    # the wrappers are the same pass, one operator at a time
    lo, hi = split_at_scale("s", kernel, f, r, sg)
    assert np.array_equal(lo.values.values, results[8].values.values)
    assert np.array_equal(hi.values.values, results[9].values.values)
    assert np.array_equal(g_star(kernel, f, lam, sg).values.values,
                          results[4].values.values)


def test_one_pass_matches_oracle_for_non_radial_kernel():
    kernel = odd_kernel()
    f = random_function(1, 64, seed=2)
    sg = ScaleGrid(2.0 / 64, 0.25, 8)
    g, s = square_functions(kernel, f, sg, [OperatorSpec("g"), OperatorSpec("s")])
    for res, op in ((g, "g"), (s, "s")):
        ref = oracle_square_function(kernel, f, sg, op)
        assert np.allclose(res.values.values, ref, rtol=1e-12,
                           atol=1e-12 * ref.max())


def test_one_pass_keeps_every_check():
    f = random_function(1, 64)
    sg = ScaleGrid(2.0 / 64, 0.25, 8)
    with pytest.raises(ValueError, match="not certified"):
        square_functions(nonvanishing_hat_kernel(), f, sg, [OperatorSpec("g")])
    bad = [OperatorSpec("gstar"), OperatorSpec("gstar", lam=0.0),
           OperatorSpec("gstar", lam=float("nan")),
           OperatorSpec("s_dilated"), OperatorSpec("s_dilated", ell=0),
           OperatorSpec("gstar", lam=8.0, trunc_r=0.05, part="low"),
           OperatorSpec("g", trunc_r=sg.t_min, part="low"),
           OperatorSpec("g", trunc_r=0.05, part="middle"),
           OperatorSpec("sum")]
    for spec in bad:
        with pytest.raises(ValueError):
            square_functions(POISSON1, f, sg, [OperatorSpec("g"), spec])
    with pytest.warns(UserWarning, match="threshold"):
        square_functions(POISSON1, f, sg, [OperatorSpec("gstar", lam=4.0)])


@pytest.mark.filterwarnings("ignore:lambda")
def test_cache_keys_keep_operators_kernels_and_geometries_apart():
    gauss1 = gauss_derivative_kernel(1)
    specs = [OperatorSpec("g"), OperatorSpec("s"),
             OperatorSpec("s_dilated", ell=1), OperatorSpec("s_dilated", ell=2),
             OperatorSpec("gstar", lam=8.0), OperatorSpec("gstar", lam=9.0)]
    runs = [(kernel, GridFunction(1, L, N, np.random.default_rng(N).normal(size=N)))
            for kernel in (POISSON1, gauss1)
            for L, N in ((1.0, 64), (2.0, 64), (1.0, 128))]

    # one scale grid for every geometry, so only the key can tell them apart
    sg = ScaleGrid(1.0 / 32, 0.25, 8)

    def compute(kernel, f):
        return [r.values.values for r in square_functions(kernel, f, sg, specs)]

    cold = []
    for kernel, f in runs:
        clear_spectrum_cache()
        cold.append(compute(kernel, f))
    clear_spectrum_cache()
    for _ in range(2):
        warm = [compute(kernel, f) for kernel, f in runs]
        for a, b in zip(cold, warm):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
    stats = spectrum_cache_stats()
    # one kernel spectrum per (kernel, geometry, t) and one mask spectrum
    # per (operator, geometry, t) on the first round, all hits on the second
    geometries, kernels, masks, M = 3, 2, 5, 8
    assert stats["misses"] == geometries * M * (kernels + masks)
    assert stats["hits"] == 2 * len(runs) * M * (1 + masks) - stats["misses"]


def test_cache_never_exceeds_its_cap(monkeypatch):
    clear_spectrum_cache()
    f = random_function(2, 16)
    sg = ScaleGrid(2.0 / 16, 0.25, 8)
    specs = [OperatorSpec("g"), OperatorSpec("s")]
    full = [r.values.values for r in square_functions(
        gauss_derivative_kernel(2), f, sg, specs)]
    spectrum = 16 * 9 * 8  # one real rfft2 spectrum of a 16x16 grid
    cap = 5 * spectrum + 100
    monkeypatch.setattr(operators, "SPECTRUM_CACHE_BYTES", cap)
    clear_spectrum_cache()
    kernel = gauss_derivative_kernel(2)
    for g in (f, GridFunction(2, 2.0, 16, f.values), f):
        got = square_functions(kernel, g, ScaleGrid(2.0 * g.L / 16, g.L / 4, 8),
                               specs)
        assert spectrum_cache_stats()["bytes"] <= cap
        assert spectrum_cache_stats()["spectra"] == 5
        if g is f:
            assert all(np.array_equal(r.values.values, x)
                       for r, x in zip(got, full))
    monkeypatch.undo()
    g = random_function(1, 4096)
    square_functions(POISSON1, g, default_scales(g), specs)
    assert 0 < spectrum_cache_stats()["bytes"] <= operators.SPECTRUM_CACHE_BYTES


@pytest.mark.filterwarnings("ignore:lambda")
def test_spectra_stored_real_only_when_even():
    clear_spectrum_cache()
    f1, f2 = random_function(1, 64), random_function(2, 16)
    specs = [OperatorSpec("s"), OperatorSpec("s_dilated", ell=1),
             OperatorSpec("gstar", lam=5.0)]
    square_functions(POISSON1, f1, ScaleGrid(2.0 / 64, 0.25, 6), specs)
    square_functions(gauss_derivative_kernel(2), f2, ScaleGrid(2.0 / 16, 0.25, 6),
                     specs)
    stored = operators._SPECTRA.store
    assert len(stored) == 2 * 6 * 4
    assert all(spec.dtype == np.float64 for spec in stored.values())
    odd = odd_kernel()
    square_functions(odd, f1, ScaleGrid(2.0 / 64, 0.25, 6), [OperatorSpec("g")])
    odd_spectra = [spec for (_, what, _), spec in stored.items()
                   if what == ("kernel", odd)]
    assert len(odd_spectra) == 6
    for spec in odd_spectra:
        assert spec.dtype == np.complex128
        assert np.abs(spec.imag).max() > 1e-3 * np.abs(spec).max()
