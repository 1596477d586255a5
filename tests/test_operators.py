"""Square operators: quadrature correctness and orderings."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from lpsquare import operators
from lpsquare.grid import GridFunction, from_callable
from lpsquare.kernels import (
    Kernel,
    evaluate,
    gauss_derivative_kernel,
    hermite2_kernel,
    nonvanishing_hat_kernel,
    poisson_derivative_kernel,
)
from lpsquare.operators import (
    OperatorSpec,
    ScaleGrid,
    SquareFunctionResult,
    area_integral,
    convolve,
    default_scales,
    g_function,
    g_star,
    l2_norm,
    lambda_warn_threshold,
    square_functions,
)
from lpsquare.weights import constant_weight

POISSON1 = poisson_derivative_kernel(1)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("N", [16, 1024, 2048, 65536])
@pytest.mark.parametrize("L", [1.0, 0.7, 3.0, 120.0])
def test_1d_radius_is_the_absolute_displacement(L, N):
    # sqrt(fl(x*x)) == |x| in binary64 unless x*x underflows or overflows,
    # so the one radius formula, gathered from the orbits, samples 1D
    # kernels at |d|/t bit for bit
    d = ((np.arange(N) + N // 2) % N - N // 2) * (L / N)
    half, reps, where, dist = operators._orbits(1, L, N)
    assert np.array_equal(_bits(dist[where]), _bits(np.abs(d)))
    f = GridFunction(1, L, N, np.zeros(N))
    for t in default_scales(f).nodes:
        assert np.array_equal(_bits(operators._radius(half / t, reps)[where]),
                              _bits(np.abs(d / t)))


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


def grid_points(n, L, N):
    """The periodic displacements of the grid as points of shape (N^n, n)."""
    d = ((np.arange(N) + N // 2) % N - N // 2) * (L / N)
    if n == 1:
        return d[:, None]
    dx, dy = np.meshgrid(d, d, indexing="ij")
    return np.stack([dx.ravel(), dy.ravel()], axis=1)


def sampled_profile(kernel, pts, t, shape):
    """t^-n psi(|x|/t) at the points x, with |x/t| computed from each point."""
    r = np.sqrt(((pts / t) ** 2).sum(axis=1))
    return (evaluate(kernel, r) / t**kernel.n).reshape(shape)


def oracle_square_function(kernel, f, scales, op, lam=None, aperture=1.0):
    """Scale-by-scale direct sums: psi_t * f, then the spatial sum, each by
    direct_periodic_conv, accumulated in the sample domain."""
    n, L, N = f.n, f.L, f.N
    h = L / N
    pts = grid_points(n, L, N)
    dist = np.sqrt((pts**2).sum(axis=1)).reshape(f.values.shape)
    acc = np.zeros(f.values.shape)
    for t, w in zip(scales.nodes, scales.weights):
        kern = sampled_profile(kernel, pts, t, f.values.shape)
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


def random_function(n, N, seed=0):
    shape = (N,) if n == 1 else (N, N)
    return GridFunction(n, 1.0, N, np.random.default_rng(seed).normal(size=shape))


def sine(N=256, k=3, L=1.0):
    return from_callable(1, L, N, lambda x: np.sin(2 * math.pi * k * x / L))


def test_scale_grid_refuses_a_window_whose_ratio_overflows():
    # the weights are log(t_max/t_min)/(M-1)
    with pytest.raises(ValueError, match="ratio t_max/t_min overflows"):
        ScaleGrid(1e-300, 1e300, 8)
    assert np.isfinite(ScaleGrid(1e-300, 1e7, 8).weights).all()


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


def test_convolve_annihilates_constants_to_rounding():
    f = GridFunction(1, 1.0, 128, np.full(128, 3.25))
    out = convolve(POISSON1, 0.05, f)
    # mean correction leaves only float rounding, far below tol_vanish
    assert np.max(np.abs(out.values)) < 1e-12


def test_convolve_zero_function():
    f = GridFunction(1, 1.0, 64, np.zeros(64))
    out = convolve(POISSON1, 0.1, f)
    assert np.all(out.values == 0.0)


def test_convolve_delta_reproduces_kernel_samples():
    N, L, t = 256, 1.0, 0.03
    h = L / N
    i0 = 77
    vals = np.zeros(N)
    vals[i0] = 1.0 / h
    f = GridFunction(1, L, N, vals)
    out = convolve(POISSON1, t, f).values
    d = ((np.arange(N) - i0 + N // 2) % N - N // 2) * h
    kern = evaluate(POISSON1, np.abs(d / t)) / t
    kern_corr = kern - kern.mean()
    assert np.allclose(out, kern_corr, atol=1e-12)
    # and the raw profile up to the small DC shift
    assert np.max(np.abs(out - kern)) < 5e-3 * np.max(np.abs(kern))


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
def test_convolve_is_the_field_the_stack_squares(monkeypatch, n, N):
    # every psi_t * f that a pass transforms back, captured at each scale
    # node and member, is convolve's value bit for bit
    kernel = gauss_derivative_kernel(n)
    fs = [random_function(n, N, seed) for seed in (1, 2)]
    scales = default_scales(fs[0], M=6)
    want = [[convolve(kernel, t, f).values for f in fs] for t in scales.nodes]
    fields = []

    def irfftn(spec, n, N, out=None):
        got = inverse(spec, n, N, out=out)
        if out is not None:
            fields.extend(got.copy())
        return got

    inverse = operators._irfftn
    monkeypatch.setattr(operators, "_irfftn", irfftn)
    list(square_functions(kernel, fs, scales, [OperatorSpec("g")]))
    assert len(fields) == scales.M * len(fs)
    for j, row in enumerate(want):
        for i, value in enumerate(row):
            assert np.array_equal(_bits(fields[j * len(fs) + i]),
                                  _bits(value))


def test_requires_certified_kernel():
    f = sine(N=64)
    sg = default_scales(f, M=8)
    with pytest.raises(ValueError):
        g_function(nonvanishing_hat_kernel(), f, sg)
    bare = Kernel("anon", 1, np.zeros_like, 1.0, 1.0)
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
        kern = evaluate(POISSON1, np.abs(d / t)) / t
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
    # twice as many scale intervals over the same window
    fine = ScaleGrid(sg.t_min, sg.t_max, 2 * (sg.M - 1) + 1)
    r2 = l2_norm(g_function(POISSON1, f, fine).values) / l2_norm(f)
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
    # the cones |y-x| < 2^ell t, summed directly, up to the level beyond
    # which every annulus 2^(ell-1) t <= |y-x| <= 1/2 is empty
    cap = math.ceil(1.0 + math.log2(0.5 / sg.t_min))
    rhs = s2.copy()
    for ell in range(1, cap + 1):
        sl = oracle_square_function(POISSON1, f, sg, "s", aperture=2.0**ell)
        rhs += 2.0 ** (-ell * lam) * sl**2
    assert np.all(gs2 <= 2.0**lam * rhs * (1 + 1e-10))


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


# ---------------------------------------------------------------------------
# the one-pass batched stack


@pytest.mark.filterwarnings("ignore:lambda")
@pytest.mark.parametrize("n,N,M", [(1, 64, 10), (2, 8, 5), (2, 16, 6)])
def test_one_pass_matches_direct_sum_oracle(n, N, M):
    kernel = poisson_derivative_kernel(n) if n == 1 else gauss_derivative_kernel(2)
    f = random_function(n, N, seed=N)
    sg = ScaleGrid(1.0 / N, 0.5, M)
    lam = 3.0
    specs = [OperatorSpec("g"), OperatorSpec("s"), OperatorSpec("gstar", lam),
             OperatorSpec("gstar", lam + 1)]
    [results] = square_functions(kernel, [f], sg, specs)
    assert len(results) == len(specs)
    for spec, res in zip(specs, results):
        ref = oracle_square_function(kernel, f, sg, spec.op, spec.lam)
        got = res.values.values
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * ref.max()), spec
    # the wrappers are the same pass, one operator at a time
    assert np.array_equal(area_integral(kernel, f, sg).values.values,
                          results[1].values.values)
    assert np.array_equal(g_star(kernel, f, lam, sg).values.values,
                          results[2].values.values)


def test_operator_spec_checks_itself_and_names_its_column():
    bad = [("gstar",), ("gstar", 0.0), ("gstar", -3.0), ("gstar", float("nan")),
           ("sum",), ("g", 8.0), ("s", 8.0)]
    for args in bad:
        with pytest.raises(ValueError):
            OperatorSpec(*args)
    specs = [OperatorSpec("g"), OperatorSpec("s"), OperatorSpec("gstar", 8.0),
             OperatorSpec("gstar", 9.5)]
    assert [spec.name for spec in specs] == ["g", "s", "gstar_8", "gstar_9.5"]
    assert [f.name for f in dataclasses.fields(SquareFunctionResult)] == \
        ["values", "tail_bound", "spectra_built", "batch_size"]


def test_one_pass_keeps_every_check():
    f = random_function(1, 64)
    sg = ScaleGrid(2.0 / 64, 0.25, 8)
    with pytest.raises(ValueError, match="not certified"):
        square_functions(nonvanishing_hat_kernel(), [f], sg, [OperatorSpec("g")])
    with pytest.warns(UserWarning, match="threshold"):
        square_functions(POISSON1, [f], sg, [OperatorSpec("gstar", lam=4.0)])


def test_kernel_of_another_dimension_is_refused():
    f = random_function(1, 64)
    gauss2 = gauss_derivative_kernel(2)
    sg = ScaleGrid(2.0 / 64, 0.25, 8)
    with pytest.raises(ValueError, match="dimension"):
        square_functions(gauss2, [f], sg, [OperatorSpec("g")])
    with pytest.raises(ValueError, match="dimension"):
        g_function(gauss2, f, sg)
    with pytest.raises(ValueError, match="dimension"):
        convolve(gauss2, 0.1, f)


BATCH_SPECS = [OperatorSpec("g"), OperatorSpec("s"),
               OperatorSpec("gstar", lam=8.0),
               OperatorSpec("gstar", lam=9.0)]


@pytest.mark.filterwarnings("ignore:lambda")
@pytest.mark.parametrize("n,N,kernel", [(1, 256, POISSON1),
                                        (2, 32, gauss_derivative_kernel(2))])
@pytest.mark.parametrize("members_per_pass", [None, 2])
def test_batch_equals_one_function_calls_bit_for_bit(monkeypatch, n, N, kernel,
                                                     members_per_pass):
    fs = [random_function(n, N, seed=s) for s in range(5)]
    sg = ScaleGrid(2.0 / N, 0.25, 9)
    single = [next(square_functions(kernel, [f], sg, BATCH_SPECS)) for f in fs]
    if members_per_pass is not None:
        # a cap that fits two members splits the batch into passes of 2, 2, 1
        per_member = 8 * N**n * (len(BATCH_SPECS) + 6)
        monkeypatch.setattr(operators, "STACK_BYTES", 2 * per_member + 1)
    batch = list(square_functions(kernel, fs, sg, BATCH_SPECS))
    assert len(batch) == len(fs)
    sizes = [5] * 5 if members_per_pass is None else [2, 2, 2, 2, 1]
    for f, one, many, size in zip(fs, single, batch, sizes):
        assert len(many) == len(BATCH_SPECS)
        for a, b in zip(one, many):
            assert np.array_equal(a.values.values, b.values.values)
            assert a.tail_bound == b.tail_bound
            assert (a.batch_size, b.batch_size) == (1, size)
            assert a.spectra_built == b.spectra_built


@pytest.mark.filterwarnings("ignore:lambda")
def test_batch_builds_each_spectrum_once_per_scale(monkeypatch):
    calls = []
    for name in ("_kernel_spectrum", "_mask_spectrum"):
        build = getattr(operators, name)
        monkeypatch.setattr(operators, name,
                            lambda *a, _b=build: calls.append(a) or _b(*a))
    fs = [random_function(1, 64, seed=s) for s in range(3)]
    M = 8
    sg = ScaleGrid(2.0 / 64, 0.25, M)
    results = list(square_functions(POISSON1, fs, sg, BATCH_SPECS))
    # per scale one kernel spectrum and one spectrum per distinct mask, the
    # cone and two g*_lam weights, however many functions the batch holds
    assert len(calls) == M * (1 + 3)
    assert len(calls) == len(set(calls))
    assert all(r.spectra_built == len(calls) and r.batch_size == 3
               for member in results for r in member)
    assert list(square_functions(POISSON1, [], sg, BATCH_SPECS)) == []


def test_batch_refuses_mixed_geometries():
    sg = ScaleGrid(1.0 / 32, 0.25, 4)
    for other in (random_function(1, 128), GridFunction(1, 2.0, 64, np.ones(64))):
        with pytest.raises(ValueError, match="share one grid"):
            list(square_functions(POISSON1, [random_function(1, 64), other],
                                  sg, [OperatorSpec("g")]))
    with pytest.raises(ValueError, match="dimension"):
        list(square_functions(POISSON1, [random_function(1, 64),
                                         random_function(2, 64)], sg,
                              [OperatorSpec("g")]))


def test_batch_is_drawn_one_pass_at_a_time(monkeypatch):
    sg = ScaleGrid(1.0 / 32, 0.25, 4)
    per_member = 8 * 64 * (1 + 6)
    monkeypatch.setattr(operators, "STACK_BYTES", 2 * per_member)
    drawn = []

    def members():
        for seed in range(5):
            drawn.append(seed)
            yield random_function(1, 64, seed=seed)
        # a member on another grid is refused when its pass is drawn
        yield random_function(1, 128)

    stream = square_functions(POISSON1, members(), sg, [OperatorSpec("g")])
    # the checks draw the first member only
    assert drawn == [0]
    sizes, drawn_at = [], []
    with pytest.raises(ValueError, match="share one grid"):
        for results in stream:
            sizes.append(results[0].batch_size)
            drawn_at.append(len(drawn))
    # each pass of two is drawn when its first result is asked for, and
    # not before; the third pass holds member 4 and the refused one
    assert sizes == [2, 2, 2, 2]
    assert drawn_at == [2, 2, 4, 4]
    assert len(drawn) == 5


def is_even(a):
    """a[-i] == a[i] on every axis of the periodic grid, exactly."""
    return all(np.array_equal(a, np.roll(np.flip(a, axis), 1, axis))
               for axis in range(a.ndim))


def test_spectra_kept_real_only_when_even():
    # kernel samples and masks are exactly even on the periodic grid, so
    # their spectra are real up to rounding, which the builders drop
    L, t, eps = 1.0, 0.1, np.finfo(float).eps
    for n, N in ((1, 64), (2, 16)):
        kernel = POISSON1 if n == 1 else gauss_derivative_kernel(2)
        h = L / N
        pts = grid_points(n, L, N)
        shape = (N,) * n
        raw = sampled_profile(kernel, pts, t, shape)
        kern = operators._sampled_kernel(kernel, n, L, N, t)
        assert np.array_equal(kern, raw - raw.mean())
        dist = np.sqrt((pts**2).sum(axis=1)).reshape(shape)
        cases = [(kern, h**n, operators._kernel_spectrum(kernel, n, L, N, t))]
        for spec, weight in (
                (OperatorSpec("s"), dist < t),
                (OperatorSpec("gstar", 5.0), (t / (t + dist)) ** (5.0 * n))):
            cases.append((weight.astype(float), (h / t)**n,
                          operators._mask_spectrum(spec, n, L, N, t)))
        for samples, scale, built in cases:
            assert is_even(samples)
            spec = operators._rfftn(samples, n) * scale
            assert np.abs(spec.imag).max() <= \
                64 * eps * np.abs(spec.real).max()
            assert built.dtype == np.float64
            assert np.array_equal(built, spec.real)


def test_sampled_kernel_is_the_dilated_profile_minus_its_mean():
    # psi_t = t^-1 psi(|x|/t), whose mass vanishes at every t before the
    # mean correction removes the discrete remainder
    k = hermite2_kernel()
    L, N = 120.0, 2**13
    d = ((np.arange(N) + N // 2) % N - N // 2) * (L / N)
    for t in (0.25, 1.0, 4.0):
        raw = evaluate(k, np.abs(d / t)) / t
        assert np.array_equal(operators._sampled_kernel(k, 1, L, N, t),
                              raw - raw.mean())
        assert abs(raw.sum() * (L / N)) < 1e-8
        # psi(0) = -1, scaled by t^-1
        assert raw[0] == -1.0 / t


def test_convolve_rejects_nonpositive_scale():
    f = random_function(1, 64)
    for t in (0.0, -2.0, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            convolve(POISSON1, t, f)


def test_stack_evaluates_the_kernel_once_per_scale_and_orbit(monkeypatch):
    # the benchmark's kernels.evaluate_points counts one value per orbit:
    # (N/2+1)(N/2+2)/2 = 45 of the 256 offsets at 2D N=16
    sizes = []

    def counted(kernel, r):
        values = evaluate(kernel, r)
        sizes.append(values.shape)
        return values

    monkeypatch.setattr(operators, "evaluate", counted)
    N, M = 16, 4
    f = random_function(2, N)
    list(square_functions(gauss_derivative_kernel(2), [f],
                          ScaleGrid(2.0 / N, 0.25, M),
                          [OperatorSpec("g"), OperatorSpec("s")]))
    assert sizes == [(45,)] * M


def reference_kernel_samples(kernel, n, L, N, t):
    """Mean-corrected samples of psi_t evaluated at every offset, the radius
    of each from its axis displacements: the per-sample evaluation that the
    orbits replace."""
    d = ((np.arange(N) + N // 2) % N - N // 2) * (L / N)
    s = d / t
    r = np.sqrt(functools.reduce(np.add.outer, (s * s,) * n))
    kern = evaluate(kernel, r.ravel()).reshape(r.shape) / t**n
    return kern - kern.mean()


def reference_mask(spec, n, L, N, t):
    """The spatial weight of spec at every offset, per sample."""
    d = ((np.arange(N) + N // 2) % N - N // 2) * (L / N)
    dist = np.sqrt(functools.reduce(np.add.outer, (d * d,) * n))
    if spec.op == "s":
        return (dist < t).astype(float)
    return (t / (t + dist)) ** (spec.lam * n)


def rfftn_real(samples, scale):
    """The real part of rfftn(samples) * scale, as the stack computed
    spectra before the orbits."""
    axes = tuple(range(-samples.ndim, 0))
    return (np.fft.rfftn(samples, axes=axes) * scale).real


@pytest.mark.parametrize("L", [1.0, 0.7, 3.0])
@pytest.mark.parametrize("N", [16, 64, 128])
@pytest.mark.parametrize("n", [1, 2])
def test_orbit_spectra_equal_per_sample_spectra_bit_for_bit(n, N, L):
    K = N // 2
    half, reps, where, dist = operators._orbits(n, L, N)
    # every offset lies in exactly one orbit, and each orbit is the sorted
    # per-axis step counts |m| of its offsets
    count = K + 1 if n == 1 else (K + 1) * (K + 2) // 2
    assert where.shape == (N,) * n
    assert np.array_equal(np.unique(where), np.arange(count))
    assert all(r.shape == (count,) for r in reps)
    fold = np.minimum(np.arange(N), N - np.arange(N))
    steps = np.sort(np.stack(np.meshgrid(*(fold,) * n, indexing="ij"),
                             axis=-1), axis=-1)
    assert np.array_equal(np.stack(reps, axis=-1)[where], steps)
    h = L / N
    f = GridFunction(n, L, N, np.zeros((N,) * n))
    nodes = default_scales(f).nodes
    for t in (nodes[0], nodes[len(nodes) // 2], nodes[-1]):
        t = float(t)
        for kernel in (poisson_derivative_kernel(n),
                       gauss_derivative_kernel(n)):
            ref = reference_kernel_samples(kernel, n, L, N, t)
            assert np.array_equal(
                _bits(operators._sampled_kernel(kernel, n, L, N, t)),
                _bits(ref))
            assert np.array_equal(
                _bits(operators._kernel_spectrum(kernel, n, L, N, t)),
                _bits(rfftn_real(ref, h**n)))
        for spec in (OperatorSpec("s"), OperatorSpec("gstar", 6.0),
                     OperatorSpec("gstar", 7.5)):
            ref = reference_mask(spec, n, L, N, t)
            assert np.array_equal(
                _bits(operators._mask_spectrum(spec, n, L, N, t)),
                _bits(rfftn_real(ref, (h / t)**n)))
