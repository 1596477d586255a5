"""Muckenhoupt functionals: A1/Ap scans, doubling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsquare.grid import (
    Cube,
    GridFunction,
    cube_region,
    dyadic_cubes,
    from_callable,
)
from lpsquare.report import default_corpus
from lpsquare.weights import (
    EPS_MIN,
    Weight,
    a1_constant,
    ap_constant,
    constant_weight,
    doubling_report,
    power_weight,
)


def weight_from(n, L, N, fn):
    return Weight(n, L, N, from_callable(n, L, N, fn).values)


def regularized_power(alpha, x0=0.5):
    """max(|x-x0|, h)^alpha, the grid-safe power profile."""
    def build(n, L, N):
        h = L / N
        return weight_from(n, L, N, lambda x: np.maximum(np.abs(x - x0), h) ** alpha)
    return build


# ω(Q) = Σ_Q ω h^n, as doubling_report reads it from the weight's pyramid

def test_weighted_measure_constants():
    w = constant_weight(1, 1.0, 16, 2.0)
    idx = cube_region(w, Cube((0.125,), 0.25))  # level-2 block 0
    assert idx.size * w.h == pytest.approx(0.25)
    assert w.pyramid.sum(2)[0] / 16 == pytest.approx(0.5, abs=1e-15)
    one = constant_weight(1, 1.0, 16, 1.0)
    assert one.pyramid.sum(0)[0] / 16 == pytest.approx(
        one.L, abs=1e-15)


def test_weighted_measure_linear_profile():
    # sum of (1 + i*h)*h over i < N is 1.5 - h/2
    N = 32
    w = weight_from(1, 1.0, N, lambda x: 1.0 + x)
    got = w.pyramid.sum(0)[0] / N
    assert got == pytest.approx(1.5 - 0.5 / N, abs=1e-14)


def test_a1_constant_weight_is_one():
    w = constant_weight(1, 1.0, 32, 3.7)
    cubes = dyadic_cubes(w, 3)
    assert a1_constant(w, cubes) == pytest.approx(1.0, abs=1e-12)
    assert ap_constant(w, 2.0, cubes) == pytest.approx(1.0, abs=1e-12)


def test_a1_stable_under_refinement():
    vals = []
    for N in (256, 512):
        w = regularized_power(-0.5)(1, 1.0, N)
        cubes = dyadic_cubes(w, 5)
        vals.append(a1_constant(w, cubes))
    assert all(v >= 1 for v in vals)
    assert vals[1] == pytest.approx(vals[0], rel=0.15)


def test_a1_near_constant_tends_to_one():
    rng = np.random.default_rng(0)
    noise = rng.normal(size=64)
    for eps in (1e-2, 1e-4):
        w = Weight(1, 1.0, 64, 1.0 + eps * noise)
        a1 = a1_constant(w, dyadic_cubes(w, 4))
        assert a1 < 1 + 8 * eps
    assert a1 == pytest.approx(1.0, abs=1e-3)


def test_ap_at_most_a1():
    w = regularized_power(-0.5)(1, 1.0, 256)
    cubes = dyadic_cubes(w, 5)
    for p in (1.5, 2.0, 3.0):
        assert ap_constant(w, p, cubes) <= a1_constant(w, cubes) + 1e-12


def test_a2_selfdual():
    w = regularized_power(0.5)(1, 1.0, 256)
    cubes = dyadic_cubes(w, 5)
    lhs = ap_constant(w, 2.0, cubes)
    rhs = ap_constant(power_weight(w, -1.0), 2.0, cubes)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_power_duality_identity():
    # Ap constant of w^{1-p} equals A_{p'} constant of w, raised to p-1
    w = regularized_power(0.4)(1, 1.0, 256)
    cubes = dyadic_cubes(w, 5)
    for p in (1.5, 2.0, 2.5):
        pp = p / (p - 1.0)
        lhs = ap_constant(power_weight(w, 1.0 - p), p, cubes)
        rhs = ap_constant(w, pp, cubes) ** (p - 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_power_weight_edges():
    w = regularized_power(-0.3)(1, 1.0, 64)
    flat = power_weight(w, 0.0)
    assert np.allclose(flat.values, 1.0)
    same = power_weight(w, 1.0)
    assert np.array_equal(same.values, w.values)
    idx = cube_region(w, Cube((0.5,), 0.5))
    assert flat.values.ravel()[idx].mean() == pytest.approx(
        1.0, abs=1e-14)


def test_a1_scale_invariance():
    w = regularized_power(-0.5)(1, 1.0, 128)
    cubes = dyadic_cubes(w, 4)
    base = a1_constant(w, cubes)
    for c in (0.01, 3.0, 1e4):
        scaled = Weight(w.n, w.L, w.N, c * w.values)
        assert a1_constant(scaled, cubes) == pytest.approx(base, rel=1e-12)


def test_a1_bound_is_achieved():
    # w(Q)/m(Q) <= a1 * min_Q w for every family cube, equality at argmax
    w = regularized_power(-0.5)(1, 1.0, 128)
    cubes = dyadic_cubes(w, 4)
    a1 = a1_constant(w, cubes)
    gaps = []
    for q in cubes:
        idx = cube_region(w, q)
        avg = w.values.ravel()[idx].mean()
        mn = w.values.ravel()[idx].min()
        assert avg <= a1 * mn * (1 + 1e-12)
        gaps.append(a1 * mn - avg)
    assert min(gaps) == pytest.approx(0.0, abs=1e-12)


def test_family_monotonicity():
    w = regularized_power(-0.5)(1, 1.0, 128)
    small = dyadic_cubes(w, 3)
    large = dyadic_cubes(w, 5)
    assert a1_constant(w, small) <= a1_constant(w, large) + 1e-15
    assert ap_constant(w, 2.0, small) <= ap_constant(w, 2.0, large) + 1e-15


def test_doubling_constant_weight_exact():
    for n in (1, 2):
        w = constant_weight(n, 1.0, 16, 1.0)
        family = dyadic_cubes(w, 2)
        rep = doubling_report(w, family)
        assert rep.all_ok
        # 2Q of the box is the box; below it, 2Q holds 2^n copies of Q
        assert rep.ratios[family.levels == 0].tolist() == [1.0]
        for ratio in rep.ratios[family.levels >= 1]:
            assert ratio == pytest.approx(2**n, rel=1e-12)


def test_doubling_bound_holds_for_singular_weight():
    w = regularized_power(-0.7)(1, 1.0, 256)
    family = dyadic_cubes(w, 4)
    rep = doubling_report(w, family)
    assert rep.all_ok
    assert rep.ratios[family.levels == 4].max() <= 2 * rep.constant + 1e-9


def test_weight_below_floor_is_refused():
    for low, what in ((-2.0, "is not strictly positive"),
                      (0.0, "is not strictly positive"),
                      (EPS_MIN / 2, "falls below EPS_MIN=1e-12")):
        vals = np.ones(16)
        vals[3] = low
        with pytest.raises(ValueError,
                           match=f"the weight {what} on the 1D N=16 grid"):
            Weight(1, 1.0, 16, vals)
    vals[3] = EPS_MIN
    assert Weight(1, 1.0, 16, vals).values.min() == EPS_MIN
    # what GridFunction refuses is refused with its message, before the
    # floor is checked
    for N, vals, message in ((16, np.zeros(8), r"values shape \(8,\) != "
                              r"\(16,\)"),
                             (12, np.zeros(12), "N must be a power of two, "
                              "got 12"),
                             (16, np.full(16, np.nan),
                              "values must all be finite")):
        with pytest.raises(ValueError, match=message):
            GridFunction(1, 1.0, N, vals)
        with pytest.raises(ValueError, match=message):
            Weight(1, 1.0, N, vals)


def test_weight_subclasses_GridFunction():
    vals = np.linspace(0.5, 2.0, 16)
    w = Weight(1, 1.0, 16, vals)
    assert isinstance(w, GridFunction)
    assert (w.n, w.L, w.N, w.h) == (1, 1.0, 16, 1.0 / 16)
    assert np.array_equal(w.values, vals)
    entry = default_corpus()[1]  # a power-regularized weight
    for made in (constant_weight(1, 1.0, 16), power_weight(w, 0.5),
                 entry.realize(1, 1.0, 64)[1], entry.weight_on(1, 1.0, 64)):
        assert type(made) is Weight
    # new samples, such as an operator field, are not claimed positive
    assert type(w.with_values(-vals)) is GridFunction


@pytest.mark.parametrize("make", [GridFunction, Weight])
def test_grid_functions_compare_and_hash_by_identity(make):
    # field-wise equality would compare the sample arrays and raise
    vals = np.linspace(0.5, 2.0, 16)
    a, b = make(1, 1.0, 16, vals), make(1, 1.0, 16, vals)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert hash(a) == hash(a)


def test_ap_rejects_small_p():
    w = constant_weight(1, 1.0, 16, 1.0)
    with pytest.raises(ValueError):
        ap_constant(w, 1.0, dyadic_cubes(w, 2))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), c=st.floats(0.1, 10.0))
def test_a1_scale_invariance_property(seed, c):
    rng = np.random.default_rng(seed)
    vals = np.exp(rng.normal(size=32) * 0.5)
    w = Weight(1, 1.0, 32, vals)
    cubes = dyadic_cubes(w, 3)
    scaled = Weight(1, 1.0, 32, c * vals)
    assert a1_constant(scaled, cubes) == pytest.approx(
        a1_constant(w, cubes), rel=1e-11)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), p=st.floats(1.1, 4.0))
def test_ap_at_least_one_property(seed, p):
    rng = np.random.default_rng(seed)
    vals = np.exp(rng.normal(size=32))
    w = Weight(1, 1.0, 32, vals)
    cubes = dyadic_cubes(w, 3)
    assert ap_constant(w, p, cubes) >= 1.0 - 1e-12
    assert a1_constant(w, cubes) >= 1.0 - 1e-12
