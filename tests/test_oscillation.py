"""Oscillation functionals: frozen values, orderings, witnessed suprema."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsquare.grid import GridFunction, cube_region, dyadic_cubes
from lpsquare.oscillation import (
    blo_constant,
    blo_p_norm,
    bmo_norm,
    single_cube_value,
)
from lpsquare.weights import Weight, constant_weight


def indicator(N=16, frac=0.5):
    vals = np.zeros(N)
    vals[: int(N * frac)] = 1.0
    return GridFunction(1, 1.0, N, vals)


def unit_weight(N=16):
    return constant_weight(1, 1.0, N, 1.0)


# Hand values: for the half-box indicator on the unit interval the top cube
# has mean 1/2 and mean absolute deviation 1/2; every level >= 1 dyadic cube
# sees a constant.  For the quarter-box indicator, blo differs between f and
# -f (3/4 vs 1/2), which is the non-linearity of the class.

def test_half_indicator_bmo_is_half():
    f = indicator()
    w = unit_weight()
    cubes = dyadic_cubes(f, 3)
    rep = bmo_norm(f, w, cubes)
    assert rep.value == pytest.approx(0.5, abs=1e-15)
    assert rep.argmax.level == 0


def test_half_indicator_blo_is_half():
    f = indicator()
    w = unit_weight()
    rep = blo_constant(f, w, dyadic_cubes(f, 3))
    assert rep.value == pytest.approx(0.5, abs=1e-15)


def test_blo_is_not_sign_symmetric():
    f = indicator(frac=0.25)
    neg = f.with_values(-f.values)
    w = unit_weight()
    cubes = dyadic_cubes(f, 3)
    assert blo_constant(f, w, cubes).value == pytest.approx(0.5, abs=1e-15)
    assert blo_constant(neg, w, cubes).value == pytest.approx(0.75, abs=1e-15)
    # bmo, by contrast, is even
    assert bmo_norm(f, w, cubes).value == pytest.approx(
        bmo_norm(neg, w, cubes).value, abs=1e-15)


def test_constant_function_all_zero():
    f = GridFunction(1, 1.0, 16, np.full(16, 4.2))
    w = unit_weight()
    cubes = dyadic_cubes(f, 3)
    assert bmo_norm(f, w, cubes).value == 0.0
    assert blo_constant(f, w, cubes).value == 0.0
    assert blo_p_norm(f, w, 2.0, cubes).value == 0.0


def test_zero_iff_constant_per_cube():
    f = indicator()
    w = unit_weight()
    family = dyadic_cubes(f, 3)
    # f is constant on every cube below the top one
    assert all(single_cube_value("bmo", f, w, family[i]) == 0.0
               for i in np.flatnonzero(family.levels >= 1))
    rep = bmo_norm(f, w, family)
    assert rep.value > 0 and rep.argmax.level == 0


def test_constant_shift_invariance():
    rng = np.random.default_rng(2)
    f = GridFunction(1, 1.0, 32, rng.normal(size=32))
    g = f.with_values(f.values + 11.0)
    w = unit_weight(32)
    cubes = dyadic_cubes(f, 3)
    assert bmo_norm(g, w, cubes).value == pytest.approx(
        bmo_norm(f, w, cubes).value, rel=1e-12)
    assert blo_constant(g, w, cubes).value == pytest.approx(
        blo_constant(f, w, cubes).value, rel=1e-12)


def test_p_equal_one_reduces_to_base():
    rng = np.random.default_rng(7)
    f = GridFunction(1, 1.0, 32, rng.normal(size=32))
    w = Weight(1, 1.0, 32, np.exp(rng.normal(size=32) * 0.4))
    cubes = dyadic_cubes(f, 3)
    assert blo_p_norm(f, w, 1.0, cubes).value == pytest.approx(
        blo_constant(f, w, cubes).value, rel=1e-14)
    with pytest.raises(ValueError):
        blo_p_norm(f, w, 0.5, cubes)


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
def test_blo_scan_reads_blo_p_as_blo_p_norm_does(n, N):
    # one deviation table per level for every exponent gives the same bits
    # as a scan per exponent
    rng = np.random.default_rng(41)
    shape = (N,) * n
    f = GridFunction(n, 1.0, N, rng.normal(size=shape))
    w = Weight(n, 1.0, N, np.exp(rng.normal(size=shape) * 0.5))
    cubes = dyadic_cubes(f, N.bit_length() - 1)
    ps = (1.5, 2.0, 3.0)
    alone = blo_constant(f, w, cubes)
    assert alone.p_norms == ()
    rep = blo_constant(f, w, cubes, ps)
    assert rep.value == alone.value and rep.argmax == alone.argmax
    assert rep.p_norms == tuple(blo_p_norm(f, w, p, cubes) for p in ps)
    for bad in (0.5, float("inf")):
        with pytest.raises(ValueError, match="p must be"):
            blo_constant(f, w, cubes, (2.0, bad))


def test_bmo_at_most_twice_blo():
    rng = np.random.default_rng(13)
    for trial in range(5):
        f = GridFunction(1, 1.0, 64, rng.normal(size=64))
        w = Weight(1, 1.0, 64, np.exp(rng.normal(size=64) * 0.3))
        cubes = dyadic_cubes(f, 4)
        bmo = bmo_norm(f, w, cubes).value
        blo = blo_constant(f, w, cubes).value
        assert bmo <= 2.0 * blo * (1 + 1e-12)


def test_blo_at_most_blo_p():
    rng = np.random.default_rng(17)
    f = GridFunction(1, 1.0, 64, rng.normal(size=64))
    w = Weight(1, 1.0, 64, np.exp(rng.normal(size=64) * 0.3))
    cubes = dyadic_cubes(f, 4)
    blo = blo_constant(f, w, cubes).value
    for p in (1.5, 2.0, 3.0):
        assert blo <= blo_p_norm(f, w, p, cubes).value * (1 + 1e-12)


def test_blo_square_inequality_unweighted():
    # (F - min)^2 mean bound: needs F >= 0 and Lebesgue normalization
    rng = np.random.default_rng(23)
    F = GridFunction(1, 1.0, 64, np.abs(rng.normal(size=64)) + 0.1)
    F2 = F.with_values(F.values**2)
    w = unit_weight(64)
    cubes = dyadic_cubes(F, 4)
    lhs = blo_constant(F, w, cubes).value ** 2
    rhs = blo_constant(F2, w, cubes).value
    assert lhs <= rhs * (1 + 1e-12)


def linf_over_weight(f, w, cubes):
    """max over the family of max_Q |f| / min_Q ω, by direct gathers."""
    def quotient(q):
        idx = cube_region(f, q)
        return np.abs(f.values.ravel()[idx]).max() / w.values.ravel()[idx].min()
    return max(quotient(q) for q in cubes)


def test_bmo_le_two_linf_with_nonflat_weight():
    rng = np.random.default_rng(29)
    f = GridFunction(1, 1.0, 64, rng.normal(size=64))
    w = Weight(1, 1.0, 64, np.exp(rng.normal(size=64) * 0.5))
    cubes = dyadic_cubes(f, 4)
    assert bmo_norm(f, w, cubes).value <= \
        2 * linf_over_weight(f, w, cubes) * (1 + 1e-12)


def test_witnessed_supremum():
    rng = np.random.default_rng(31)
    f = GridFunction(1, 1.0, 64, rng.normal(size=64))
    w = Weight(1, 1.0, 64, np.exp(rng.normal(size=64) * 0.3))
    cubes = dyadic_cubes(f, 4)
    for kind, rep in [
        ("bmo", bmo_norm(f, w, cubes)),
        ("blo", blo_constant(f, w, cubes)),
        ("blo_p", blo_p_norm(f, w, 2.0, cubes)),
    ]:
        again = single_cube_value(kind, f, w, rep.argmax, rep.p)
        assert again == rep.value


def test_translation_invariance_with_covariant_family():
    rng = np.random.default_rng(37)
    vals = rng.normal(size=64)
    wvals = np.exp(rng.normal(size=64) * 0.3)
    f = GridFunction(1, 1.0, 64, vals)
    w = Weight(1, 1.0, 64, wvals)
    shift = 32  # half the box: every dyadic level maps onto itself
    fs = GridFunction(1, 1.0, 64, np.roll(vals, shift))
    ws = Weight(1, 1.0, 64, np.roll(wvals, shift))
    cubes = dyadic_cubes(f, 2)
    for fn in (bmo_norm, blo_constant):
        assert fn(fs, ws, cubes).value == pytest.approx(
            fn(f, w, cubes).value, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_order_properties_random(seed):
    rng = np.random.default_rng(seed)
    f = GridFunction(1, 1.0, 32, rng.normal(size=32))
    w = Weight(1, 1.0, 32, np.exp(rng.normal(size=32) * 0.5))
    cubes = dyadic_cubes(f, 3)
    bmo = bmo_norm(f, w, cubes).value
    blo = blo_constant(f, w, cubes).value
    assert 0 <= bmo <= 2 * blo * (1 + 1e-12)
    assert blo <= blo_p_norm(f, w, 2.0, cubes).value * (1 + 1e-12)
    assert bmo <= 2 * linf_over_weight(f, w, cubes) * (1 + 1e-12)
