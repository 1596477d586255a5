"""Grid substrate: means, dyadic cubes, membership."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsquare.grid import (
    Cube,
    DyadicFamily,
    GridFunction,
    cube_region,
    dyadic_address,
    dyadic_cubes,
    from_callable,
    half_power,
    level_blocks,
    periodic_displacement,
)


def make_grid(n=1, L=1.0, N=8, values=None):
    if values is None:
        shape = (N,) if n == 1 else (N, N)
        values = np.zeros(shape)
    return GridFunction(n, L, N, values)


# Expected values below were computed by hand from the sample-sum
# definitions: mean of f(x)=x over [0,1) with N samples is (0+1+...+(N-1))/N^2
# = 1/2 - h/2, and a level-2 cube in the unit square has measure (1/4)^2.

def test_mean_of_identity_is_half_minus_half_h():
    N = 8
    f = from_callable(1, 1.0, N, lambda x: x)
    got = float(f.values.mean())
    assert got == pytest.approx(0.4375, abs=1e-15)
    assert got == pytest.approx(0.5 - 0.5 / N, abs=1e-15)


def test_level2_cube_measure_in_unit_square():
    f = make_grid(n=2, N=16)
    q = [c for c in dyadic_cubes(f, 2) if c.level == 2][0]
    assert cube_region(f, q).size * f.h**2 == pytest.approx(1.0 / 16.0,
                                                         abs=1e-15)


def test_dyadic_cube_counts():
    f1 = make_grid(n=1, N=16)
    assert len(dyadic_cubes(f1, 3)) == 15
    f2 = make_grid(n=2, N=16)
    assert len(dyadic_cubes(f2, 2)) == 21


def test_dyadic_cubes_refuses_a_level_the_grid_cannot_hold():
    assert len(dyadic_cubes(make_grid(N=4), 2)) == 7
    with pytest.raises(ValueError, match="too deep for N=4"):
        dyadic_cubes(make_grid(N=4), 3)
    with pytest.raises(ValueError, match="max_level must be >= 0"):
        dyadic_cubes(make_grid(N=4), -1)


def test_a_deep_level_is_refused_without_building_2_to_the_level():
    grid = make_grid(N=2048)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="max_level 10000000 too deep "
                                             "for N=2048"):
            dyadic_cubes(grid, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_half_open_membership_1d():
    f = make_grid(N=8)
    q = Cube((0.25,), 0.5)
    idx = cube_region(f, q)
    # [0, 0.5): left edge in, right edge out
    assert list(idx) == [0, 1, 2, 3]


def test_membership_wraps_periodically():
    f = make_grid(N=8)
    q = Cube((0.0,), 0.5)
    idx = cube_region(f, q)
    assert list(idx) == [0, 1, 6, 7]


def test_dyadic_fast_path_matches_mask_path():
    # the membership mask picks each dyadic cube's block, whose rows of
    # level_blocks list its flat indices in ascending order
    for n, N in [(1, 16), (2, 16)]:
        f = make_grid(n=n, N=N)
        flat = np.arange(N**n).reshape((N,) * n)
        cubes = dyadic_cubes(f, 3)
        for q, k, b in zip(cubes, cubes.levels, cubes.blocks):
            block = level_blocks(flat, n, int(k))[b]
            assert np.array_equal(cube_region(f, q), block)


def test_off_grid_level_tag_takes_mask_path():
    # tagged level 1, but centered 4h/3 right of a level-1 block center
    f = make_grid(N=64)
    q = Cube((0.25 + 4 * f.h / 3,), 0.5, level=1)
    assert dyadic_address(f, q) is None
    idx = cube_region(f, q)
    assert list(idx) == list(range(2, 34))
    assert np.array_equal(idx, cube_region(f, Cube(q.center, q.side)))


def test_dilate_cube_doubles_sample_count():
    f = make_grid(N=32)
    q = [c for c in dyadic_cubes(f, 3) if c.level == 3][5]
    r1 = cube_region(f, q)
    r2 = cube_region(f, Cube(q.center, 2.0 * q.side))
    assert r2.size == 2 * r1.size
    assert set(r1).issubset(set(r2))


def test_dilate_beyond_box_captures_everything():
    f = make_grid(N=16)
    q = Cube((0.3,), 0.25)
    r = cube_region(f, Cube(q.center, 8.0 * q.side))
    assert r.size == f.N


def test_dyadic_nesting():
    f = make_grid(n=2, N=16)
    cubes = dyadic_cubes(f, 2)
    by_level = {}
    for q in cubes:
        by_level.setdefault(q.level, []).append(q)
    for q in by_level[2]:
        child = set(cube_region(f, q))
        parents = [p for p in by_level[1]
                   if set(cube_region(f, p)) >= child]
        assert len(parents) == 1


def test_level_partition_is_disjoint_cover():
    f = make_grid(n=2, N=8)
    lvl2 = [q for q in dyadic_cubes(f, 2) if q.level == 2]
    seen = np.concatenate([cube_region(f, q) for q in lvl2])
    assert np.array_equal(np.sort(seen), np.arange(f.N**2))


def test_level_blocks_match_cube_regions():
    rng = np.random.default_rng(7)
    for n, N in [(1, 16), (2, 8)]:
        shape = (N,) if n == 1 else (N, N)
        f = make_grid(n=n, N=N, values=rng.normal(size=shape))
        for k in range(0, 3):
            blocks = level_blocks(f.values, n, k)
            cubes = [q for q in dyadic_cubes(f, k) if q.level == k]
            assert blocks.shape[0] == len(cubes)
            for b, q in zip(blocks, cubes):
                samples = f.values.ravel()[cube_region(f, q)]
                assert b.mean() == pytest.approx(samples.mean(), rel=1e-12)


def test_dyadic_address_roundtrip():
    f = make_grid(n=2, N=8)
    for k in range(0, 3):
        cubes = [q for q in dyadic_cubes(f, k) if q.level == k]
        for i, q in enumerate(cubes):
            assert dyadic_address(f, q) == (k, i)
    assert dyadic_address(f, Cube((0.3, 0.3), 0.2)) is None
    # a level tag alone does not make a cube dyadic
    assert dyadic_address(f, Cube((0.25, 0.25), 0.25, level=1)) is None
    assert dyadic_address(f, Cube((0.3, 0.25), 0.5, level=1)) is None
    assert dyadic_address(f, Cube((0.5, 0.5), 1 / 16, level=4)) is None
    # centers are taken modulo the box; the finest level is one sample
    assert dyadic_address(f, Cube((-0.25, 1.25), 0.5, level=1)) == (1, 2)
    assert dyadic_address(f, Cube((0.0625, 0.9375), 0.125, level=3)) == (3, 7)
    with pytest.raises(ValueError, match="dimension"):
        dyadic_address(f, Cube((0.25,), 0.5, level=1))


def loop_dyadic_cubes(g, max_level):
    """Every dyadic cube of levels 0..max_level, one Cube at a time."""
    cubes = []
    for k in range(max_level + 1):
        s = g.L / (1 << k)
        for i in range(1 << k):
            if g.n == 1:
                cubes.append(Cube(((i + 0.5) * s,), s, level=k))
                continue
            for j in range(1 << k):
                cubes.append(Cube(((i + 0.5) * s, (j + 0.5) * s), s, level=k))
    return cubes


@pytest.mark.parametrize("n,N,L", [(1, 32, 1.0), (2, 8, 2.0), (1, 64, 0.7)])
def test_dyadic_family_is_the_loop_family_with_its_addresses(n, N, L):
    g = make_grid(n=n, L=L, N=N)
    for max_level in range(N.bit_length()):
        family = dyadic_cubes(g, max_level)
        assert isinstance(family, DyadicFamily)
        expected = loop_dyadic_cubes(g, max_level)
        assert list(family) == expected
        assert len(family) == len(expected)
        assert [dyadic_address(g, q) for q in family] == list(
            zip(family.levels.tolist(), family.blocks.tolist()))
        assert not family.levels.flags.writeable
        assert not family.blocks.flags.writeable
        # equal to a family of the same geometry, and to nothing else
        assert family == dyadic_cubes(g, max_level)
        assert family != expected
        assert family[-1] == expected[-1]
        assert family[np.int64(len(expected) - 1)] == expected[-1]
        with pytest.raises(IndexError):
            family[len(expected)]
    assert dyadic_cubes(g, 1) != dyadic_cubes(g, 2)


def test_periodic_displacement_range():
    x = np.linspace(0, 1, 64, endpoint=False)
    d = periodic_displacement(x, 0.9, 1.0)
    assert np.all(d >= -0.5) and np.all(d < 0.5)
    assert d[0] == pytest.approx(0.1, abs=1e-12)


def test_ess_bounds_and_validation():
    # the pyramid's min table is the ess inf per block
    f = make_grid(N=8, values=np.arange(8.0))
    assert f.pyramid.min(0).tolist() == [0.0]
    assert f.pyramid.min(1).tolist() == [0.0, 4.0]
    with pytest.raises(ValueError):
        GridFunction(1, 1.0, 12, np.zeros(12))
    with pytest.raises(ValueError):
        GridFunction(1, 1.0, 8, np.full(8, np.nan))
    with pytest.raises(ValueError):
        dyadic_cubes(f, 5)


@settings(max_examples=40, deadline=None)
@given(level=st.integers(min_value=0, max_value=3),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_measure_additivity_over_partitions(level, seed):
    rng = np.random.default_rng(seed)
    f = make_grid(n=1, N=16, values=rng.normal(size=16))
    cubes = [q for q in dyadic_cubes(f, level) if q.level == level]
    total = sum(cube_region(f, q).size * f.h for q in cubes)
    assert total == pytest.approx(f.L, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-5, 5), b=st.floats(-5, 5),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_mean_value_linearity(a, b, seed):
    # the pyramid's block means, which every dyadic scan reads
    rng = np.random.default_rng(seed)
    u = rng.normal(size=16)
    v = rng.normal(size=16)
    f = make_grid(N=16, values=u)
    g = make_grid(N=16, values=v)
    fg = make_grid(N=16, values=a * u + b * v)
    for k in range(f.pyramid.depth + 1):
        lhs = fg.pyramid.mean(k)
        rhs = a * f.pyramid.mean(k) + b * g.pyramid.mean(k)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       n=st.sampled_from([1, 2]))
def test_mean_between_ess_bounds(seed, n):
    rng = np.random.default_rng(seed)
    f = make_grid(n=n, N=16, values=rng.normal(size=(16,) * n))
    pyr = f.pyramid
    for k in range(pyr.depth + 1):
        assert np.all(pyr.min(k) - 1e-12 <= pyr.mean(k))
        assert np.all(pyr.mean(k) <= pyr.blocks(k).max(axis=1) + 1e-12)


# The largest distance, in ULP of math.pow's result, at which half_power
# was seen over the samples below (NumPy 2.4.6, glibc's pow); the rule's
# own bound is 4 ULP.
HALF_POWER_ULP = {-2.0: 1, -1.5: 2, -1.0: 1, -0.5: 1, 0.5: 1, 1.0: 0,
                  1.5: 1, 2.0: 1, 3.0: 1}


def _math_pow(v, s):
    try:
        return math.pow(v, s)
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("s", sorted(HALF_POWER_ULP))
def test_half_power_is_within_4_ulp_of_pow(s):
    rng = np.random.default_rng(31)
    x = 10.0 ** rng.uniform(-150, 150, 20000)
    x.setflags(write=False)
    with np.errstate(over="ignore", under="ignore"):
        got = half_power(x, s)
    ref = np.array([_math_pow(v, s) for v in x])
    normal = (ref >= sys.float_info.min) & (ref <= sys.float_info.max)
    assert normal.sum() > 10000
    ulps = np.abs(got[normal] - ref[normal]) / np.array(
        [math.ulp(r) for r in ref[normal]])
    assert ulps.max() == HALF_POWER_ULP[s] <= 4
    # at s = 1/2, ±1 and 2, ** itself takes sqrt, reciprocal or square
    if s in (0.5, -1.0, 1.0, 2.0):
        assert got.tobytes() == (x ** s).tobytes()


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_half_power_of_zero_is_plus_zero(s):
    got = half_power(np.array([0.0, 4.0]), s)
    assert got[0] == 0.0 and math.copysign(1.0, got[0]) == 1.0
    assert got[1] == 4.0 ** s


@pytest.mark.parametrize("s", [0.0, 0.25, 1 / 3, 0.7, -0.3, 3.5, -3.5,
                               -4.0, 4.0, 7.0, 1e-3])
def test_half_power_of_any_other_exponent_is_pow(s):
    rng = np.random.default_rng(5)
    for x in (10.0 ** rng.uniform(-100, 100, 4096),
              rng.uniform(0.0, 2.0, (64, 64)), np.zeros(8)):
        with np.errstate(all="ignore"):
            assert half_power(x, s).tobytes() == (x ** s).tobytes()
