"""Block-pyramid family functionals against per-cube reference scans.

Every functional that reads per-level tables is compared with a loop over
the family that gathers each cube's samples through cube_region: the
oscillation kinds through single_cube_value, the weight constants through
direct sums.  Families run from the box alone (max_level 0) to every level
down to single samples.  Values agree to RTOL and the witness is the same
first maximal cube.
"""

import re

import numpy as np
import pytest

from lpsquare.czd import cube_local_constants, cz_decompose
from lpsquare.grid import (
    BlockPyramid,
    Cube,
    GridFunction,
    cube_region,
    dyadic_cubes,
    level_blocks,
)
from lpsquare.oscillation import (
    _deviation,
    blo_constant,
    blo_p_norm,
    bmo_norm,
    single_cube_value,
)
from lpsquare.weights import (
    DoublingReport,
    Weight,
    a1_constant,
    ap_constant,
    doubling_report,
)

RTOL = 1e-12

SCANS = {
    "bmo": lambda f, w, cubes, p: bmo_norm(f, w, cubes),
    "blo": lambda f, w, cubes, p: blo_constant(f, w, cubes),
    "blo_p": lambda f, w, cubes, p: blo_p_norm(f, w, p, cubes),
}
KINDS = [("bmo", None), ("blo", None), ("blo_p", 2.0), ("blo_p", 3.0)]
GRIDS = [(1, 64), (2, 16)]


def random_pair(n, N, seed=0):
    rng = np.random.default_rng(seed)
    shape = (N,) * n
    f = GridFunction(n, 1.0, N, rng.standard_normal(shape))
    w = Weight(GridFunction(n, 1.0, N, np.exp(rng.uniform(-1.0, 1.0, shape))))
    return f, w


# max_level of the scanned family: the box alone, a middle depth, and
# every level down to single samples (the depth of the grid)
DEPTHS = [0, 3, "depth"]


def family(g, max_level):
    if max_level == "depth":
        max_level = g.N.bit_length() - 1
    return dyadic_cubes(g, max_level)


def samples(g, q):
    return g.values.ravel()[cube_region(g, q)]


def doubled(q):
    """2Q: the cube with the center of q and twice its side."""
    return Cube(q.center, 2 * q.side)


def first_max(values, cubes):
    i = values.index(max(values))
    return values[i], cubes[i]


@pytest.mark.parametrize("n,N", GRIDS)
@pytest.mark.parametrize("max_level", DEPTHS)
@pytest.mark.parametrize("kind,p", KINDS)
def test_oscillation_scan_matches_per_cube_loop(n, N, max_level, kind, p):
    f, w = random_pair(n, N)
    cubes = family(f, max_level)
    rep = SCANS[kind](f, w, cubes, p)
    value, witness = first_max(
        [single_cube_value(kind, f, w, q, p) for q in cubes], cubes)
    assert rep.value == pytest.approx(value, rel=RTOL)
    assert rep.argmax == witness
    assert rep.family_size == len(cubes)


@pytest.mark.parametrize("n,N", GRIDS)
@pytest.mark.parametrize("max_level", DEPTHS)
def test_weight_constants_match_per_cube_loop(n, N, max_level):
    _, w = random_pair(n, N)
    cubes = family(w.base, max_level)
    a1 = max(float(v.mean() / v.min())
             for v in (samples(w.base, q) for q in cubes))
    assert a1_constant(w, cubes) == pytest.approx(a1, rel=RTOL)
    for p in (1.5, 2.0, 3.0):
        ap = max(float(v.mean() * (v ** (1.0 - p / (p - 1.0))).mean() ** (p - 1.0))
                 for v in (samples(w.base, q) for q in cubes))
        assert ap_constant(w, p, cubes) == pytest.approx(ap, rel=RTOL)


def doubling_reference(w, cubes):
    """(ratios, A₁ over the cubes and their doubles) from cube_region sums."""
    ratios, a1 = [], 0.0
    for q in cubes:
        v1, v2 = samples(w.base, q), samples(w.base, doubled(q))
        ratios.append(float(v2.sum()) / float(v1.sum()))
        a1 = max(a1, float(v1.mean() / v1.min()), float(v2.mean() / v2.min()))
    return ratios, a1


@pytest.mark.parametrize("n,N", GRIDS)
@pytest.mark.parametrize("max_level", DEPTHS)
def test_doubling_matches_per_cube_loop(n, N, max_level):
    _, w = random_pair(n, N)
    cubes = family(w.base, max_level)
    rep = doubling_report(w, cubes)
    ratios, a1 = doubling_reference(w, cubes)
    assert rep.constant == pytest.approx(a1, rel=RTOL)
    assert [r.cube for r in rep.rows] == list(cubes)
    np.testing.assert_allclose([r.ratio for r in rep.rows], ratios, rtol=RTOL)
    assert all(r.bound == 2**n * rep.constant for r in rep.rows)


@pytest.mark.parametrize("n,N", GRIDS)
def test_doubled_windows_are_the_cube_region_samples(n, N):
    # Integer weights sum exactly in any order and h^n is a power of two,
    # so every ratio ω(2Q)/ω(Q) equals the cube_region one bit for bit
    # exactly when the window of level-(k+1) blocks holds the same samples
    # as cube_region(2Q).
    rng = np.random.default_rng(2)
    w = Weight(GridFunction(n, 1.0, N,
                            rng.integers(1, 1000, (N,) * n).astype(float)))
    depth = N.bit_length() - 1
    cubes = dyadic_cubes(w.base, depth)
    rep = doubling_report(w, cubes)
    ratios, a1 = doubling_reference(w, cubes)
    for k in range(depth + 1):
        at_k = np.flatnonzero(cubes.levels == k)
        assert rep.ratios[at_k].tolist() == [ratios[i] for i in at_k], \
            f"level {k}"
    assert ratios[0] == 1.0  # 2Q of the box is the whole box, counted once
    # at the finest level 2Q holds two samples per axis
    assert all(samples(w.base, doubled(cubes[i])).size == 2**n
               for i in np.flatnonzero(cubes.levels == depth))
    assert rep.constant == pytest.approx(a1, rel=RTOL)


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16), (2, 8)])
def test_finest_doubled_cubes_sum_as_cube_region_does(n, N):
    # Non-integer weights: a sum of four samples depends on their order, so
    # the finest-level ratios ω(2Q)/ω(Q) equal the cube_region sums bit for
    # bit only when the samples of 2Q are added in increasing flat index,
    # the wrap at i = N-1 included.
    rng = np.random.default_rng(9)
    w = Weight(GridFunction(n, 1.0, N,
                            np.exp(rng.uniform(-3.0, 3.0, (N,) * n)) / 3.0))
    depth = N.bit_length() - 1
    cubes = dyadic_cubes(w.base, depth)
    finest = np.flatnonzero(cubes.levels == depth)
    hn = (1.0 / N) ** n
    rep = doubling_report(w, cubes)
    for i in finest:
        v1, v2 = samples(w.base, cubes[i]), samples(w.base, doubled(cubes[i]))
        assert rep.ratios[i] == (float(v2.sum()) * hn) / (float(v1.sum()) * hn)
    # 2Q of the last sample wraps to the first sample on every axis
    wrap = cube_region(w.base, doubled(cubes[finest[-1]]))
    corners = np.ravel_multi_index(np.ix_(*[[0, N - 1]] * n), (N,) * n)
    assert wrap.tolist() == sorted(corners.ravel().tolist())


@pytest.mark.parametrize("n,N", GRIDS)
@pytest.mark.parametrize("max_level", DEPTHS)
def test_constant_function_ties_at_the_first_cube(n, N, max_level):
    shape = (N,) * n
    f = GridFunction(n, 1.0, N, np.full(shape, -3.0))
    w = Weight(GridFunction(n, 1.0, N, np.full(shape, 2.0)))
    cubes = family(f, max_level)
    for kind, p in KINDS:
        rep = SCANS[kind](f, w, cubes, p)
        assert rep.value == 0.0
        assert rep.argmax == cubes[0]
    assert a1_constant(w, cubes) == 1.0
    assert ap_constant(w, 2.0, cubes) == pytest.approx(1.0, rel=RTOL)
    assert doubling_report(w, cubes).constant == 1.0


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
def test_min_max_tables_equal_the_block_reductions(n, N):
    # few distinct values, negatives included, so most blocks hold ties
    rng = np.random.default_rng(5)
    values = rng.integers(-3, 3, (N,) * n) + rng.choice([0.0, 0.5], (N,) * n)
    pyr = BlockPyramid(values, n)
    for k in range(pyr.depth + 1):
        blocks = level_blocks(values, n, k)
        assert pyr.min(k).tobytes() == blocks.min(axis=1).tobytes()
        assert not pyr.min(k).flags.writeable
    # the finest level is the samples themselves, not a copy
    assert np.shares_memory(pyr.min(pyr.depth), values)


@pytest.mark.parametrize("n,N", [(1, 1024), (2, 32)])
def test_mean_tables_equal_the_block_mean_formula(n, N):
    # ties and negative values; each table against blocks.mean(axis=1)
    rng = np.random.default_rng(7)
    values = rng.integers(-3, 3, (N,) * n) + rng.choice([0.0, 0.1], (N,) * n)
    pyr = BlockPyramid(values, n)
    for k in range(pyr.depth + 1):
        blocks = level_blocks(values, n, k)
        mean = blocks.mean(axis=1, keepdims=True)
        dev = np.abs(blocks - mean)
        assert pyr.mean(k).tobytes() == mean.ravel().tobytes()
        assert pyr.absdev(k).tobytes() == dev.sum(axis=1).tobytes()
        low = blocks - blocks.min(axis=1, keepdims=True)
        assert _deviation(pyr, k).tobytes() == low.tobytes()


PYRAMID_READERS = [
    lambda f, w, cubes: a1_constant(w, cubes),
    lambda f, w, cubes: ap_constant(w, 1.5, cubes),
    lambda f, w, cubes: ap_constant(w, 3.0, cubes),
    lambda f, w, cubes: doubling_report(w, cubes).ratios.tobytes(),
    lambda f, w, cubes: doubling_report(w, cubes).constant,
    lambda f, w, cubes: bmo_norm(f, w, cubes),
    lambda f, w, cubes: blo_constant(f, w, cubes),
    lambda f, w, cubes: blo_p_norm(f, w, 2.0, cubes),
    lambda f, w, cubes: blo_p_norm(f, w, 3.0, cubes),
    lambda f, w, cubes: cube_local_constants(f, w, cubes[0]),
    lambda f, w, cubes: cz_decompose(f, w, cubes[0], sigma=1.2),
]


@pytest.mark.parametrize("n,N", GRIDS)
def test_pyramids_keep_only_sums_and_minima(n, N):
    # every other per-level quantity is read by one scan only, so keeping
    # it would hold memory that no later read uses
    f, w = random_pair(n, N)
    cubes = family(f, "depth")
    shared = [read(f, w, cubes) for read in PYRAMID_READERS]
    assert shared[-1].blocks_visited > 0
    for pyr in (f.pyramid, w.pyramid):
        assert {key for key, _ in pyr._tables} == {"sum", "min"}
    # each reader gives the same bits on pyramids of its own
    for read, value in zip(PYRAMID_READERS, shared):
        g = GridFunction(n, 1.0, N, f.values)
        v = Weight(GridFunction(n, 1.0, N, w.values))
        assert read(g, v, cubes) == value


def per_record_margin(rows):
    return min((r.bound / r.ratio for r in rows if r.ratio > 0),
               default=float("inf"))


@pytest.mark.parametrize("n,N", GRIDS)
def test_doubling_report_derives_rows_all_ok_and_margin(n, N):
    _, w = random_pair(n, N)
    family = dyadic_cubes(w.base, N.bit_length() - 1)
    rep = doubling_report(w, family)
    rows = rep.rows
    assert [r.cube for r in rows] == list(family)
    assert [r.ratio for r in rows] == rep.ratios.tolist()
    assert all(r.bound == rep.bound == 2**n * rep.constant for r in rows)
    assert all(r.ok == (r.ratio <= r.bound * (1 + 1e-12)) for r in rows)
    assert rep.all_ok is all(r.ok for r in rows)
    assert rep.margin == per_record_margin(rows)
    assert list(rep) == list(rows)
    # a failing ratio and a zero ratio
    cubes = list(family)[:3]
    bad = DoublingReport(1.0, cubes, np.array([0.5, 3.0, 0.0]), 2.0)
    assert bad.all_ok is all(r.ok for r in bad.rows) is False
    assert bad.margin == per_record_margin(bad.rows)
    none = DoublingReport(1.0, cubes, np.zeros(3), 2.0)
    assert none.all_ok and none.margin == per_record_margin(none.rows) \
        == float("inf")


def test_scans_refuse_a_cube_list_and_a_family_of_another_grid():
    f, w = random_pair(2, 16)
    cubes = dyadic_cubes(f, 2)
    with pytest.raises(TypeError, match="DyadicFamily, not a list"):
        bmo_norm(f, w, list(cubes))
    with pytest.raises(TypeError, match="DyadicFamily, not a tuple"):
        a1_constant(w, tuple(cubes))
    line = GridFunction(1, 1.0, 16, np.zeros(16))
    for other in (dyadic_cubes(line, 2),          # another dimension
                  dyadic_cubes(GridFunction(2, 2.0, 16, np.zeros((16, 16))),
                               2),               # another box side
                  dyadic_cubes(GridFunction(2, 1.0, 64, np.zeros((64, 64))),
                               5)):              # too deep for N=16
        with pytest.raises(ValueError, match=re.escape(f"{other!r} does not "
                                                       "fit the 2D grid")):
            doubling_report(w, other)
        with pytest.raises(ValueError, match="does not fit"):
            blo_p_norm(f, w, 2.0, other)
