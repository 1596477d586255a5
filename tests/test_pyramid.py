"""Block-pyramid family functionals against per-cube reference scans.

Every functional that reads per-level tables is compared with a loop over
the family that gathers each cube's samples through cube_region: the
oscillation kinds through single_cube_value, the weight constants through
direct sums.  Values agree to RTOL and the witness is the same first
maximal cube.
"""

import numpy as np
import pytest

from lpsquare.grid import (
    BlockPyramid,
    Cube,
    GridFunction,
    cube_region,
    dilate_cube,
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


def families(g):
    """name -> cube family: every dyadic level, shuffled, and mixed with
    dilates and off-grid probes."""
    depth = g.N.bit_length() - 1
    full = dyadic_cubes(g, depth)
    order = np.random.default_rng(1).permutation(len(full))
    coarse = dyadic_cubes(g, 3)
    h = g.L / g.N
    probes = [Cube((0.3,) * g.n, 0.17), Cube((0.91,) * g.n, 0.4),
              # a level tag on a cube off the block centers
              Cube((0.25 + h / 3,) * g.n, 0.5, level=1)]
    mixed = (coarse[::2] + [dilate_cube(q, t) for q in coarse[1::3]
                            for t in (0.5, 2.0, 3.0)]
             + probes + coarse[1::2])
    return {"full": full, "shuffled": [full[i] for i in order],
            "mixed": mixed}


def samples(g, q):
    return g.values.ravel()[cube_region(g, q).indices]


def first_max(values, cubes):
    i = values.index(max(values))
    return values[i], cubes[i]


@pytest.mark.parametrize("n,N", GRIDS)
@pytest.mark.parametrize("family", ["full", "shuffled", "mixed"])
@pytest.mark.parametrize("kind,p", KINDS)
def test_oscillation_scan_matches_per_cube_loop(n, N, family, kind, p):
    f, w = random_pair(n, N)
    cubes = families(f)[family]
    rep = SCANS[kind](f, w, cubes, p)
    value, witness = first_max(
        [single_cube_value(kind, f, w, q, p) for q in cubes], cubes)
    assert rep.value == pytest.approx(value, rel=RTOL)
    assert rep.argmax == witness
    assert rep.family_size == len(cubes)


@pytest.mark.parametrize("n,N", GRIDS)
@pytest.mark.parametrize("family", ["full", "shuffled", "mixed"])
def test_weight_constants_match_per_cube_loop(n, N, family):
    _, w = random_pair(n, N)
    cubes = families(w.base)[family]
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
        v1, v2 = samples(w.base, q), samples(w.base, dilate_cube(q, 2.0))
        ratios.append(float(v2.sum()) / float(v1.sum()))
        a1 = max(a1, float(v1.mean() / v1.min()), float(v2.mean() / v2.min()))
    return ratios, a1


@pytest.mark.parametrize("n,N", GRIDS)
@pytest.mark.parametrize("family", ["full", "shuffled", "mixed"])
def test_doubling_matches_per_cube_loop(n, N, family):
    _, w = random_pair(n, N)
    cubes = families(w.base)[family]
    rep = doubling_report(w, cubes)
    ratios, a1 = doubling_reference(w, cubes)
    assert rep.constant == pytest.approx(a1, rel=RTOL)
    assert [r.cube for r in rep.rows] == cubes
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
    by_level = {}
    for q in dyadic_cubes(w.base, depth):
        by_level.setdefault(q.level, []).append(q)
    for k, cubes in by_level.items():
        rep = doubling_report(w, cubes)
        ratios, a1 = doubling_reference(w, cubes)
        assert [r.ratio for r in rep.rows] == ratios, f"level {k}"
        if k == 0:  # 2Q is the whole box, counted once
            assert ratios == [1.0]
        if k == depth:  # 2Q holds two samples per axis
            assert all(samples(w.base, dilate_cube(q, 2.0)).size == 2**n
                       for q in cubes)
        assert rep.constant == pytest.approx(a1, rel=RTOL)


@pytest.mark.parametrize("n,N", GRIDS)
@pytest.mark.parametrize("family", ["full", "shuffled", "mixed"])
def test_constant_function_ties_at_the_first_cube(n, N, family):
    shape = (N,) * n
    f = GridFunction(n, 1.0, N, np.full(shape, -3.0))
    w = Weight(GridFunction(n, 1.0, N, np.full(shape, 2.0)))
    cubes = families(f)[family]
    for kind, p in KINDS:
        rep = SCANS[kind](f, w, cubes, p)
        assert rep.value == 0.0
        assert rep.argmax == cubes[0]
    assert a1_constant(w, cubes) == 1.0
    assert ap_constant(w, 2.0, cubes) == pytest.approx(1.0, rel=RTOL)
    assert doubling_report(w, cubes).constant == 1.0


@pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
def test_family_scans_equal_the_list_scans_bit_for_bit(n, N):
    # a DyadicFamily reads its own addresses; the list of its cubes maps
    # them from the centers; every value and witness must agree exactly
    f, w = random_pair(n, N, seed=4)
    for max_level in range(N.bit_length()):
        family = dyadic_cubes(f, max_level)
        cubes = list(family)
        for kind, p in KINDS:
            a, b = SCANS[kind](f, w, family, p), SCANS[kind](f, w, cubes, p)
            assert (a.value, a.argmax) == (b.value, b.argmax), kind
        assert a1_constant(w, family) == a1_constant(w, cubes)
        assert ap_constant(w, 2.0, family) == ap_constant(w, 2.0, cubes)
        a, b = doubling_report(w, family), doubling_report(w, cubes)
        assert a.constant == b.constant
        assert a.ratios.tobytes() == b.ratios.tobytes()
        assert a.rows == b.rows


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


def per_record_margin(rows):
    return min((r.bound / r.ratio for r in rows if r.ratio > 0),
               default=float("inf"))


@pytest.mark.parametrize("n,N", GRIDS)
def test_doubling_report_derives_rows_all_ok_and_margin(n, N):
    _, w = random_pair(n, N)
    family = dyadic_cubes(w.base, N.bit_length() - 1)
    rep = doubling_report(w, family)
    rows = rep.rows
    assert [r.cube for r in rows] == family
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
