"""Stopping-time decomposition tests, including an exhaustive oracle.

The oracle characterizes each generation directly: a selected cube is a
multi-sample dyadic descendant of its stopping cube whose rescaled mean
oscillation exceeds the threshold while every strictly intermediate
ancestor stays at or below it.  The engine's streaming descent must
reproduce the oracle's trees node for node.  A second reference, a
first-in first-out queue of single blocks, pins node ids, parents and
generation order exactly, in 1D and 2D.  The engine works on the whole
box, so a dyadic sub-cube root is decomposed on the restriction of f and
the weight to its block, and its nodes are compared with the full-grid
references at their addresses lifted into the full grid.
"""

import dataclasses
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsquare.czd import (
    InvariantRecord,
    SelectedCube,
    _verify_tree,
    cube_local_constants,
    cz_decompose,
    distribution_function,
    equivalence_constant,
    jn_blo_verify,
    jn_bmo_verify,
    layer_cake_check,
)
from lpsquare.grid import (
    Cube,
    GridFunction,
    block_cells,
    cube_region,
    dyadic_address,
    dyadic_cube,
    dyadic_cubes,
)
from lpsquare.oscillation import (
    blo_constant,
    blo_p_norm,
    bmo_norm,
    single_cube_value,
)
from lpsquare.weights import Weight, a1_constant, ap_constant, constant_weight


def gf(values, L=1.0):
    vals = np.asarray(values, dtype=float)
    n = vals.ndim
    return GridFunction(n, L, vals.shape[0], vals)


def coords(N, L=1.0):
    return np.arange(N) * (L / N)


def weight_from(values, L=1.0):
    vals = np.asarray(values, dtype=float)
    return Weight(vals.ndim, L, vals.shape[0], vals)


BOX = Cube((0.5,), 1.0, level=0)  # the whole unit interval


def restrict(f, w, k, b):
    """f and w on the level-k dyadic block b, each on a box of its own."""
    cells = block_cells(f.n, f.N, k, b)
    return tuple(type(u)(u.n, u.L / 2**k, u.N >> k, u.values[cells])
                 for u in (f, w))


def lift(n, root, s):
    """A node of the tree of the root block's restriction, at its address
    in the full grid."""
    kq, b0 = root
    outer = np.unravel_index(b0, (1 << kq,) * n)
    inner = np.unravel_index(s.block, (1 << s.level,) * n)
    k = kq + s.level
    b = np.ravel_multi_index(
        tuple((o << s.level) + i for o, i in zip(outer, inner)), (1 << k,) * n)
    return dataclasses.replace(s, level=k, block=int(b))


def regularized_power(N, alpha, x0=0.5, L=1.0):
    x = coords(N, L)
    h = L / N
    return np.maximum(np.abs(x - x0), h) ** alpha


# ---------------------------------------------------------------------------
# exhaustive oracle (n=1)


def _oracle_local(f, w, Q):
    kq, b0 = dyadic_address(f, Q)
    N = f.N
    depth = int(math.log2(N))
    fv, wv = f.values, w.values

    def seg(k, b):
        size = N >> k
        return slice(b * size, (b + 1) * size)

    a1 = blo = 0.0
    for k in range(kq, depth + 1):
        for b in range(b0 << (k - kq), (b0 + 1) << (k - kq)):
            ws = wv[seg(k, b)]
            fs = fv[seg(k, b)]
            a1 = max(a1, ws.mean() / ws.min())
            blo = max(blo, (fs.sum() - fs.size * fs.min()) / ws.sum())
    min_w = wv[seg(kq, b0)].min()
    return a1, float(min_w), float(a1 * min_w), float(blo)


def oracle_tree(f, w, Q, sigma, max_gen):
    """Maximal-cube characterization, evaluated by brute enumeration."""
    kq, b0 = dyadic_address(f, Q)
    N, L = f.N, f.L
    depth = int(math.log2(N))
    a1, min_w, a_w, blo = _oracle_local(f, w, Q)
    if blo == 0.0:
        return []
    scaled = f.values / blo
    T = sigma * a_w

    def seg(k, b):
        size = N >> k
        return slice(b * size, (b + 1) * size)

    def mean(k, b):
        return float(scaled[seg(k, b)].mean())

    out = []

    def descend(k_s, b_s, gen, parent_key):
        if gen > max_gen:
            return
        m_s = float(scaled[seg(k_s, b_s)].min())
        for k in range(k_s + 1, depth + 1):
            if (N >> k) <= 1 and (N >> k) != 1:
                continue
            for b in range(b_s << (k - k_s), (b_s + 1) << (k - k_s)):
                if (N >> k) == 1:
                    continue
                if mean(k, b) - m_s <= T:
                    continue
                ancestors_ok = all(
                    mean(ka, b >> (k - ka)) - m_s <= T
                    for ka in range(k_s + 1, k))
                if not ancestors_ok:
                    continue
                s = L / (1 << k)
                key = (gen, (b + 0.5) * s, s)
                out.append({
                    "gen": gen,
                    "center": (b + 0.5) * s,
                    "side": s,
                    "parent": parent_key,
                    "osc_mean": mean(k, b) - m_s,
                    "min_inc": float(scaled[seg(k, b)].min()) - m_s,
                })
                descend(k, b, gen + 1, key)

    descend(kq, b0, 1, None)
    return out


def tree_records(tree, L=1.0, root=(0, 0)):
    """The 1D tree of the root block's restriction, its nodes placed in
    the full grid of side L."""
    by_id = {0: None}
    cubes = {}
    for s in tree.nodes:
        t = lift(1, root, s)
        cubes[s.id] = dyadic_cube(1, L, t.level, t.block)
        by_id[s.id] = (s.gen, cubes[s.id].center[0], cubes[s.id].side)
    recs = []
    for s in tree.nodes:
        recs.append({
            "gen": s.gen,
            "center": cubes[s.id].center[0],
            "side": cubes[s.id].side,
            "parent": by_id[s.parent],
            "osc_mean": s.osc_mean,
            "min_inc": s.min_inc,
        })
    return recs


def assert_same_trees(recs_a, recs_b):
    key = lambda r: (r["gen"], r["center"], r["side"])
    recs_a = sorted(recs_a, key=key)
    recs_b = sorted(recs_b, key=key)
    assert len(recs_a) == len(recs_b)
    for ra, rb in zip(recs_a, recs_b):
        assert ra["gen"] == rb["gen"]
        assert ra["parent"] == rb["parent"]
        assert math.isclose(ra["center"], rb["center"], rel_tol=1e-12)
        assert math.isclose(ra["side"], rb["side"], rel_tol=1e-12)
        assert math.isclose(ra["osc_mean"], rb["osc_mean"], rel_tol=1e-10)
        assert math.isclose(ra["min_inc"], rb["min_inc"],
                            rel_tol=1e-10, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# local constants


def test_local_constants_match_family_scan():
    rng = np.random.default_rng(3)
    N = 64
    f = gf(np.cumsum(rng.standard_normal(N)) / 8.0)
    w = weight_from(1.0 + 0.4 * np.sin(2 * np.pi * coords(N)))
    local = cube_local_constants(f, w)
    family = dyadic_cubes(f, 6)
    assert math.isclose(local.a1, a1_constant(w, family), rel_tol=1e-12)
    assert math.isclose(local.blo, blo_constant(f, w, family).value,
                        rel_tol=1e-12)
    assert math.isclose(local.bmo, bmo_norm(f, w, family).value,
                        rel_tol=1e-12)
    assert math.isclose(local.min_w, float(w.values.min()), rel_tol=1e-12)
    assert math.isclose(local.a_w, local.a1 * local.min_w, rel_tol=1e-15)


def test_local_constants_subcube_vs_oracle():
    rng = np.random.default_rng(4)
    N = 32
    f = gf(rng.standard_normal(N), L=2.0)
    w = weight_from(regularized_power(N, 0.3, x0=1.3, L=2.0), L=2.0)
    q = Cube((0.25,), 0.5, level=2)
    local = cube_local_constants(*restrict(f, w, *dyadic_address(f, q)))
    a1, min_w, a_w, blo = _oracle_local(f, w, q)
    assert math.isclose(local.a1, a1, rel_tol=1e-12)
    assert math.isclose(local.min_w, min_w, rel_tol=1e-12)
    assert math.isclose(local.a_w, a_w, rel_tol=1e-12)
    assert math.isclose(local.blo, blo, rel_tol=1e-12)


@pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
def test_local_constants_match_family_scan_on_every_subcube_root(n, N):
    rng = np.random.default_rng(6)
    f = gf(rng.standard_normal((N,) * n))
    w = weight_from(np.exp(0.5 * rng.standard_normal((N,) * n)))
    depth = int(math.log2(N))
    family = dyadic_cubes(f, depth)
    for q in family:
        # the coarse roots, and the roots of two samples and of one sample
        # per axis, where the scan stops
        if q.level == 0 or 2 < q.level < depth - 1:
            continue
        assert_local_constants_are_the_scan(f, w, family, q)


def assert_local_constants_are_the_scan(f, w, family, q):
    """The local constants of q's restriction against the full grid's
    sub-cubes of q, scanned one at a time."""
    n = f.n
    depth = int(math.log2(f.N))
    half = q.side / 2
    inside = [c for c in family if c.level >= q.level and all(
        abs(a - b) < half for a, b in zip(c.center, q.center))]
    assert len(inside) == sum(2 ** (n * (k - q.level))
                              for k in range(q.level, depth + 1))
    local = cube_local_constants(*restrict(f, w, *dyadic_address(f, q)))
    weights = [w.values.ravel()[cube_region(f, c)] for c in inside]
    assert local.a1 == pytest.approx(
        max(float(v.mean() / v.min()) for v in weights), rel=1e-12)
    assert local.blo == pytest.approx(
        max(single_cube_value("blo", f, w, c) for c in inside), rel=1e-12)
    assert local.bmo == pytest.approx(
        max(single_cube_value("bmo", f, w, c) for c in inside), rel=1e-12)
    assert local.min_w == \
        w.values.ravel()[cube_region(f, q)].min()
    return local


@pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
def test_tree_holds_the_local_constants_of_its_root(n, N):
    rng = np.random.default_rng(7)
    w = weight_from(np.exp(0.5 * rng.standard_normal((N,) * n)))
    # a constant function takes the early return of an empty tree
    for f in (gf(rng.standard_normal((N,) * n)), gf(np.full((N,) * n, 3.25))):
        for root in ((0, 0), (1, 1)):
            sub = restrict(f, w, *root)
            assert cz_decompose(*sub).local == cube_local_constants(*sub)


@pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
def test_single_sample_roots_take_exact_constants(n, N):
    rng = np.random.default_rng(8)
    f = gf(rng.standard_normal((N,) * n))
    w = weight_from(np.exp(0.5 * rng.standard_normal((N,) * n)))
    depth = int(math.log2(N))
    for b in range(N**n):
        q = dyadic_cube(n, 1.0, depth, b)
        [wq] = w.values.ravel()[cube_region(f, q)]
        sub = restrict(f, w, depth, b)
        local = cube_local_constants(*sub)
        assert (local.a1, local.min_w, local.a_w, local.blo, local.bmo) \
            == (1.0, wq, wq, 0.0, 0.0)
        if n == 1:
            assert (local.a1, local.min_w, local.a_w, local.blo) \
                == _oracle_local(f, w, q)
        # no single-sample table was built for them
        for pyr in (u.pyramid for u in sub):
            assert ("sum", pyr.depth) not in pyr._tables


@pytest.mark.parametrize("n", [1, 2])
def test_single_sample_grid_takes_exact_constants(n):
    f, w = gf(np.full((1,) * n, 2.5)), weight_from(np.full((1,) * n, 0.75))
    local = cube_local_constants(f, w)
    assert (local.a1, local.min_w, local.a_w, local.blo, local.bmo) \
        == (1.0, 0.75, 0.75, 0.0, 0.0)
    if n == 1:
        assert (local.a1, local.min_w, local.a_w, local.blo) \
            == _oracle_local(f, w, BOX)


def test_sigma_and_depth_validation():
    f = gf(np.arange(8.0))
    w = constant_weight(1, 1.0, 8)
    with pytest.raises(ValueError):
        cz_decompose(f, w, sigma=1.0)
    with pytest.raises(ValueError):
        cz_decompose(f, w, sigma=0.7)
    with pytest.raises(ValueError):
        cz_decompose(f, w, sigma=float("nan"))
    with pytest.raises(ValueError):
        cz_decompose(f, w, sigma=2.0, max_gen=0)


# ---------------------------------------------------------------------------
# hand-built trees


def test_constant_function_gives_empty_tree():
    f = gf(np.full(16, 3.25))
    w = constant_weight(1, 1.0, 16)
    tree = cz_decompose(f, w, sigma=math.e)
    assert tree.nodes == ()
    assert tree.local.blo == 0.0
    assert tree.local.a_w == 1.0
    assert tree.all_ok


def test_single_sample_spike_is_never_selected():
    vals = np.zeros(8)
    vals[0] = 8.0
    f = gf(vals)
    w = constant_weight(1, 1.0, 8)
    tree = cz_decompose(f, w, sigma=1.5)
    assert tree.nodes == ()
    assert tree.all_ok
    e1 = [c for c in tree.checks if c.name == "E" and c.gen == 1][0]
    # the uncovered spike sits within the 2^n slack of the threshold
    assert e1.value == pytest.approx(2.0)
    assert e1.bound == pytest.approx(1.5 * 2.0 * 1.0)


def test_two_sample_plateau_selected_once():
    vals = np.zeros(8)
    vals[0] = vals[1] = 4.0
    f = gf(vals)
    w = constant_weight(1, 1.0, 8)
    tree = cz_decompose(f, w, sigma=1.5)
    assert len(tree.generations[0]) == 1
    assert all(len(g) == 0 for g in tree.generations[1:])
    sel = tree.generations[0][0]
    cube = dyadic_cube(1, 1.0, sel.level, sel.block)
    assert cube.center == (0.125,)
    assert cube.side == pytest.approx(0.25)
    assert sel.parent == 0
    assert sel.osc_mean == pytest.approx(2.0)
    assert sel.min_inc == pytest.approx(2.0)
    assert tree.all_ok


def test_staircase_produces_nested_generations():
    # each dyadic shell adds a jump, re-triggering the threshold inside
    vals = np.zeros(64)
    vals[:32] += 1.0
    vals[:8] += 2.0
    vals[:2] += 4.0
    f = gf(vals)
    w = constant_weight(1, 1.0, 64)
    tree = cz_decompose(f, w, sigma=1.2, max_gen=4)
    assert [len(g) for g in tree.generations] == [1, 1, 1, 0]
    assert tree.local.blo == pytest.approx(2.0)
    chain = [g[0] for g in tree.generations[:3]]
    assert [s.parent for s in chain] == [0, chain[0].id, chain[1].id]
    assert [1.0 / 2**s.level for s in chain] == \
        pytest.approx([0.25, 0.125, 0.03125])
    assert [s.osc_mean for s in chain] == pytest.approx([1.25, 1.5, 2.0])
    assert [s.min_inc for s in chain] == pytest.approx([0.5, 1.0, 2.0])
    assert tree.all_ok


# ---------------------------------------------------------------------------
# oracle agreement


def _profile(N, kind, seed=0):
    x = np.arange(N) / N
    if kind == "logspike":
        return -np.log(np.maximum(np.abs(x - 0.3), 1.0 / N))
    if kind == "staircase":
        vals = np.zeros(N)
        b, amp = N, 1.0
        while b >= 2:
            vals[:b] += amp
            amp *= 2.0
            b //= 4
        return vals
    rng = np.random.default_rng(seed)
    vals = np.cumsum(rng.standard_normal(N)) / math.sqrt(N)
    if kind == "walk_spike":
        vals[: N // 8] += 3.0
        vals[: N // 32] += 6.0
    return vals


@pytest.mark.parametrize("N,kind,alpha,sigma", [
    (128, "logspike", 0.0, 1.5),
    (256, "logspike", 0.25, math.e),
    (128, "staircase", -0.3, 1.3),
    (256, "staircase", 0.0, math.e),
    (256, "walk_spike", 0.2, 1.4),
    (64, "walk", 0.0, math.e),
])
def test_tree_matches_exhaustive_oracle(N, kind, alpha, sigma):
    f = gf(_profile(N, kind, seed=N))
    if alpha == 0.0:
        w = constant_weight(1, 1.0, N)
    else:
        w = weight_from(regularized_power(N, alpha, x0=0.7))
    for q in (Cube((0.5,), 1.0, level=0), Cube((0.25,), 0.5, level=1)):
        root = dyadic_address(f, q)
        tree = cz_decompose(*restrict(f, w, *root), sigma=sigma, max_gen=5)
        assert tree.all_ok
        oracle = oracle_tree(f, w, q, sigma, 5)
        assert_same_trees(tree_records(tree, root=root), oracle)
        if kind != "walk" and q.level == 0:
            # guard against a vacuous comparison of empty trees
            assert len(tree.nodes) > 0


def test_tree_matches_oracle_at_small_sigma():
    # sigma close to 1 stresses deep nesting and tie handling
    rng = np.random.default_rng(9)
    N = 128
    f = gf(np.cumsum(rng.standard_normal(N)) / 10.0)
    w = weight_from(1.0 + 0.3 * np.cos(2 * np.pi * coords(N)))
    tree = cz_decompose(f, w, sigma=1.05, max_gen=5)
    oracle = oracle_tree(f, w, BOX, 1.05, 5)
    assert len(tree.nodes) > 0
    assert_same_trees(tree_records(tree), oracle)


def test_invariants_hold_on_rough_weighted_case():
    rng = np.random.default_rng(12)
    N = 1024
    x = coords(N)
    vals = np.log(np.maximum(np.abs(x - 0.37), 1.0 / N)) + \
        0.5 * np.cumsum(rng.standard_normal(N)) / math.sqrt(N)
    f = gf(vals)
    w = weight_from(np.exp(0.6 * np.sin(2 * np.pi * x)))
    tree = cz_decompose(f, w, sigma=math.e,
                        max_gen=5)
    assert tree.all_ok
    for name in "ABCDE":
        assert any(c.name == name for c in tree.checks)


def test_two_dimensional_tree_invariants():
    rng = np.random.default_rng(5)
    N = 16
    vals = rng.standard_normal((N, N))
    vals[:4, :4] += 6.0
    f = gf(vals)
    w = weight_from(np.exp(0.3 * rng.standard_normal((N, N))))
    tree = cz_decompose(f, w, sigma=2.0, max_gen=3)
    assert len(tree.nodes) >= 1
    assert tree.all_ok


# ---------------------------------------------------------------------------
# node-for-node agreement with a block-by-block queue


def bfs_tree(f, w, root, sigma, max_gen):
    """The stopping-time descent below the full grid's block root =
    (level, block), as a first-in first-out queue of single blocks,
    children tested one at a time.

    Returns the generations and the number of queued blocks whose children
    hold more than one sample, which cz_decompose reports as
    blocks_visited.
    """
    kq, b0 = root
    local = cube_local_constants(*restrict(f, w, kq, b0))
    norm = local.blo
    generations = [[] for _ in range(max_gen)]
    if norm == 0.0:
        return generations, 0
    n, N = f.n, f.N
    depth = int(math.log2(N))
    T = local.a_w * sigma
    fp = f.pyramid
    scaled_sum = {k: fp.sum(k) / norm for k in range(kq, depth + 1)}
    scaled_min = {k: fp.min(k) / norm for k in range(kq, depth + 1)}

    def children(k, b):
        if n == 1:
            return [2 * b, 2 * b + 1]
        i, j = divmod(b, 1 << k)
        return [(2 * i + di) * (1 << (k + 1)) + (2 * j + dj)
                for di in (0, 1) for dj in (0, 1)]

    next_id = 1
    visited = 0
    # work items: (level, block, stopping-cube min, generation, parent id)
    queue = deque([(kq, b0, float(scaled_min[kq][b0]), 1, 0)])
    while queue:
        k, b, m_s, gen, pid = queue.popleft()
        if k == depth:
            continue
        cnt = (N >> (k + 1)) ** n
        visited += cnt > 1
        for child in children(k, b):
            mean = float(scaled_sum[k + 1][child]) / cnt - m_s
            if mean > T and cnt > 1:
                cmin = float(scaled_min[k + 1][child])
                generations[gen - 1].append(SelectedCube(
                    k + 1, child, gen, next_id, pid, mean, cmin - m_s))
                if gen < max_gen:
                    queue.append((k + 1, child, cmin, gen + 1, next_id))
                next_id += 1
            elif cnt > 1:
                queue.append((k + 1, child, m_s, gen, pid))
    return generations, visited


def assert_tree_is_bfs(f, w, root, sigma, max_gen):
    """cz_decompose of the root block's restriction equals the queue
    reference on the full grid exactly, nothing sorted."""
    tree = cz_decompose(*restrict(f, w, *root), sigma=sigma, max_gen=max_gen)
    generations, visited = bfs_tree(f, w, root, sigma, max_gen)
    assert lifted_generations(f.n, root, tree) == \
        tuple(tuple(g) for g in generations)
    assert tree.blocks_visited == visited
    return tree


def lifted_generations(n, root, tree):
    return tuple(tuple(lift(n, root, s) for s in g) for g in tree.generations)


def _nested_2d(N, seed):
    """Noise plus three nested staircases of squares, so that 2D trees
    have several nodes per generation and several generations."""
    rng = np.random.default_rng(seed)
    vals = 0.3 * rng.standard_normal((N, N))
    for r, c in ((0, 0), (N // 2, N // 4), (N // 4, 3 * N // 4)):
        b, amp = N // 2, 1.0
        while b >= 2:
            vals[r:r + b, c:c + b] += amp
            amp *= 2.0
            b //= 4
    return gf(vals), weight_from(np.exp(0.3 * rng.standard_normal((N, N))))


@pytest.mark.parametrize("N,kind,alpha,sigma", [
    (128, "logspike", 0.0, 1.5),
    (256, "staircase", -0.3, 1.3),
    (256, "walk_spike", 0.2, 1.4),
])
def test_tree_ids_match_queue_reference_1d(N, kind, alpha, sigma):
    f = gf(_profile(N, kind, seed=N))
    w = weight_from(regularized_power(N, alpha, x0=0.7))
    trees = [assert_tree_is_bfs(f, w, root, sigma, 5)
             for root in ((0, 0), (1, 0), (1, 1))]
    assert all(t.all_ok for t in trees)
    assert len(trees[0].nodes) > 1 and len(trees[1].nodes) > 1


@pytest.mark.parametrize("sigma", [1.2, 1.5])
def test_tree_ids_match_queue_reference_2d(sigma):
    f, w = _nested_2d(16, 5)
    # the box, then the level-1 sub-cubes at row 0, column 1 (row-major
    # block 1) and at row 1, column 0 (block 2)
    for root in ((0, 0), (1, 1), (1, 2)):
        tree = assert_tree_is_bfs(f, w, root, sigma, 4)
        assert tree.all_ok
        assert [len(g) > 0 for g in tree.generations] == \
            [True, True, False, False]
    assert dyadic_address(f, Cube((0.75, 0.25), 0.5, level=1)) == (1, 2)


@pytest.mark.parametrize("n", [1, 2])
def test_tree_is_truncated_at_max_gen(n):
    if n == 1:
        f = gf(_profile(256, "staircase"))
        w = constant_weight(1, 1.0, 256)
        sigma = 1.3
    else:
        f, w = _nested_2d(16, 5)
        sigma = 1.2
    deep = assert_tree_is_bfs(f, w, (0, 0), sigma, 5)
    cut = assert_tree_is_bfs(f, w, (0, 0), sigma, 1)
    assert deep.all_ok and cut.all_ok
    assert len(cut.generations) == 1
    assert len(cut.generations[0]) > 0
    # the cut removes every deeper generation and renumbers nothing of the
    # first: a generation-1 cube's descendants take no ids
    assert sum(len(g) for g in deep.generations[1:]) > 0
    assert [(s.level, s.block, s.parent) for s in cut.nodes] == \
        [(s.level, s.block, s.parent) for s in deep.generations[0]]


@pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
def test_roots_at_the_last_two_levels_have_no_descent(n, N):
    rng = np.random.default_rng(N)
    f = gf(rng.standard_normal((N,) * n))
    w = weight_from(rng.uniform(0.5, 2.0, (N,) * n))
    depth = int(math.log2(N))
    for kq in (depth, depth - 1):
        s = 1.0 / (1 << kq)
        root = dyadic_address(f, Cube((1.5 * s,) * n, s, level=kq))
        assert root[0] == kq
        tree = assert_tree_is_bfs(f, w, root, 1.01, 5)
        assert tree.all_ok
        assert tree.nodes == ()
        assert tree.blocks_visited == 0
        # a two-sample root has a positive norm, so its checks still run
        assert (len(tree.checks) > 0) == (kq == depth - 1)


def _nested_steps(rng, n, N, kq, root):
    """Noise plus three random staircases inside the root block: each
    step may add a rising plateau on one random child of the last block."""
    vals = 0.2 * rng.standard_normal((N,) * n)
    depth = int(math.log2(N))
    for _ in range(3):
        idx = np.array(root)
        amp = 1.0
        for k in range(kq + 1, depth + 1):
            idx = 2 * idx + rng.integers(0, 2, n)
            if rng.random() < 0.7:
                size = N >> k
                vals[tuple(slice(i * size, (i + 1) * size) for i in idx)] += amp
                amp *= rng.uniform(1.5, 4.0)
    return vals


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10_000), st.sampled_from([1, 2]), st.integers(1, 7),
       st.floats(1.01, 3.0), st.integers(1, 4), st.integers(0, 2))
def test_tree_matches_queue_reference_property(seed, n, depth, sigma,
                                               max_gen, kq):
    if n == 2:
        depth = min(depth, 4)
    N = 1 << depth
    kq = min(kq, depth)
    rng = np.random.default_rng(seed)
    root = rng.integers(0, 1 << kq, n)
    f = gf(_nested_steps(rng, n, N, kq, root))
    w = weight_from(rng.uniform(0.8, 1.25, (N,) * n))
    b = int(np.ravel_multi_index(tuple(root), (1 << kq,) * n))
    assert_tree_is_bfs(f, w, (kq, b), sigma, max_gen)


@pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
def test_restricted_trees_match_full_grid_oracles_at_every_root(n, N):
    rng = np.random.default_rng(10)
    f = gf(_nested_steps(rng, n, N, 0, np.zeros(n, dtype=int)))
    w = weight_from(rng.uniform(0.8, 1.25, (N,) * n))
    family = dyadic_cubes(f, int(math.log2(N)))
    nodes = 0
    for q, k, b in zip(family, family.levels.tolist(), family.blocks.tolist()):
        root = (k, b)
        local = assert_local_constants_are_the_scan(f, w, family, q)
        tree = assert_tree_is_bfs(f, w, root, 1.2, 4)
        assert tree.local == local
        if local.blo > 0:
            assert list(tree.checks) == verify_tree_reference(
                f, root, 1.2, local.a_w, local.blo,
                lifted_generations(n, root, tree))
        if n == 1:
            assert_same_trees(tree_records(tree, root=root),
                              oracle_tree(f, w, q, 1.2, 4))
        nodes += len(tree.nodes)
    assert nodes > 0


# ---------------------------------------------------------------------------
# the invariant checks fail on broken generations


def _node(k, b, gen, id, parent):
    """A selected level-k cube at row-major block b, with B and C scores
    that pass at sigma 2 and A_w 1."""
    return SelectedCube(k, b, gen, id, parent, 3.0, 0.0)


def _records(f, generations):
    checks = _verify_tree(f, 2.0, 1.0, 1.0, generations)
    return {(c.name, c.gen): c for c in checks}


def verify_tree_reference(f, root, sigma, a_w, norm, generations):
    """The invariant checks with one full pass over the grid per
    generation, empty or not: the reference for _verify_tree, which
    judges an empty generation without a pass."""
    n, N = f.n, f.N
    h = f.L / N
    slack = 1.0 + 1e-12
    checks = []
    q = block_cells(n, N, *root)
    scaled = f.values / norm
    m_q = scaled[q].size * h**n
    min_q = float(scaled[q].min())
    owner = np.full(f.values.shape, -1)
    owner[q] = 0
    bound_bc = 2**n * sigma * a_w
    for gen_idx, gen in enumerate(generations, start=1):
        covered = np.zeros(f.values.shape, dtype=np.int64)
        next_owner = np.full(f.values.shape, -1)
        inside_ok = True
        total = 0.0
        worst_b = 0.0
        worst_c_hi = 0.0
        worst_c_lo = 0.0
        for s in gen:
            cells = block_cells(n, N, s.level, s.block)
            covered[cells] += 1
            inside_ok = inside_ok and bool((owner[cells] == s.parent).all())
            next_owner[cells] = s.id
            total += covered[cells].size * h**n
            worst_b = max(worst_b, s.osc_mean)
            worst_c_hi = max(worst_c_hi, s.min_inc)
            worst_c_lo = min(worst_c_lo, s.min_inc)
        owner = next_owner
        a_ok = inside_ok and not (covered > 1).any()
        b_lo_ok = all(s.osc_mean > sigma * a_w for s in gen)
        checks.append(InvariantRecord("A", gen_idx, 0.0 if a_ok else 1.0,
                                      0.0, a_ok))
        checks.append(InvariantRecord("B", gen_idx, worst_b, bound_bc,
                                      b_lo_ok and worst_b <= bound_bc * slack))
        checks.append(InvariantRecord(
            "C", gen_idx, worst_c_hi, bound_bc,
            worst_c_lo >= -1e-12 and worst_c_hi <= bound_bc * slack))
        checks.append(InvariantRecord(
            "D", gen_idx, total, m_q / sigma**gen_idx,
            total <= m_q / sigma**gen_idx * slack))
        off = scaled[q][covered[q] == 0]
        e_bound = gen_idx * sigma * 2**n * a_w
        e_val = float((off - min_q).max()) if off.size else 0.0
        checks.append(InvariantRecord("E", gen_idx, e_val, e_bound,
                                      e_val <= e_bound * slack))
    return checks


def _trees_with_empty_generations():
    yield gf(_profile(256, "staircase")), constant_weight(1, 1.0, 256), 1.3
    yield gf(_profile(128, "logspike")), constant_weight(1, 1.0, 128), 1.5
    f = gf(_profile(256, "logspike"))
    yield f, weight_from(regularized_power(256, 0.25, x0=0.7)), math.e
    f, w = _nested_2d(16, 5)
    yield f, w, 1.2
    yield f, w, 1.5


@pytest.mark.parametrize("case", range(5))
def test_empty_generations_are_judged_as_by_a_full_pass(case):
    f, w, sigma = list(_trees_with_empty_generations())[case]
    tree = cz_decompose(f, w, sigma=sigma, max_gen=5)
    sizes = [len(g) for g in tree.generations]
    # a non-empty generation followed by empty ones
    assert sizes[0] > 0 and sizes[-1] == 0
    reference = verify_tree_reference(f, (0, 0), sigma, tree.local.a_w,
                                      tree.local.blo, tree.generations)
    assert list(tree.checks) == reference
    assert tree.all_ok


@pytest.mark.parametrize("n", [1, 2])
def test_generation_after_an_empty_one_fails_check_a(n):
    # a corrupted tree: generation 2 is empty, so nothing owns the cubes
    # of generation 3, whichever parent they name
    f = gf(np.arange(16.0 ** n).reshape((16,) * n))
    first = _node(1, 0, 1, 1, 0)
    for parent in (0, 1):
        generations = [[first], [], [_node(2, 0, 3, 2, parent)]]
        checks = _verify_tree(f, 2.0, 1.0, 1.0, generations)
        assert checks == verify_tree_reference(f, (0, 0), 2.0, 1.0, 1.0,
                                               generations)
        recs = {(c.name, c.gen): c for c in checks}
        assert recs[("A", 1)].ok and recs[("A", 2)].ok
        assert not recs[("A", 3)].ok


@pytest.mark.parametrize("n", [1, 2])
def test_overlapping_cubes_fail_check_a(n):
    f = gf(np.zeros((16,) * n))
    # level-2 block 1 (2D: block 5, row 1 column 1) lies inside level-1
    # block 0; level-2 block 2 (2D: block 10) does not
    inner, outer = (1, 2) if n == 1 else (5, 10)
    bad = [[_node(1, 0, 1, 1, 0), _node(2, inner, 1, 2, 0)]]
    good = [[_node(1, 0, 1, 1, 0), _node(2, outer, 1, 2, 0)]]
    assert not _records(f, bad)[("A", 1)].ok
    assert _records(f, bad)[("A", 1)].value == 1.0
    assert _records(f, good)[("A", 1)].ok


@pytest.mark.parametrize("n", [1, 2])
def test_child_outside_its_parent_fails_check_a(n):
    f = gf(np.zeros((16,) * n))
    inner, outer = (1, 2) if n == 1 else (5, 2)
    parent = _node(1, 0, 1, 1, 0)
    for child, ok in ((_node(2, inner, 2, 2, 1), True),
                      (_node(2, outer, 2, 2, 1), False),
                      # inside the parent's cube but naming the root
                      (_node(2, inner, 2, 2, 0), False)):
        recs = _records(f, [[parent], [child]])
        assert recs[("A", 1)].ok
        assert recs[("A", 2)].ok is ok


@pytest.mark.parametrize("n", [1, 2])
def test_cube_below_the_finest_level_fails_check_a(n):
    # a level-5 block of a 16-sample axis holds no sample; block_cells
    # gives it empty slices, so only a level check can see it
    f = gf(np.zeros((16,) * n))
    assert _records(f, [[_node(4, 0, 1, 1, 0)]])[("A", 1)].ok
    assert not _records(f, [[_node(5, 0, 1, 1, 0)]])[("A", 1)].ok


@pytest.mark.parametrize("n", [1, 2])
def test_uncovered_high_sample_is_recorded_by_check_e(n):
    vals = np.zeros((16,) * n)
    vals[(12,) * n] = 9.0
    vals[(1,) * n] = -1.0
    f = gf(vals)
    far, near = (0, 1) if n == 1 else (0, 3)
    recs = _records(f, [[_node(1, far, 1, 1, 0)], []])
    # min_Q f is -1, covered by the generation-1 cube; the spike is not,
    # and it exceeds the bound sigma 2^n A_w of generation 1
    assert recs[("E", 1)].value == 10.0
    assert not recs[("E", 1)].ok
    assert recs[("E", 2)].value == 10.0
    recs = _records(f, [[_node(1, near, 1, 1, 0)], []])
    # off the cube covering the spike, f - min_Q f is 0 - (-1)
    assert recs[("E", 1)].value == 1.0
    assert recs[("E", 1)].ok


# ---------------------------------------------------------------------------
# distribution function and layer cake


def test_distribution_matches_per_sample_recount():
    rng = np.random.default_rng(7)
    N = 64
    g = gf(rng.standard_normal(N))
    w = weight_from(regularized_power(N, 0.4))
    h = 1.0 / N
    lambdas = np.sort(np.unique(np.concatenate([
        g.values[::5], [-10.0, 0.0, 10.0]])))
    for kind, p in (("lebesgue", None), ("weight", None),
                    ("power_weight", 2.0)):
        d = distribution_function(g, kind, w, lambdas, p=p)
        for lam, mass in zip(lambdas, d):
            total = 0.0
            for i in range(N):
                if g.values[i] > lam:
                    if kind == "lebesgue":
                        total += h
                    elif kind == "weight":
                        total += w.values[i] * h
                    else:
                        total += w.values[i] ** (1 - p) * h
            assert mass == pytest.approx(total, rel=1e-12, abs=1e-15)


def test_distribution_edges_and_validation():
    g = gf(np.arange(8.0))
    w = constant_weight(1, 1.0, 8)
    d = distribution_function(g, "lebesgue", w, [-1.0, 7.5])
    assert d[0] == pytest.approx(1.0)
    assert d[1] == 0.0
    assert np.all(np.diff(d) <= 0)
    with pytest.raises(ValueError):
        distribution_function(g, "lebesgue", w, [1.0, 1.0])
    with pytest.raises(ValueError):
        distribution_function(g, "volume", w, [1.0])
    with pytest.raises(ValueError):
        distribution_function(g, "power_weight", w, [1.0])


def test_distribution_indicator_mass():
    vals = np.zeros(16)
    vals[:4] = 1.0
    g = gf(vals)
    w = weight_from(np.linspace(1.0, 2.0, 16))
    d = distribution_function(g, "weight", w, [0.5])
    assert d[0] == pytest.approx(w.values[:4].sum() / 16.0, rel=1e-12)


def test_layer_cake_step_mode_is_exact():
    rng = np.random.default_rng(11)
    N = 128
    w = weight_from(np.exp(0.5 * rng.standard_normal(N)))
    for vals in (np.sin(2 * np.pi * 3 * coords(N)),
                 rng.choice([0.0, 0.7, -1.3], size=N)):
        g = gf(vals)
        for p in (1.0, 2.0, 3.0):
            lhs, rhs, gap = layer_cake_check(g, w, p, mode="step")
            assert gap < 1e-12


def test_layer_cake_trapezoid_converges_on_smooth_data():
    N = 256
    x = coords(N)
    g = gf(1.0 + 0.5 * np.sin(2 * np.pi * x))
    w = weight_from(1.0 + 0.2 * np.cos(2 * np.pi * x))
    lhs, rhs, gap = layer_cake_check(g, w, 2.0, mode="trapezoid",
                                     nodes=10**4)
    assert gap < 1e-3
    coarse = layer_cake_check(g, w, 2.0, mode="trapezoid", nodes=100)[2]
    assert gap < coarse


def test_layer_cake_auto_and_validation():
    g = gf(np.arange(16.0))
    w = constant_weight(1, 1.0, 16)
    lhs, rhs, gap = layer_cake_check(g, w, 2.0, mode="auto")
    assert gap < 1e-12
    with pytest.raises(ValueError):
        layer_cake_check(g, w, 0.5)
    with pytest.raises(ValueError):
        layer_cake_check(g, w, 2.0, mode="simpson")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_distribution_refuses_non_finite_thresholds(bad):
    g = gf(np.arange(8.0))
    w = constant_weight(1, 1.0, 8)
    with pytest.raises(ValueError, match="finite"):
        distribution_function(g, "lebesgue", w, [1.0, bad])


def test_distribution_reads_a_2d_sub_cube_as_cube_region_gathers_it():
    rng = np.random.default_rng(5)
    N = 16
    g = gf(rng.standard_normal((N, N)))
    w = weight_from(rng.uniform(0.5, 2.0, (N, N)))
    h = 1.0 / N
    q = dyadic_cube(2, 1.0, 2, 9)  # the level-2 cube at block (2, 1)
    sub_g, sub_w = restrict(g, w, 2, 9)
    idx = cube_region(g, q)
    gv = g.values.ravel()[idx]
    wv = w.values.ravel()[idx]
    lambdas = np.linspace(-2.0, 2.0, 17)
    order = np.argsort(gv)
    pos = np.searchsorted(gv[order], lambdas, side="right")
    # h^2 is a power of two, so the Lebesgue prefix sums are exact counts
    for kind, p, mu in (("lebesgue", None, np.full(gv.size, h**2)),
                        ("weight", None, wv * h**2),
                        ("power_weight", 3.0, wv ** (1.0 - 3.0) * h**2)):
        prefix = np.concatenate([[0.0], np.cumsum(mu[order])])
        expect = prefix[-1] - prefix[pos]
        masses = distribution_function(sub_g, kind, sub_w, lambdas, p=p)
        assert masses.tolist() == expect.tolist()
    lhs = float((np.abs(gv) ** 2 * wv * h**2).sum())
    assert layer_cake_check(sub_g, sub_w, 2.0, mode="step")[0] == lhs


# ---------------------------------------------------------------------------
# exponential tail bounds


def _rough_function(N, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    steps = rng.choice([-1.0, 1.0], size=N) * rng.uniform(0.1, 1.0, size=N)
    return gf(scale * np.cumsum(steps) / math.sqrt(N))


def test_jn_blo_bound_holds_with_margin():
    f = _rough_function(512, 21)
    w = constant_weight(1, 1.0, 512)
    span = float(f.values.max() - f.values.min())
    lambdas = np.linspace(span / 64, span, 32)
    rep = jn_blo_verify(f, w, lambdas)
    assert rep.all_ok
    assert rep.worst_margin >= 1.0
    assert rep.rows[-1].measured == 0.0


def test_jn_bmo_variant_holds():
    f = _rough_function(512, 22)
    w = weight_from(regularized_power(512, 0.2))
    span = float(np.abs(f.values - f.values.mean()).max())
    rep = jn_bmo_verify(f, w, np.linspace(span / 32, span, 24))
    assert rep.kind == "bmo"
    assert rep.all_ok


def test_jn_rescaling_invariance():
    f = _rough_function(256, 23)
    w = constant_weight(1, 1.0, 256)
    lam = np.linspace(0.05, 2.0, 16)
    rep1 = jn_blo_verify(f, w, lam)
    c = 7.3
    rep2 = jn_blo_verify(f.with_values(c * f.values), w, c * lam)
    assert rep1.all_ok and rep2.all_ok
    for r1, r2 in zip(rep1.rows, rep2.rows):
        assert r1.measured == pytest.approx(r2.measured, abs=1e-15)
        assert r1.bound == pytest.approx(r2.bound, rel=1e-12)


@pytest.mark.parametrize("kind", ["blo", "bmo"])
def test_tail_counts_match_a_comparison_pass(kind):
    # few distinct values, so the lambda grid hits sample values exactly
    rng = np.random.default_rng(8)
    f = gf(rng.integers(-4, 5, 64) * 0.25)
    w = weight_from(rng.uniform(0.5, 2.0, 64))
    fv = f.values
    dev = fv - fv.min() if kind == "blo" else np.abs(fv - fv.mean())
    lams = np.concatenate([np.unique(dev), np.unique(dev) + 0.125, [-1.0]])
    verify = jn_blo_verify if kind == "blo" else jn_bmo_verify
    rep = verify(f, w, lams)
    assert [r.measured for r in rep.rows] == \
        [float((dev > lam).sum()) * f.h for lam in lams]
    # the local constants, when handed in, are the ones computed inside
    shared = verify(f, w, lams, local=cube_local_constants(f, w))
    assert shared == rep


def test_jn_returns_a_report_with_a_positive_bound():
    f = _rough_function(64, 25)
    w = constant_weight(1, 1.0, 64)
    rep = jn_blo_verify(f, w, [0.01])
    assert rep.rows[0].bound > 0


@pytest.mark.parametrize("verify", [jn_blo_verify, jn_bmo_verify])
def test_jn_report_fails_a_violated_tail_bound(verify):
    # a norm 1e-3 times the true one shrinks the bound far below the tails
    f = _rough_function(256, 26)
    w = weight_from(regularized_power(256, 0.2))
    local = cube_local_constants(f, w)
    small = dataclasses.replace(local, blo=local.blo * 1e-3,
                                bmo=local.bmo * 1e-3)
    lams = np.linspace(0.0, 0.5, 11)
    assert not verify(f, w, lams, local=small).all_ok
    # the true constants pass the same thresholds
    assert verify(f, w, lams, local=local).all_ok


@pytest.mark.parametrize("verify", [jn_blo_verify, jn_bmo_verify])
def test_tails_with_the_trees_local_constants_equal_a_fresh_report(verify):
    # cli._jn_row decomposes first and hands tree.local to both tail
    # checks; that must give the report the checks compute on their own
    f = _rough_function(128, 31, scale=3.0)
    w = weight_from(regularized_power(128, 0.2))
    tree = cz_decompose(f, w, sigma=1.3, max_gen=4)
    assert len(tree.nodes) > 0
    lams = np.linspace(0.0, 2.0, 9)
    assert verify(f, w, lams, local=tree.local) == verify(f, w, lams)


@pytest.mark.parametrize("verify", [jn_blo_verify, jn_bmo_verify])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_jn_refuses_non_finite_thresholds(bad, verify):
    # a NaN bound fails every comparison, so without the refusal the report
    # would fail with no reason given
    f = _rough_function(64, 25)
    w = constant_weight(1, 1.0, 64)
    with pytest.raises(ValueError, match="thresholds lambda must be finite"):
        verify(f, w, [bad, 0.1])


# ---------------------------------------------------------------------------
# equivalence constant


def test_equivalence_constant_pinned_value():
    k = equivalence_constant(2.0, 1, 1.0, 1.0)
    assert k == pytest.approx(260.0 * math.e * math.exp(1.0 / 130.0),
                              rel=1e-12)


def test_equivalence_constant_scaling_and_validation():
    base = equivalence_constant(2.0, 1, 1.0, 1.0)
    assert equivalence_constant(2.0, 1, 3.5, 1.0) == pytest.approx(
        3.5 * base, rel=1e-12)
    assert equivalence_constant(2.0, 1, 1.0, 4.0) > base
    with pytest.raises(ValueError):
        equivalence_constant(1.0, 1, 1.0, 1.0)


# every function taking an exponent p, as one number from (f, w, p) on
# the unit interval
P_TAKERS = {
    "ap_constant": lambda f, w, p: ap_constant(w, p, dyadic_cubes(f, 2)),
    "blo_p_norm": lambda f, w, p: blo_p_norm(f, w, p,
                                             dyadic_cubes(f, 2)).value,
    "single_cube_value": lambda f, w, p: single_cube_value("blo_p", f, w,
                                                           BOX, p),
    "layer_cake_check": lambda f, w, p: layer_cake_check(f, w, p)[1],
    "equivalence_constant": lambda f, w, p: equivalence_constant(p, 1, 1.0,
                                                                 1.0),
}


@pytest.mark.parametrize("p", [np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(P_TAKERS))
def test_non_finite_exponent_is_refused(name, p):
    # NaN passed every "p < 1" check, and these returned NaN (or raised
    # ZeroDivisionError) instead of refusing
    f = gf(np.sin(2 * np.pi * coords(16)))
    w = weight_from(0.5 + coords(16))
    assert math.isfinite(P_TAKERS[name](f, w, 2.0))
    with pytest.raises(ValueError, match="p must be finite"):
        P_TAKERS[name](f, w, p)


# ---------------------------------------------------------------------------
# property tests


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_unweighted_tail_bound_property(seed):
    f = _rough_function(32, seed)
    w = constant_weight(1, 1.0, 32)
    span = float(f.values.max() - f.values.min())
    if span == 0.0:
        return
    rep = jn_blo_verify(f, w, np.linspace(span / 8, 2 * span, 9))
    assert rep.all_ok


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.floats(1.0, 3.0))
def test_layer_cake_identity_property(seed, p):
    rng = np.random.default_rng(seed)
    g = gf(rng.uniform(-2.0, 2.0, size=16))
    w = weight_from(rng.uniform(0.5, 2.0, size=16))
    lhs, rhs, gap = layer_cake_check(g, w, p, mode="step")
    assert gap < 1e-10
