"""Stopping-time decomposition, distribution functions, and tail bounds.

The decomposition descends the dyadic children of a root cube Q and selects
a child the first time the mean of f - min_{S} f (S the stopping cube being
subdivided) exceeds sigma * A_w, where A_w is the local A1 constant times
the minimum of the weight on Q and f has been rescaled by its oscillation
norm.  Selected cubes seed the next generation.  Five structural facts are
recorded on every constructed tree:

  (A) generation cubes are disjoint and each sits inside its parent;
  (B) the triggering mean lies in (sigma A_w, 2^n sigma A_w];
  (C) the child minimum exceeds the parent minimum by at most 2^n sigma A_w;
  (D) generation k has total measure at most m(Q)/sigma^k;
  (E) off the generation-k cubes, f - min_Q f <= k sigma 2^n A_w.

(B), (C), (E) and the k=1 case of (D) follow from the selection rule in
exact discrete arithmetic; deeper (D) levels also depend on how the weight
varies inside Q, so they are measured and recorded rather than assumed.
Descent bottoms out at single-sample cubes, which are never selected; this
is what turns the almost-everywhere differentiation step of the continuum
argument into the 2^n factor of (E).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .grid import (
    Cube,
    GridFunction,
    Region,
    cube_region,
    dyadic_address,
)
from .weights import Weight

__all__ = [
    "SelectedCube",
    "InvariantRecord",
    "DecompositionTree",
    "LocalConstants",
    "cube_local_constants",
    "cz_decompose",
    "DistributionFunction",
    "distribution_function",
    "layer_cake_check",
    "JnRow",
    "JnReport",
    "jn_blo_verify",
    "jn_bmo_verify",
    "equivalence_constant",
    "save_tree",
    "jn_csv",
]


@dataclass(frozen=True)
class SelectedCube:
    cube: Cube
    gen: int
    id: int
    parent: int
    osc_mean: float
    min_inc: float


@dataclass(frozen=True)
class InvariantRecord:
    name: str
    gen: int
    value: float
    bound: float
    ok: bool

    @property
    def margin(self) -> float:
        if self.value == 0.0:
            return float("inf")
        return self.bound / self.value


@dataclass(frozen=True)
class LocalConstants:
    """Cube-local scan over every dyadic sub-cube of Q, all depths."""

    a1: float
    min_w: float
    a_w: float
    blo: float
    bmo: float


@dataclass(frozen=True)
class DecompositionTree:
    root: Cube
    sigma: float
    max_gen: int
    a_w: float
    a1_local: float
    min_w: float
    blo_norm: float
    generations: tuple[tuple[SelectedCube, ...], ...]
    checks: tuple[InvariantRecord, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def nodes(self) -> tuple[SelectedCube, ...]:
        return tuple(s for gen in self.generations for s in gen)


class _RootBlocks:
    """Block indices of the dyadic sub-cubes of a root cube Q."""

    def __init__(self, n: int, N: int, kq: int, addr: tuple[int, ...]):
        self.n = n
        self.N = N
        self.kq = kq
        self.addr = addr
        self.depth = int(math.log2(N))

    def count(self, k: int) -> int:
        return (self.N >> k) ** self.n

    def q_blocks(self, k: int) -> np.ndarray:
        """Flat block indices at level k lying inside Q, row-major."""
        r = k - self.kq
        if self.n == 1:
            b0 = self.addr[0]
            return np.arange(b0 << r, (b0 + 1) << r)
        bi, bj = self.addr
        rows = np.arange(bi << r, (bi + 1) << r)
        cols = np.arange(bj << r, (bj + 1) << r)
        return (rows[:, None] * (1 << k) + cols[None, :]).ravel()

    def children(self, k: int, b: int) -> list[int]:
        if self.n == 1:
            return [2 * b, 2 * b + 1]
        i, j = divmod(b, 1 << k)
        out = []
        for di in (0, 1):
            for dj in (0, 1):
                out.append((2 * i + di) * (1 << (k + 1)) + (2 * j + dj))
        return out

    def block_cube(self, L: float, k: int, b: int) -> Cube:
        s = L / (1 << k)
        if self.n == 1:
            return Cube(((b + 0.5) * s,), s, level=k)
        i, j = divmod(b, 1 << k)
        return Cube(((i + 0.5) * s, (j + 0.5) * s), s, level=k)

    def block_samples(self, k: int, b: int) -> np.ndarray:
        blk = self.N >> k
        if self.n == 1:
            return np.arange(b * blk, (b + 1) * blk)
        i, j = divmod(b, 1 << k)
        rows = np.arange(i * blk, (i + 1) * blk)
        cols = np.arange(j * blk, (j + 1) * blk)
        return (rows[:, None] * self.N + cols[None, :]).ravel()


def _root_blocks(f: GridFunction, Q: Cube) -> _RootBlocks:
    addr = dyadic_address(f, Q)
    if addr is None:
        raise ValueError("root cube must be a dyadic cube of the grid")
    kq, flat = addr
    if f.n == 1:
        a = (flat,)
    else:
        a = divmod(flat, 1 << kq)
    return _RootBlocks(f.n, f.N, kq, a)


def cube_local_constants(f: GridFunction, w: Weight, Q: Cube) -> LocalConstants:
    """A1, min, oscillation norms over all full-depth dyadic sub-cubes of Q."""
    rb = _root_blocks(f, Q)
    fp, wp = f.pyramid, w.pyramid
    a1 = 0.0
    blo = 0.0
    bmo = 0.0
    for k in range(rb.kq, rb.depth + 1):
        idx = rb.q_blocks(k)
        cnt = rb.count(k)
        wsum = wp.sum(k)[idx]
        wmin = wp.min(k)[idx]
        a1 = max(a1, float((wsum / cnt / wmin).max()))
        fsum = fp.sum(k)[idx]
        fmin = fp.min(k)[idx]
        blo = max(blo, float(((fsum - cnt * fmin) / wsum).max()))
        bmo = max(bmo, float((fp.absdev(k)[idx] / wsum).max()))
    kq_idx = rb.q_blocks(rb.kq)
    min_w = float(wp.min(rb.kq)[kq_idx].min())
    return LocalConstants(a1, min_w, a1 * min_w, blo, bmo)


def cz_decompose(f: GridFunction, w: Weight, Q: Cube, sigma: float = math.e,
                 max_gen: int = 5) -> DecompositionTree:
    """Stopping-time tree for f on Q with threshold sigma * A_w."""
    if not sigma > 1:
        raise ValueError("sigma must exceed 1")
    if max_gen < 1:
        raise ValueError("max_gen must be at least 1")
    rb = _root_blocks(f, Q)
    kq = rb.kq
    local = cube_local_constants(f, w, Q)
    a_w = local.a_w
    norm = local.blo
    n, N, L = f.n, f.N, f.L
    depth = rb.depth
    h = L / N

    generations: list[list[SelectedCube]] = [[] for _ in range(max_gen)]
    if norm == 0.0:
        tree = DecompositionTree(Q, sigma, max_gen, a_w, local.a1, local.min_w,
                                 0.0, tuple(tuple(g) for g in generations), ())
        return tree

    T = a_w * sigma
    fp = f.pyramid
    scaled_sum = {k: fp.sum(k) / norm for k in range(kq, depth + 1)}
    scaled_min = {k: fp.min(k) / norm for k in range(kq, depth + 1)}

    next_id = 1
    # work items: (level, block, stopping-cube min, generation, parent id)
    root_block = rb.addr[0] if n == 1 else rb.addr[0] * (1 << kq) + rb.addr[1]
    queue = deque([(kq, root_block, float(scaled_min[kq][root_block]), 1, 0)])
    while queue:
        k, b, m_s, gen, pid = queue.popleft()
        if k == depth:
            continue
        for child in rb.children(k, b):
            cnt = rb.count(k + 1)
            mean = float(scaled_sum[k + 1][child]) / cnt - m_s
            if mean > T and cnt > 1:
                cube = rb.block_cube(L, k + 1, child)
                cmin = float(scaled_min[k + 1][child])
                sel = SelectedCube(cube, gen, next_id, pid, mean, cmin - m_s)
                generations[gen - 1].append(sel)
                if gen < max_gen:
                    queue.append((k + 1, child, cmin, gen + 1, next_id))
                next_id += 1
            elif cnt > 1:
                queue.append((k + 1, child, m_s, gen, pid))
    for g in generations:
        g.sort(key=lambda s: s.id)

    checks = _verify_tree(f, rb, Q, sigma, a_w, norm, max_gen, generations, h)
    return DecompositionTree(Q, sigma, max_gen, a_w, local.a1, local.min_w,
                             norm, tuple(tuple(g) for g in generations),
                             tuple(checks))


def _verify_tree(f, rb: _RootBlocks, Q, sigma, a_w, norm, max_gen,
                 generations, h) -> list[InvariantRecord]:
    n, N = rb.n, rb.N
    depth = rb.depth
    slack = 1.0 + 1e-12
    checks: list[InvariantRecord] = []
    q_samples = rb.block_samples(rb.kq, rb.addr[0] if n == 1
                                 else rb.addr[0] * (1 << rb.kq) + rb.addr[1])
    m_q = q_samples.size * h**n
    scaled = f.values.ravel() / norm
    min_q = float(scaled[q_samples].min())
    parent_samples: dict[int, set] = {0: set(q_samples.tolist())}
    bound_bc = 2**n * sigma * a_w
    for gen_idx, gen in enumerate(generations, start=1):
        covered: set[int] = set()
        overlap_ok = True
        inside_ok = True
        total = 0.0
        worst_b = 0.0
        worst_c_hi = 0.0
        worst_c_lo = 0.0
        for s in gen:
            k, b = dyadic_address(f, s.cube)
            samp = rb.block_samples(k, b)
            sset = set(samp.tolist())
            if covered & sset:
                overlap_ok = False
            covered |= sset
            if not sset <= parent_samples[s.parent]:
                inside_ok = False
            parent_samples[s.id] = sset
            total += samp.size * h**n
            worst_b = max(worst_b, s.osc_mean)
            worst_c_hi = max(worst_c_hi, s.min_inc)
            worst_c_lo = min(worst_c_lo, s.min_inc)
        b_lo_ok = all(s.osc_mean > sigma * a_w for s in gen)
        checks.append(InvariantRecord("A", gen_idx, 0.0 if (overlap_ok and inside_ok) else 1.0,
                                      0.0, overlap_ok and inside_ok))
        checks.append(InvariantRecord("B", gen_idx, worst_b, bound_bc,
                                      b_lo_ok and worst_b <= bound_bc * slack))
        checks.append(InvariantRecord("C", gen_idx, worst_c_hi, bound_bc,
                                      worst_c_lo >= -1e-12 and worst_c_hi <= bound_bc * slack))
        checks.append(InvariantRecord("D", gen_idx, total, m_q / sigma**gen_idx,
                                      total <= m_q / sigma**gen_idx * slack))
        off = np.setdiff1d(q_samples, np.fromiter(covered, dtype=np.int64, count=len(covered)),
                           assume_unique=False)
        e_bound = gen_idx * sigma * 2**n * a_w
        e_val = float((scaled[off] - min_q).max()) if off.size else 0.0
        checks.append(InvariantRecord("E", gen_idx, e_val, e_bound,
                                      e_val <= e_bound * slack))
    return checks


@dataclass(frozen=True)
class DistributionFunction:
    lambdas: np.ndarray
    masses: np.ndarray
    mu_kind: str
    p: float | None = None


def _mu_weights(mu_kind: str, w: Weight, region: Region,
                p: float | None) -> np.ndarray:
    h = w.L / w.N
    if mu_kind == "lebesgue":
        return np.full(region.size, h**w.n)
    if mu_kind == "weight":
        return w.values.ravel()[region.indices] * h**w.n
    if mu_kind == "power_weight":
        if p is None:
            raise ValueError("power_weight measure needs p")
        return w.values.ravel()[region.indices] ** (1.0 - p) * h**w.n
    raise ValueError(f"unknown measure kind {mu_kind!r}")


def distribution_function(g: GridFunction, mu_kind: str, w: Weight,
                          region: Region, lambdas: Sequence[float],
                          p: float | None = None) -> DistributionFunction:
    """mu({x in region : g(x) > lambda}) for each threshold, by exact scan."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.size and np.any(np.diff(lam) <= 0):
        raise ValueError("lambda grid must be strictly increasing")
    gv = g.values.ravel()[region.indices]
    mu = _mu_weights(mu_kind, w, region, p)
    order = np.argsort(gv)
    gv_sorted = gv[order]
    # suffix sums: mass of {g > lambda} = total - prefix mass up to lambda
    prefix = np.concatenate([[0.0], np.cumsum(mu[order])])
    pos = np.searchsorted(gv_sorted, lam, side="right")
    masses = prefix[-1] - prefix[pos]
    return DistributionFunction(lam, masses, mu_kind, p)


def layer_cake_check(g: GridFunction, w: Weight, p: float, region: Region,
                     mode: str = "auto", nodes: int = 10**4) -> tuple[float, float, float]:
    """Compare the direct weighted p-th power sum with its layer-cake form.

    Step mode integrates the (piecewise constant) distribution function
    exactly over the value levels of |g| and must agree to rounding; the
    trapezoid mode uses a uniform lambda grid and is a convergence check.
    Auto picks step below 1024 distinct values.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    h = g.L / g.N
    gv = np.abs(g.values.ravel()[region.indices])
    wv = w.values.ravel()[region.indices] * h**g.n
    lhs = float((gv**p * wv).sum())
    levels = np.unique(gv)
    if mode == "auto":
        mode = "step" if levels.size <= 1024 else "trapezoid"
    if mode == "step":
        order = np.argsort(gv)
        prefix = np.concatenate([[0.0], np.cumsum(wv[order])])
        pos = np.searchsorted(gv[order], levels, side="left")
        mass_ge = prefix[-1] - prefix[pos]  # mu({|g| >= level_i})
        prev = np.concatenate([[0.0], levels[:-1]])
        rhs = float((mass_ge * (levels**p - prev**p)).sum())
    elif mode == "trapezoid":
        top = float(levels[-1]) if levels.size else 0.0
        lam = np.linspace(0.0, top * (1.0 + 1.0 / nodes) + 1e-300, nodes)
        d = distribution_function(g.with_values(np.abs(g.values)), "weight",
                                  w, region, lam).masses
        rhs = float(np.trapezoid(p * lam ** (p - 1) * d, lam))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    gap = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return lhs, rhs, gap


@dataclass(frozen=True)
class JnRow:
    lam: float
    measured: float
    bound: float

    @property
    def margin(self) -> float:
        return self.bound / self.measured if self.measured > 0 else float("inf")


@dataclass(frozen=True)
class JnReport:
    kind: str
    rows: tuple[JnRow, ...]
    a_w: float
    norm: float
    worst_margin: float

    @property
    def all_ok(self) -> bool:
        return all(r.measured <= r.bound * (1 + 1e-12) for r in self.rows)


def _jn_verify(kind: str, f: GridFunction, w: Weight, Q: Cube,
               lambdas: Sequence[float], strict: bool) -> JnReport:
    local = cube_local_constants(f, w, Q)
    reg = cube_region(f, Q)
    fv = f.values.ravel()[reg.indices]
    if kind == "blo":
        dev = fv - fv.min()
        norm = local.blo
    else:
        dev = np.abs(fv - fv.mean())
        norm = local.bmo
    h = f.L / f.N
    m_q = reg.size * h**f.n
    n = f.n
    c1 = math.e
    c2 = 1.0 / (2**n * math.e)
    rows = []
    for lam in lambdas:
        measured = float((dev > lam).sum()) * h**n
        if norm > 0:
            bound = c1 * m_q * math.exp(-c2 * lam / (local.a_w * norm))
        else:
            bound = c1 * m_q
        rows.append(JnRow(float(lam), measured, bound))
    worst = min((r.margin for r in rows), default=float("inf"))
    rep = JnReport(kind, tuple(rows), local.a_w, norm, worst)
    if strict and not rep.all_ok:
        bad = [r for r in rep.rows if r.measured > r.bound * (1 + 1e-12)]
        raise ValueError(
            f"tail bound violated at lambda={bad[0].lam}: "
            f"measured {bad[0].measured} > bound {bad[0].bound}")
    return rep


def jn_blo_verify(f: GridFunction, w: Weight, Q: Cube,
                  lambdas: Sequence[float], strict: bool = True) -> JnReport:
    """Tail of f - min_Q f against e * m(Q) * exp(-lambda/(A_w 2^n e norm))."""
    return _jn_verify("blo", f, w, Q, lambdas, strict)


def jn_bmo_verify(f: GridFunction, w: Weight, Q: Cube,
                  lambdas: Sequence[float], strict: bool = True) -> JnReport:
    """Same tail bound for |f - f_Q| with the mean-oscillation norm."""
    return _jn_verify("bmo", f, w, Q, lambdas, strict)


def equivalence_constant(p: float, n: int, a1: float, ap_of_nu: float) -> float:
    """K(p, n, a1, ap) = a1 (2 p Gamma(p))^{1/p} e^{delta/p} / (delta/(2^n e)).

    delta = eps/(1+eps) with eps = 1/(2^{2p+1+n} ap_of_nu); the three inner
    constants are the slack factor 2 of the reverse Hölder step and the pair
    (e, 1/(2^n e)) of the exponential tail bound.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    eps = 1.0 / (2 ** (2 * p + 1 + n) * ap_of_nu)
    delta = eps / (1.0 + eps)
    cstar = 2.0
    c1 = math.e
    c2 = 1.0 / (2**n * math.e)
    return a1 * (cstar * p * math.gamma(p)) ** (1.0 / p) * c1 ** (delta / p) / (c2 * delta)


def save_tree(tree: DecompositionTree, path: str | Path) -> None:
    lines = [
        f"# root center={';'.join(repr(c) for c in tree.root.center)} "
        f"side={tree.root.side!r} sigma={tree.sigma!r} a_w={tree.a_w!r} "
        f"blo={tree.blo_norm!r} max_gen={tree.max_gen}",
    ]
    for s in tree.nodes:
        center = ";".join(repr(c) for c in s.cube.center)
        lines.append(
            f"gen={s.gen} parent={s.parent} center={center} "
            f"side={s.cube.side!r} oscmean={s.osc_mean!r} mininc={s.min_inc!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def jn_csv(rep: JnReport) -> str:
    lines = ["lambda,measured,bound,margin"]
    for r in rep.rows:
        lines.append(f"{r.lam!r},{r.measured!r},{r.bound!r},{r.margin!r}")
    return "\n".join(lines) + "\n"
