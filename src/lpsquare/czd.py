"""Stopping-time decomposition, distribution functions, and tail bounds.

Every function here works on the whole box Q = [0, L)^n of its grid.  The
decomposition descends the dyadic children of Q and selects a child the
first time the mean of f - min_{S} f (S the stopping cube being
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

Cubes are addressed by (level, block), as grid's block_cells and
block_children address them.  The tail checks, distribution_function and
layer_cake_check count mu({v > lambda}) over the box with one counter.
To work on the level-k dyadic cube b instead, restrict f and the weight
to its block: GridFunction(n, L / 2**k, N >> k,
f.values[block_cells(n, N, k, b)]), and the same for the weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import GridFunction, block_cells, block_children
from .weights import Weight

__all__ = [
    "SelectedCube",
    "InvariantRecord",
    "DecompositionTree",
    "LocalConstants",
    "cube_local_constants",
    "cz_decompose",
    "distribution_function",
    "layer_cake_check",
    "JnRow",
    "JnReport",
    "jn_blo_verify",
    "jn_bmo_verify",
    "equivalence_constant",
]


@dataclass(frozen=True)
class SelectedCube:
    level: int
    block: int  # row-major index among the level's blocks
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


@dataclass(frozen=True)
class LocalConstants:
    """Scan over every dyadic cube of the box, all depths."""

    a1: float
    min_w: float
    a_w: float
    blo: float
    bmo: float


@dataclass(frozen=True)
class DecompositionTree:
    sigma: float
    max_gen: int
    local: LocalConstants  # cube_local_constants(f, w)
    generations: tuple[tuple[SelectedCube, ...], ...]
    checks: tuple[InvariantRecord, ...]
    blocks_visited: int  # frontier blocks whose children the descent tested

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def nodes(self) -> tuple[SelectedCube, ...]:
        return tuple(s for gen in self.generations for s in gen)


def cube_local_constants(f: GridFunction, w: Weight) -> LocalConstants:
    """A1, min, oscillation norms over all full-depth dyadic cubes of the box.

    The scan reads the pyramids' tables down to cubes of two samples per
    axis.  A single-sample cube has the exact constants its tables would
    give (A1 quotient w/w = 1, BLO and BMO 0), so no level-N sum table
    is built for it.
    """
    fp, wp = f.pyramid, w.pyramid
    a1 = 1.0
    blo = 0.0
    bmo = 0.0
    for k in range(fp.depth):
        cnt = fp.count(k)
        wsum = wp.sum(k)
        a1 = max(a1, float((wsum / cnt / wp.min(k)).max()))
        blo = max(blo, float(((fp.sum(k) - cnt * fp.min(k)) / wsum).max()))
        bmo = max(bmo, float((fp.absdev(k) / wsum).max()))
    min_w = float(wp.min(0)[0])
    return LocalConstants(a1, min_w, a1 * min_w, blo, bmo)


def cz_decompose(f: GridFunction, w: Weight, sigma: float = math.e,
                 max_gen: int = 5) -> DecompositionTree:
    """Stopping-time tree for f on the box with threshold sigma * A_w.

    The descent runs one dyadic level at a time.  Its frontier holds the
    level-k blocks still being subdivided, each with the minimum of its
    stopping cube, its generation and its parent id; all their children
    are tested in one expression.  Node ids follow the breadth-first order
    (level, then parent, then child), and a selected cube of generation
    max_gen is not subdivided.  The tree holds cube_local_constants(f, w).
    """
    if not sigma > 1:
        raise ValueError("sigma must exceed 1")
    if max_gen < 1:
        raise ValueError("max_gen must be at least 1")
    local = cube_local_constants(f, w)
    a_w = local.a_w
    norm = local.blo
    if norm == 0.0:
        return DecompositionTree(sigma, max_gen, local, ((),) * max_gen, (), 0)
    # the descent's frontier arrays are freed before the checks allocate
    generations, visited = _descend(f, a_w * sigma, norm, max_gen)
    checks = _verify_tree(f, sigma, a_w, norm, generations)
    return DecompositionTree(sigma, max_gen, local,
                             tuple(tuple(g) for g in generations),
                             tuple(checks), visited)


def _descend(f: GridFunction, T: float, norm: float,
             max_gen: int) -> tuple[list[list[SelectedCube]], int]:
    """The selected cubes of each generation below the box, at threshold T
    on f / norm, and the number of frontier blocks whose children were
    tested."""
    n = f.n
    fp = f.pyramid
    generations: list[list[SelectedCube]] = [[] for _ in range(max_gen)]
    blocks = np.array([0])
    m_s = fp.min(0) / norm
    gen = np.array([1])
    pid = np.array([0])
    next_id = 1
    visited = 0
    # single-sample children (level depth) are never selected
    for k in range(fp.depth - 1):
        if blocks.size == 0:
            break
        visited += blocks.size
        blocks = block_children(n, k, blocks)
        m_s, gen, pid = (np.repeat(a, 2**n) for a in (m_s, gen, pid))
        mean = fp.sum(k + 1)[blocks] / norm / fp.count(k + 1) - m_s
        sel = mean > T
        if not sel.any():
            continue
        cmin = fp.min(k + 1)[blocks] / norm
        ids = next_id + np.cumsum(sel) - 1
        for c in np.flatnonzero(sel).tolist():
            generations[gen[c] - 1].append(SelectedCube(
                k + 1, int(blocks[c]), int(gen[c]), int(ids[c]), int(pid[c]),
                float(mean[c]), float(cmin[c] - m_s[c])))
        next_id += int(np.count_nonzero(sel))
        m_s = np.where(sel, cmin, m_s)
        pid = np.where(sel, ids, pid)
        gen = gen + sel
        keep = gen <= max_gen
        blocks, m_s, gen, pid = blocks[keep], m_s[keep], gen[keep], pid[keep]
    return generations, visited


def _verify_tree(f, sigma, a_w, norm, generations) -> list[InvariantRecord]:
    """Invariants (A)-(E) of each generation, from sample masks.

    owner holds, for each sample, the id of the previous generation's cube
    that covers it (0 everywhere for generation 1; None when the previous
    generation is empty, which covers nothing); covered counts the current
    generation's cubes over each sample.  An empty generation covers no
    sample, so (A) holds and (E) reads the whole box, the same value for
    every empty generation.  A cube below the grid's finest level holds
    no sample and fails (A).  (E) takes max(f/norm) - min_Q rather than the
    max of the differences: rounding is monotone, so the two agree.
    """
    n, N = f.n, f.N
    h = f.L / N
    slack = 1.0 + 1e-12
    checks: list[InvariantRecord] = []
    scaled = f.values / norm
    m_q = scaled.size * h**n
    min_q = float(scaled.min())
    owner = np.zeros(f.values.shape, dtype=np.int64)
    e_empty = None
    bound_bc = 2**n * sigma * a_w
    for gen_idx, gen in enumerate(generations, start=1):
        inside_ok = True
        total = 0.0
        worst_b = 0.0
        worst_c_hi = 0.0
        worst_c_lo = 0.0
        if gen:
            if owner is None:  # only a corrupted tree gets here
                owner = np.full(f.values.shape, -1)
            covered = np.zeros(f.values.shape, dtype=np.int64)
            next_owner = np.full(f.values.shape, -1)
            for s in gen:
                cells = block_cells(n, N, s.level, s.block)
                covered[cells] += 1
                inside_ok = (inside_ok and 1 << s.level <= N
                             and bool((owner[cells] == s.parent).all()))
                next_owner[cells] = s.id
                total += covered[cells].size * h**n
                worst_b = max(worst_b, s.osc_mean)
                worst_c_hi = max(worst_c_hi, s.min_inc)
                worst_c_lo = min(worst_c_lo, s.min_inc)
            owner = next_owner
            a_ok = inside_ok and not (covered > 1).any()
            off = scaled[covered == 0]
            e_val = float(off.max() - min_q) if off.size else 0.0
        else:
            owner = None
            a_ok = True
            if e_empty is None:
                e_empty = float(scaled.max() - min_q)
            e_val = e_empty
        b_lo_ok = all(s.osc_mean > sigma * a_w for s in gen)
        checks.append(InvariantRecord("A", gen_idx, 0.0 if a_ok else 1.0,
                                      0.0, a_ok))
        checks.append(InvariantRecord("B", gen_idx, worst_b, bound_bc,
                                      b_lo_ok and worst_b <= bound_bc * slack))
        checks.append(InvariantRecord("C", gen_idx, worst_c_hi, bound_bc,
                                      worst_c_lo >= -1e-12 and worst_c_hi <= bound_bc * slack))
        checks.append(InvariantRecord("D", gen_idx, total, m_q / sigma**gen_idx,
                                      total <= m_q / sigma**gen_idx * slack))
        e_bound = gen_idx * sigma * 2**n * a_w
        checks.append(InvariantRecord("E", gen_idx, e_val, e_bound,
                                      e_val <= e_bound * slack))
    return checks


def _tail_masses(v: np.ndarray, lam: np.ndarray,
                 mu: float | np.ndarray) -> np.ndarray:
    """mu({v > lambda}) for each threshold: the count of samples above
    lambda, from one sort, times a scalar mu (every sample's mass), or the
    suffix sums of per-sample masses mu taken in ascending order of v."""
    if np.ndim(mu) == 0:
        return (v.size - np.searchsorted(np.sort(v), lam, side="right")) * mu
    order = np.argsort(v)
    prefix = np.concatenate([[0.0], np.cumsum(mu[order])])
    return prefix[-1] - prefix[np.searchsorted(v[order], lam, side="right")]


def _mu_weights(mu_kind: str, w: Weight,
                p: float | None) -> float | np.ndarray:
    """Per-sample masses of mu, in flat order; one scalar for Lebesgue."""
    h = w.L / w.N
    if mu_kind == "lebesgue":
        return h**w.n
    if mu_kind == "weight":
        return w.values.ravel() * h**w.n
    if mu_kind == "power_weight":
        if p is None:
            raise ValueError("power_weight measure needs p")
        return w.values.ravel() ** (1.0 - p) * h**w.n
    raise ValueError(f"unknown measure kind {mu_kind!r}")


def distribution_function(g: GridFunction, mu_kind: str, w: Weight,
                          lambdas: Sequence[float],
                          p: float | None = None) -> np.ndarray:
    """mu({x in Q : g(x) > lambda}) for each threshold, Q the box."""
    lam = np.asarray(lambdas, dtype=float)
    if not (np.isfinite(lam).all() and (np.diff(lam) > 0).all()):
        raise ValueError("lambda grid must be finite and strictly increasing")
    return _tail_masses(g.values.ravel(), lam, _mu_weights(mu_kind, w, p))


def layer_cake_check(g: GridFunction, w: Weight, p: float,
                     mode: str = "auto", nodes: int = 10**4) -> tuple[float, float, float]:
    """Compare the direct weighted p-th power sum with its layer-cake form.

    Step mode integrates the (piecewise constant) distribution function
    exactly over the value levels of |g| and must agree to rounding; the
    trapezoid mode uses a uniform lambda grid and is a convergence check.
    Auto picks step at up to 1024 distinct values.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    gv = np.abs(g.values.ravel())
    wv = _mu_weights("weight", w, None)
    lhs = float((gv**p * wv).sum())
    levels = np.unique(gv)
    if mode == "auto":
        mode = "step" if levels.size <= 1024 else "trapezoid"
    if mode == "step":
        # mu({|g| >= level_i}) = mu({|g| > level_{i-1}})
        mass_ge = _tail_masses(gv, np.concatenate([[-np.inf], levels[:-1]]),
                               wv)
        prev = np.concatenate([[0.0], levels[:-1]])
        rhs = float((mass_ge * (levels**p - prev**p)).sum())
    elif mode == "trapezoid":
        top = float(levels[-1]) if levels.size else 0.0
        lam = np.linspace(0.0, top * (1.0 + 1.0 / nodes) + 1e-300, nodes)
        d = _tail_masses(gv, lam, wv)
        rhs = float(np.trapezoid(p * lam ** (p - 1) * d, lam))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    gap = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return lhs, rhs, gap


def _tail_constants(n: int) -> tuple[float, float]:
    """(c1, c2) = (e, 1/(2^n e)) of the tail bound c1 m(Q) exp(-c2 t)."""
    return math.e, 1.0 / (2**n * math.e)


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
    worst_margin: float

    @property
    def all_ok(self) -> bool:
        return all(r.measured <= r.bound * (1 + 1e-12) for r in self.rows)


def _jn_verify(kind: str, f: GridFunction, w: Weight, lambdas: Sequence[float],
               local: LocalConstants | None) -> JnReport:
    lams = np.asarray(lambdas, dtype=float)
    if not np.isfinite(lams).all():
        raise ValueError("thresholds lambda must be finite")
    if local is None:
        local = cube_local_constants(f, w)
    fv = f.values.ravel()
    if kind == "blo":
        dev = fv - fv.min()
        norm = local.blo
    else:
        dev = np.abs(fv - fv.mean())
        norm = local.bmo
    cell = (f.L / f.N)**f.n
    m_q = fv.size * cell
    c1, c2 = _tail_constants(f.n)
    tails = _tail_masses(dev, lams, cell)
    rows = []
    for lam, measured in zip(lambdas, tails.tolist()):
        if norm > 0:
            bound = c1 * m_q * math.exp(-c2 * lam / (local.a_w * norm))
        else:
            bound = c1 * m_q
        rows.append(JnRow(float(lam), measured, bound))
    worst = min((r.margin for r in rows), default=float("inf"))
    return JnReport(kind, tuple(rows), worst)


def jn_blo_verify(f: GridFunction, w: Weight, lambdas: Sequence[float],
                  local: LocalConstants | None = None) -> JnReport:
    """Tail of f - min_Q f against e * m(Q) * exp(-lambda/(A_w 2^n e norm)),
    Q the box.

    local, when given, must be cube_local_constants(f, w)."""
    return _jn_verify("blo", f, w, lambdas, local)


def jn_bmo_verify(f: GridFunction, w: Weight, lambdas: Sequence[float],
                  local: LocalConstants | None = None) -> JnReport:
    """Same tail bound for |f - f_Q| with the mean-oscillation norm."""
    return _jn_verify("bmo", f, w, lambdas, local)


def equivalence_constant(p: float, n: int, a1: float, ap_of_nu: float) -> float:
    """K(p, n, a1, ap) = a1 (2 p Gamma(p))^{1/p} e^{delta/p} / (delta/(2^n e)).

    delta = eps/(1+eps) with eps = 1/(2^{2p+1+n} ap_of_nu); the three inner
    constants are the slack factor 2 of the reverse Hölder step and the pair
    (e, 1/(2^n e)) of the exponential tail bound.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    eps = 1.0 / (2 ** (2 * p + 1 + n) * ap_of_nu)
    delta = eps / (1.0 + eps)
    cstar = 2.0
    c1, c2 = _tail_constants(n)
    return a1 * (cstar * p * math.gamma(p)) ** (1.0 / p) * c1 ** (delta / p) / (c2 * delta)
