"""Muckenhoupt weight functionals over a dyadic cube family.

All constants here are family-relative: the supremum over every ball is
unattainable on a grid, so each functional scans the cubes of a
DyadicFamily, reading per dyadic level the block sums and minima of the
weight's pyramid (A_p also reduces the blocks of one power of the weight),
and reports the maximum.  Enlarging the family can only increase the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (BlockPyramid, DyadicFamily, GridFunction, block_sums,
                   family_values, half_power, level_blocks)

__all__ = [
    "Weight",
    "constant_weight",
    "a1_constant",
    "ap_constant",
    "power_weight",
    "DoublingReport",
    "doubling_report",
]


# Smallest weight value; a weight with a sample below it is refused.
EPS_MIN = 1e-12


@dataclass(frozen=True, eq=False)
class Weight(GridFunction):
    """Grid function with every sample at least EPS_MIN.

    A sample below EPS_MIN (or NaN) is refused: the measure dω = ω dx must
    stay nondegenerate on every sample.  with_values gives a plain
    GridFunction, since new samples need not be positive.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        lo = float(np.min(self.values))
        if not lo >= EPS_MIN:
            what = ("is not strictly positive" if not lo > 0
                    else f"falls below EPS_MIN={EPS_MIN}")
            raise ValueError(f"the weight {what} on the {self.n}D N={self.N} "
                             f"grid: its minimum is {lo!r}")


def constant_weight(n: int, L: float, N: int, c: float = 1.0) -> Weight:
    return Weight(n, L, N, np.full((N,) * n, float(c)))


def _a1_level(pyr: BlockPyramid, k: int) -> np.ndarray:
    """(average of ω over Q) / (min of ω over Q) per level-k dyadic cube."""
    return pyr.sum(k) / pyr.count(k) / pyr.min(k)


def a1_constant(w: Weight, cubes: DyadicFamily) -> float:
    """max over the family of (average of ω over Q) / (min of ω over Q)."""
    pyr = w.pyramid
    return float(family_values(
        w, cubes, lambda k: (_a1_level(pyr, k),))[0].max())


def ap_constant(w: Weight, p: float, cubes: DyadicFamily) -> float:
    """max over the family of (avg ω)(avg ω^{1-p'})^{p-1}, p' = p/(p-1)."""
    if p <= 1:
        raise ValueError("use a1_constant for p <= 1")
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    pyr = w.pyramid
    w_pow = half_power(w.values, 1.0 - p / (p - 1.0))

    def level_values(k):
        cnt = pyr.count(k)
        pow_sums = block_sums(level_blocks(w_pow, w.n, k))
        return ((pyr.sum(k) / cnt) * (pow_sums / cnt) ** (p - 1.0),)

    return float(family_values(w, cubes, level_values)[0].max())


def power_weight(w: Weight, s: float) -> Weight:
    return Weight(w.n, w.L, w.N, half_power(w.values, s))


_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class DoublingReport:
    """Ratios ω(2Q)/ω(Q) of a cube family, in the family's order, against
    one bound."""

    constant: float
    ratios: np.ndarray
    bound: float

    @property
    def all_ok(self) -> bool:
        return bool(np.all(self.ratios <= self.bound * (1 + _SLACK)))

    @property
    def margin(self) -> float:
        """Smallest bound/ratio over the positive ratios; inf if none."""
        quot = self.bound / self.ratios[self.ratios > 0]
        return float(quot.min()) if quot.size else float("inf")


def _doubled(table: np.ndarray, k: int, n: int, op: np.ufunc) -> np.ndarray:
    """op over each doubled cube 2Q of level k, from a level-(k+1) table.

    Q = level-k block b spans level-(k+1) blocks 2b, 2b+1 on each axis, so
    2Q (same center, twice the side) spans the periodic window 2b-1 .. 2b+2
    of four blocks, which is exactly the sample set cube_region returns.
    """
    B = 2 << k
    window = (2 * np.arange(B // 2)[:, None] + np.arange(-1, 3)) % B
    out = table.reshape((B,) * n)
    for axis in range(n):
        out = op.reduce(np.take(out, window, axis=axis), axis=axis + 1)
    return out.ravel()


def _doubled_samples(values: np.ndarray) -> np.ndarray:
    """The samples of each doubled cube 2Q of the finest level, one row
    per sample.

    2Q of sample i holds samples i and i+1 (periodic) on each axis.  Each
    row lists them in increasing flat index, the order of the sum over
    cube_region(2Q), so the row sums agree with it bit for bit.
    """
    N, n = values.shape[0], values.ndim
    i = np.arange(N)
    pair = np.sort(np.stack([i, (i + 1) % N], axis=1), axis=1)
    rows = values[pair] if n == 1 else \
        values[pair[:, None, :, None], pair[None, :, None, :]]
    return rows.reshape(N**n, 2**n)


def doubling_report(w: Weight, cubes: DyadicFamily) -> DoublingReport:
    """Ratios ω(2Q)/ω(Q), each bounded by 2^n times the family A₁ constant.

    The A₁ constant is taken over the given cubes together with their
    doubles, which is exactly the family the bound's derivation scans.
    """
    pyr = w.pyramid
    hn = (w.L / w.N) ** w.n

    def level_values(k):
        # (ratio ω(2Q)/ω(Q), A₁ quotient of Q, A₁ quotient of 2Q)
        s1, a1_q = pyr.sum(k), _a1_level(pyr, k)
        if k == 0:  # 2Q covers the box once
            return (s1 * hn) / (s1 * hn), a1_q, a1_q
        if k == pyr.depth:  # 2Q holds two samples per axis
            rows = _doubled_samples(w.values)
            s2, m2 = block_sums(rows), rows.min(axis=1)
        else:
            s2 = _doubled(pyr.sum(k + 1), k, w.n, np.add)
            m2 = _doubled(pyr.min(k + 1), k, w.n, np.minimum)
        return (s2 * hn) / (s1 * hn), a1_q, s2 / (2**w.n * pyr.count(k)) / m2

    ratios, a1_q, a1_2q = family_values(w, cubes, level_values)
    a1 = float(max(a1_q.max(), a1_2q.max()))
    return DoublingReport(a1, ratios, 2**w.n * a1)
