"""Weighted mean-oscillation functionals over a declared cube family.

Three functionals share one scan pattern: a per-cube quantity maximized over
a DyadicFamily, with the first attaining cube recorded so every reported
supremum is witnessed.  Each level of the family reduces its quantities
from the level's blocks and the pyramids' sums and minima;
single_cube_value gathers the samples of any one cube and is the per-cube
reference.  The per-cube quantities (ω a weight, Q a cube, f_Q the plain
mean, h^n the cell volume):

  bmo    (1/ω(Q)) Σ_Q |f - f_Q| h^n
  blo    (1/ω(Q)) Σ_Q (f - min_Q f) h^n
  blo_p  ((1/ω(Q)) Σ_Q (f - min_Q f)^p ω^{1-p} h^n)^{1/p}

All are family-relative; inequalities between functionals hold cube-wise,
so both sides of any comparison must use the same family.  blo_constant
also reads blo_p at any number of exponents, each level's f - min_Q f
table built once for all of them, and raises the weight to 1 - p itself;
blo_p_norm is its one-exponent case.  Every functional refuses a weight
sampled on another grid than its function.  The scans raise the
deviations to p and the weight to 1 - p with grid.half_power, which takes
products and a square root where p is a half-integer (within 4 ULP of
pow, so BLO_p may differ from single_cube_value in the last bits);
single_cube_value keeps ** so that the reference does not share the
scans' arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    BlockPyramid,
    Cube,
    DyadicFamily,
    GridFunction,
    block_sums,
    cube_region,
    family_values,
    half_power,
    level_blocks,
    require_same_grid,
)
from .weights import Weight

__all__ = [
    "OscillationReport",
    "single_cube_value",
    "bmo_norm",
    "blo_constant",
    "blo_p_norm",
]


@dataclass(frozen=True)
class OscillationReport:
    kind: str
    p: float | None
    value: float
    argmax: Cube
    family_size: int
    # BLO_p reports read along with a BLO scan (blo_constant's ps)
    p_norms: tuple["OscillationReport", ...] = ()


def _gather(f: GridFunction, w: Weight, q: Cube) -> tuple[np.ndarray, np.ndarray, float]:
    require_same_grid(f, w)
    idx = cube_region(f, q)
    if idx.size == 0:
        raise ValueError(f"cube {q} contains no samples")
    h = f.L / f.N
    return f.values.ravel()[idx], w.values.ravel()[idx], h**f.n


def _check_p(p: float) -> None:
    if p < 1:
        raise ValueError("p must be >= 1")
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")


def single_cube_value(kind: str, f: GridFunction, w: Weight, q: Cube,
                      p: float | None = None) -> float:
    """The per-cube quantity behind each functional; used as sup witness."""
    fv, wv, hn = _gather(f, w, q)
    wq = float(wv.sum()) * hn
    if kind == "bmo":
        return float(np.abs(fv - fv.mean()).sum()) * hn / wq
    if kind == "blo":
        return float((fv - fv.min()).sum()) * hn / wq
    if kind == "blo_p":
        if p is None:
            raise ValueError("p must be >= 1")
        _check_p(p)
        s = float(((fv - fv.min())**p * wv ** (1.0 - p)).sum()) * hn
        return (s / wq) ** (1.0 / p)
    raise ValueError(f"unknown functional kind {kind!r}")


def _deviation(fp: BlockPyramid, k: int) -> np.ndarray:
    """f - min_Q f per level-k block row."""
    return fp.blocks(k) - fp.min(k)[:, None]


def _report(kind: str, p: float | None, vals: np.ndarray, cubes: DyadicFamily,
            p_norms: tuple[OscillationReport, ...] = ()) -> OscillationReport:
    i = int(np.argmax(vals))
    return OscillationReport(kind, p, float(vals[i]), cubes[i], len(cubes),
                             p_norms)


def bmo_norm(f: GridFunction, w: Weight,
             cubes: DyadicFamily) -> OscillationReport:
    require_same_grid(f, w)
    hn = (f.L / f.N) ** f.n

    def level_values(k):
        return (f.pyramid.absdev(k) * hn / (w.pyramid.sum(k) * hn),)

    return _report("bmo", None, family_values(f, cubes, level_values)[0],
                   cubes)


def blo_constant(f: GridFunction, w: Weight, cubes: DyadicFamily,
                 ps: tuple[float, ...] = ()) -> OscillationReport:
    """The BLO constant over the family.  Its report's p_norms hold BLO_p
    at each p of ps, as blo_p_norm reports it, read from the same
    f - min_Q f table per level that BLO reduces."""
    require_same_grid(f, w)
    for p in ps:
        _check_p(p)
    omega_pows = [half_power(w.values, 1.0 - p) for p in ps]
    fp = f.pyramid
    hn = (f.L / f.N) ** f.n

    def level_values(k):
        wq = w.pyramid.sum(k) * hn
        dev = _deviation(fp, k)
        out = [block_sums(dev) * hn / wq]
        for p, w_pow in zip(ps, omega_pows):
            s = block_sums(half_power(dev, p) * level_blocks(w_pow, f.n, k))
            out.append((s * hn / wq) ** (1.0 / p))
        return out

    blo, *vals = family_values(f, cubes, level_values)
    return _report("blo", None, blo, cubes,
                   tuple(_report("blo_p", p, v, cubes)
                         for p, v in zip(ps, vals)))


def blo_p_norm(f: GridFunction, w: Weight, p: float,
               cubes: DyadicFamily) -> OscillationReport:
    return blo_constant(f, w, cubes, (p,)).p_norms[0]
