"""Weighted mean-oscillation functionals over a declared cube family.

Three functionals share one scan pattern: a per-cube quantity maximized over
a DyadicFamily, with the first attaining cube recorded so every reported
supremum is witnessed.  Each level of the family reads its quantities from
one reduction of the function's block pyramid; single_cube_value gathers
the samples of any one cube and is the per-cube reference.  The per-cube
quantities (ω a weight, Q a cube, f_Q the plain mean, h^n the cell
volume):

  bmo    (1/ω(Q)) Σ_Q |f - f_Q| h^n
  blo    (1/ω(Q)) Σ_Q (f - min_Q f) h^n
  blo_p  ((1/ω(Q)) Σ_Q (f - min_Q f)^p ω^{1-p} h^n)^{1/p}

All are family-relative; inequalities between functionals hold cube-wise,
so both sides of any comparison must use the same family.
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
    cube_region,
    family_values,
    level_blocks,
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


def _gather(f: GridFunction, w: Weight, q: Cube) -> tuple[np.ndarray, np.ndarray, float]:
    idx = cube_region(f, q)
    if idx.size == 0:
        raise ValueError(f"cube {q} contains no samples")
    h = f.L / f.N
    return f.values.ravel()[idx], w.values.ravel()[idx], h**f.n


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
        if p is None or p < 1:
            raise ValueError("p must be >= 1")
        if not math.isfinite(p):
            raise ValueError(f"p must be finite, got {p}")
        s = float(((fv - fv.min())**p * wv ** (1.0 - p)).sum()) * hn
        return (s / wq) ** (1.0 / p)
    raise ValueError(f"unknown functional kind {kind!r}")


def _deviation(fp: BlockPyramid, k: int) -> np.ndarray:
    """f - min_Q f per level-k block row."""
    return fp.blocks(k) - fp.min(k)[:, None]


def _level_values(kind: str, f: GridFunction, w: Weight, k: int,
                  p: float | None) -> np.ndarray:
    """single_cube_value of every level-k dyadic cube, in block order."""
    fp, wp = f.pyramid, w.pyramid
    hn = (f.L / f.N) ** f.n
    wq = wp.sum(k) * hn
    if kind == "bmo":
        return fp.absdev(k) * hn / wq
    if kind == "blo":
        dev = fp.table("blo", k, lambda k: _deviation(fp, k).sum(axis=1))
        return dev * hn / wq
    dev = fp.table((kind, p, wp), k, lambda k: (
        _deviation(fp, k) ** p
        * level_blocks(wp.power(1.0 - p), f.n, k)).sum(axis=1))
    return (dev * hn / wq) ** (1.0 / p)


def _scan(kind: str, f: GridFunction, w: Weight, cubes: DyadicFamily,
          p: float | None) -> OscillationReport:
    vals = family_values(
        f, cubes, lambda k: (_level_values(kind, f, w, k, p),))[0]
    i = int(np.argmax(vals))
    return OscillationReport(kind, p, float(vals[i]), cubes[i], len(cubes))


def bmo_norm(f: GridFunction, w: Weight,
             cubes: DyadicFamily) -> OscillationReport:
    return _scan("bmo", f, w, cubes, None)


def blo_constant(f: GridFunction, w: Weight,
                 cubes: DyadicFamily) -> OscillationReport:
    return _scan("blo", f, w, cubes, None)


def blo_p_norm(f: GridFunction, w: Weight, p: float,
               cubes: DyadicFamily) -> OscillationReport:
    if p < 1:
        raise ValueError("p must be >= 1")
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    return _scan("blo_p", f, w, cubes, p)
