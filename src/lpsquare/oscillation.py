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
table built once for all of them.  The scans raise the deviations to p
and the weight to 1 - p with grid.half_power, which takes products and a
square root where p is a half-integer (within 4 ULP of pow, so BLO_p may
differ from single_cube_value in the last bits); single_cube_value keeps
** so that the reference does not share the scans' arithmetic.
"""

from __future__ import annotations

import dataclasses
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


def _report(kind: str, p: float | None, vals: np.ndarray,
            cubes: DyadicFamily) -> OscillationReport:
    i = int(np.argmax(vals))
    return OscillationReport(kind, p, float(vals[i]), cubes[i], len(cubes))


def bmo_norm(f: GridFunction, w: Weight,
             cubes: DyadicFamily) -> OscillationReport:
    hn = (f.L / f.N) ** f.n

    def level_values(k):
        return (f.pyramid.absdev(k) * hn / (w.pyramid.sum(k) * hn),)

    return _report("bmo", None, family_values(f, cubes, level_values)[0],
                   cubes)


def _blo_reports(f: GridFunction, w: Weight, cubes: DyadicFamily,
                 ps: tuple[float, ...],
                 w_pows: tuple[np.ndarray, ...] | None
                 ) -> list[OscillationReport]:
    """BLO, then BLO_p at each p of ps, from one f - min_Q f table per
    level that every functional reduces."""
    for p in ps:
        _check_p(p)
    if w_pows is None:
        w_pows = tuple(half_power(w.values, 1.0 - p) for p in ps)
    elif len(w_pows) != len(ps):
        raise ValueError(f"{len(w_pows)} weight powers for {len(ps)} "
                         f"exponents")
    fp = f.pyramid
    hn = (f.L / f.N) ** f.n

    def level_values(k):
        wq = w.pyramid.sum(k) * hn
        dev = _deviation(fp, k)
        out = [block_sums(dev) * hn / wq]
        for p, w_pow in zip(ps, w_pows):
            s = block_sums(half_power(dev, p) * level_blocks(w_pow, f.n, k))
            out.append((s * hn / wq) ** (1.0 / p))
        return out

    vals = family_values(f, cubes, level_values)
    return [_report("blo", None, vals[0], cubes),
            *(_report("blo_p", p, v, cubes) for p, v in zip(ps, vals[1:]))]


def blo_constant(f: GridFunction, w: Weight, cubes: DyadicFamily,
                 ps: tuple[float, ...] = (),
                 w_pows: tuple[np.ndarray, ...] | None = None
                 ) -> OscillationReport:
    """The BLO constant over the family.  Its report's p_norms hold BLO_p
    at each p of ps, as blo_p_norm reports it, read from the same
    deviation tables.  w_pows, when given, holds ω^{1-p} for each p of ps,
    as the samples raised to it; it is computed otherwise."""
    blo, *p_norms = _blo_reports(f, w, cubes, ps, w_pows)
    return dataclasses.replace(blo, p_norms=tuple(p_norms))


def blo_p_norm(f: GridFunction, w: Weight, p: float,
               cubes: DyadicFamily) -> OscillationReport:
    return _blo_reports(f, w, cubes, (p,), None)[1]
