"""Square operators on periodic grids: vertical, conical, and weighted forms.

Every operator is a quadrature of |psi_t * f|^2 over a logarithmic scale
grid carrying the multiplicative measure dt/t, composed with a spatial sum:
none for the vertical operator, a cone |y-x| < t for the area integral,
and the full box weighted by (t/(t+|x-y|))^{lambda n} for the starred form.

Sampled kernels are mean-corrected so the discrete mass of psi_t vanishes;
this folds the quadrature residual of the vanishing condition and the
periodic truncation into a DC shift, pushing the response to constants
down to float rounding.

square_functions computes any set of operators in one pass over the
scales: one forward FFT of f, then per scale one inverse FFT for psi_t * f
and, when a spatial sum is requested, one forward FFT of |psi_t * f|^2
whose product with each mask spectrum accumulates in the frequency domain;
each spatially summed operator ends with a single inverse FFT.  Kernel and
mask spectra depend only on the geometry and the scale, so they are kept
in a process-wide cache bounded by SPECTRUM_CACHE_BYTES.  A spectrum whose
imaginary part is rounding noise (every radial kernel and every mask, since
they are even on the periodic grid) is stored real, at half the bytes.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .grid import GridFunction
from .kernels import DilatedKernel, Kernel, dilate
from .weights import Weight

__all__ = [
    "ScaleGrid",
    "default_scales",
    "SquareFunctionResult",
    "convolve",
    "OperatorSpec",
    "square_functions",
    "SPECTRUM_CACHE_BYTES",
    "spectrum_cache_stats",
    "clear_spectrum_cache",
    "g_function",
    "area_integral",
    "g_star",
    "dilated_area_integral",
    "split_at_scale",
    "lambda_warn_threshold",
    "annulus_level_cap",
    "l2_norm",
    "save_result",
    "load_result",
]

# Largest number of bytes of kernel and mask spectra kept per process.
SPECTRUM_CACHE_BYTES = 64 * 2**20

# A spectrum is stored real when its imaginary part is below this fraction
# of its largest real coefficient; even sequences measure about 3e-16.
_EVEN_RTOL = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class ScaleGrid:
    """Log-spaced scale nodes with trapezoid weights for dt/t.

    Node j sits at t_min (t_max/t_min)^{j/(M-1)}; weights are the trapezoid
    rule in u = log t, so they sum to log(t_max/t_min).
    """

    t_min: float
    t_max: float
    M: int

    def __post_init__(self) -> None:
        if not (0 < self.t_min < self.t_max):
            raise ValueError("need 0 < t_min < t_max")
        if self.M < 2:
            raise ValueError("need at least two scale nodes")

    @property
    def nodes(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.M)

    @property
    def weights(self) -> np.ndarray:
        du = math.log(self.t_max / self.t_min) / (self.M - 1)
        w = np.full(self.M, du)
        w[0] = w[-1] = du / 2.0
        return w

    def refined(self, factor: int = 2) -> "ScaleGrid":
        return ScaleGrid(self.t_min, self.t_max, factor * (self.M - 1) + 1)


def default_scales(f: GridFunction, M: int = 64) -> ScaleGrid:
    """t from 2h (below which convolution is unresolved) to L/4 (above
    which the periodic wrap dominates)."""
    h = f.L / f.N
    return ScaleGrid(2.0 * h, f.L / 4.0, M)


@dataclass(frozen=True)
class SquareFunctionResult:
    """Operator output with the metadata needed to reproduce it.

    tail_bound estimates the discarded t > t_max integral via the decay
    pattern |psi_t * f| <= C1 ||f||_1 t^{-n}, whose square integrates to
    (C1 ||f||_1)^2 t_max^{-2n} / (2n), times the spatial-sum volume factor.
    """

    values: GridFunction
    op: str
    kernel_name: str
    scales: ScaleGrid
    lam: float | None = None
    ell: int | None = None
    trunc_r: float | None = None
    part: str | None = None
    tail_bound: float = float("nan")


# displacement grids are shared across calls on the same geometry
_DISP_CACHE: dict[tuple[int, float, int], tuple[np.ndarray, np.ndarray]] = {}


def _displacements(n: int, L: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(points of shape (N^n, n), |displacement| of grid shape)."""
    key = (n, L, N)
    hit = _DISP_CACHE.get(key)
    if hit is not None:
        return hit
    h = L / N
    d = ((np.arange(N) + N // 2) % N - N // 2) * h
    if n == 1:
        pts = d[:, None]
        dist = np.abs(d)
    else:
        dx, dy = np.meshgrid(d, d, indexing="ij")
        pts = np.stack([dx.ravel(), dy.ravel()], axis=1)
        dist = np.sqrt(dx**2 + dy**2)
    pts.setflags(write=False)
    dist.setflags(write=False)
    if len(_DISP_CACHE) > 32:
        _DISP_CACHE.clear()
    _DISP_CACHE[key] = (pts, dist)
    return pts, dist


def _rfftn(a: np.ndarray) -> np.ndarray:
    return np.fft.rfft(a) if a.ndim == 1 else np.fft.rfft2(a)


def _irfftn(spec: np.ndarray, n: int, N: int) -> np.ndarray:
    return np.fft.irfft(spec, n=N) if n == 1 else np.fft.irfft2(spec, s=(N, N))


def _periodic_conv(field: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Circular convolution out[i] = sum_m field[i-m] kern[m] (no h^n)."""
    return _irfftn(_rfftn(field) * _rfftn(kern), field.ndim, field.shape[0])


def _sample_evaluator(ev: Callable[[np.ndarray], np.ndarray],
                      n: int, L: float, N: int) -> np.ndarray:
    pts, _ = _displacements(n, L, N)
    vals = np.asarray(ev(pts), dtype=float)
    return vals if n == 1 else vals.reshape(N, N)


def _sampled_kernel(psi_t: Callable[[np.ndarray], np.ndarray],
                    n: int, L: float, N: int) -> np.ndarray:
    kern = _sample_evaluator(psi_t, n, L, N)
    return kern - kern.mean()


def convolve(psi_t: Callable[[np.ndarray], np.ndarray] | DilatedKernel,
             f: GridFunction) -> GridFunction:
    """Periodic quadrature of psi_t * f with mean-corrected samples."""
    kern = _sampled_kernel(psi_t, f.n, f.L, f.N)
    h = f.L / f.N
    out = _periodic_conv(f.values, kern) * h**f.n
    return f.with_values(out)


def _require_certified(kernel: Kernel) -> None:
    if kernel.report is None or not kernel.report.passed:
        raise ValueError(f"kernel {kernel.name!r} is not certified")


def _tail_bound(kernel: Kernel, f: GridFunction, scales: ScaleGrid,
                volume_factor: float) -> float:
    if kernel.c1 is None:
        return float("nan")
    h = f.L / f.N
    l1 = float(np.abs(f.values).sum()) * h**f.n
    n = f.n
    return (kernel.c1 * l1) ** 2 * scales.t_max ** (-2 * n) / (2 * n) * volume_factor


# ---------------------------------------------------------------------------
# spectrum cache


class _SpectrumCache:
    """Spectra keyed by (geometry (n, L, N), what, t), at most
    SPECTRUM_CACHE_BYTES in total.

    A spectrum that does not fit first displaces the spectra of other
    geometries; if it still does not fit it is returned unstored, so a scale
    sweep larger than the cap keeps its stored prefix rather than evicting
    it cyclically.
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.store: dict[tuple, np.ndarray] = {}
        self.nbytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
        spec = self.store.get(key)
        if spec is not None:
            self.hits += 1
            return spec
        self.misses += 1
        spec = _real_if_even(build())
        spec.setflags(write=False)
        if self.nbytes + spec.nbytes > SPECTRUM_CACHE_BYTES:
            for old in [k for k in self.store if k[0] != key[0]]:
                self.nbytes -= self.store.pop(old).nbytes
        if self.nbytes + spec.nbytes <= SPECTRUM_CACHE_BYTES:
            self.store[key] = spec
            self.nbytes += spec.nbytes
        return spec


_SPECTRA = _SpectrumCache()


def spectrum_cache_stats() -> dict[str, int]:
    """Bytes held, stored spectra, and lookups served or computed so far."""
    return {"bytes": _SPECTRA.nbytes, "spectra": len(_SPECTRA.store),
            "hits": _SPECTRA.hits, "misses": _SPECTRA.misses}


def clear_spectrum_cache() -> None:
    _SPECTRA.clear()


def _real_if_even(spec: np.ndarray) -> np.ndarray:
    """Drop an imaginary part at rounding level (the sequence was even)."""
    scale = float(np.abs(spec.real).max(initial=0.0))
    if float(np.abs(spec.imag).max(initial=0.0)) <= _EVEN_RTOL * scale:
        return np.ascontiguousarray(spec.real)
    return spec


def _kernel_spectrum(kernel: Kernel, n: int, L: float, N: int,
                     t: float) -> np.ndarray:
    """Transform of the mean-corrected samples of psi_t, times h^n."""
    return _SPECTRA.get(
        ((n, L, N), ("kernel", kernel), t),
        lambda: _rfftn(_sampled_kernel(dilate(kernel, t), n, L, N))
        * (L / N) ** n)


def _mask_spectrum(mask: tuple[str, float], n: int, L: float, N: int,
                   t: float) -> np.ndarray:
    """Transform of the spatial weight at scale t, times (h/t)^n.

    mask is ("s", aperture) for the cone |x-y| < aperture t or
    ("gstar", lam) for (t/(t+|x-y|))^{lam n}.
    """
    def build() -> np.ndarray:
        _, dist = _displacements(n, L, N)
        kind, param = mask
        if kind == "s":
            weight = (dist < param * t).astype(float)
        else:
            weight = (t / (t + dist)) ** (param * n)
        return _rfftn(weight) * (L / N / t) ** n

    return _SPECTRA.get(((n, L, N), mask, t), build)


# ---------------------------------------------------------------------------
# the one-pass operator stack


@dataclass(frozen=True)
class OperatorSpec:
    """One operator for square_functions; fields mirror SquareFunctionResult.

    op is "g", "s" (cone |y-x| < t), "s_dilated" (cone |y-x| < 2^ell t) or
    "gstar" (weight (t/(t+|x-y|))^{lam n}).  With part "low" or "high" a
    "g" or "s" operator keeps only the scale nodes t < trunc_r or
    t >= trunc_r.
    """

    op: str
    lam: float | None = None
    ell: int | None = None
    trunc_r: float | None = None
    part: str | None = None


def lambda_warn_threshold(kernel: Kernel, n: int) -> float:
    """Below this the full-strength mapping theorems are not guaranteed."""
    return 3.0 + (2.0 * kernel.delta + 2.0 * kernel.gamma) / n


def _plan(spec: OperatorSpec, kernel: Kernel, f: GridFunction,
          scales: ScaleGrid) -> tuple[tuple[str, float] | None, np.ndarray, float]:
    """(spatial mask or None, scale nodes kept, tail volume factor)."""
    n = f.n
    if spec.op == "g":
        mask, vol = None, 1.0
    elif spec.op == "s":
        mask, vol = ("s", 1.0), 2.0**n
    elif spec.op == "s_dilated":
        if spec.ell is None or spec.ell < 1:
            raise ValueError("ell must be a positive integer")
        mask, vol = ("s", 2.0**spec.ell), 2.0 ** (n * (spec.ell + 1))
    elif spec.op == "gstar":
        lam = spec.lam
        if lam is None or not lam > 0:
            raise ValueError("lambda must be positive")
        thr = lambda_warn_threshold(kernel, n)
        if lam <= thr:
            warnings.warn(
                f"lambda={lam} at or below the guarantee threshold {thr}",
                stacklevel=3)
        mask, vol = ("gstar", float(lam)), (f.L / scales.t_max) ** n
    else:
        raise ValueError(f"unknown operator {spec.op!r}")
    keep = np.ones(scales.M, dtype=bool)
    if spec.part is not None:
        if spec.part not in ("low", "high"):
            raise ValueError("part must be 'low' or 'high'")
        if spec.op not in ("g", "s"):
            raise ValueError("op_kind must be 'g' or 's'")
        r = spec.trunc_r
        if r is None or not (scales.t_min < r <= scales.t_max):
            raise ValueError("truncation radius must lie inside the scale range")
        low = scales.nodes < r
        if not low.any():
            raise ValueError("no scale nodes below the truncation radius")
        keep = low if spec.part == "low" else ~low
    return mask, keep, vol


def square_functions(kernel: Kernel, f: GridFunction, scales: ScaleGrid,
                     specs: Iterable[OperatorSpec],
                     ) -> tuple[SquareFunctionResult, ...]:
    """Every operator in specs from one pass over the scale grid.

    Per scale t: psi_t * f is one inverse FFT of fft(f) times the cached
    kernel spectrum; |psi_t * f|^2 feeds the vertical operators directly
    and, through one forward FFT, the frequency-domain accumulator of each
    spatially summed operator.  Results come back in the order of specs.
    """
    _require_certified(kernel)
    specs = tuple(specs)
    plans = [_plan(spec, kernel, f, scales) for spec in specs]
    n, L, N = f.n, f.L, f.N
    fhat = _rfftn(f.values)
    acc = [np.zeros(f.values.shape) if mask is None
           else np.zeros(fhat.shape, dtype=complex) for mask, _, _ in plans]
    for j, (t, w) in enumerate(zip(scales.nodes.tolist(),
                                   scales.weights.tolist())):
        live = [k for k, (_, keep, _) in enumerate(plans) if keep[j]]
        if not live:
            continue
        F = _irfftn(fhat * _kernel_spectrum(kernel, n, L, N, t), n, N)
        sq = F * F
        sq_hat = None
        for k in live:
            mask = plans[k][0]
            if mask is None:
                acc[k] += w * sq
                continue
            if sq_hat is None:
                sq_hat = _rfftn(sq) * w
            acc[k] += sq_hat * _mask_spectrum(mask, n, L, N, t)
    results = []
    for spec, (mask, _, vol), total in zip(specs, plans, acc):
        if mask is not None:
            total = _irfftn(total, n, N)
        # convolution roundoff can leave tiny negatives
        vals = np.sqrt(np.maximum(total, 0.0))
        results.append(SquareFunctionResult(
            f.with_values(vals), spec.op, kernel.name, scales, lam=spec.lam,
            ell=spec.ell, trunc_r=spec.trunc_r, part=spec.part,
            tail_bound=_tail_bound(kernel, f, scales, vol)))
    return tuple(results)


def g_function(kernel: Kernel, f: GridFunction,
               scales: ScaleGrid) -> SquareFunctionResult:
    """Vertical square operator (sum_j |psi_{t_j}*f|^2 w_j)^{1/2}."""
    return square_functions(kernel, f, scales, [OperatorSpec("g")])[0]


def area_integral(kernel: Kernel, f: GridFunction,
                  scales: ScaleGrid) -> SquareFunctionResult:
    """Conical square operator over |y - x| < t (periodic metric)."""
    return square_functions(kernel, f, scales, [OperatorSpec("s")])[0]


def g_star(kernel: Kernel, f: GridFunction, lam: float,
           scales: ScaleGrid) -> SquareFunctionResult:
    """Weighted full-plane square operator with weight (t/(t+|x-y|))^{lam n}."""
    return square_functions(kernel, f, scales,
                            [OperatorSpec("gstar", lam=lam)])[0]


def dilated_area_integral(kernel: Kernel, f: GridFunction, ell: int,
                          scales: ScaleGrid) -> SquareFunctionResult:
    """Area integral with the cone opened to |y - x| < 2^ell t."""
    return square_functions(kernel, f, scales,
                            [OperatorSpec("s_dilated", ell=ell)])[0]


def annulus_level_cap(n: int, L: float, scales: ScaleGrid) -> int:
    """Smallest ell beyond which every annulus 2^{ell-1}t <= |y-x| is empty."""
    dmax = L * math.sqrt(n) / 2.0
    return max(1, int(math.ceil(1.0 + math.log2(dmax / scales.t_min))))


def split_at_scale(op_kind: str, kernel: Kernel, f: GridFunction, r: float,
                   scales: ScaleGrid) -> tuple[SquareFunctionResult, SquareFunctionResult]:
    """Truncate the scale integral at r: low takes t < r, high takes t >= r.

    The node sets partition the grid, so low^2 + high^2 equals the full
    operator squared and the sandwich low, high <= full <= low + high holds
    pointwise by arithmetic.
    """
    if op_kind not in ("g", "s"):
        raise ValueError("op_kind must be 'g' or 's'")
    lo, hi = square_functions(kernel, f, scales, [
        OperatorSpec(op_kind, trunc_r=r, part="low"),
        OperatorSpec(op_kind, trunc_r=r, part="high")])
    return lo, hi


def l2_norm(f: GridFunction, w: Weight | None = None) -> float:
    """(Σ |f|^2 ω h^n)^{1/2}; Lebesgue when no weight is given."""
    h = f.L / f.N
    sq = f.values.astype(float) ** 2
    if w is not None:
        sq = sq * w.values
    return math.sqrt(float(sq.sum()) * h**f.n)


def save_result(res: SquareFunctionResult, path: str | Path) -> None:
    g = res.values
    lam = "none" if res.lam is None else repr(res.lam)
    meta = (f"# op={res.op} lambda={lam} tmin={res.scales.t_min!r} "
            f"tmax={res.scales.t_max!r} M={res.scales.M}")
    if res.ell is not None:
        meta += f" ell={res.ell}"
    if res.part is not None:
        meta += f" part={res.part} r={res.trunc_r!r}"
    lines = [f"# n={g.n} L={g.L!r} N={g.N}", meta]
    lines.extend(repr(float(v)) for v in g.values.ravel())
    Path(path).write_text("\n".join(lines) + "\n")


def load_result(path: str | Path) -> tuple[GridFunction, dict]:
    from .grid import load_grid_function

    text = Path(path).read_text().splitlines()
    meta: dict[str, str] = {}
    if len(text) > 1 and text[1].startswith("# op="):
        for tok in text[1][2:].split():
            k, _, v = tok.partition("=")
            meta[k] = v
    return load_grid_function(path), meta
