"""Square operators on periodic grids: vertical, conical, and weighted forms.

Every operator is a quadrature of |psi_t * f|^2 over a logarithmic scale
grid carrying the multiplicative measure dt/t, composed with a spatial sum:
none for the vertical operator, a cone |y-x| < t for the area integral,
and the full box weighted by (t/(t+|x-y|))^{lambda n} for the starred form.

psi_t(x) = t^{-n} psi(|x|/t) is sampled at the grid's displacements, each
distance computed from the axis displacements scaled by 1/t.  Sampled
kernels are mean-corrected so the discrete mass of psi_t vanishes; this
folds the quadrature residual of the vanishing condition and the periodic
truncation into a DC shift, pushing the response to constants down to float
rounding.

square_functions computes any set of operators for a batch of functions
that share one geometry, in one pass over the scales: one forward FFT of
each f, then per scale one inverse FFT for psi_t * f and, when a spatial
sum is requested, one forward FFT of |psi_t * f|^2 whose product with each
mask spectrum accumulates in the frequency domain; each spatially summed
operator ends with a single inverse FFT.  Kernel and mask spectra depend
only on the geometry and the scale, so each is built once per scale, applied
to every member of the batch and dropped; the results count them as
spectra_built.  Every kernel is radial and every mask depends on |x-y|
only, so their samples are exactly even on the periodic grid; the imaginary
parts of their spectra are rounding noise and only the real parts are kept.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
# numpy loads numpy.fft on first use; loading it here, before cli forks,
# spares each child the import
import numpy.fft

from .grid import GridFunction
from .kernels import Kernel, certified, evaluate
from .weights import Weight

__all__ = [
    "ScaleGrid",
    "default_scales",
    "SquareFunctionResult",
    "convolve",
    "OperatorSpec",
    "square_functions",
    "STACK_BYTES",
    "g_function",
    "area_integral",
    "g_star",
    "lambda_warn_threshold",
    "l2_norm",
]

# Largest working set, in bytes, of one pass of the operator stack; a
# larger batch is split into passes that each stay under it.
STACK_BYTES = 128 * 2**20


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


def default_scales(f: GridFunction, M: int = 64, t_min: float | None = None,
                   t_max: float | None = None) -> ScaleGrid:
    """t from 2h (below which convolution is unresolved) to L/4 (above
    which the periodic wrap dominates), unless t_min or t_max is given."""
    h = f.L / f.N
    return ScaleGrid(2.0 * h if t_min is None else t_min,
                     f.L / 4.0 if t_max is None else t_max, M)


@dataclass(frozen=True)
class SquareFunctionResult:
    """One operator's values on one function, with what its pass measured.

    tail_bound estimates the discarded t > t_max integral via the decay
    pattern |psi_t * f| <= C1 ||f||_1 t^{-n}, whose square integrates to
    (C1 ||f||_1)^2 t_max^{-2n} / (2n), times the spatial-sum volume factor.
    spectra_built counts the kernel and mask spectra that the pass computing
    this result built; the batch_size functions of that pass shared them.
    """

    values: GridFunction
    tail_bound: float
    spectra_built: int
    batch_size: int


@functools.lru_cache(maxsize=32)
def _displacements(n: int, L: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(periodic displacement along one axis, |displacement| of grid
    shape); shared across calls on the same geometry."""
    d = ((np.arange(N) + N // 2) % N - N // 2) * (L / N)
    dist = _radius(d, n)
    d.setflags(write=False)
    dist.setflags(write=False)
    return d, dist


def _radius(d: np.ndarray, n: int) -> np.ndarray:
    """|x| on the grid from the displacement d along each axis, squares
    summed in axis order; in 1D it is |d| bit for bit (barring underflow)."""
    return np.sqrt(functools.reduce(np.add.outer, (d * d,) * n))


def _rfftn(a: np.ndarray, n: int) -> np.ndarray:
    """Transform over the last n axes, so a stack transforms member-wise."""
    return np.fft.rfftn(a, axes=tuple(range(-n, 0)))


def _irfftn(spec: np.ndarray, n: int, N: int) -> np.ndarray:
    return np.fft.irfftn(spec, s=(N,) * n, axes=tuple(range(-n, 0)))


def _periodic_conv(field: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Circular convolution out[i] = sum_m field[i-m] kern[m] (no h^n)."""
    n = field.ndim
    return _irfftn(_rfftn(field, n) * _rfftn(kern, n), n, field.shape[0])


def _sampled_kernel(kernel: Kernel, n: int, L: float, N: int,
                    t: float) -> np.ndarray:
    """Mean-corrected samples of psi_t(x) = t^{-n} psi(|x|/t)."""
    if not t > 0:
        raise ValueError("dilation parameter must be positive")
    r = _radius(_displacements(n, L, N)[0] / t, n)
    kern = evaluate(kernel, r.ravel()).reshape(r.shape) / t**n
    return kern - kern.mean()


def convolve(kernel: Kernel, t: float, f: GridFunction) -> GridFunction:
    """Periodic quadrature of psi_t * f with mean-corrected samples."""
    _require_dimension(kernel.n, f)
    kern = _sampled_kernel(kernel, f.n, f.L, f.N, t)
    h = f.L / f.N
    return f.with_values(_periodic_conv(f.values, kern) * h**f.n)


def _require_dimension(n: int, f: GridFunction) -> None:
    if n != f.n:
        raise ValueError(f"kernel dimension {n} does not match the "
                         f"{f.n}-dimensional function")


def _tail_bound(kernel: Kernel, f: GridFunction, scales: ScaleGrid,
                volume_factor: float) -> float:
    """(C1 ||f||_1 t_max^{-n})^2 / (2n) times volume_factor, computed as
    (C1 Σ|f| (h/t_max)^n)^2 / (2n) so that no factor scales with L."""
    n = f.n
    decay = float(np.abs(f.values).sum()) * (f.L / f.N / scales.t_max) ** n
    return (kernel.report.c1 * decay) ** 2 / (2 * n) * volume_factor


# ---------------------------------------------------------------------------
# kernel and mask spectra


def _kernel_spectrum(kernel: Kernel, n: int, L: float, N: int,
                     t: float) -> np.ndarray:
    """Real part of the transform of the mean-corrected samples of psi_t,
    times h^n."""
    kern = _sampled_kernel(kernel, n, L, N, t)
    return (_rfftn(kern, n) * (L / N) ** n).real


def _mask_spectrum(spec: OperatorSpec, n: int, L: float, N: int,
                   t: float) -> np.ndarray:
    """Real part of the transform of the spatial weight of spec, an "s" or
    "gstar" operator, at scale t, times (h/t)^n."""
    _, dist = _displacements(n, L, N)
    if spec.op == "s":
        weight = (dist < t).astype(float)
    else:
        weight = (t / (t + dist)) ** (spec.lam * n)
    return (_rfftn(weight, n) * (L / N / t) ** n).real


# ---------------------------------------------------------------------------
# the one-pass operator stack


@dataclass(frozen=True)
class OperatorSpec:
    """One square operator: "g" (vertical), "s" (the cone |y-x| < t) or
    "gstar" (the weight (t/(t+|x-y|))^{lam n}), the only one with a lam."""

    op: str
    lam: float | None = None

    def __post_init__(self) -> None:
        if self.op not in ("g", "s", "gstar"):
            raise ValueError(f"unknown operator {self.op!r}")
        if self.op != "gstar" and self.lam is not None:
            raise ValueError(f"operator {self.op!r} takes no lambda")
        if self.op == "gstar" and not (self.lam is not None and self.lam > 0):
            raise ValueError("lambda must be positive")

    @property
    def name(self) -> str:
        """The operator's CSV label: g, s or gstar_<lam>."""
        return self.op if self.lam is None else f"gstar_{self.lam:g}"


def lambda_warn_threshold(kernel: Kernel, n: int) -> float:
    """Below this the full-strength mapping theorems are not guaranteed."""
    return 3.0 + (2.0 * kernel.delta + 2.0 * kernel.gamma) / n


def _tail_volume(spec: OperatorSpec, kernel: Kernel, f: GridFunction,
                 scales: ScaleGrid) -> float:
    """The tail bound's volume factor for spec; warns of a lam at or below
    the guarantee threshold."""
    n = f.n
    if spec.op == "g":
        return 1.0
    if spec.op == "s":
        return 2.0**n
    thr = lambda_warn_threshold(kernel, n)
    if spec.lam <= thr:
        warnings.warn(f"lambda={spec.lam} at or below the guarantee "
                      f"threshold {thr}", stacklevel=3)
    return (f.L / scales.t_max) ** n


def square_functions(kernel: Kernel, fs: Iterable[GridFunction],
                     scales: ScaleGrid, specs: Iterable[OperatorSpec],
                     ) -> Iterator[tuple[SquareFunctionResult, ...]]:
    """Every operator in specs for every function of the batch fs.

    The functions share one geometry.  Per scale t the kernel spectrum and
    each mask spectrum are built once and applied to every member: psi_t * f
    is one inverse FFT of fft(f) times the kernel spectrum; |psi_t * f|^2
    feeds the vertical operators directly and, through one forward FFT, the
    frequency-domain accumulator of each spatially summed operator.  The
    batch runs in passes whose working set stays under STACK_BYTES, drawing
    fs one pass at a time, so a lazy fs holds one pass in memory.  Yields
    each member's results in the order of specs.  The kernel and the first
    member are checked at once, later members as they are drawn.
    """
    if not certified(kernel):
        raise ValueError(f"kernel {kernel.name!r} is not certified")
    specs, members = tuple(specs), iter(fs)
    first = next(members, None)
    if first is None:
        return iter(())
    _require_dimension(kernel.n, first)
    vols = [_tail_volume(spec, kernel, first, scales) for spec in specs]
    # per member: its samples and transform, one accumulator per operator,
    # and the per-scale field, its square, that square's transform and the
    # products feeding them, each about 8 N^n bytes
    size = max(1, STACK_BYTES // (8 * first.N**first.n * (len(specs) + 6)))
    return _passes(kernel, itertools.chain([first], members),
                   (first.n, first.L, first.N), scales, specs, vols, size)


def _passes(kernel: Kernel, members: Iterator[GridFunction], grid: tuple,
            scales: ScaleGrid, specs: tuple[OperatorSpec, ...], vols: list,
            size: int) -> Iterator[tuple[SquareFunctionResult, ...]]:
    while batch := list(itertools.islice(members, size)):
        for f in batch:
            _require_dimension(kernel.n, f)
            if (f.n, f.L, f.N) != grid:
                raise ValueError("the functions of a batch must share one grid")
        yield from _stack_pass(kernel, batch, scales, specs, vols)
        del batch  # drop this pass before the next one is drawn


def _stack_pass(kernel: Kernel, fs: list[GridFunction], scales: ScaleGrid,
                specs: tuple[OperatorSpec, ...], vols: list,
                ) -> list[tuple[SquareFunctionResult, ...]]:
    """One pass over the scales for a batch held in memory at once."""
    n, L, N = fs[0].n, fs[0].L, fs[0].N
    # 1D transforms run stacked over the batch; in 2D one rfft2 per member
    # beats a stacked one
    step = len(fs) if n == 1 else 1
    fhat = _rfftn(np.stack([f.values for f in fs]), n)
    acc = [np.zeros((len(fs),) + fs[0].values.shape) if spec.op == "g"
           else np.zeros(fhat.shape, dtype=complex) for spec in specs]
    # the distinct spatially summed operators, each mask built once per
    # scale like the kernel
    masks = dict.fromkeys(spec for spec in specs if spec.op != "g")
    for t, w in zip(scales.nodes.tolist(), scales.weights.tolist()):
        kspec = _kernel_spectrum(kernel, n, L, N, t)
        mspec = {spec: _mask_spectrum(spec, n, L, N, t) for spec in masks}
        for lo in range(0, len(fs), step):
            part = slice(lo, lo + step)
            F = _irfftn(fhat[part] * kspec, n, N)
            sq = F * F
            sq_hat = None
            for k, spec in enumerate(specs):
                if spec.op == "g":
                    acc[k][part] += w * sq
                    continue
                if sq_hat is None:
                    sq_hat = _rfftn(sq, n) * w
                acc[k][part] += sq_hat * mspec[spec]
    del fhat
    built = scales.M * (1 + len(masks))
    results = [[] for _ in fs]
    for k, (spec, vol) in enumerate(zip(specs, vols)):
        vals = acc[k] if spec.op == "g" else _irfftn(acc[k], n, N)
        acc[k] = None
        # convolution roundoff can leave tiny negatives
        np.sqrt(np.maximum(vals, 0.0, out=vals), out=vals)
        for f, out, v in zip(fs, results, vals):
            out.append(SquareFunctionResult(
                f.with_values(v), _tail_bound(kernel, f, scales, vol),
                spectra_built=built, batch_size=len(fs)))
    return [tuple(out) for out in results]


def g_function(kernel: Kernel, f: GridFunction,
               scales: ScaleGrid) -> SquareFunctionResult:
    """Vertical square operator (sum_j |psi_{t_j}*f|^2 w_j)^{1/2}."""
    return next(square_functions(kernel, [f], scales, [OperatorSpec("g")]))[0]


def area_integral(kernel: Kernel, f: GridFunction,
                  scales: ScaleGrid) -> SquareFunctionResult:
    """Conical square operator over |y - x| < t (periodic metric)."""
    return next(square_functions(kernel, [f], scales, [OperatorSpec("s")]))[0]


def g_star(kernel: Kernel, f: GridFunction, lam: float,
           scales: ScaleGrid) -> SquareFunctionResult:
    """Weighted full-plane square operator with weight (t/(t+|x-y|))^{lam n}."""
    return next(square_functions(kernel, [f], scales,
                                 [OperatorSpec("gstar", lam)]))[0]


def l2_norm(f: GridFunction, w: Weight | None = None) -> float:
    """(Σ |f|^2 ω h^n)^{1/2}; Lebesgue when no weight is given."""
    h = f.L / f.N
    sq = f.values.astype(float) ** 2
    if w is not None:
        sq = sq * w.values
    return math.sqrt(float(sq.sum()) * h**f.n)
