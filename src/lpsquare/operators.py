"""Square operators on periodic grids: vertical, conical, and weighted forms.

Every operator is a quadrature of |psi_t * f|^2 over a logarithmic scale
grid carrying the multiplicative measure dt/t, composed with a spatial sum:
none for the vertical operator, a cone |y-x| < t for the area integral,
and the full box weighted by (t/(t+|x-y|))^{lambda n} for the starred form.

psi_t(x) = t^{-n} psi(|x|/t) is sampled at the grid's displacements, each
distance computed from the axis displacements scaled by 1/t.  Flipping the
sign of an axis, and in 2D swapping the axes, permutes the grid's offsets
and keeps each distance bit for bit, so kernels and masks are evaluated
once per symmetry orbit, N/2+1 of them in 1D and (N/2+1)(N/2+2)/2 in 2D,
and gathered to every offset.  Sampled kernels are mean-corrected so the
discrete mass of psi_t vanishes; this folds the quadrature residual of the
vanishing condition and the periodic truncation into a DC shift, pushing
the response to constants down to float rounding.

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
parts of their spectra are rounding noise and only the real parts are kept,
contiguous.  The scale loop writes into buffers allocated once per pass,
by numpy's one-axis FFTs (the calls rfftn and irfftn make) and by in-place
products in the operand order of the plain expressions, whose bits they
keep.  An operator whose values overflow raises OperatorOverflow.
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

from .grid import GridFunction, require_same_grid
from .kernels import Kernel, certified, evaluate
from .weights import Weight

__all__ = [
    "ScaleGrid",
    "default_scales",
    "SquareFunctionResult",
    "OperatorOverflow",
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
        if math.isinf(self.t_max / self.t_min):
            raise ValueError("the ratio t_max/t_min overflows")
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


class OperatorOverflow(ValueError):
    """An operator's values on the batch member f are not finite: the
    squared fields |psi_t * f|^2 overflow the float range."""

    def __init__(self, spec: OperatorSpec, f: GridFunction):
        super().__init__(f"the {spec.name} operator overflows")
        self.f = f


@functools.lru_cache(maxsize=32)
def _orbits(n: int, L: float, N: int) -> tuple:
    """The grid's offsets grouped into symmetry orbits, shared across calls
    on the same geometry.

    Flipping the sign of an axis, and in 2D swapping the axes, maps the
    periodic grid's offsets onto one another and keeps |x|, so every radial
    kernel and every mask takes one value per orbit.  An orbit is the
    per-axis step counts |m| <= N/2 sorted ascending: N/2+1 of them in 1D
    and (N/2+1)(N/2+2)/2 in 2D.  Returns (d, reps, where, dist): d[m] = m h
    for m = 0..N/2; reps, per axis, the step count of each orbit; where, of
    grid shape, the orbit of each offset; and dist, |x| at each orbit.
    """
    half = N // 2 + 1
    d = np.arange(half) * (L / N)
    fold = np.minimum(np.arange(N), N - np.arange(N))
    steps = np.indices((half,) * n).reshape(n, -1)
    reps = tuple(steps[:, (np.diff(steps, axis=0) >= 0).all(axis=0)])
    ids = np.empty((half,) * n, dtype=np.intp)
    ids[reps] = np.arange(reps[0].size)
    where = ids[tuple(np.sort(np.meshgrid(*(fold,) * n, indexing="ij"),
                              axis=0))]
    dist = _radius(d, reps)
    for a in (d, *reps, where, dist):
        a.setflags(write=False)
    return d, reps, where, dist


def _radius(s: np.ndarray, reps: tuple) -> np.ndarray:
    """|x| at each orbit from the displacement s[m] along an axis, the
    squares summed in axis order.  A sum of two squares does not depend on
    their order, so this is the radius of every offset of the orbit bit for
    bit; in 1D it is |s| bit for bit (barring underflow)."""
    sq = s * s
    return np.sqrt(functools.reduce(np.add, [sq[r] for r in reps]))


def _rfftn(a: np.ndarray, n: int, out: np.ndarray | None = None
           ) -> np.ndarray:
    """Transform over the last n axes, so a stack transforms member-wise,
    by the calls np.fft.rfftn makes, the complex ones in place."""
    out = np.fft.rfft(a, out=out)
    for axis in reversed(range(-n, -1)):
        np.fft.fft(out, axis=axis, out=out)
    return out


def _irfftn(spec: np.ndarray, n: int, N: int,
            out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of _rfftn by the calls np.fft.irfftn makes, the complex ones
    in place, so in 2D spec is overwritten."""
    for axis in range(-n, -1):
        np.fft.ifft(spec, axis=axis, out=spec)
    return np.fft.irfft(spec, N, out=out)


def _sampled_kernel(kernel: Kernel, n: int, L: float, N: int,
                    t: float) -> np.ndarray:
    """Mean-corrected samples of psi_t(x) = t^{-n} psi(|x|/t), the profile
    evaluated once per orbit."""
    if not t > 0:
        raise ValueError("dilation parameter must be positive")
    d, reps, where, _ = _orbits(n, L, N)
    kern = (evaluate(kernel, _radius(d / t, reps)) / t**n)[where]
    return kern - kern.mean()


def convolve(kernel: Kernel, t: float, f: GridFunction) -> GridFunction:
    """Periodic quadrature of psi_t * f with mean-corrected samples: the
    field that square_functions squares at scale t, bit for bit."""
    _require_dimension(kernel.n, f)
    kspec = _kernel_spectrum(kernel, f.n, f.L, f.N, t)
    return f.with_values(_irfftn(_rfftn(f.values, f.n) * kspec, f.n, f.N))


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


def _real_spectrum(samples: np.ndarray, n: int, scale: float) -> np.ndarray:
    """The real part, contiguous, of the transform of samples times scale."""
    spec = _rfftn(samples, n)
    spec *= scale
    return np.ascontiguousarray(spec.real)


def _kernel_spectrum(kernel: Kernel, n: int, L: float, N: int,
                     t: float) -> np.ndarray:
    """Real part of the transform of the mean-corrected samples of psi_t,
    times h^n."""
    return _real_spectrum(_sampled_kernel(kernel, n, L, N, t), n,
                          (L / N) ** n)


def _mask_spectrum(spec: OperatorSpec, n: int, L: float, N: int,
                   t: float) -> np.ndarray:
    """Real part of the transform of the spatial weight of spec, an "s" or
    "gstar" operator, at scale t, times (h/t)^n; the weight is computed
    once per orbit."""
    _, _, where, dist = _orbits(n, L, N)
    if spec.op == "s":
        weight = (dist < t).astype(float)
    else:
        weight = (t / (t + dist)) ** (spec.lam * n)
    return _real_spectrum(weight[where], n, (L / N / t) ** n)


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


def lambda_warn_threshold(kernel: Kernel) -> float:
    """Below this the full-strength mapping theorems are not guaranteed."""
    return 3.0 + (2.0 * kernel.delta + 2.0 * kernel.gamma) / kernel.n


def _tail_volume(spec: OperatorSpec, kernel: Kernel, f: GridFunction,
                 scales: ScaleGrid) -> float:
    """The tail bound's volume factor for spec; warns of a lam at or below
    the guarantee threshold."""
    n = f.n
    if spec.op == "g":
        return 1.0
    if spec.op == "s":
        return 2.0**n
    thr = lambda_warn_threshold(kernel)
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
    # per member, each about 8 N^n bytes: its samples and transform, one
    # accumulator per operator and, in 1D where the batch transforms
    # stacked, its rows of the three per-scale buffers (2D passes hold one
    # member's); one more array of headroom per member covers what a
    # caller keeps beside each member, such as the CLI's weights
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


# an overflow leaves a value that is not finite, refused at the end
@np.errstate(over="ignore", invalid="ignore")
def _stack_pass(kernel: Kernel, fs: list[GridFunction], scales: ScaleGrid,
                specs: tuple[OperatorSpec, ...], vols: list,
                ) -> list[tuple[SquareFunctionResult, ...]]:
    """One pass over the scales for a batch held in memory at once."""
    n, L, N = fs[0].n, fs[0].L, fs[0].N
    # 1D transforms run stacked over the batch; in 2D one member at a time
    # beats a stacked transform
    step = len(fs) if n == 1 else 1
    fhat = _rfftn(np.stack([f.values for f in fs]), n)
    acc = [np.zeros((len(fs),) + fs[0].values.shape) if spec.op == "g"
           else np.zeros(fhat.shape, dtype=complex) for spec in specs]
    # the distinct spatially summed operators, each mask built once per
    # scale like the kernel
    masks = dict.fromkeys(spec for spec in specs if spec.op != "g")
    # the per-scale buffers of step members: fft(f) times the kernel
    # spectrum, later the square's transform times a mask spectrum; the
    # field psi_t * f, squared and then weighted in place; the square's
    # transform
    prod = np.empty_like(fhat[:step])
    sq = np.empty((step,) + fs[0].values.shape)
    sq_hat = np.empty_like(prod) if masks else None
    for t, w in zip(scales.nodes.tolist(), scales.weights.tolist()):
        kspec = _kernel_spectrum(kernel, n, L, N, t)
        mspec = {spec: _mask_spectrum(spec, n, L, N, t) for spec in masks}
        for lo in range(0, len(fs), step):
            part = slice(lo, lo + step)
            _irfftn(np.multiply(fhat[part], kspec, out=prod), n, N, out=sq)
            sq *= sq
            if masks:
                _rfftn(sq, n, out=sq_hat)
                sq_hat *= w
            sq *= w
            for k, spec in enumerate(specs):
                if spec.op == "g":
                    acc[k][part] += sq
                else:
                    acc[k][part] += np.multiply(sq_hat, mspec[spec], out=prod)
    del fhat, prod, sq, sq_hat
    built = scales.M * (1 + len(masks))
    results = [[] for _ in fs]
    for k, (spec, vol) in enumerate(zip(specs, vols)):
        vals = acc[k] if spec.op == "g" else _irfftn(acc[k], n, N)
        acc[k] = None
        # convolution roundoff can leave tiny negatives
        np.sqrt(np.maximum(vals, 0.0, out=vals), out=vals)
        for f, out, v in zip(fs, results, vals):
            if not np.isfinite(v).all():
                raise OperatorOverflow(spec, f)
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


@np.errstate(over="ignore")
def l2_norm(f: GridFunction, w: Weight | None = None) -> float:
    """(Σ |f|^2 ω h^n)^{1/2}; Lebesgue when no weight is given, and inf
    when the sum overflows the float range."""
    h = f.L / f.N
    sq = f.values.astype(float) ** 2
    if w is not None:
        require_same_grid(f, w)
        sq = sq * w.values
    return math.sqrt(float(sq.sum()) * h**f.n)
