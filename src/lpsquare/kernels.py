"""Admissible convolution profiles and their certification.

A usable profile ψ must satisfy three conditions: vanishing integral,
pointwise size decay |ψ(x)| <= C1 (1+|x|)^{-(n+delta)}, and a Hölder
smoothness estimate |ψ(x+h)-ψ(x)| <= C2 |h|^gamma (1+|x|)^{-(n+delta+gamma)}
restricted to 2|h| <= |x|.  certify() measures the best constants over a
deterministic probe set and the integral residual by quadrature (a
trapezoid rule on the probe box plus a fixed Gauss–Legendre rule for the
tails); shipped constructors return already certified kernels.

Kernels are closed-form evaluators, sampled lazily onto whatever grid an
operator run uses, so one kernel serves every (L, N, t) combination.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Kernel",
    "CertReport",
    "poisson_derivative_kernel",
    "gauss_derivative_kernel",
    "hermite2_kernel",
    "nonvanishing_hat_kernel",
    "kernel_registry",
    "certify",
    "evaluate",
    "dilate",
    "DilatedKernel",
]

TOL_VANISH = 1e-6
_PROBE_BOX = 64.0
_P1_NODES = 2**14
_GL_NODES = 200
_PROBES = 4096


@dataclass(frozen=True)
class CertReport:
    p1_residual: float
    c1: float
    c2: float
    tol_vanish: float
    passed: bool
    notes: str = ""


@dataclass(frozen=True)
class Kernel:
    """Closed-form profile with declared decay/smoothness exponents.

    profile takes points of shape (m, n) and returns (m,) values.  A planar
    kernel must be radial and supply radial_profile(r), which certification
    integrates in polar form.
    """

    name: str
    n: int
    profile: Callable[[np.ndarray], np.ndarray]
    delta: float
    gamma: float
    radial_profile: Callable[[np.ndarray], np.ndarray] | None = None
    c1: float | None = None
    c2: float | None = None
    report: CertReport | None = None

    def __post_init__(self) -> None:
        if self.n not in (1, 2):
            raise ValueError("kernel dimension must be 1 or 2")
        if not (0 < self.gamma <= 1):
            raise ValueError("gamma must lie in (0, 1]")
        if self.n == 2 and self.radial_profile is None:
            raise ValueError("a planar kernel must supply radial_profile")


def evaluate(kernel: Kernel, pts: np.ndarray) -> np.ndarray:
    """ψ at points of shape (m, n) (or (m,) when n=1)."""
    pts = np.asarray(pts, dtype=float)
    if kernel.n == 1 and pts.ndim == 1:
        pts = pts[:, None]
    return np.asarray(kernel.profile(pts), dtype=float)


def _radial(name: str, n: int, f: Callable[[np.ndarray], np.ndarray],
            delta: float, gamma: float) -> Kernel:
    def profile(pts: np.ndarray) -> np.ndarray:
        r = np.sqrt((np.asarray(pts, dtype=float) ** 2).sum(axis=-1))
        return f(r)

    return Kernel(name, n, profile, delta, gamma, radial_profile=f)


def poisson_derivative_kernel(n: int) -> Kernel:
    """Time derivative of the Poisson semigroup kernel at unit height.

    P_t(x) = c_n t (t^2+|x|^2)^{-(n+1)/2}, c_n = Gamma((n+1)/2)/pi^{(n+1)/2}.
    Differentiating in t and setting t=1:

        ψ(x) = c_n [ (1+|x|^2)^{-(n+1)/2} - (n+1)(1+|x|^2)^{-(n+3)/2} ],

    since d/dt [t (t^2+r^2)^{-(n+1)/2}] = (t^2+r^2)^{-(n+1)/2}
    - (n+1) t^2 (t^2+r^2)^{-(n+3)/2}.  Decay delta=1, smoothness gamma=1.
    """
    if n not in (1, 2):
        raise ValueError("poisson_derivative_kernel supports n in {1, 2}")
    cn = math.gamma((n + 1) / 2.0) / math.pi ** ((n + 1) / 2.0)

    def f(r: np.ndarray) -> np.ndarray:
        q = 1.0 + np.asarray(r, dtype=float) ** 2
        return cn * (q ** (-(n + 1) / 2.0) - (n + 1) * q ** (-(n + 3) / 2.0))

    k = _radial("poisson-derivative", n, f, delta=1.0, gamma=1.0)
    return _with_certification(k)


def gauss_derivative_kernel(n: int) -> Kernel:
    """Time derivative of the heat kernel at unit time.

    W_t(x) = (4 pi t)^{-n/2} exp(-|x|^2/(4t)); differentiating at t=1 gives
    ψ(x) = (4 pi)^{-n/2} exp(-|x|^2/4) (|x|^2/4 - n/2).  The Gaussian tail
    dominates any polynomial, so delta=2, gamma=1 certify comfortably.
    """
    if n not in (1, 2):
        raise ValueError("gauss_derivative_kernel supports n in {1, 2}")
    a = (4.0 * math.pi) ** (-n / 2.0)

    def f(r: np.ndarray) -> np.ndarray:
        r2 = np.asarray(r, dtype=float) ** 2
        return a * np.exp(-r2 / 4.0) * (r2 / 4.0 - n / 2.0)

    k = _radial("gauss-derivative", n, f, delta=2.0, gamma=1.0)
    return _with_certification(k)


def hermite2_kernel() -> Kernel:
    """ψ(x) = -(d/dx)(x e^{-x^2/2}) = (x^2-1) e^{-x^2/2} on the line.

    A derivative of a Schwartz function, so its integral vanishes exactly.
    """
    def f(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return (r**2 - 1.0) * np.exp(-(r**2) / 2.0)

    k = _radial("hermite2", 1, f, delta=2.0, gamma=1.0)
    return _with_certification(k)


def nonvanishing_hat_kernel() -> Kernel:
    """ψ(x) = (1-x^2) e^{-x^2}: hat-shaped but with integral sqrt(pi)/2.

    Shipped uncertified as a negative control; certify() must reject it on
    the vanishing check.
    """
    def f(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return (1.0 - r**2) * np.exp(-(r**2))

    return _radial("nonvanishing-hat", 1, f, delta=2.0, gamma=1.0)


def kernel_registry(name: str, n: int) -> Kernel:
    """CLI-facing constructor lookup by registry name."""
    if name == "poisson-derivative":
        return poisson_derivative_kernel(n)
    if name == "gauss-derivative":
        return gauss_derivative_kernel(n)
    if name == "hermite2":
        if n != 1:
            raise ValueError("hermite2 kernel is one-dimensional")
        return hermite2_kernel()
    if name == "nonvanishing-hat":
        if n != 1:
            raise ValueError("nonvanishing-hat kernel is one-dimensional")
        return nonvanishing_hat_kernel()
    raise ValueError(f"unknown kernel {name!r}")


@functools.cache
def _unit_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights on (0, 1), _GL_NODES of each."""
    # imported here: only kernel certification needs numpy.polynomial
    from numpy.polynomial.legendre import leggauss
    t, w = leggauss(_GL_NODES)
    return (t + 1.0) / 2.0, w / 2.0


def _tail(f: Callable[[np.ndarray], np.ndarray], b: float) -> float:
    """∫_b^∞ f(x) dx after the substitution x = b/u, u ∈ (0, 1]."""
    u, w = _unit_rule()
    return float(np.sum(w * f(b / u) * b / u**2))


def _vanishing_residual(kernel: Kernel) -> tuple[float, str]:
    """Quadrature of ∫ψ: in 1D a probe-box trapezoid plus Gauss–Legendre
    tails, in 2D a polar Gauss–Legendre rule on the radial profile."""
    if kernel.n == 1:
        x = np.linspace(-_PROBE_BOX, _PROBE_BOX, _P1_NODES + 1)
        vals = evaluate(kernel, x)
        box = float(np.trapezoid(vals, x))
        lo = _tail(lambda s: evaluate(kernel, -s), _PROBE_BOX)
        hi = _tail(lambda s: evaluate(kernel, s), _PROBE_BOX)
        return abs(box + lo + hi), "trapezoid box + Gauss-Legendre tails"
    g = lambda r: kernel.radial_profile(r) * r
    u, w = _unit_rule()
    inner = float(np.sum(w * g(_PROBE_BOX * u))) * _PROBE_BOX
    outer = _tail(g, _PROBE_BOX)
    return abs(2.0 * math.pi * (inner + outer)), "polar Gauss-Legendre"


def _probe_points(n: int, rng: np.random.Generator) -> np.ndarray:
    radii = np.geomspace(1e-3, 1e3, _PROBES)
    if n == 1:
        signs = np.where(np.arange(_PROBES) % 2 == 0, 1.0, -1.0)
        return (radii * signs)[:, None]
    theta = rng.uniform(0.0, 2.0 * math.pi, size=_PROBES)
    return np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)


def certify(kernel: Kernel, tol_vanish: float = TOL_VANISH) -> CertReport:
    """Measure C1, C2 and the vanishing residual over _PROBES deterministic
    probes.

    Probes are reproducible (fixed seed); |h| for the smoothness check is
    drawn log-uniformly from [1e-4|x|, |x|/2], honoring the 2|h| <= |x|
    restriction.  The kernel passes when the residual is at most
    tol_vanish.
    """
    if not tol_vanish > 0:
        raise ValueError("tol_vanish must be positive")
    if kernel.delta <= 0:
        raise ValueError("non-integrable decay: delta must be positive")
    rng = np.random.default_rng(0)
    n = kernel.n

    residual, method = _vanishing_residual(kernel)

    pts = _probe_points(n, rng)
    r = np.sqrt((pts**2).sum(axis=1))
    vals = np.abs(evaluate(kernel, pts))
    c1 = float(np.max(vals * (1.0 + r) ** (n + kernel.delta)))

    frac = np.exp(rng.uniform(np.log(1e-4), np.log(0.5), size=_PROBES))
    if n == 1:
        hdir = np.where(rng.uniform(size=_PROBES) < 0.5, 1.0, -1.0)[:, None]
    else:
        ang = rng.uniform(0.0, 2.0 * math.pi, size=_PROBES)
        hdir = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    hvec = hdir * (frac * r)[:, None]
    hnorm = frac * r
    diff = np.abs(evaluate(kernel, pts + hvec) - evaluate(kernel, pts))
    denom = hnorm**kernel.gamma * (1.0 + r) ** (-(n + kernel.delta + kernel.gamma))
    c2 = float(np.max(diff / denom))

    passed = residual <= tol_vanish
    return CertReport(residual, c1, c2, tol_vanish, passed, notes=method)


def _with_certification(k: Kernel) -> Kernel:
    rep = certify(k)
    if not rep.passed:
        raise ValueError(
            f"kernel {k.name!r} failed vanishing check: residual {rep.p1_residual:.3e}")
    return dataclasses.replace(k, c1=rep.c1, c2=rep.c2, report=rep)


class DilatedKernel:
    """Evaluator for ψ_t(x) = t^{-n} ψ(x/t); composes multiplicatively."""

    def __init__(self, base: Kernel, t: float):
        if t <= 0:
            raise ValueError("dilation parameter must be positive")
        self.base = base
        self.t = float(t)

    @property
    def n(self) -> int:
        return self.base.n

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return evaluate(self.base, np.asarray(pts, dtype=float) / self.t) / self.t**self.n


def dilate(kernel: Kernel | DilatedKernel, t: float) -> DilatedKernel:
    if isinstance(kernel, DilatedKernel):
        return DilatedKernel(kernel.base, kernel.t * t)
    return DilatedKernel(kernel, t)
