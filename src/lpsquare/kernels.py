"""Admissible convolution profiles and their certification.

A usable profile ψ must satisfy three conditions: vanishing integral,
pointwise size decay |ψ(x)| <= C1 (1+|x|)^{-(n+delta)}, and a Hölder
smoothness estimate |ψ(x+h)-ψ(x)| <= C2 |h|^gamma (1+|x|)^{-(n+delta+gamma)}
restricted to 2|h| <= |x|.  certify() measures the best constants over a
deterministic probe set and the integral residual by quadrature (a
trapezoid rule on the probe box plus a fixed Gauss–Legendre rule for the
tails), and certified() is the one verdict on that measurement.  Shipped
constructors attach their measured report, and refuse an uncertified kernel
unless it is the negative control.

Every kernel is radial: its profile is ψ as a function of r = |x|, a
closed-form evaluator that the operators sample on the distance grid of
whatever (L, N, t) a run uses, so one kernel serves every combination.
"""

from __future__ import annotations

import binascii
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import SHIPPED_KERNELS

__all__ = [
    "Kernel",
    "CertReport",
    "poisson_derivative_kernel",
    "gauss_derivative_kernel",
    "hermite2_kernel",
    "nonvanishing_hat_kernel",
    "gaussian_bump_kernel",
    "shipped_kernels",
    "kernel_registry",
    "certify",
    "certified",
    "evaluate",
]

TOL_VANISH = 1e-6
_PROBE_BOX = 64.0
_P1_NODES = 2**14
_GL_NODES = 200
_PROBES = 4096


@dataclass(frozen=True)
class CertReport:
    """What certify measured: |∫ψ| and the best C1 and C2 over the probes."""

    p1_residual: float
    c1: float
    c2: float


@dataclass(frozen=True)
class Kernel:
    """Closed-form radial profile on R^n with declared decay/smoothness
    exponents.

    profile maps distances r >= 0, an array of any shape, to ψ(x) at
    |x| = r, elementwise.
    """

    name: str
    n: int
    profile: Callable[[np.ndarray], np.ndarray]
    delta: float
    gamma: float
    report: CertReport | None = None

    def __post_init__(self) -> None:
        if self.n not in (1, 2):
            raise ValueError("kernel dimension must be 1 or 2")
        if not (0 < self.gamma <= 1):
            raise ValueError("gamma must lie in (0, 1]")


def evaluate(kernel: Kernel, r: np.ndarray) -> np.ndarray:
    """ψ at distances r >= 0, in the shape of r."""
    return np.asarray(kernel.profile(np.asarray(r, dtype=float)), dtype=float)


def poisson_derivative_kernel(n: int) -> Kernel:
    """Time derivative of the Poisson semigroup kernel at unit height.

    P_t(x) = c_n t (t^2+|x|^2)^{-(n+1)/2}, c_n = Gamma((n+1)/2)/pi^{(n+1)/2}.
    Differentiating in t and setting t=1:

        ψ(x) = c_n [ (1+|x|^2)^{-(n+1)/2} - (n+1)(1+|x|^2)^{-(n+3)/2} ],

    since d/dt [t (t^2+r^2)^{-(n+1)/2}] = (t^2+r^2)^{-(n+1)/2}
    - (n+1) t^2 (t^2+r^2)^{-(n+3)/2}.  Decay delta=1, smoothness gamma=1.
    """
    cn = math.gamma((n + 1) / 2.0) / math.pi ** ((n + 1) / 2.0)

    def f(r: np.ndarray) -> np.ndarray:
        q = 1.0 + np.asarray(r, dtype=float) ** 2
        return cn * (q ** (-(n + 1) / 2.0) - (n + 1) * q ** (-(n + 3) / 2.0))

    return _certified(Kernel("poisson-derivative", n, f, delta=1.0, gamma=1.0))


def gauss_derivative_kernel(n: int) -> Kernel:
    """Time derivative of the heat kernel at unit time.

    W_t(x) = (4 pi t)^{-n/2} exp(-|x|^2/(4t)); differentiating at t=1 gives
    ψ(x) = (4 pi)^{-n/2} exp(-|x|^2/4) (|x|^2/4 - n/2).  The Gaussian tail
    dominates any polynomial, so delta=2, gamma=1 certify comfortably.
    """
    a = (4.0 * math.pi) ** (-n / 2.0)

    def f(r: np.ndarray) -> np.ndarray:
        r2 = np.asarray(r, dtype=float) ** 2
        return a * np.exp(-r2 / 4.0) * (r2 / 4.0 - n / 2.0)

    return _certified(Kernel("gauss-derivative", n, f, delta=2.0, gamma=1.0))


def hermite2_kernel() -> Kernel:
    """ψ(x) = -(d/dx)(x e^{-x^2/2}) = (x^2-1) e^{-x^2/2} on the line.

    A derivative of a Schwartz function, so its integral vanishes exactly.
    """
    def f(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return (r**2 - 1.0) * np.exp(-(r**2) / 2.0)

    return _certified(Kernel("hermite2", 1, f, delta=2.0, gamma=1.0))


def nonvanishing_hat_kernel() -> Kernel:
    """ψ(x) = (1-x^2) e^{-x^2}: hat-shaped but with integral sqrt(pi)/2.

    Shipped as a negative control with its measured report attached: its
    residual fails the vanishing check, so it is not certified.
    """
    def f(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return (1.0 - r**2) * np.exp(-(r**2))

    return _measured(Kernel("nonvanishing-hat", 1, f, delta=2.0, gamma=1.0))


def gaussian_bump_kernel() -> Kernel:
    """ψ(x) = e^{-|x|^2} on the plane, with integral pi: the 2D negative
    control, since the 1D one's profile integrates to 0 over the plane."""
    def f(r: np.ndarray) -> np.ndarray:
        return np.exp(-(np.asarray(r, dtype=float) ** 2))

    return _measured(Kernel("gaussian-bump", 2, f, delta=2.0, gamma=1.0))


# each shipped kernel's constructor in dimension n, by registry name
_MAKERS = {"poisson-derivative": poisson_derivative_kernel,
           "gauss-derivative": gauss_derivative_kernel,
           "hermite2": lambda n: hermite2_kernel(),
           "nonvanishing-hat": lambda n: nonvanishing_hat_kernel(),
           "gaussian-bump": lambda n: gaussian_bump_kernel()}


def shipped_kernels(n: int) -> tuple[dict, dict]:
    """The constructors of the kernels shipped in dimension n, by registry
    name as SHIPPED_KERNELS declares them: those that certify, and the
    negative controls, which must not."""
    return tuple({name: functools.partial(_MAKERS[name], n) for name in names}
                 for names in SHIPPED_KERNELS.get(n, ((), ())))


def kernel_registry(name: str, n: int) -> Kernel:
    """CLI-facing constructor lookup by registry name."""
    usable, controls = shipped_kernels(n)
    shipped = usable | controls
    if name not in shipped:
        raise ValueError(f"no kernel {name!r} ships in dimension {n}; "
                         f"valid: {', '.join(shipped)}")
    return shipped[name]()


# The positive half of numpy.polynomial.legendre.leggauss(_GL_NODES) on
# (-1, 1): its nodes, ascending, then their weights, as little-endian float64
# in base64.  leggauss symmetrizes its rule, so the half determines it bit
# for bit without the eigen-solve; tests/test_kernels.py checks that.
_GL_HALF = (
    "eMnywWwLgD9QbMEPohCYP8/2kkYFDaQ//++h6XYQrD/PWjGBEgmyP/2zRV/HCLY/qe8l"
    "uBkHuj9ABjJLyQO+Py7jDflK/8A/jHt30p/7wj8SyQs/w/bEP1jqMl+V8MY/VfOHaPbo"
    "yD/ua9inxt/KPz9ZIoPm1Mw/p7GQezbIzj/HDbuXy1zQP47rIq50VNE/iVlF8AZL0j+g"
    "9u3eckDTP4XvZw2pNNQ/Vyt2Ipon1T8OP0rZNhnWPx8YegJwCdc//k70hDb41z8JEvNe"
    "e+XYP66Z7aYv0dk/ixaIjES72j+KCoJZq6PbP+P9onJVitw/RIGlWDRv3T82biCpOVLe"
    "PzhXbh9XM98/dIzJSj8J4D/0vo8C0XfgP4ZzCcRZ5eA/5nTdrNJR4T9pa8jrNL3hP1qN"
    "CsF5J+I/lTXUfpqQ4j96WbGJkPjiP5HX81hVX+M/FJgcd+LE4z/TeEOCMSnkP/L9fSw8"
    "jOQ/9sBEPPzt5D/Wl9eMa07lP7htoA6EreU/KseUxz8L5j+065XTmGfmP7muz2SJwuY/"
    "rNEVxAsc5z/E+T9RGnTnP2MzhIOvyuc/e/3P6cUf6D9f1x8rWHPoP4VL1QZhxeg/t3EL"
    "VdsV6T+L4+kGwmTpP8Id9iYQsuk/k0lj2cD96T/IaGBcz0fqP8/fZAg3kOo/6lh7UPPW"
    "6j/M+4rC/xvrPwn1ngdYX+s/3Ugs5Peg6z/f7FU42+DrP2ckLwD+Huw/axv8U1xb7D/W"
    "u3Bo8pXsP1q57Y68zuw/9s+7NbcF7T9oMUXo3jrtPw4eTU8wbu0/oKUlMaif7T9/jONx"
    "Q8/tP15SkBP//O0/J1daNtgo7j84G8MYzFLuPy+YyxfYeu4/tK8er/mg7j/WrTl5LsXu"
    "PwLdki905+4/2im+qsgH7z/f1Y/iKSbvP9M4Pe6VQu8/YpJ7BAtd7z+B8Jx7h3XvP700"
    "q8kJjO8/LE6BhJCg7z8i1+JhGrPvP5mAkjemw+8/+Uto+zLS7z8uPWrDv97vP42L78VL"
    "6e8/6ebqWdbx7z/M2tz3XvjvP3Datz7l/O8/CLKQJ2n/7z97YZ4+VwuQP8T/ohlVCpA/"
    "c6Xl31AIkD+AH9ixSgWQPzmVIsBCAZA/c/FAl3L4jz/J57hKXeyPP8WgFl1G3o8/GrcL"
    "sS7Ojz9gjYNJF7yPP3EIk0kBqI8/AkRm9O2Rjz/DQiyt3nmPPwCcAPfUX48/MCfTdNJD"
    "jz/Ppk3p2CWPP5h2tzbqBY8/HjvXXgjkjj94l9KCNcCOPz7qC+Nzmo4/WhT+3sVyjj+p"
    "SRb1LUmOPyXyi8KuHY4/pJo2A0vwjT/I92GRBcGNP7kAoGXhj40/xyGZluFcjT8ri9pY"
    "CSiNP16eov5b8Yw/5H6r99y4jD8ax/PQj36MP7pnhTR4Qow/u7I66ZkEjD/Hl4HS+MSL"
    "PyMTHfCYg4s/NtfkXX5Aiz/LMINTrfuKPz4qMSQqtYo/+PZwPvlsij9ZpMYrHyOKP/ka"
    "b5Cg14k/eG4VK4KKiT+/hobUyDuJPz0nY39564g/Tk7QN5mZiD9IAyYjLUaIP1qJnH86"
    "8Yc/eQT4o8aahz8GlDL/1kKHP13jJBhx6YY/nEEtjZqOhj9kONUTWTKGPyKydXiy1IU/"
    "L67Znax1hT+Fjt98TRWFP3kDGSSbs4Q/W5Bpt5tQhD/1yqNvVeyDPwQ2JZrOhoM/J+Rw"
    "mA0ggz/9xsjfGLiCP4HLxfj2ToI/aLfufq7kgT+53E0gRnmBPx2gBZ3EDIE/rtzjxjCf"
    "gD+zKfSAkTCAP4EhIn7bgX8/J1noCpmgfj+Pl4rQab19P6YTURZc2Hw/cOyWQX7xez8Q"
    "jOLU3gh7Pw1A/G6MHno/Rv4CypUyeT9NjH+6CUV4P8XsdS73VXc/3kZ1LG1ldj/aRKbS"
    "enN1P6cR2FUvgHQ/U/OLAJqLcz9gnP8xypVyP5SMNl3PnnE/GVICCLmmcD/aOxSULVtv"
    "P5VKpJfwZm0/5EWGi9pwaz89j2b+CnlpPycU5Zqhf2c/Lwu8Jb6EZT9FwwZ8gIhjPywx"
    "y5EIi2E/zwBF4uwYXz8nAdd11BlbP7aSllcIGVc/0dnZXckWUz8m+x2XsiZOP10S8+z6"
    "HUY/eiQEOkYoPD/fQhPd0DEoPw=="
)


@functools.cache
def _unit_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights on (0, 1), _GL_NODES of each,
    read-only."""
    half = np.frombuffer(binascii.a2b_base64(_GL_HALF), dtype="<f8")
    x, w = half[:_GL_NODES // 2], half[_GL_NODES // 2:]
    u = (np.concatenate([-x[::-1], x]) + 1.0) / 2.0
    w = np.concatenate([w[::-1], w]) / 2.0
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def _tail(f: Callable[[np.ndarray], np.ndarray], b: float) -> float:
    """∫_b^∞ f(x) dx after the substitution x = b/u, u ∈ (0, 1]."""
    u, w = _unit_rule()
    return float(np.sum(w * f(b / u) * b / u**2))


def _vanishing_residual(kernel: Kernel) -> float:
    """Quadrature of ∫ψ: in 1D a probe-box trapezoid plus Gauss–Legendre
    tails, in 2D a polar Gauss–Legendre rule on the profile."""
    if kernel.n == 1:
        x = np.linspace(-_PROBE_BOX, _PROBE_BOX, _P1_NODES + 1)
        box = float(np.trapezoid(evaluate(kernel, np.abs(x)), x))
        # the tails beyond -_PROBE_BOX and _PROBE_BOX are equal
        tail = _tail(lambda s: evaluate(kernel, s), _PROBE_BOX)
        return abs(box + tail + tail)
    g = lambda r: evaluate(kernel, r) * r
    u, w = _unit_rule()
    inner = float(np.sum(w * g(_PROBE_BOX * u))) * _PROBE_BOX
    outer = _tail(g, _PROBE_BOX)
    return abs(2.0 * math.pi * (inner + outer))


def _probe_points(n: int, rng: np.random.Generator) -> np.ndarray:
    radii = np.geomspace(1e-3, 1e3, _PROBES)
    if n == 1:
        signs = np.where(np.arange(_PROBES) % 2 == 0, 1.0, -1.0)
        return (radii * signs)[:, None]
    theta = rng.uniform(0.0, 2.0 * math.pi, size=_PROBES)
    return np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)


def _norm(pts: np.ndarray) -> np.ndarray:
    """|x| for each row x of pts."""
    return np.sqrt((pts**2).sum(axis=1))


def certify(kernel: Kernel) -> CertReport:
    """Measure C1, C2 and the vanishing residual over _PROBES deterministic
    probes.

    Probes are reproducible (fixed seed); |h| for the smoothness check is
    drawn log-uniformly from [1e-4|x|, |x|/2], honoring the 2|h| <= |x|
    restriction.  certified() judges the residual.
    """
    if kernel.delta <= 0:
        raise ValueError("non-integrable decay: delta must be positive")
    rng = np.random.default_rng(0)
    n = kernel.n

    residual = _vanishing_residual(kernel)

    pts = _probe_points(n, rng)
    r = _norm(pts)
    psi = evaluate(kernel, r)
    c1 = float(np.max(np.abs(psi) * (1.0 + r) ** (n + kernel.delta)))

    frac = np.exp(rng.uniform(np.log(1e-4), np.log(0.5), size=_PROBES))
    if n == 1:
        hdir = np.where(rng.uniform(size=_PROBES) < 0.5, 1.0, -1.0)[:, None]
    else:
        ang = rng.uniform(0.0, 2.0 * math.pi, size=_PROBES)
        hdir = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    hnorm = frac * r
    hvec = hdir * hnorm[:, None]
    diff = np.abs(evaluate(kernel, _norm(pts + hvec)) - psi)
    denom = hnorm**kernel.gamma * (1.0 + r) ** (-(n + kernel.delta + kernel.gamma))
    c2 = float(np.max(diff / denom))
    return CertReport(residual, c1, c2)


def certified(kernel: Kernel) -> bool:
    """The verdict on a kernel: it carries a measured report whose vanishing
    residual is at most TOL_VANISH.  A Kernel built without a report is not
    certified."""
    return (kernel.report is not None
            and kernel.report.p1_residual <= TOL_VANISH)


def _measured(kernel: Kernel) -> Kernel:
    """kernel with the report certify measures on it attached."""
    return replace(kernel, report=certify(kernel))


def _certified(kernel: Kernel) -> Kernel:
    """_measured(kernel), refused unless it is certified."""
    kernel = _measured(kernel)
    if not certified(kernel):
        raise ValueError(f"kernel {kernel.name!r} failed vanishing check: "
                         f"residual {kernel.report.p1_residual:.3e}")
    return kernel
