"""Kernel construction, certification, and dilation algebra."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpsquare
from lpsquare.kernels import (
    CertReport,
    DilatedKernel,
    Kernel,
    certify,
    dilate,
    evaluate,
    gauss_derivative_kernel,
    hermite2_kernel,
    kernel_registry,
    nonvanishing_hat_kernel,
    poisson_derivative_kernel,
)
from lpsquare.kernels import _tail


def test_poisson_derivative_value_at_origin():
    k = poisson_derivative_kernel(1)
    # c_1 (1 - 2) = -1/pi
    got = float(evaluate(k, np.array([0.0]))[0])
    assert got == pytest.approx(-1.0 / math.pi, abs=1e-15)


def test_poisson_derivative_is_even():
    k = poisson_derivative_kernel(1)
    x = np.linspace(0.01, 30.0, 200)
    assert np.allclose(evaluate(k, x), evaluate(k, -x), rtol=0, atol=0)


def test_poisson_certifies_both_dimensions():
    for n in (1, 2):
        k = poisson_derivative_kernel(n)
        rep = k.report
        assert rep is not None and rep.passed
        assert rep.p1_residual < 1e-6
        assert 0 < k.c1 < np.inf
        assert 0 < k.c2 < np.inf


def test_gauss_certifies_both_dimensions():
    for n in (1, 2):
        k = gauss_derivative_kernel(n)
        assert k.report.passed
        assert k.report.p1_residual < 1e-8
        assert 0 < k.c1 < np.inf and 0 < k.c2 < np.inf


def test_hermite2_certifies():
    k = hermite2_kernel()
    assert k.report.passed
    assert k.report.p1_residual < 1e-8


def test_nonvanishing_hat_rejected():
    k = nonvanishing_hat_kernel()
    rep = certify(k)
    assert not rep.passed
    # integral of (1-x^2)exp(-x^2) is sqrt(pi)/2
    assert rep.p1_residual == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-6)


def test_certified_bounds_hold_on_fresh_probes():
    rng = np.random.default_rng(99)
    for k in (poisson_derivative_kernel(1), poisson_derivative_kernel(2)):
        n = k.n
        r = np.geomspace(1e-2, 1e2, 500)
        if n == 1:
            pts = r[:, None] * np.where(rng.uniform(size=500) < 0.5, 1, -1)[:, None]
        else:
            th = rng.uniform(0, 2 * math.pi, 500)
            pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        vals = np.abs(evaluate(k, pts))
        bound = k.c1 * (1 + r) ** (-(n + k.delta))
        assert np.all(vals <= bound * (1 + 1e-9))


def test_certify_rejects_bad_decay():
    bad = Kernel("flat", 1, lambda p: np.ones(p.shape[0]), delta=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        certify(bad)


def test_planar_kernel_must_supply_radial_profile():
    # certification integrates a planar kernel in polar form
    with pytest.raises(ValueError, match="radial_profile"):
        Kernel("box", 2, lambda p: np.zeros(p.shape[0]), delta=1.0, gamma=1.0)


def test_zero_kernel_certifies_with_zero_constants():
    def prof(pts):
        pts = np.asarray(pts)
        m = pts.shape[0]
        return np.zeros(m)

    z = Kernel("zero", 1, prof, delta=1.0, gamma=1.0)
    rep = certify(z)
    assert rep.passed
    assert rep.c1 == 0.0 and rep.c2 == 0.0
    assert rep.p1_residual == 0.0


def test_dilate_identity_and_origin_scaling():
    k = poisson_derivative_kernel(1)
    x = np.linspace(-3, 3, 41)
    d1 = dilate(k, 1.0)
    assert np.allclose(d1(x), evaluate(k, x), rtol=0, atol=0)
    for t in (0.25, 4.0):
        dt = dilate(k, t)
        assert float(dt(np.array([0.0]))[0]) == pytest.approx(
            evaluate(k, np.array([0.0]))[0] / t, rel=1e-15)


def test_dilate_mass_invariance():
    k = hermite2_kernel()
    x = np.linspace(-60, 60, 2**13 + 1)
    for t in (0.25, 1.0, 4.0):
        mass = np.trapezoid(dilate(k, t)(x), x)
        assert abs(mass) < 1e-8


def test_dilation_composes():
    k = poisson_derivative_kernel(1)
    x = np.linspace(-5, 5, 101)
    lhs = dilate(dilate(k, 0.5), 3.0)(x)
    rhs = dilate(k, 1.5)(x)
    assert np.array_equal(lhs, rhs)


def test_dilate_rejects_nonpositive():
    k = poisson_derivative_kernel(1)
    with pytest.raises(ValueError):
        dilate(k, 0.0)
    with pytest.raises(ValueError):
        dilate(k, -2.0)


def test_registry_names():
    assert kernel_registry("poisson-derivative", 2).name == "poisson-derivative"
    assert kernel_registry("gauss-derivative", 1).name == "gauss-derivative"
    assert kernel_registry("hermite2", 1).name == "hermite2"
    with pytest.raises(ValueError):
        kernel_registry("hermite2", 2)
    with pytest.raises(ValueError):
        kernel_registry("泊松", 1)


def test_gauss_derivative_closed_form_spot_values():
    # psi(0) = -(4 pi)^{-n/2} * n/2
    for n in (1, 2):
        k = gauss_derivative_kernel(n)
        pt = np.zeros((1, n))
        expect = -((4 * math.pi) ** (-n / 2)) * n / 2
        assert float(evaluate(k, pt)[0]) == pytest.approx(expect, rel=1e-15)


# ---------------------------------------------------------------------------
# the vanishing residual's Gauss-Legendre rule

B = 64.0


def test_tail_rule_matches_closed_forms():
    # ∫_B^∞ ψ = B / (π(1+B²)) for the 1D Poisson derivative: d/dt of the
    # tail mass (π/2 - arctan(B/t))/π at t = 1
    k1 = poisson_derivative_kernel(1)
    exact = B / (math.pi * (1.0 + B * B))
    assert _tail(lambda s: evaluate(k1, s), B) == pytest.approx(exact,
                                                                rel=1e-12)
    assert _tail(lambda s: evaluate(k1, -s), B) == pytest.approx(exact,
                                                                 rel=1e-12)
    # ∫_B^∞ r ψ(r) dr = B² (1+B²)^(-3/2) / (2π) for the 2D one
    k2 = poisson_derivative_kernel(2)
    exact = B * B * (1.0 + B * B) ** -1.5 / (2.0 * math.pi)
    got = _tail(lambda r: k2.radial_profile(r) * r, B)
    assert got == pytest.approx(exact, rel=1e-12)


# kernel_check.csv's residual cells as the adaptive-quadrature tails gave
# them; the fixed rule must stay within 1e-14 of each
@pytest.mark.parametrize("make, n, residual", [
    (poisson_derivative_kernel, 1, 2.4667799053412764e-11),
    (gauss_derivative_kernel, 1, 7.63023160826846e-18),
    (lambda n: hermite2_kernel(), 1, 1.3095189338137254e-17),
    (lambda n: nonvanishing_hat_kernel(), 1, 0.8862269254527579),
    (poisson_derivative_kernel, 2, 9.864128095930662e-16),
    (gauss_derivative_kernel, 2, 2.179917811255395e-17),
])
def test_residual_stays_at_its_pinned_value(make, n, residual):
    rep = certify(make(n))
    assert abs(rep.p1_residual - residual) <= 1e-14
    assert rep.passed is (residual < 1e-6)


def test_certify_judges_against_tol_vanish():
    k = poisson_derivative_kernel(1)
    assert k.report.tol_vanish == 1e-6
    loose = certify(k, tol_vanish=1e-3)
    assert loose.passed and loose.tol_vanish == 1e-3
    assert (loose.p1_residual, loose.c1, loose.c2) == \
        (k.report.p1_residual, k.c1, k.c2)
    tight = certify(k, tol_vanish=1e-12)
    assert not tight.passed and tight.tol_vanish == 1e-12
    assert certify(nonvanishing_hat_kernel(), tol_vanish=1.0).passed
    for bad in (0.0, -1e-6, float("nan")):
        with pytest.raises(ValueError):
            certify(k, tol_vanish=bad)


def test_kernel_check_runs_without_scipy(tmp_path):
    # a fresh interpreter, so no other test's imports count
    code = (
        "import sys\n"
        "from lpsquare.cli import main\n"
        f"assert main(['kernel-check', '--set', 'grid.N=16', "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(lpsquare.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
