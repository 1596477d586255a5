"""Kernel construction and certification."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpsquare
from lpsquare.kernels import (
    TOL_VANISH,
    CertReport,
    Kernel,
    certified,
    certify,
    evaluate,
    gauss_derivative_kernel,
    gaussian_bump_kernel,
    hermite2_kernel,
    kernel_registry,
    nonvanishing_hat_kernel,
    poisson_derivative_kernel,
)
from lpsquare.kernels import _GL_NODES, _tail, _unit_rule


def test_poisson_derivative_value_at_origin():
    k = poisson_derivative_kernel(1)
    # c_1 (1 - 2) = -1/pi
    got = float(evaluate(k, np.array([0.0]))[0])
    assert got == pytest.approx(-1.0 / math.pi, abs=1e-15)


def test_poisson_certifies_both_dimensions():
    for n in (1, 2):
        k = poisson_derivative_kernel(n)
        rep = k.report
        assert certified(k)
        assert rep.p1_residual < 1e-6
        assert 0 < rep.c1 < np.inf
        assert 0 < rep.c2 < np.inf


def test_gauss_certifies_both_dimensions():
    for n in (1, 2):
        k = gauss_derivative_kernel(n)
        assert certified(k)
        assert k.report.p1_residual < 1e-8
        assert 0 < k.report.c1 < np.inf and 0 < k.report.c2 < np.inf


def test_hermite2_certifies():
    k = hermite2_kernel()
    assert certified(k)
    assert k.report.p1_residual < 1e-8


def test_nonvanishing_hat_rejected():
    k = nonvanishing_hat_kernel()
    # the control carries its measured report, and fails the verdict on it
    rep = k.report
    assert rep == certify(k)
    assert not certified(k)
    # integral of (1-x^2)exp(-x^2) is sqrt(pi)/2
    assert rep.p1_residual == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-6)


def test_certified_bounds_hold_on_fresh_probes():
    r = np.geomspace(1e-2, 1e2, 500)
    for k in (poisson_derivative_kernel(1), poisson_derivative_kernel(2)):
        vals = np.abs(evaluate(k, r))
        bound = k.report.c1 * (1 + r) ** (-(k.n + k.delta))
        assert np.all(vals <= bound * (1 + 1e-9))


def test_certify_rejects_bad_decay():
    bad = Kernel("flat", 1, np.ones_like, delta=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        certify(bad)


def test_zero_kernel_certifies_with_zero_constants():
    for n in (1, 2):
        zero = Kernel("zero", n, np.zeros_like, delta=1.0, gamma=1.0)
        rep = certify(zero)
        assert certified(dataclasses.replace(zero, report=rep))
        assert rep.c1 == 0.0 and rep.c2 == 0.0
        assert rep.p1_residual == 0.0


def test_evaluate_keeps_the_shape_of_its_distances():
    k = gauss_derivative_kernel(2)
    r = np.linspace(0.0, 3.0, 12).reshape(3, 4)
    vals = evaluate(k, r)
    assert vals.shape == (3, 4)
    assert np.array_equal(vals.ravel(), evaluate(k, r.ravel()))


def test_registry_names():
    assert kernel_registry("poisson-derivative", 2).name == "poisson-derivative"
    assert kernel_registry("gauss-derivative", 1).name == "gauss-derivative"
    assert kernel_registry("hermite2", 1).name == "hermite2"
    with pytest.raises(ValueError):
        kernel_registry("hermite2", 2)
    with pytest.raises(ValueError):
        kernel_registry("泊松", 1)
    # Kernel itself refuses a dimension other than 1 or 2
    for make in (poisson_derivative_kernel, gauss_derivative_kernel):
        with pytest.raises(ValueError, match="dimension must be 1 or 2"):
            make(3)


def test_every_shipped_kernel_carries_its_measured_report():
    assert lpsquare.SHIPPED_KERNELS == {
        1: (("poisson-derivative", "gauss-derivative", "hermite2"),
            ("nonvanishing-hat",)),
        2: (("poisson-derivative", "gauss-derivative"), ("gaussian-bump",))}
    for n, (usable, controls) in lpsquare.SHIPPED_KERNELS.items():
        for name in usable + controls:
            kernel = kernel_registry(name, n)
            assert (kernel.name, kernel.n) == (name, n)
            assert kernel.report == certify(kernel)
            # the declared negative controls, and only they, fail at the
            # default tolerance
            assert certified(kernel) is (name in usable)


@pytest.mark.parametrize("name,n", [
    (name, n) for n, (usable, _) in lpsquare.SHIPPED_KERNELS.items()
    for name in usable])
def test_a_constructor_attaches_a_failing_certificate_unjudged(name, n,
                                                               monkeypatch):
    # certified() is the only verdict: a constructor whose measurement
    # fails still returns its kernel, which certified() then rejects
    monkeypatch.setattr(lpsquare.kernels, "certify",
                        lambda kernel: dataclasses.replace(
                            certify(kernel), p1_residual=1e-3))
    kernel = kernel_registry(name, n)
    assert kernel.report.p1_residual == 1e-3
    assert certified(kernel) is False


def test_gauss_derivative_closed_form_spot_values():
    # psi(0) = -(4 pi)^{-n/2} * n/2
    for n in (1, 2):
        k = gauss_derivative_kernel(n)
        expect = -((4 * math.pi) ** (-n / 2)) * n / 2
        assert float(evaluate(k, np.zeros(1))[0]) == pytest.approx(expect, rel=1e-15)


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
    # ∫_B^∞ r ψ(r) dr = B² (1+B²)^(-3/2) / (2π) for the 2D one
    k2 = poisson_derivative_kernel(2)
    exact = B * B * (1.0 + B * B) ** -1.5 / (2.0 * math.pi)
    got = _tail(lambda r: evaluate(k2, r) * r, B)
    assert got == pytest.approx(exact, rel=1e-12)


def test_unit_rule_is_leggauss_bit_for_bit():
    # the shipped half-rule spares launches this eigen-solve
    from numpy.polynomial.legendre import leggauss
    t, w = leggauss(_GL_NODES)
    u, v = _unit_rule()
    for got, want in ((u, (t + 1.0) / 2.0), (v, w / 2.0)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_unit_rule_is_read_only():
    # cached, so every later certification reads the same arrays
    assert _unit_rule() is _unit_rule()
    for a in _unit_rule():
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.5


# kernel_check.csv's residual cells as the adaptive-quadrature tails gave
# them; the fixed rule must stay within 1e-14 of each
@pytest.mark.parametrize("make, n, residual", [
    (poisson_derivative_kernel, 1, 2.4667799053412764e-11),
    (gauss_derivative_kernel, 1, 7.63023160826846e-18),
    (lambda n: hermite2_kernel(), 1, 1.3095189338137254e-17),
    (lambda n: nonvanishing_hat_kernel(), 1, 0.8862269254527579),
    (poisson_derivative_kernel, 2, 9.864128095930662e-16),
    (gauss_derivative_kernel, 2, 2.179917811255395e-17),
    (lambda n: gaussian_bump_kernel(), 2, 3.141592653589804),
])
def test_residual_stays_at_its_pinned_value(make, n, residual):
    kernel = make(n)
    assert abs(kernel.report.p1_residual - residual) <= 1e-14
    assert certified(kernel) is (residual < 1e-6)


def test_certified_judges_the_measured_residual_against_tol():
    assert [f.name for f in dataclasses.fields(CertReport)] == \
        ["p1_residual", "c1", "c2"]
    k = poisson_derivative_kernel(1)
    # the 1D Poisson kernel's residual is 2.5e-11, the control's 0.886
    assert k.report.p1_residual <= TOL_VANISH and certified(k) is True
    assert certified(nonvanishing_hat_kernel()) is False
    # a Kernel built without a report is not certified
    bare = Kernel("bare", 1, np.zeros_like, delta=1.0, gamma=1.0)
    assert certified(bare) is False


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
