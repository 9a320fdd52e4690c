import math

import numpy as np
import pytest
from scipy.special import exp1

from cwf import quadrature
from cwf.quadrature import (
    QuadratureError,
    adaptive_simpson,
    checked_exp_integral,
    exp_tail_quadrature,
)


def test_exp_tail_plain_exponential():
    # int_a^inf e^-g dg = e^-a
    for a in (0.0, 0.7, 3.0):
        got = exp_tail_quadrature(lambda g: np.ones_like(g), a)
        assert got == pytest.approx(math.exp(-a), rel=1e-13)


def test_exp_tail_polynomial_moment():
    # int_0^inf g^2 e^-g dg = 2
    assert exp_tail_quadrature(lambda g: g * g, 0.0) == pytest.approx(2.0, rel=1e-13)


@pytest.mark.parametrize("a,d", [
    (0.0, 2.0), (0.0, 0.1), (0.0, 1e-4), (0.5, 0.05), (3.0, 1e-6),
    pytest.param(np.array([0.0, 0.5, 3.0]), np.array([2.0, 0.05, 1e-6]), id="array"),
])
def test_exp_tail_log_integrand_vs_closed_form(a, d):
    # int_a^inf ln(1+g/d) e^-g dg = e^-a ln(1+a/d) + e^d E1(d+a); arrays
    # broadcast, one integral per element, with one row of nodes per element
    got = exp_tail_quadrature(lambda g: np.log1p(g / np.expand_dims(d, -1)), a, scale=d + a)
    want = np.exp(-a) * np.log1p(a / d) + np.exp(d) * exp1(d + a)
    assert isinstance(got, float if np.ndim(a) == 0 else np.ndarray)
    assert np.shape(got) == np.shape(a)
    assert got == pytest.approx(want, abs=1e-11, rel=1e-11)


def test_adaptive_simpson_polynomial_exact():
    got = adaptive_simpson(lambda x: x**3 - 2.0 * x + 1.0, 0.0, 2.0, tol=1e-12)
    assert got == pytest.approx(2.0, abs=1e-10)


def test_adaptive_simpson_matches_quadrature_route():
    d = 0.1
    primary = exp_tail_quadrature(lambda g: np.log1p(g / d), 0.0, scale=d)
    simpson = adaptive_simpson(lambda g: math.log1p(g / d) * math.exp(-g), 0.0, 40.0, tol=1e-10)
    assert primary == pytest.approx(simpson, abs=1e-8)


def test_checked_exp_integral_accepts_agreeing_routes():
    value = checked_exp_integral(lambda g: np.log1p(g), 0.0)
    assert value == pytest.approx(math.e * float(exp1(1.0)), rel=1e-9)


def test_checked_exp_integral_raises_on_disagreement(monkeypatch):
    # a wrong `scale` hint cannot break agreement, but a discontinuous
    # integrand sampled differently by the two rules can; simulate the
    # failure by checking the raise path with an unachievable tolerance
    monkeypatch.setattr(quadrature, "AGREE_TOL", 1e-16)
    with pytest.raises(QuadratureError):
        checked_exp_integral(lambda g: np.log1p(g / 1e-7), 0.0, scale=1.0)


def test_adaptive_simpson_depth_exhaustion_raises():
    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda x: abs(math.sin(50.0 / (abs(x) + 1e-12))), 0.0, 1.0,
                         tol=1e-14, max_depth=6)
