import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from scipy.special import exp1

from cwf import quadrature
from cwf.config import db_to_linear
from cwf.quadrature import (
    QuadratureError,
    adaptive_simpson,
    checked_exp_integral,
    exp_tail_quadrature,
)
from cwf.waterfill import (
    FastFadingScenario,
    capacity_lower_bound,
    lower_bound_terms,
    optimize_threshold,
)


def test_exp_tail_plain_exponential():
    # int_a^inf e^-g dg = e^-a
    for a in (0.0, 0.7, 3.0):
        got = exp_tail_quadrature(np.ones_like, a)
        assert got == pytest.approx(math.exp(-a), rel=1e-13)


def test_exp_tail_polynomial_moment():
    # int_0^inf g^2 e^-g dg = 2
    assert exp_tail_quadrature(lambda g: g * g, 0.0) == pytest.approx(2.0, rel=1e-13)


@pytest.mark.parametrize("a,d", [(0.0, 2.0), (0.0, 0.1), (0.0, 1e-4), (0.5, 0.05), (3.0, 1e-6)])
def test_exp_tail_log_integrand_vs_closed_form(a, d):
    # int_a^inf ln(1+g/d) e^-g dg = e^-a ln(1+a/d) + e^d E1(d+a)
    got = exp_tail_quadrature(lambda g: np.log1p(g / d), a)
    want = math.exp(-a) * math.log1p(a / d) + math.exp(d) * float(exp1(d + a))
    assert isinstance(got, float)
    assert got == pytest.approx(want, abs=1e-11, rel=1e-11)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_exp_tail_rejects_non_finite_limit(a):
    with pytest.raises(QuadratureError, match="non-finite lower limit"):
        exp_tail_quadrature(np.log1p, a)


def test_exp_tail_raises_on_an_integration_warning(monkeypatch):
    def warning_quad(*args, **kwargs):
        warnings.warn("forced roundoff", scipy.integrate.IntegrationWarning)
        return 1.0, 0.0

    monkeypatch.setattr(scipy.integrate, "quad", warning_quad)
    # a warning raises whatever the caller's filters say, even "ignore"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(QuadratureError, match="QUADPACK warned on .*forced roundoff"):
            exp_tail_quadrature(np.log1p, 0.0)


def test_exp_tail_raises_when_quadpack_runs_out_of_subdivisions():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(QuadratureError, match=r"QUADPACK warned on .*subdivisions \(200\)"):
            exp_tail_quadrature(lambda g: np.sin(1e3 * g) + 1.0, 0.0)


@pytest.mark.parametrize("error", [2.0 * quadrature.SIMPSON_TOL, math.inf, math.nan])
def test_exp_tail_raises_on_an_oversized_error_estimate(monkeypatch, error):
    exact = scipy.integrate.quad
    monkeypatch.setattr(scipy.integrate, "quad",
                        lambda *args, **kwargs: (exact(*args, **kwargs)[0], error))
    with pytest.raises(QuadratureError, match="QUADPACK error estimate"):
        exp_tail_quadrature(np.log1p, 0.0)
    with pytest.raises(QuadratureError, match="QUADPACK error estimate"):
        checked_exp_integral(np.log1p, 0.0)


def test_adaptive_simpson_polynomial_exact(monkeypatch):
    monkeypatch.setattr(quadrature, "SIMPSON_TOL", 1e-12)
    got = adaptive_simpson(lambda x: x**3 - 2.0 * x + 1.0, 0.0, 2.0)
    assert got == pytest.approx(2.0, abs=1e-10)


def test_adaptive_simpson_matches_quadrature_route(monkeypatch):
    monkeypatch.setattr(quadrature, "SIMPSON_TOL", 1e-10)
    d = 0.1
    primary = exp_tail_quadrature(lambda g: np.log1p(g / d), 0.0)
    simpson = adaptive_simpson(lambda g: np.log1p(g / d) * np.exp(-g), 0.0, 40.0)
    assert primary == pytest.approx(simpson, abs=1e-8)


def test_adaptive_simpson_empty_interval_is_zero():
    calls = []

    def f(x):
        calls.append(x)
        return np.ones_like(x)

    assert adaptive_simpson(f, 1.0, 1.0) == 0.0
    assert adaptive_simpson(f, 2.0, 1.0) == 0.0
    assert not calls
    assert adaptive_simpson(f, 0.0, 1.0) == 1.0


def test_checked_exp_integral_sums_to_the_bound_on_threshold_grid():
    # one checked integral per term of the bound, at both thresholds of the
    # 52 threshold_grid searches (bench/threshold_grid.json: 13 SNRs x 4
    # user counts): no term fails its cross-check, and the weighted sum is
    # the closed-form bound
    checked = 0
    for s in (1, 2, 4, 8):
        for snr_db in np.arange(-10.0, 20.01, 2.5):
            sc = FastFadingScenario(s, db_to_linear(float(snr_db)))
            res = optimize_threshold(sc)
            for gamma_th in (res.gamma_single, res.gamma_multi):
                oracle = 0.0
                for w, d in lower_bound_terms(gamma_th, sc):
                    oracle += w * checked_exp_integral(lambda g: np.log1p(g / d), gamma_th)
                    checked += 1
                assert abs(capacity_lower_bound(gamma_th, sc) - oracle) <= quadrature.AGREE_TOL
    assert checked == 390


def test_checked_exp_integral_accepts_agreeing_routes():
    value = checked_exp_integral(np.log1p, 0.0)
    assert value == pytest.approx(math.e * float(exp1(1.0)), rel=1e-9)


def test_checked_exp_integral_raises_on_disagreement(monkeypatch):
    # the raise path, forced with an unachievable tolerance
    monkeypatch.setattr(quadrature, "AGREE_TOL", 1e-16)
    with pytest.raises(QuadratureError, match="quadrature routes disagree"):
        checked_exp_integral(lambda g: np.log1p(g / 1e-7), 0.0)


def test_adaptive_simpson_depth_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "SIMPSON_TOL", 1e-14)
    monkeypatch.setattr(quadrature, "SIMPSON_MAX_DEPTH", 6)
    with pytest.raises(QuadratureError, match="failed to converge"):
        adaptive_simpson(lambda x: np.abs(np.sin(50.0 / (np.abs(x) + 1e-12))), 0.0, 1.0)


@pytest.mark.parametrize("a,b", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_adaptive_simpson_rejects_non_finite_limits(a, b):
    calls = []
    with pytest.raises(QuadratureError, match="non-finite integration limits"):
        adaptive_simpson(lambda x: calls.append(x) or np.ones_like(x), a, b)
    assert not calls


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_integrand_raises_never_returns_nan(bad):
    # one bad node poisons its interval: the recursion raises at once, naming
    # the node, instead of returning NaN or halving down to the depth limit
    def f(x):
        return np.where(x == 0.5, bad, 1.0)

    with pytest.raises(QuadratureError, match=r"non-finite integrand value at g=0\.5"):
        adaptive_simpson(f, 0.0, 1.0)
    with pytest.raises(QuadratureError):
        checked_exp_integral(lambda g: np.full_like(g, bad), 0.0)
