import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.special import exp1

from cwf import quadrature
from cwf.config import db_to_linear
from cwf.quadrature import (
    QuadratureError,
    adaptive_simpson,
    checked_exp_integral,
    exp_tail_quadrature,
)
from cwf.waterfill import FastFadingScenario, lower_bound_terms, optimize_threshold


def recursive_simpson(f, a, b, tol, max_depth):
    """The classic depth-first adaptive Simpson, one scalar f call per node:
    the oracle the breadth-first `adaptive_simpson` must equal bit for bit."""
    if b <= a:
        return 0.0

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = simpson(f0, flm, f1, x1 - x0)
        right = simpson(f1, frm, f2, x2 - x1)
        delta = left + right - whole
        if depth >= max_depth:
            raise QuadratureError("depth exhausted")
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return (recurse(x0, x1, f0, flm, f1, left, eps / 2.0, depth + 1)
                + recurse(x1, x2, f1, frm, f2, right, eps / 2.0, depth + 1))

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, b - a), tol, 0)


def _reference(f, a, b):
    return recursive_simpson(f, a, b, quadrature.SIMPSON_TOL, quadrature.SIMPSON_MAX_DEPTH)


def test_exp_tail_plain_exponential():
    # int_a^inf e^-g dg = e^-a
    for a in (0.0, 0.7, 3.0):
        got = exp_tail_quadrature(lambda g, k: np.ones_like(g), a)
        assert got == pytest.approx(math.exp(-a), rel=1e-13)


def test_exp_tail_polynomial_moment():
    # int_0^inf g^2 e^-g dg = 2
    assert exp_tail_quadrature(lambda g, k: g * g, 0.0) == pytest.approx(2.0, rel=1e-13)


@pytest.mark.parametrize("a,d", [
    (0.0, 2.0), (0.0, 0.1), (0.0, 1e-4), (0.5, 0.05), (3.0, 1e-6),
    pytest.param(np.array([0.0, 0.5, 3.0]), np.array([2.0, 0.05, 1e-6]), id="array"),
])
def test_exp_tail_log_integrand_vs_closed_form(a, d):
    # int_a^inf ln(1+g/d) e^-g dg = e^-a ln(1+a/d) + e^d E1(d+a); arrays
    # broadcast, one integral per element, with one row of nodes per element
    # and k its flat element indices
    d = np.asarray(d)
    got = exp_tail_quadrature(lambda g, k: np.log1p(g / d.ravel()[k][:, None]), a, scale=d + a)
    want = np.exp(-a) * np.log1p(a / d) + np.exp(d) * exp1(d + a)
    assert isinstance(got, float if np.ndim(a) == 0 else np.ndarray)
    assert np.shape(got) == np.shape(a)
    assert got == pytest.approx(want, abs=1e-11, rel=1e-11)


def test_exp_tail_integrates_open_rows_only():
    # the element with scale 1 covers its head in one panel; every later
    # panel integrates only the element with the tiny scale
    d = np.array([1e-6, 1.0])
    rows = []

    def f(g, k):
        rows.append(g.shape[0] if g.ndim == 2 else 1)
        return np.log1p(g / d[k][..., None])

    got = exp_tail_quadrature(f, 0.0, scale=d)
    assert rows[0] == 2 and rows[-1] == 2  # first panel and the Laguerre tail
    assert set(rows[1:-1]) == {1}
    for i in range(2):
        alone = exp_tail_quadrature(lambda g, k: np.log1p(g / d[i]), 0.0, scale=d[i])
        assert got[i] == alone


@given(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(-9.0, 0.5), st.floats(-6.0, 2.0)),
                min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_exp_tail_array_elements_equal_scalar_calls(elements):
    # each element of one array call carries its own scalar call's bits;
    # tiny scales keep some rows open for many more panels than others
    a, log_scale, log_d = (np.array(col) for col in zip(*elements))
    scale, d = 10.0**log_scale, 10.0**log_d
    f = lambda g, k: np.log1p(g / d[k][..., None])
    got = exp_tail_quadrature(f, a, scale=scale)
    want = [exp_tail_quadrature(lambda g, k, i=i: np.log1p(g / d[i]), a[i], scale=scale[i])
            for i in range(len(a))]
    assert got.tolist() == want


def test_exp_tail_integrates_many_elements_in_one_pass():
    # one call over 5000 elements: the first panel and the tail see them all
    a = np.linspace(0.0, 8.0, 5000)
    d = np.geomspace(1e-6, 10.0, 5000)
    rows = []

    def f(g, k):
        rows.append(len(g))
        return np.log1p(g / d[k][..., None])

    got = exp_tail_quadrature(f, a, scale=d + a)
    assert rows[0] == rows[-1] == 5000
    want = np.exp(-a) * np.log1p(a / d) + np.exp(d) * exp1(d + a)
    assert got == pytest.approx(want, abs=1e-11, rel=1e-10)


@pytest.mark.parametrize("a,scale", [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0),
                                     (np.array([0.0, 1.0]), np.array([1.0, math.nan]))])
def test_exp_tail_rejects_non_finite_limit_or_scale(a, scale):
    with pytest.raises(QuadratureError, match="non-finite"):
        exp_tail_quadrature(lambda g, k: np.log1p(g), a, scale=scale)


def test_adaptive_simpson_polynomial_exact(monkeypatch):
    monkeypatch.setattr(quadrature, "SIMPSON_TOL", 1e-12)
    got = adaptive_simpson(lambda x, k: x**3 - 2.0 * x + 1.0, 0.0, 2.0)
    assert got == pytest.approx(2.0, abs=1e-10)


def test_adaptive_simpson_matches_quadrature_route(monkeypatch):
    monkeypatch.setattr(quadrature, "SIMPSON_TOL", 1e-10)
    d = 0.1
    primary = exp_tail_quadrature(lambda g, k: np.log1p(g / d), 0.0, scale=d)
    simpson = adaptive_simpson(lambda g, k: np.log1p(g / d) * np.exp(-g), 0.0, 40.0)
    assert primary == pytest.approx(simpson, abs=1e-8)


def test_adaptive_simpson_empty_interval_is_zero():
    got = adaptive_simpson(lambda x, k: np.ones_like(x), np.array([1.0, 0.0, 2.0]),
                           np.array([1.0, 1.0, 1.0]))
    assert got.tolist() == [0.0, 1.0, 0.0]


@given(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 20.0),
                          st.floats(0.0, 3.0), st.floats(0.0, 4.0)),
                min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
@example(integrals=[(-5.0, 7.6605116167011325, 3.0, 3.0)])
@example(integrals=[(-5.0, 8.660511616701132, 3.0, 3.0)])
def test_adaptive_simpson_bit_identical_to_recursion(integrals):
    # smooth integrands e^{-lam x} cos(w x) + 1 on [a, a + length], batched
    # in one call; each must carry the recursion's bits exactly, and the
    # batch fails exactly when the recursion does (an integrand near e^15,
    # at a = -5 and lam = 3, cannot meet the absolute SIMPSON_TOL)
    a, length, lam, w = (np.array(col) for col in zip(*integrals))
    b = a + length

    def f(x, k):
        return np.exp(-lam[k][..., None] * x) * np.cos(w[k][..., None] * x) + 1.0

    try:
        want = [_reference(lambda x, i=i: np.exp(-lam[i] * x) * np.cos(w[i] * x) + 1.0,
                           a[i], b[i]) for i in range(len(a))]
    except QuadratureError:
        with pytest.raises(QuadratureError):
            adaptive_simpson(f, a, b)
        return
    assert adaptive_simpson(f, a, b).tolist() == want


def test_cross_check_bit_identical_to_recursion_on_threshold_grid():
    # the Simpson route of checked_exp_integral, batched over the bound's
    # terms, at both thresholds of the 52 threshold_grid searches (bench/
    # threshold_grid.json: 13 SNRs x 4 user counts)
    checked = 0
    for s in (1, 2, 4, 8):
        for snr_db in np.arange(-10.0, 20.01, 2.5):
            sc = FastFadingScenario(s, db_to_linear(float(snr_db)))
            res = optimize_threshold(sc)
            for gamma_th in (res.gamma_single, res.gamma_multi):
                _, denoms = lower_bound_terms(gamma_th, sc)
                a = np.full(denoms.shape, gamma_th)
                got = adaptive_simpson(
                    lambda g, k: np.log1p(g / denoms[k][..., None]) * np.exp(-g),
                    a, a + quadrature.SIMPSON_SPAN)
                want = [_reference(lambda g, d=d: float(np.log1p(g / d) * np.exp(-g)),
                                   gamma_th, gamma_th + quadrature.SIMPSON_SPAN)
                        for d in denoms]
                assert got.tolist() == want
                checked += len(want)
    assert checked == 390


def test_checked_exp_integral_accepts_agreeing_routes():
    value = checked_exp_integral(lambda g, k: np.log1p(g), 0.0)
    assert value == pytest.approx(math.e * float(exp1(1.0)), rel=1e-9)


def test_checked_exp_integral_raises_on_disagreement(monkeypatch):
    # a wrong `scale` hint cannot break agreement, but a discontinuous
    # integrand sampled differently by the two rules can; simulate the
    # failure by checking the raise path with an unachievable tolerance
    monkeypatch.setattr(quadrature, "AGREE_TOL", 1e-16)
    with pytest.raises(QuadratureError):
        checked_exp_integral(lambda g, k: np.log1p(g / 1e-7), 0.0, scale=1.0)


def test_adaptive_simpson_depth_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "SIMPSON_TOL", 1e-14)
    monkeypatch.setattr(quadrature, "SIMPSON_MAX_DEPTH", 6)
    with pytest.raises(QuadratureError, match="failed to converge"):
        adaptive_simpson(lambda x, k: np.abs(np.sin(50.0 / (np.abs(x) + 1e-12))), 0.0, 1.0)


def test_adaptive_simpson_bounds_open_intervals():
    # at full depth this integrand keeps ever more intervals open; the pass
    # gives up before their number outgrows SIMPSON_MAX_OPEN
    with pytest.raises(QuadratureError, match="intervals open"):
        adaptive_simpson(lambda x, k: np.abs(np.sin(50.0 / (np.abs(x) + 1e-12))), 0.0, 1.0)


@pytest.mark.parametrize("a,b", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_adaptive_simpson_rejects_non_finite_limits(a, b):
    calls = []
    with pytest.raises(QuadratureError, match="non-finite integration limits"):
        adaptive_simpson(lambda x, k: calls.append(x) or np.ones_like(x), a, b)
    assert not calls


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_integrand_raises_never_returns_nan(bad):
    # one bad node poisons its interval: the pass raises at once instead of
    # returning NaN or halving down to the depth limit
    def f(x, k):
        return np.where(x == 0.5, bad, 1.0)

    with pytest.raises(QuadratureError, match="non-finite integrand"):
        adaptive_simpson(f, 0.0, 1.0)
    with pytest.raises(QuadratureError):
        checked_exp_integral(lambda g, k: np.full_like(g, bad), 0.0)
