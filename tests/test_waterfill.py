import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.special import exp1, lambertw

from cwf import waterfill
from cwf.simulate import BLOCK, TrialPlan, trial_stream
from cwf.waterfill import (
    GRID_STEP,
    FastFadingScenario,
    _threshold_cap,
    capacity_lower_bound,
    evaluate_thresholds,
    lower_bound_terms,
    mc_capacity,
    optimize_threshold,
    single_user_threshold,
)


# ------------------------------------------------------ threshold optimization

def test_single_user_threshold_lambert_oracle():
    assert single_user_threshold(1.0, 1) == pytest.approx(0.5671432904097838, abs=1e-10)
    assert single_user_threshold(1.0, 2) == pytest.approx(0.8526055020137254, abs=1e-10)
    for p, s in [(0.5, 3), (2.0, 1), (10.0, 4), (0.1, 2)]:
        want = float(lambertw(1.0 / p + s - 1.0).real)
        assert single_user_threshold(p, s) == pytest.approx(want, abs=1e-10)


def test_single_user_threshold_monotonicity():
    assert single_user_threshold(1.0, 2) > single_user_threshold(1.0, 1)
    assert single_user_threshold(2.0, 2) < single_user_threshold(1.0, 2)


def test_capacity_lower_bound_single_user_closed_form():
    for p in (0.5, 1.0, 10.0):
        got = capacity_lower_bound(0.0, FastFadingScenario(1, p))
        want = math.exp(1.0 / p) * float(exp1(1.0 / p))
        assert got == pytest.approx(want, abs=1e-6)


def test_capacity_lower_bound_binomial_weights_sum():
    # the binomial weights over the S-1 interferers form a distribution
    weights, _ = lower_bound_terms(0.7, FastFadingScenario(4, 1.0))
    assert len(weights) == 4
    assert sum(weights) == pytest.approx(1.0, rel=1e-12)


def test_capacity_lower_bound_vanishes_at_large_threshold():
    sc = FastFadingScenario(2, 1.0)
    values = [capacity_lower_bound(th, sc, cross_check=False) for th in (6.0, 9.0, 12.0)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-3


def test_capacity_lower_bound_continuity():
    sc = FastFadingScenario(3, 2.0)
    grid = np.linspace(0.0, 4.0, 401)
    vals = np.array([capacity_lower_bound(float(g), sc, cross_check=False) for g in grid])
    assert np.max(np.abs(np.diff(vals))) < 0.02


@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.1, max_value=100.0),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_capacity_lower_bound_array_matches_scalar_calls(s_count, power, data):
    # thresholds on the search's own lattice, so no two lie within rounding
    top = int(_threshold_cap(s_count) / GRID_STEP)
    steps = data.draw(st.lists(st.integers(min_value=0, max_value=top),
                               min_size=1, max_size=40, unique=True))
    grid = np.sort(steps) * GRID_STEP
    sc = FastFadingScenario(s_count, power)
    values = capacity_lower_bound(grid, sc, cross_check=False)
    scalars = [capacity_lower_bound(float(g), sc, cross_check=False) for g in grid]
    assert values.shape == grid.shape
    assert values == pytest.approx(scalars, rel=1e-12)
    assert np.argmax(values) == np.argmax(scalars)


def test_capacity_lower_bound_cross_check_rejects_array():
    with pytest.raises(ValueError, match="cross-check takes a scalar threshold"):
        capacity_lower_bound(np.array([0.5, 1.0]), FastFadingScenario(2, 1.0))


def test_optimize_threshold_interior_maximum_and_ordering():
    sc = FastFadingScenario(2, 1.0)
    res = optimize_threshold(sc)
    assert res.cl_at_multi >= res.cl_at_single
    # the cooperative threshold exceeds the interference-blind one
    assert res.gamma_multi > res.gamma_single
    # local maximality at 1e-3 resolution
    for delta in (-1e-3, 1e-3):
        probe = max(res.gamma_multi + delta, 0.0)
        assert capacity_lower_bound(probe, sc, cross_check=False) <= res.cl_at_multi + 1e-9


def test_optimize_threshold_single_user_exists():
    res = optimize_threshold(FastFadingScenario(1, 1.0))
    assert res.gamma_single > 0.0
    assert math.isfinite(res.gamma_multi)
    assert res.cl_at_multi >= res.cl_at_single


@pytest.mark.parametrize("s_count,power,want", [
    (1, 0.1, (1.492451709109245, 0.16354983075373591, 1.7455280027406994)),
    (4, 10.0, (1.4287702754764529, 0.5608892323311842, 1.0667683070416145)),
    (8, 100.0, (2.0889086580135294, 0.42478748599629357, 1.5252073397422148)),
])
def test_optimize_threshold_pinned(s_count, power, want):
    # (gamma_multi, cl_at_multi, gamma_single) as the scalar grid loop found them
    res = optimize_threshold(FastFadingScenario(s_count, power))
    assert (res.gamma_multi, res.cl_at_multi, res.gamma_single) == pytest.approx(want, rel=1e-12)


def test_optimize_threshold_evaluates_grid_in_one_call(monkeypatch):
    # one array call for the ~850-point grid, then the scalar refinement
    calls = []
    real = waterfill.capacity_lower_bound

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(waterfill, "capacity_lower_bound", counting)
    optimize_threshold(FastFadingScenario(4, 1.0))
    assert len(calls) < 100


# --------------------------------------------------------------- Monte Carlo

def test_mc_capacity_single_user_matches_quadrature():
    sc = FastFadingScenario(1, 1.0)
    th = 0.6
    est = mc_capacity(th, sc, TrialPlan(300_000, 77))
    want = capacity_lower_bound(th, sc)  # exact for S=1 (no interference)
    assert abs(est.mean - want) <= 3.0 * est.ci95


def test_mc_capacity_jensen_direction():
    sc = FastFadingScenario(3, 2.0)
    th = 0.9
    est = mc_capacity(th, sc, TrialPlan(200_000, 78))
    assert est.mean >= capacity_lower_bound(th, sc) - 3.0 * est.ci95


def test_mc_capacity_deterministic_and_chunk_invariant():
    # two blocks merged: the same draws reduced two-pass in one array
    sc = FastFadingScenario(2, 1.0)
    th = 0.5
    a = mc_capacity(th, sc, TrialPlan(70_000, 5))
    assert a == mc_capacity(th, sc, TrialPlan(70_000, 5))
    gains = np.concatenate([trial_stream(5, 0).standard_exponential((BLOCK, 2)),
                            trial_stream(5, 1).standard_exponential((70_000 - BLOCK, 2))])
    pon = math.exp(-th)
    interference = (gains[:, 1] / pon) * (gains[:, 1] > th)
    values = np.where(gains[:, 0] > th, np.log1p((gains[:, 0] / pon) / (1.0 + interference)), 0.0)
    assert a.trials == 70_000
    assert a.mean == pytest.approx(values.mean(), rel=1e-12)
    assert a.se == pytest.approx(values.std(ddof=1) / math.sqrt(70_000), rel=1e-12)


@pytest.mark.parametrize("gamma_th", [math.nan, math.inf, -0.5])
def test_mc_capacity_rejects_non_finite_or_negative_threshold(gamma_th):
    # NaN passed a plain `< 0` guard and returned mean 0; inf computed inf*0
    with pytest.raises(ValueError, match="finite and non-negative"):
        mc_capacity(gamma_th, FastFadingScenario(2, 1.0), TrialPlan(100, 1))


def test_evaluate_thresholds_attaches_mc_fields():
    res = evaluate_thresholds(FastFadingScenario(2, 1.0), 50_000, seed=9)
    assert res.mc_capacity_single is not None
    assert res.mc_capacity_multi is not None
    assert res.mc_capacity_multi.mean >= res.cl_at_multi - 4.0 * res.mc_capacity_multi.ci95
