import math
import tracemalloc
from types import SimpleNamespace

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.special import exp1, lambertw

from cwf import quadrature, waterfill
from cwf.config import ExperimentConfig, db_to_linear
from cwf.simulate import BLOCK, TrialPlan, point_seed, trial_stream
from cwf.sweeps import run_waterfill_sweep
from cwf.waterfill import (
    GRID_STEP,
    FastFadingScenario,
    _threshold_cap,
    capacity_lower_bound,
    evaluate_thresholds,
    lower_bound_terms,
    mc_capacity,
    optimize_threshold,
    scaled_exp1,
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


def test_single_user_threshold_rejects_fractional_user_count():
    with pytest.raises(ValueError, match="s_count must be an integer >= 1"):
        single_user_threshold(1.0, 2.5)


def _bisect_200_steps(power, s_count):
    """The blind threshold's bisection run for all 200 steps, without a stop test."""
    target = 1.0 / power + (s_count - 1)
    if target < 1.0:
        lo, hi = target / math.e, target
    else:
        lo, hi = 0.0, 1.0
        while hi * math.exp(hi) < target:
            hi = min(2.0 * hi, 709.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_single_user_threshold_stops_early_with_the_200_step_bits(monkeypatch):
    # the bisection stops once its midpoint rounds onto an end of the
    # bracket, which then never changes: the 200-step loop's result, bit for
    # bit, in far fewer steps (its old stop test never held, so all 200 ran)
    grid = [(db_to_linear(float(db)), s) for s in (1, 2, 3, 4, 8, 16, 128, 1030)
            for db in np.arange(-300.0, 3081.0, 10.0)]
    for p, s in grid:
        assert single_user_threshold(p, s) == _bisect_200_steps(p, s)
    calls = []
    monkeypatch.setattr(waterfill, "math", SimpleNamespace(
        e=math.e, exp=lambda x: calls.append(x) or math.exp(x)))
    for p, s in grid:
        calls.clear()
        single_user_threshold(p, s)
        assert len(calls) <= 70  # at most 11 bracket doublings and 53 halvings


@pytest.mark.parametrize("power", [math.inf, math.nan, 0.0])
def test_single_user_threshold_rejects_non_finite_or_zero_power(power):
    # an infinite power returned 2.8e-17
    with pytest.raises(ValueError, match="power must be positive and finite"):
        single_user_threshold(power, 1)


@pytest.mark.parametrize("power", [1e-300, 5.7e-309])
def test_single_user_threshold_at_extreme_low_power(power):
    # the bracket doubled past e^709 and math.exp overflowed; it now stops at 709
    th = single_user_threshold(power, 1)
    assert th * math.exp(th) == pytest.approx(1.0 / power, rel=1e-12)


@pytest.mark.parametrize("snr_db", [160.0, 300.0, 3080.0])
def test_single_user_threshold_keeps_its_digits_at_high_snr(snr_db):
    # the target was (1/p + 1) - 1, which rounds to 0 once 1/p < 2^-53, and an
    # absolute stopping width then returned 2.78e-17 in place of about 1/p
    power = 10.0 ** (snr_db / 10.0)
    with mpmath.workdps(40):
        want = float(mpmath.lambertw(mpmath.mpf(1.0 / power)))
    assert single_user_threshold(power, 1) == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("s_count", [2.5, True, 0])
def test_fast_fading_scenario_rejects_non_integer_user_count(s_count):
    # 2.5 died in optimize_threshold's range(); True passed as one user
    with pytest.raises(ValueError, match="s_count must be an integer >= 1"):
        FastFadingScenario(s_count, 1.0)


def test_capacity_lower_bound_single_user_closed_form():
    for p in (0.5, 1.0, 10.0):
        got = capacity_lower_bound(0.0, FastFadingScenario(1, p))
        want = math.exp(1.0 / p) * float(exp1(1.0 / p))
        assert got == pytest.approx(want, abs=1e-6)


def test_capacity_lower_bound_binomial_weights_sum():
    # the binomial weights over the S-1 interferers form a distribution
    weights = [w for w, _ in lower_bound_terms(0.7, FastFadingScenario(4, 1.0))]
    assert len(weights) == 4
    assert sum(weights) == pytest.approx(1.0, rel=1e-12)


def test_capacity_lower_bound_vanishes_at_large_threshold():
    sc = FastFadingScenario(2, 1.0)
    values = [capacity_lower_bound(th, sc) for th in (6.0, 9.0, 12.0)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-3


def test_capacity_lower_bound_continuity():
    sc = FastFadingScenario(3, 2.0)
    grid = np.linspace(0.0, 4.0, 401)
    vals = np.array([capacity_lower_bound(float(g), sc) for g in grid])
    assert np.max(np.abs(np.diff(vals))) < 0.02


@given(
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=-300.0, max_value=308.0),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_capacity_lower_bound_array_matches_scalar_calls(s_count, log10_power, data):
    # thresholds on the search's own lattice, so no two lie within rounding;
    # from -3000 to +3080 dB and over the whole searched threshold range
    steps = data.draw(st.lists(st.integers(min_value=0, max_value=int(700.0 / GRID_STEP)),
                               min_size=1, max_size=40, unique=True))
    grid = np.sort(steps) * GRID_STEP
    sc = FastFadingScenario(s_count, 10.0**log10_power)
    values = capacity_lower_bound(grid, sc)
    scalars = [capacity_lower_bound(float(g), sc) for g in grid]
    assert values.shape == grid.shape
    assert values == pytest.approx(scalars, rel=1e-12)
    assert np.argmax(values) == np.argmax(scalars)
    # a float threshold takes the float path: bit for bit a one-element array
    for g in [*grid, data.draw(st.floats(min_value=0.0, max_value=700.0))]:
        assert capacity_lower_bound(float(g), sc) == capacity_lower_bound(np.array([g]), sc)[0]


@pytest.mark.parametrize("s_count,snr_db,gamma_th", [
    (2, -5.0, 5.516246716547083e-09), (3, 15.0, 2.5783449729549798e-05),
    (3, 22.5, 0.025438816699116403), (3, 22.5, 1.2864152230461904e-13)])
def test_float_bound_counts_fraction_levels_over_all_terms(s_count, snr_db, gamma_th):
    # on both paths each term's continued fraction runs to the depth of its
    # own x; at these points a depth from the smallest x >= 1 of all terms
    # would move the last bit of one path away from the other
    sc = FastFadingScenario(s_count, 10.0 ** (snr_db / 10.0))
    assert capacity_lower_bound(gamma_th, sc) == capacity_lower_bound(np.array([gamma_th]), sc)[0]


def test_optimize_threshold_interior_maximum_and_ordering():
    sc = FastFadingScenario(2, 1.0)
    res = optimize_threshold(sc)
    assert res.cl_at_multi >= res.cl_at_single
    # the cooperative threshold exceeds the interference-blind one
    assert res.gamma_multi > res.gamma_single
    # local maximality at 1e-3 resolution
    for delta in (-1e-3, 1e-3):
        probe = max(res.gamma_multi + delta, 0.0)
        assert capacity_lower_bound(probe, sc) <= res.cl_at_multi + 1e-9


def test_optimize_threshold_single_user_exists():
    res = optimize_threshold(FastFadingScenario(1, 1.0))
    assert res.gamma_single > 0.0
    assert math.isfinite(res.gamma_multi)
    assert res.cl_at_multi >= res.cl_at_single


def test_optimize_threshold_reports_its_own_argmax():
    # at -3000 dB the optimum lies far beyond the first grid's end ln(1000 S) = 6.91:
    # the grid doubles until its argmax is interior, and the search's own argmax
    # scores above the blind threshold
    res = optimize_threshold(FastFadingScenario(1, 1e-300))
    assert res.gamma_multi == pytest.approx(678.43, abs=0.01)
    assert res.gamma_single == pytest.approx(684.25, abs=0.01)
    assert res.cl_at_multi == pytest.approx(6.784e-298, rel=1e-3)
    assert res.cl_at_single == pytest.approx(4.748e-298, rel=1e-3)
    assert res.cl_at_multi >= res.cl_at_single


@pytest.mark.parametrize("s_count", [1, 4])
@pytest.mark.parametrize("snr_db", [-57.0, -65.0])
def test_optimize_threshold_searches_past_an_argmax_at_the_grid_end(s_count, snr_db):
    # the first grid ends at ln(1000 S), 6.91 at S = 1 and 8.29 at S = 4, below the
    # optimum here; stopping there scored below the blind threshold at S = 1
    sc = FastFadingScenario(s_count, 10.0 ** (snr_db / 10.0))
    res = optimize_threshold(sc)
    assert res.gamma_multi > _threshold_cap(s_count) + GRID_STEP
    assert res.cl_at_multi >= res.cl_at_single
    for step in (-GRID_STEP, GRID_STEP):
        assert capacity_lower_bound(res.gamma_multi + step, sc) <= res.cl_at_multi


@pytest.mark.parametrize("s_count,power,want", [
    (1, 0.1, (1.492451709109245, 0.16354983075373591, 1.7455280027406994)),
    (4, 10.0, (1.4287702754764529, 0.5608892323311842, 1.0667683070416145)),
    (8, 100.0, (2.0889086580135294, 0.42478748599629357, 1.5252073397422148)),
])
def test_optimize_threshold_pinned(s_count, power, want):
    # (gamma_multi, cl_at_multi, gamma_single) as the scalar grid loop found them
    res = optimize_threshold(FastFadingScenario(s_count, power))
    assert (res.gamma_multi, res.cl_at_multi, res.gamma_single) == pytest.approx(want, rel=1e-12)


def test_optimize_threshold_evaluates_grid_in_one_array_call(monkeypatch):
    # the ~850-point grid in one call,
    # then the scalar refinement
    calls = []
    real = waterfill.capacity_lower_bound

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(waterfill, "capacity_lower_bound", counting)
    optimize_threshold(FastFadingScenario(4, 1.0))
    assert sum(np.ndim(g) > 0 for g in calls) == 1
    assert len(calls) < 100


@pytest.mark.parametrize("s_count,want", [
    (9, ("0x1.1c1f609d10924p+1", "0x1.77471f7f63cdbp-3", "0x1.56907cd284ad9p-3")),
    (17, ("0x1.6a8585e24b52dp+1", "0x1.cfad09838e7a4p-4", "0x1.8397c2880b742p-4")),
    (64, ("0x1.0911fbe88f71cp+2", "0x1.3f575b1e9a181p-5", "0x1.9bdbefa352da4p-6")),
    (200, ("0x1.51cf41fd60c10p+2", "0x1.e821f65fd10d1p-7", "0x1.e5c9d787397b4p-8")),
    (513, ("0x1.8e14de639e230p+2", "0x1.af1e6d6df068dp-8", "0x1.5caa6f5369d5dp-9")),
    (1030, ("0x1.bab69500b567cp+2", "0x1.d24ad2aa176d2p-9", "0x1.47f9ff135d3ffp-10")),
])
def test_optimize_threshold_pinned_bits_at_large_s(s_count, want):
    # (gamma_multi, cl_at_multi, cl_at_single) of the search that sliced its
    # coarse grid into calls of at most 2^16 (term x threshold) elements:
    # one grid call, term by term, keeps every bit
    res = optimize_threshold(FastFadingScenario(s_count, 1.0))
    assert (res.gamma_multi.hex(), res.cl_at_multi.hex(), res.cl_at_single.hex()) == want


def test_optimize_threshold_memory_does_not_grow_with_s(monkeypatch):
    # one grid call at S = 200 too, which adds the bound's terms one at a time:
    # a stacked (term x threshold) array of 200 x 1222 elements peaked at 5.2 MB
    calls = []
    real = waterfill.capacity_lower_bound

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(waterfill, "capacity_lower_bound", counting)
    tracemalloc.start()
    try:
        optimize_threshold(FastFadingScenario(200, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [np.size(g) for g in calls if np.ndim(g) > 0] == [1222]
    assert peak < 1 << 20


def _bound_mpmath(s_count, power, gamma_th):
    """The bound's closed form at 40 digits, term by term with mpmath's E1."""
    with mpmath.workdps(40):
        p, g = mpmath.mpf(power), mpmath.mpf(gamma_th)
        q = mpmath.exp(-g)
        total = mpmath.mpf(0)
        for t in range(s_count):
            d = q / p + t * (1 + g)
            integral = q * (mpmath.log1p(g / d) + mpmath.exp(d + g) * mpmath.e1(d + g))
            total += mpmath.binomial(s_count - 1, t) * (1 - q) ** (s_count - 1 - t) * q**t * integral
        return float(total)


@given(st.integers(min_value=1, max_value=12),
       st.floats(min_value=-300.0, max_value=308.0),
       st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1.0),
                 st.floats(min_value=0.0, max_value=700.0)))
@settings(max_examples=200, deadline=None)
def test_capacity_lower_bound_matches_mpmath(s_count, log10_power, gamma_th):
    # from -3000 to +3080 dB and over the whole searched threshold range
    sc = FastFadingScenario(s_count, 10.0**log10_power)
    want = _bound_mpmath(s_count, sc.power, gamma_th)
    # the float path and the array path
    assert capacity_lower_bound(gamma_th, sc) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert capacity_lower_bound(np.array([gamma_th]), sc)[0] == pytest.approx(want, rel=1e-12,
                                                                             abs=0.0)


def test_scaled_exp1_matches_mpmath():
    # both sides of the series / continued-fraction split at 1, out to the float range
    x = np.concatenate([np.geomspace(1e-300, 1e300, 601), np.linspace(0.9, 1.1, 41)])
    with mpmath.workdps(40):
        want = [float(mpmath.exp(v) * mpmath.e1(v)) for v in map(mpmath.mpf, x)]
    assert scaled_exp1(x) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_threshold_search_integrates_nothing(monkeypatch):
    # the bound is a closed form: no search or sweep row reaches cwf.quadrature
    def refuse(*args, **kwargs):
        raise AssertionError("cwf.quadrature called")

    for name in ("exp_tail_quadrature", "adaptive_simpson", "checked_exp_integral"):
        monkeypatch.setattr(quadrature, name, refuse)
    res = optimize_threshold(FastFadingScenario(4, 10.0))
    assert res.cl_at_multi >= res.cl_at_single
    cfg = ExperimentConfig(kind="waterfill_sweep", snr_db=(-3.0, 10.0), s_counts=(1, 4),
                           trials=100, seed=1)
    rows = [l for l in run_waterfill_sweep(cfg, None).splitlines() if not l.startswith("#")]
    assert len(rows) == 5 and all(r.endswith(",ok") for r in rows[1:])


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


def test_mc_capacity_memory_does_not_grow_with_s():
    # a block's gains are drawn in row slices of at most BLOCK // S trials: at
    # S = 128 one (2^16, 128) draw and its temporaries traced about 135 MB
    sc = FastFadingScenario(128, 1.0)
    tracemalloc.start()
    try:
        mc_capacity(1.0, sc, TrialPlan(BLOCK, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("gamma_th", [math.nan, math.inf, -0.5])
def test_mc_capacity_rejects_non_finite_or_negative_threshold(gamma_th):
    # NaN passed a plain `< 0` guard and returned mean 0; inf computed inf*0
    with pytest.raises(ValueError, match="finite and non-negative"):
        mc_capacity(gamma_th, FastFadingScenario(2, 1.0), TrialPlan(100, 1))


@pytest.mark.parametrize("power,match", [
    (math.inf, "positive and finite"), (math.nan, "positive and finite"),
    (0.0, "positive and finite"), (5e-324, "1/power overflows a float")],
    ids=["inf", "nan", "0.0", "subnormal"])
def test_fast_fading_scenario_rejects_non_positive_or_non_finite_power(power, match):
    # a non-finite power would make the bound's integrand NaN; sinr_awgn rejects it too.
    # A subnormal power's reciprocal is inf, which lower_bound_terms divided by
    with pytest.raises(ValueError, match=match):
        FastFadingScenario(2, power)
    FastFadingScenario(2, 10 ** -308.25)  # about -3082.5 dB: 1/power is still a float


def test_fast_fading_scenario_rejects_binomial_overflow():
    # lower_bound_terms weighs C(S-1, t) as a float; C(1030, 515) is the first to overflow,
    # and a huge S is rejected from lgamma without building the integer
    assert all(math.isfinite(w) for w, _ in lower_bound_terms(1.0, FastFadingScenario(1030, 1.0)))
    for s_count in (1031, 10**9):
        with pytest.raises(ValueError, match="overflows a float"):
            FastFadingScenario(s_count, 1.0)


def test_evaluate_thresholds_seeds_each_threshold_by_point_seed():
    # the threshold pair's MC columns are children 0 and 1 of the given seed
    sc = FastFadingScenario(2, 1.0)
    res = evaluate_thresholds(sc, 1000, seed=9)
    assert res.mc_capacity_single == mc_capacity(res.gamma_single, sc,
                                                 TrialPlan(1000, point_seed(9, 0)))
    assert res.mc_capacity_multi == mc_capacity(res.gamma_multi, sc,
                                                TrialPlan(1000, point_seed(9, 1)))


def test_evaluate_thresholds_attaches_mc_fields():
    res = evaluate_thresholds(FastFadingScenario(2, 1.0), 50_000, seed=9)
    assert res.mc_capacity_single is not None
    assert res.mc_capacity_multi is not None
    assert res.mc_capacity_multi.mean >= res.cl_at_multi - 4.0 * res.mc_capacity_multi.ci95
