import json
import math
import statistics
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.special import exp1, lambertw

from cwf import quadrature, waterfill
from cwf.config import ExperimentConfig, db_to_linear
from cwf.simulate import BLOCK, TrialPlan, estimate, point_seed, streams, trial_stream
from cwf.sweeps import run_waterfill_sweep
from cwf.waterfill import (
    THRESHOLD_MAX,
    FastFadingScenario,
    _brent_max,
    _fraction_levels,
    _scaled_exp1_fraction,
    _scaled_exp1_series,
    capacity_lower_bound,
    evaluate_thresholds,
    lower_bound_terms,
    mc_capacity,
    optimize_threshold,
    single_user_threshold,
)


# ------------------------------------------------------ threshold optimization

def _blind(power, s_count):
    return single_user_threshold(FastFadingScenario(s_count, power))


def test_single_user_threshold_lambert_oracle():
    assert _blind(1.0, 1) == pytest.approx(0.5671432904097838, abs=1e-10)
    assert _blind(1.0, 2) == pytest.approx(0.8526055020137254, abs=1e-10)
    for p, s in [(0.5, 3), (2.0, 1), (10.0, 4), (0.1, 2)]:
        want = float(lambertw(1.0 / p + s - 1.0).real)
        assert _blind(p, s) == pytest.approx(want, abs=1e-10)


def test_single_user_threshold_monotonicity():
    assert _blind(1.0, 2) > _blind(1.0, 1)
    assert _blind(2.0, 2) < _blind(1.0, 2)


def test_single_user_threshold_rejects_fractional_user_count():
    # the threshold takes a scenario, which checks the user count
    with pytest.raises(ValueError, match="s_count must be an integer >= 1"):
        _blind(1.0, 2.5)


def _bisect_200_steps(power, s_count):
    """The blind threshold's bisection of [x/(1+x), ln(1+x)] run for all 200
    steps, without a stop test."""
    target = 1.0 / power + (s_count - 1)
    lo, hi = target / (1.0 + target), math.log1p(target)
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
    # bit, in far fewer steps
    grid = [FastFadingScenario(s, db_to_linear(float(db))) for s in (1, 2, 3, 4, 8, 16, 128, 1030)
            for db in np.arange(-300.0, 3081.0, 10.0)]
    for sc in grid:
        assert single_user_threshold(sc) == _bisect_200_steps(sc.power, sc.s_count)
    calls = []
    monkeypatch.setattr(waterfill, "math", SimpleNamespace(
        log1p=math.log1p, exp=lambda x: calls.append(x) or math.exp(x)))
    counts = []
    for sc in grid:
        calls.clear()
        single_user_threshold(sc)
        counts.append(len(calls))
    assert max(counts) <= 70  # each step halves a bracket under 710 wide onto adjacent floats
    assert 50 <= np.median(counts) <= 60


@pytest.mark.parametrize("power", [math.inf, math.nan, 0.0])
def test_single_user_threshold_rejects_non_finite_or_zero_power(power):
    # an infinite power returned 2.8e-17; the scenario now rejects it
    with pytest.raises(ValueError, match="power must be positive and finite"):
        _blind(power, 1)


@pytest.mark.parametrize("power", [1e-300, 5.7e-309])
def test_single_user_threshold_at_extreme_low_power(power):
    # a bracket doubled past e^709 once made math.exp overflow; ln(1 + x) caps it
    th = _blind(power, 1)
    assert th * math.exp(th) == pytest.approx(1.0 / power, rel=1e-12)


def test_single_user_threshold_rejects_a_power_whose_reciprocal_overflows():
    # 1/1e-320 is inf, and the threshold's own bracket once returned a finite
    # 703.23 for it, where W(1e320) = 730.23
    with pytest.raises(ValueError, match="1/power overflows a float"):
        _blind(1e-320, 1)


@pytest.mark.parametrize("snr_db", [160.0, 300.0, 3080.0])
def test_single_user_threshold_keeps_its_digits_at_high_snr(snr_db):
    # the target was (1/p + 1) - 1, which rounds to 0 once 1/p < 2^-53, and an
    # absolute stopping width then returned 2.78e-17 in place of about 1/p
    power = 10.0 ** (snr_db / 10.0)
    with mpmath.workdps(40):
        want = float(mpmath.lambertw(mpmath.mpf(1.0 / power)))
    assert _blind(power, 1) == pytest.approx(want, rel=1e-15, abs=0.0)


@given(st.integers(min_value=1, max_value=1030), st.floats(min_value=-308.25, max_value=308.0))
@settings(max_examples=300, deadline=None)
def test_single_user_threshold_is_the_float_root_inside_its_bracket(s_count, log10_power):
    # x/(1+x) <= W(x) <= ln(1+x) for every x > 0, and the bisection ends on
    # the float root of th e^th = x: 2 ulps below it the product lies under
    # x, 2 ulps above it at or over x
    sc = FastFadingScenario(s_count, 10.0**log10_power)
    x = 1.0 / sc.power + (s_count - 1)
    th = single_user_threshold(sc)
    assert x / (1.0 + x) <= th <= math.log1p(x)
    below, above = th, th
    for _ in range(2):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
    assert below * math.exp(below) < x <= above * math.exp(above)


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


@pytest.mark.parametrize("snr_db", [-10.0, -3.0, 0.0, 10.0, 20.0, 30.0])
def test_capacity_lower_bound_at_large_s_matches_its_poisson_limit(snr_db):
    # at S = 1030 the count of on-interferers is nearly Poisson((S-1) q), so
    # the same sum with Poisson weights, each term's integral by quadrature,
    # checks the bound where its binomials are large.  At gamma_multi,
    # (S-1) q is near 1; at gamma_single it is about 5.3 and the two laws
    # differ by 2e-3 to 4e-3, so gamma_single is left out
    sc = FastFadingScenario(1030, db_to_linear(snr_db))
    gamma_th = optimize_threshold(sc).gamma_multi
    pon = math.exp(-gamma_th)
    lam = (sc.s_count - 1) * pon
    poisson, weight, t = 0.0, math.exp(-lam), 0
    while weight > 1e-18 or t <= lam:
        d = pon / sc.power + t * (1.0 + gamma_th)
        poisson += weight * quadrature.exp_tail_quadrature(lambda g: np.log1p(g / d), gamma_th)
        t += 1
        weight *= lam / t
    assert capacity_lower_bound(gamma_th, sc) == pytest.approx(poisson, rel=1e-3)


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


@pytest.mark.parametrize("s_count,snr_db,gamma_th,want", [
    (2, -5.0, 5.516246716547083e-09, "0x1.98940d906f115p-3"),
    (3, 15.0, 2.5783449729549798e-05, "0x1.6d9240c966f1ap-2"),
    (3, 22.5, 0.025438816699116403, "0x1.7854a984dcbf2p-2"),
    (3, 22.5, 1.2864152230461904e-13, "0x1.71342aefa0554p-2")])
def test_float_bound_counts_fraction_levels_over_all_terms(s_count, snr_db, gamma_th, want):
    # each term's continued fraction runs to the depth of its own x; at these
    # points a depth from the smallest x >= 1 of all terms moved the last bit
    sc = FastFadingScenario(s_count, 10.0 ** (snr_db / 10.0))
    assert capacity_lower_bound(gamma_th, sc).hex() == want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma_th", [math.nan, math.inf, -math.inf, -0.5])
def test_capacity_lower_bound_rejects_non_finite_or_negative_threshold(gamma_th):
    # NaN and inf died in _fraction_levels with "cannot convert float NaN to
    # integer", naming no argument
    with pytest.raises(ValueError, match="gamma_th must be finite and non-negative, got"):
        capacity_lower_bound(gamma_th, FastFadingScenario(2, 1.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma_th", [np.array([0.5]), np.array([0.5, math.inf]), np.array(0.5)],
                         ids=["one", "with_inf", "zero_dim"])
def test_capacity_lower_bound_rejects_an_array(gamma_th):
    # an array holding inf warned "invalid value" and returned NaN
    with pytest.raises(TypeError, match="gamma_th must be a real number"):
        capacity_lower_bound(gamma_th, FastFadingScenario(2, 1.0))


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
    # at -3000 dB the optimum lies far beyond ln(1000 S) = 6.91, near the top of
    # the searched range, and the search's own argmax scores above the blind
    # threshold
    res = optimize_threshold(FastFadingScenario(1, 1e-300))
    assert res.gamma_multi == pytest.approx(678.43, abs=0.01)
    assert res.gamma_single == pytest.approx(684.25, abs=0.01)
    assert res.cl_at_multi == pytest.approx(6.784e-298, rel=1e-3)
    assert res.cl_at_single == pytest.approx(4.748e-298, rel=1e-3)
    assert res.cl_at_multi >= res.cl_at_single


@pytest.mark.parametrize("s_count", [1, 4])
@pytest.mark.parametrize("snr_db", [-57.0, -65.0])
def test_optimize_threshold_searches_past_an_argmax_at_the_grid_end(s_count, snr_db):
    # a coarse grid that ended at ln(1000 S), 6.91 at S = 1 and 8.29 at S = 4, lay
    # below the optimum here; stopping there scored below the blind threshold at S = 1
    sc = FastFadingScenario(s_count, 10.0 ** (snr_db / 10.0))
    res = optimize_threshold(sc)
    assert res.gamma_multi > math.log(1000.0 * s_count) + 0.01
    assert res.cl_at_multi >= res.cl_at_single
    for step in (-0.01, 0.01):
        assert capacity_lower_bound(res.gamma_multi + step, sc) <= res.cl_at_multi


@pytest.mark.parametrize("s_count,power,want", [
    (1, 0.1, (1.492451661438406, 0.16354983075373566, 1.7455280027406994)),
    (4, 10.0, (1.4287704120341165, 0.5608892323311884, 1.0667683070416145)),
    (8, 100.0, (2.0889085343299363, 0.42478748599629657, 1.5252073397422148)),
])
def test_optimize_threshold_pinned(s_count, power, want):
    # (gamma_multi, cl_at_multi, gamma_single) of the search over [0, 708]; each
    # gamma_multi lies within 1e-7 of a search at tol 1e-13
    res = optimize_threshold(FastFadingScenario(s_count, power))
    assert (res.gamma_multi, res.cl_at_multi, res.gamma_single) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("snr_db", [70.0, 75.0, 80.0, 150.0, 1000.0, 3080.0])
def test_optimize_threshold_resolves_a_single_user_optimum_below_refine_tol(snr_db):
    # at S = 1 from about 70 dB the optimum lies below REFINE_TOL: the search
    # stopped at 3.3e-7 whatever p was and scored below the blind threshold
    # (-2.9e-8 at 70 dB, -2.3e-4 at 3080 dB).  From about 150 dB the bound no
    # longer tells thresholds near its optimum apart in a float; from 1000 dB
    # two ulps are allowed
    res = optimize_threshold(FastFadingScenario(1, 10.0 ** (snr_db / 10.0)))
    slack = 2.0 * math.ulp(res.cl_at_single) if snr_db >= 1000.0 else 0.0
    assert res.cl_at_multi - res.cl_at_single >= -slack
    assert res.gamma_multi < 1e-6


@pytest.mark.parametrize("snr_db,want", [
    (20.0, "0x1.0784d9fa4a7c3p-6"), (40.0, "0x1.67da9959bf79fp-13"),
    (60.0, "0x1.cd3f72d707c0bp-20"), (65.0, "0x1.23b7bb05b3396p-21"),
])
def test_optimize_threshold_keeps_its_bits_where_the_bracket_leaves_zero(snr_db, want):
    # S = 1 optima from 0.016 down to 5e-7: the bracket [0, 708] loses
    # its lower end 0 on the way, and its width ends at REFINE_TOL relative
    res = optimize_threshold(FastFadingScenario(1, 10.0 ** (snr_db / 10.0)))
    assert res.gamma_multi.hex() == want


#: the dense reference grid: 0, geometric from 1e-12, a step of 0.002 up to 20,
#: then a coarse tail up to the top of the searched range
_DENSE_THRESHOLDS = np.unique(np.concatenate([
    [0.0], np.geomspace(1e-12, 0.002, 121), np.arange(0.0, 20.0, 0.002),
    np.arange(20.0, THRESHOLD_MAX, 0.5), [THRESHOLD_MAX]])).tolist()


@pytest.mark.parametrize("s_count,snr_db", [
    (1, -3000.0), (1, -57.0), (1, -10.0), (1, 0.0), (1, 32.5), (1, 50.0), (1, 60.0),
    (1, 62.5), (1, 3080.0), (2, -65.0), (2, 10.0), (2, 1000.0), (4, -57.0), (4, 10.0),
    (4, 80.0), (8, -30.0), (8, 20.0), (16, 10.0), (32, -20.0), (128, 0.0)])
def test_optimize_threshold_against_a_dense_reference(s_count, snr_db):
    # the search assumes a unimodal bound; on a dense grid of float calls the
    # bound never rises again after it falls by more than 1e-12 relative, and
    # the search scores at least the grid's best and the blind threshold
    sc = FastFadingScenario(s_count, 10.0 ** (snr_db / 10.0))
    values = np.array([capacity_lower_bound(g, sc) for g in _DENSE_THRESHOLDS])
    best = int(np.argmax(values))
    top = values[best]
    tol = 1e-12 * abs(top)
    rising, falling = values[:best + 1], values[best:]
    assert np.all(np.maximum.accumulate(rising) - rising <= tol)
    assert np.all(falling - np.minimum.accumulate(falling) <= tol)
    res = optimize_threshold(sc)
    assert res.cl_at_multi >= top - tol
    slack = 2.0 * math.ulp(res.cl_at_single) if snr_db >= 1000.0 else 0.0
    assert res.cl_at_multi >= res.cl_at_single - slack


@pytest.mark.parametrize("peak,want", [(0.0, 0.0), (5e-320, 5e-320), (1e-300, 1e-300)])
def test_brent_max_below_tol_ends_when_rounding_stops_the_bracket(peak, want):
    # a maximum a few subnormal steps above 0 made a golden bracket cycle
    # between the same two ends forever; the calls are counted, so a cycle
    # fails instead of hanging
    calls = []

    def f(x):
        calls.append(x)
        if len(calls) > 2000:  # 0.01 to the smallest subnormal takes about 1540
            raise AssertionError("the bracket stopped shrinking")
        return -abs(x - peak)

    best, value = _brent_max(f, 0.0, 0.01, 0.005, f(0.005), 1e-6)
    assert best == pytest.approx(want, rel=1e-6, abs=0.0)
    assert value == f(best)


@pytest.mark.parametrize("peak,rel,abs_", [(1e-9, 1e-6, 0.0), (678.0, 0.0, 1e-6)])
def test_brent_max_over_the_searched_range(peak, rel, abs_):
    # from [0, 708]: a peak below 1 to REFINE_TOL relative, one above to REFINE_TOL
    calls = []

    def f(x):
        calls.append(x)
        return -abs(x - peak)

    best, _ = _brent_max(f, 0.0, THRESHOLD_MAX, 1.0, f(1.0), 1e-6)
    assert best == pytest.approx(peak, rel=rel, abs=abs_)
    assert len(calls) < 100


@pytest.mark.parametrize("s_count,want", [
    (9, ("0x1.1c1f608160d25p+1", "0x1.77471f7f63cdbp-3", "0x1.56907cd284ad9p-3")),
    (17, ("0x1.6a858570f59c2p+1", "0x1.cfad09838e7bep-4", "0x1.8397c2880b742p-4")),
    (64, ("0x1.0911fcbf4691fp+2", "0x1.3f575b1e9a1d6p-5", "0x1.9bdbefa352da4p-6")),
    (200, ("0x1.51cf42065b127p+2", "0x1.e821f65fd110fp-7", "0x1.e5c9d787397b4p-8")),
    (513, ("0x1.8e14decebd216p+2", "0x1.af1e6d6df0751p-8", "0x1.5caa6f5369d5dp-9")),
    (1030, ("0x1.bab696799d79bp+2", "0x1.d24ad2aa175d5p-9", "0x1.47f9ff135d3ffp-10")),
])
def test_optimize_threshold_pinned_bits_at_large_s(s_count, want):
    # (gamma_multi, cl_at_multi, cl_at_single) of the search over [0, 708];
    # each gamma_multi lies within 3e-7 of a search at tol 1e-13, and
    # cl_at_single is the bits of every earlier search
    res = optimize_threshold(FastFadingScenario(s_count, 1.0))
    assert (res.gamma_multi.hex(), res.cl_at_multi.hex(), res.cl_at_single.hex()) == want


def test_optimize_threshold_bound_evaluations_on_the_bench_grid(monkeypatch):
    # Brent from the blind threshold: a median of 16 bound evaluations per
    # search on the benchmark's 52 points, the start's included; golden
    # section over the same bracket took 47
    grid = json.loads((Path(__file__).resolve().parents[1] / "bench"
                       / "threshold_grid.json").read_text())
    calls = []
    real = waterfill.capacity_lower_bound
    monkeypatch.setattr(waterfill, "capacity_lower_bound",
                        lambda gamma_th, sc: calls.append(gamma_th) or real(gamma_th, sc))
    counts = []
    for snr_db in grid["snr_db"]:
        for s_count in grid["s_counts"]:
            calls.clear()
            optimize_threshold(FastFadingScenario(s_count, db_to_linear(snr_db)))
            counts.append(len(calls))
    assert len(counts) == 52 and statistics.median(counts) <= 20


def test_optimize_threshold_memory_does_not_grow_with_s(monkeypatch):
    # float calls only, each adding the bound's terms one at a time: a stacked
    # (term x threshold) array of 200 x 1222 elements once peaked at 5.2 MB
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
    assert calls and all(type(g) is float for g in calls)
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
    assert capacity_lower_bound(gamma_th, sc) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_scaled_exp1_matches_mpmath():
    # both sides of the series / continued-fraction split at 1, out to the float range
    x = np.concatenate([np.geomspace(1e-300, 1e300, 601), np.linspace(0.9, 1.1, 41)]).tolist()
    with mpmath.workdps(40):
        want = [float(mpmath.exp(v) * mpmath.e1(v)) for v in map(mpmath.mpf, x)]
    got = [_scaled_exp1_series(v) if v < 1.0 else _scaled_exp1_fraction(v, _fraction_levels(v))
           for v in x]
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


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


def _reference_mc_capacity(gamma_th, sc, plan):
    """`mc_capacity` as it stood when it formed every trial's rate, on or off,
    and zeroed the off ones: the reference whose mean and se the on-rows
    alone must give bit for bit.  Frozen; do not edit."""
    pon = math.exp(-gamma_th)
    inv_p = 1.0 / sc.power
    rows = max(1, BLOCK // sc.s_count)

    def capacities(rng, n):
        out = np.empty(n)
        for start in range(0, n, rows):
            gains = rng.standard_exponential((min(rows, n - start), sc.s_count))
            own = gains[:, 0]
            others = gains[:, 1:]
            with np.errstate(divide="ignore", over="ignore"):
                noise = inv_p + np.where(others > gamma_th, others / pon, 0.0).sum(axis=1)
                values = np.log1p((own / pon) / noise)
            far = np.isinf(values)
            values[far] = np.log(own[far]) + gamma_th - np.log(noise[far])
            out[start:start + len(gains)] = np.where(own > gamma_th, values, 0.0)
        return out

    return estimate(capacities(rng, n) for rng, n in streams(plan, BLOCK))


@given(st.sampled_from([1, 2, 3, 8, 33, 128]), st.floats(-3.0, 308.25),
       st.one_of(st.sampled_from([0.0, 700.0, 800.0]), st.floats(0.0, 12.0)),
       st.integers(0, 2**64 - 1), st.data())
@settings(max_examples=40, deadline=None)
def test_mc_capacity_matches_its_frozen_reference(s_count, log10_power, gamma_th, seed, data):
    # the rate of the on-rows alone, scattered into zeros: the same mean and
    # se under float.hex, within a row slice, across slices and across blocks,
    # and where the far rule takes over (p near the float range, th near 0)
    sc = FastFadingScenario(s_count, 10.0 ** log10_power)
    rows = max(1, BLOCK // s_count)
    trials = data.draw(st.sampled_from(
        [2, 3, rows + 1, 2 * rows + 3, BLOCK - 1, BLOCK + 1, BLOCK + rows + 1]))
    got = mc_capacity(gamma_th, sc, TrialPlan(trials, seed))
    want = _reference_mc_capacity(gamma_th, sc, TrialPlan(trials, seed))
    assert got.trials == want.trials
    assert (float(got.mean).hex(), float(got.se).hex()) == (float(want.mean).hex(),
                                                             float(want.se).hex())


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


@pytest.mark.filterwarnings("error")
def test_mc_capacity_past_the_underflow_of_q_is_zero_without_a_warning():
    # q = e^-800 underflows to 0: g/q was inf and inf * False NaN, with
    # "divide by zero" and "invalid value" warnings; no gain clears 800
    est = mc_capacity(800.0, FastFadingScenario(4, 10.0), TrialPlan(1000, 5))
    assert est.mean == 0.0 and est.se == 0.0


@pytest.mark.filterwarnings("error")
def test_mc_capacity_where_no_gain_clears_the_threshold_is_zero_without_a_warning():
    # q = e^-60 is a normal float, but no gain of 1000 trials clears 60: no
    # row's rate is formed, and the mean and se are the reference's zeros
    sc, plan = FastFadingScenario(4, 10.0), TrialPlan(1000, 5)
    est = mc_capacity(60.0, sc, plan)
    assert est.mean == 0.0 and est.se == 0.0
    assert est == _reference_mc_capacity(60.0, sc, plan)


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
    # each threshold pair's MC columns are children 0 and 1 of its scenario's seed
    scenarios = [FastFadingScenario(2, 1.0), FastFadingScenario(3, 10.0)]
    searches = [optimize_threshold(sc) for sc in scenarios]
    pairs = evaluate_thresholds(scenarios, searches, 1000, [9, 4])
    for sc, seed, res, (single, multi) in zip(scenarios, (9, 4), searches, pairs, strict=True):
        assert single == mc_capacity(res.gamma_single, sc, TrialPlan(1000, point_seed(seed, 0)))
        assert multi == mc_capacity(res.gamma_multi, sc, TrialPlan(1000, point_seed(seed, 1)))


def test_evaluate_thresholds_attaches_mc_fields():
    # one (single, multi) estimate pair per search, at the search's thresholds
    sc = FastFadingScenario(2, 1.0)
    res = optimize_threshold(sc)
    (single, multi), = evaluate_thresholds([sc], [res], 50_000, [9])
    assert single.trials == multi.trials == 50_000
    assert multi.mean >= res.cl_at_multi - 4.0 * multi.ci95


@pytest.mark.parametrize("trials", [0, 20])
def test_waterfill_sweep_searches_each_grid_point_once(monkeypatch, trials):
    # with or without MC columns, one optimize_threshold call per grid point
    # (the bench's threshold_grid coverage counts exactly these)
    from cwf import sweeps

    searched = []
    monkeypatch.setattr(sweeps, "optimize_threshold",
                        lambda sc: searched.append(sc) or optimize_threshold(sc))
    cfg = ExperimentConfig(kind="waterfill_sweep", snr_db=(-3.0, 10.0), s_counts=(1, 2, 4),
                           trials=trials, seed=1)
    run_waterfill_sweep(cfg, None)
    assert searched == [FastFadingScenario(s, db_to_linear(db))
                        for db in cfg.snr_db for s in cfg.s_counts]


def test_c7_reuses_its_grid_search_for_the_mc_columns(monkeypatch):
    # the (S=4, p=10) point of c7's 9-point grid is searched once, not again
    # for its Monte Carlo columns
    from cwf import validate

    searched = []
    monkeypatch.setattr(validate, "optimize_threshold",
                        lambda sc: searched.append(sc) or optimize_threshold(sc))
    validate._c7_threshold_grid(1)
    assert len(searched) == len(set(searched)) == 9
    assert FastFadingScenario(4, 10.0) in searched


@pytest.mark.parametrize("criteria,searches", [([7, 8, 10], 18), ([8], 9)])
def test_c7_and_c8_share_one_grid_of_searches_in_each_pass(monkeypatch, criteria, searches):
    # c8 reads c7's searches in the same pass, and each pass searches afresh,
    # so the determinism rerun (c10) compares two independent runs; c8 alone
    # searches its grid itself
    from cwf import validate

    searched = []
    monkeypatch.setattr(validate, "optimize_threshold",
                        lambda sc: searched.append(sc) or optimize_threshold(sc))
    _, ok, _ = validate.run_validate(1, None, criteria=criteria)
    assert ok and len(searched) == searches and len(set(searched)) == 9
