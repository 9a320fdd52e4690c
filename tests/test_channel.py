import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cwf.channel import (
    active_sinrs,
    capacity,
    dispersion,
    info_density_increment,
    sinr_awgn,
    sinr_fading,
)

finite_powers = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def test_sinr_awgn_known_values():
    assert sinr_awgn(1.0, 1) == pytest.approx(1.0)
    assert sinr_awgn(1.0, 2) == pytest.approx(0.5)
    assert sinr_awgn(2.0, 3) == pytest.approx(0.4)


def test_sinr_awgn_domain_errors():
    with pytest.raises(ValueError):
        sinr_awgn(0.0, 1)
    with pytest.raises(ValueError):
        sinr_awgn(-1.0, 2)
    with pytest.raises(ValueError):
        sinr_awgn(1.0, 0)
    with pytest.raises(ValueError, match="an integer"):  # a count of equal powers to build
        sinr_awgn(1.0, 2.5)


def test_sinr_fading_known_values():
    assert sinr_fading(1.0, [1.0, 1.0]) == pytest.approx(0.5)
    # single user: interference sum is empty
    assert sinr_fading(1.0, [0.7]) == pytest.approx(0.7)
    # the last user to decode hears the first one's power as interference
    assert sinr_fading(1.0, [1.5, 0.5]) == pytest.approx(0.2)


def test_active_sinrs_known_values_and_closed_forms():
    assert active_sinrs(np.array([1.0, 2.0, 3.0])) == pytest.approx([1 / 6, 2 / 5, 3 / 4])
    # the equal-power view is the rule itself, bit for bit: at three users and -5 dB
    # p/(1+2p) would differ from the rule's p/(1+(3p-p)) in the last bit
    p = 10**-0.5
    assert sinr_awgn(p, 3) == active_sinrs(np.full(3, p))[0] != p / (1.0 + 2.0 * p)
    assert sinr_fading(2.0, [1.5, 0.5]) == active_sinrs(np.array([3.0, 1.0]))[1]


@pytest.mark.parametrize("power", [math.inf, math.nan, 0.0])
def test_sinr_fading_rejects_non_finite_or_zero_power(power):
    # an infinite power warned and returned NaN
    with pytest.raises(ValueError, match="power must be positive and finite"):
        sinr_fading(power, [1.0, 0.5])


def test_sinr_fading_rejects_nan_gain_but_keeps_zero_gains_legal():
    # a NaN gain passed the old `gains < 0` check and returned nan
    with pytest.raises(ValueError, match="gains must be non-negative and finite"):
        sinr_fading(1.0, [math.nan, 0.5])
    with pytest.raises(ValueError, match="at least one"):
        sinr_fading(1.0, [])
    assert sinr_fading(1.0, [0.0, 1.0]) == 1.0


@given(finite_powers, st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_sinr_fading_no_interference_identity(p, g):
    # all interferer gains zero: SINR reduces to p * |h_S|^2
    got = sinr_fading(p, [0.0, 0.0, g])
    assert got == pytest.approx(p * g, rel=1e-12)


def test_capacity_known_values():
    assert capacity(0.0) == 0.0
    assert capacity(1.0) == pytest.approx(0.5 * math.log(2.0))
    assert capacity(math.e - 1.0, dims=2) == pytest.approx(1.0)


def test_capacity_rejects_negative_snr():
    with pytest.raises(ValueError):
        capacity(-0.1)


def test_capacity_rejects_nan_snr():
    with pytest.raises(ValueError, match="snr must be non-negative"):
        capacity(math.nan)


def test_capacity_monotone_and_concave_on_grid():
    snr = np.linspace(0.0, 20.0, 400)
    c = capacity(snr)
    first = np.diff(c)
    assert np.all(first > 0)
    assert np.all(np.diff(first) < 0)


def test_dispersion_known_values():
    assert dispersion(0.0) == 0.0
    assert dispersion(1.0) == pytest.approx(3.0 / 8.0)
    assert dispersion(1e9) == pytest.approx(0.5, rel=1e-6)


@pytest.mark.parametrize("snr", [math.inf, math.nan])
def test_dispersion_rejects_non_finite_snr(snr):
    # an infinite SNR gave inf/inf with a RuntimeWarning
    with pytest.raises(ValueError, match="snr must be non-negative and finite"):
        dispersion(snr)


def test_info_density_zero_symbols():
    assert info_density_increment(0.0, 0.0, 1.0) == pytest.approx(0.5 * math.log(2.0))


def test_info_density_noiseless_form():
    # y == x makes the noise term vanish
    y = 1.7
    got = info_density_increment(y, y, 1.0)
    assert got == pytest.approx(0.5 * math.log(2.0) + y * y / 4.0)


@pytest.mark.parametrize("power", [math.inf, math.nan, 0.0])
def test_info_density_rejects_non_finite_or_zero_power(power):
    # an infinite power returned inf
    with pytest.raises(ValueError, match="power must be positive and finite"):
        info_density_increment(1.0, 1.0, power)


def _written_order(x, y, power):
    """The increment evaluated exactly as its docstring writes it."""
    tot = power + 1.0
    return 0.5 * math.log(tot) + y * y / (2.0 * tot) - (y - x) ** 2 / 2.0


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=1e-6, max_value=1e6),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["full", "row", "vector"]),
)
@settings(max_examples=100, deadline=None)
def test_info_density_in_place_is_bit_identical(rows, cols, power, seed, y_shape):
    # the walks write increments over their inputs, x, and the error-rate check
    # broadcasts one received row over its competitors
    rng = np.random.default_rng(seed)
    x = math.sqrt(power) * rng.standard_normal((rows, cols))
    y = x + rng.standard_normal((rows, cols))
    y = {"full": y, "row": y[:1], "vector": y[0]}[y_shape]
    want = info_density_increment(x, y, power)
    assert want.tobytes() == _written_order(x, y, power).tobytes()
    out = x.copy()
    assert info_density_increment(out, y, power, out=out) is out
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("snr", [0.5, 1.0, 4.0])
def test_info_density_mean_matches_capacity(snr):
    # sample mean over 2*10^5 i.i.d. draws within 4 standard errors of capacity
    rng = np.random.default_rng(1234)
    n = 200_000
    x = math.sqrt(snr) * rng.standard_normal(n)
    y = x + rng.standard_normal(n)
    inc = info_density_increment(x, y, snr)
    se = inc.std(ddof=1) / math.sqrt(n)
    assert abs(inc.mean() - capacity(snr)) <= 4.0 * se
