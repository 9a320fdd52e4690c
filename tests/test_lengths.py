import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cwf.channel import capacity, sinr_awgn
from cwf.lengths import (
    AwgnScenario,
    QueueScenario,
    awgn_vlsf_lengths,
    fading_vlsf_coeffs,
    fixed_length_blocklength,
    message_threshold,
    phase_lengths,
    queue_vlsf_lengths,
    rayleigh_order_means,
)

LN2 = math.log(2.0)


# ---------------------------------------------------------------- thresholds

def test_message_threshold_value():
    # frozen from independent high-precision arithmetic
    assert message_threshold(1000.0) == pytest.approx(699.6884229183457, abs=1e-9)
    kappa = 8.0 * LN2
    assert message_threshold(8.0) == pytest.approx(kappa + math.log(kappa))


@given(st.floats(min_value=2.0, max_value=1e5))
@settings(max_examples=60, deadline=None)
def test_message_threshold_union_bound_identity(k):
    kappa = k * LN2
    gamma = message_threshold(k)
    # exp(kappa - gamma) == 1/kappa
    assert math.exp(kappa - gamma) == pytest.approx(1.0 / kappa, rel=1e-9)


def test_message_threshold_rejects_tiny_payload():
    with pytest.raises(ValueError):
        message_threshold(1.0)


# ------------------------------------------------------------- fixed length

def _oracle_blocklength(payload_bits, snr, epsilon, dims=1):
    """Independent integer bisection with a 50-digit Q-function inverse;
    each of the n symbols spends `dims` real dimensions."""
    mp.mp.dps = 50
    kappa = mp.mpf(payload_bits) * mp.log(2)
    c = mp.log(1 + mp.mpf(snr)) / 2
    v = mp.mpf(snr) * (snr + 2) / (2 * (snr + 1) ** 2)
    q = mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(epsilon))

    def ok(n):
        return kappa <= n * dims * c - mp.sqrt(n * dims * v) * q

    lo, hi = 1, 1
    while not ok(hi):
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@pytest.mark.parametrize(
    "payload,snr,eps",
    [(1000.0, 0.5, 1e-3), (300.0, 1.0, 1e-3), (1000.0, 0.5, 1e-2), (50.0, 2.0, 1e-4),
     (1000.0, 0.1, 1e-3),
     (1e14, 1.0, 1e-3)],  # 2e14 symbols, below the 2^50 limit
)
def test_fixed_length_blocklength_matches_oracle(payload, snr, eps):
    for dims in (1, 2):  # real symbols, and complex symbols of the fading sweep
        assert (fixed_length_blocklength(payload, snr, eps, dims)
                == _oracle_blocklength(payload, snr, eps, dims))


def test_fixed_length_blocklength_frozen_example():
    # K=1000 bits at the two-user 0 dB SINR: oracle value 3923
    assert fixed_length_blocklength(1000.0, sinr_awgn(1.0, 2), 1e-3) == 3923


def test_fixed_length_blocklength_epsilon_half_boundary():
    # Qinv(0.5) = 0 removes the dispersion penalty
    snr = 0.8
    kappa = 500.0 * LN2
    expect = math.ceil(kappa / capacity(snr))
    assert fixed_length_blocklength(500.0, snr, 0.5) == expect


def test_fixed_length_blocklength_rejects_zero_snr():
    with pytest.raises(ValueError):
        fixed_length_blocklength(1000.0, 0.0, 1e-3)


@pytest.mark.parametrize("snr", [math.inf, math.nan])
def test_fixed_length_blocklength_rejects_non_finite_snr(snr):
    # an infinite snr warned and returned a length from NaN arithmetic
    with pytest.raises(ValueError, match="snr must be positive and finite"):
        fixed_length_blocklength(100.0, snr, 1e-3)


@pytest.mark.parametrize("payload,dims,match", [
    (math.nan, 1, "payload_bits"), (math.inf, 1, "payload_bits"),
    (-8.0, 1, "payload_bits"), (0.0, 1, "payload_bits"),
    (100.0, 0, "dims"), (100.0, 1.5, "dims"),
])
def test_fixed_length_blocklength_rejects_bad_payload_or_dims(payload, dims, match):
    # NaN, infinite and negative payloads and dims=0 crashed inside the solver
    # (int(NaN), OverflowError, math domain error, ZeroDivisionError)
    with pytest.raises(ValueError, match=match):
        fixed_length_blocklength(payload, 1.0, 1e-3, dims)


@pytest.mark.parametrize("payload,snr", [(1e25, 1.0), (300.0, 1e-20), (300.0, 5e-324)],
                         ids=["huge_payload", "minus_200_db", "capacity_underflow"])
def test_fixed_length_blocklength_rejects_blocks_beyond_2_to_50(payload, snr):
    # beyond 2^50 symbols the search stepped one symbol at a time and never returned
    with pytest.raises(ValueError, match="exceeds 2\\^50 symbols"):
        fixed_length_blocklength(payload, snr, 1e-3)


# ------------------------------------------------------- cancellation lengths

def _oracle_awgn_lengths(payloads, p):
    """Direct re-derivation with 50-digit arithmetic."""
    mp.mp.dps = 50
    s = len(payloads)
    caps = [mp.log(1 + mp.mpf(p) / (1 + (u - 1) * mp.mpf(p))) / 2 for u in range(1, s + 1)]
    gammas = [mp.mpf(k) * mp.log(2) + mp.log(mp.mpf(k) * mp.log(2)) for k in payloads]
    out = []
    for si in range(1, s + 1):
        total = mp.mpf(0)
        prev = mp.mpf(0)
        for t in range(1, si + 1):
            total += (gammas[t - 1] - prev) / caps[s - t]
            prev = gammas[t - 1]
        out.append(total)
    return [float(v) for v in out]


def _oracle_fading_coeffs(gains, power):
    """The capacity-jump recursion over users in decoding order, with
    50-digit arithmetic: a_k = (1 + sum_{t<k} a_t (C_{t+1,k} - C_{t,k})) / C_{k,k}
    where C_{f,j} is user j's complex-link capacity while users f..S send."""
    mp.mp.dps = 50
    rx = [mp.mpf(power) * mp.mpf(g) for g in gains]

    def cap(first, j):
        others = mp.fsum(rx[first - 1:]) - rx[j - 1]
        return mp.log(1 + rx[j - 1] / (1 + others))

    a = []
    for k in range(1, len(gains) + 1):
        acc = mp.mpf(1)
        for t in range(1, k):
            acc += a[t - 1] * (cap(t + 1, k) - cap(t, k))
        a.append(acc / cap(k, k))
    return [float(v) for v in a]


def test_awgn_lengths_match_high_precision_oracle():
    sc = AwgnScenario((300.0, 1000.0), 1.0)
    got = awgn_vlsf_lengths(sc)
    want = _oracle_awgn_lengths((300.0, 1000.0), 1.0)
    assert got == pytest.approx(want, rel=1e-12)
    assert got[0] == pytest.approx(1052.0334275725736, rel=1e-12)
    assert got[1] == pytest.approx(2455.507358760906, rel=1e-12)


def test_awgn_lengths_three_users_oracle():
    sc = AwgnScenario((100.0, 400.0, 900.0), 2.0)
    assert awgn_vlsf_lengths(sc) == pytest.approx(
        _oracle_awgn_lengths((100.0, 400.0, 900.0), 2.0), rel=1e-12)


def test_awgn_single_user_closed_form():
    sc = AwgnScenario((1000.0,), 1.0)
    want = message_threshold(1000.0) / capacity(1.0)
    assert awgn_vlsf_lengths(sc)[0] == pytest.approx(want, rel=1e-15)


scenario_strategy = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.05, max_value=50.0),
    st.integers(min_value=0, max_value=10**6),
)


def _random_scenario(s_count, power, salt):
    rng = np.random.default_rng(salt)
    steps = rng.uniform(10.0, 500.0, size=s_count)
    payloads = tuple(np.cumsum(steps) + 2.0)
    return AwgnScenario(payloads, power)


@given(scenario_strategy)
@settings(max_examples=60, deadline=None)
def test_awgn_lengths_monotone_and_gain_bound(params):
    s_count, power, salt = params
    sc = _random_scenario(s_count, power, salt)
    lengths = awgn_vlsf_lengths(sc)
    assert np.all(np.diff(lengths) > 0) or s_count == 1
    # full-interference baseline: equality for user 1, strict gain after
    cap_full = capacity(sinr_awgn(power, s_count))
    for s in range(1, s_count + 1):
        baseline = message_threshold(sc.payload_bits[s - 1]) / cap_full
        if s == 1 or s_count == 1:
            assert lengths[s - 1] <= baseline * (1.0 + 1e-12)
        else:
            assert lengths[s - 1] < baseline


@given(scenario_strategy, st.floats(min_value=1.0, max_value=20.0), st.data())
@settings(max_examples=60, deadline=None)
def test_awgn_lengths_monotone_in_power_and_payload(params, factor, data):
    s_count, power, salt = params
    sc = _random_scenario(s_count, power, salt)
    lengths = awgn_vlsf_lengths(sc)
    # more power raises every phase's SINR, so no length grows
    stronger = awgn_vlsf_lengths(AwgnScenario(sc.payload_bits, power * factor))
    assert np.all(stronger <= lengths * (1.0 + 1e-12))
    # a larger payload for user u, still below user u+1's, shortens nobody
    u = data.draw(st.integers(min_value=0, max_value=s_count - 1))
    k = sc.payload_bits
    top = k[u + 1] if u + 1 < s_count else k[u] + 500.0
    bigger = data.draw(st.floats(min_value=k[u], max_value=top, exclude_max=True))
    grown = awgn_vlsf_lengths(AwgnScenario(k[:u] + (bigger,) + k[u + 1:], power))
    assert np.all(grown >= lengths * (1.0 - 1e-12))


@given(st.floats(min_value=2.0, max_value=1e5), st.floats(min_value=0.05, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_awgn_single_user_reduction(k, power):
    want = message_threshold(k) / capacity(power)
    assert awgn_vlsf_lengths(AwgnScenario((k,), power))[0] == pytest.approx(want, rel=1e-12)


def test_awgn_equal_payloads_stop_together():
    # equal payloads share every phase, so both lengths are the two-user one
    sc = AwgnScenario((300.0, 300.0), 1.0)
    want = message_threshold(300.0) / capacity(sinr_awgn(1.0, 2))
    assert awgn_vlsf_lengths(sc) == pytest.approx([want, want], rel=1e-12)


def test_awgn_scenario_invariants():
    with pytest.raises(ValueError):
        AwgnScenario((1000.0, 300.0), 1.0)  # not increasing
    with pytest.raises(ValueError):
        AwgnScenario((300.0, 1000.0), 0.0)  # bad power


@pytest.mark.parametrize("payloads,power", [
    ((10.0, math.inf), 1.0), ((10.0, math.nan), 1.0), ((10.0,), math.inf), ((10.0,), math.nan),
], ids=["inf_payload", "nan_payload", "inf_power", "nan_power"])
def test_awgn_scenario_rejects_non_finite_inputs(payloads, power):
    # these were accepted and gave infinite or NaN lengths
    with pytest.raises(ValueError, match="finite"):
        AwgnScenario(payloads, power)


# ------------------------------------------------------------------- queuing

def _oracle_queue_user2(payloads, p, t_sub):
    """Two-user congested bound re-derived step by step."""
    g1 = payloads[0] * LN2 + math.log(payloads[0] * LN2)
    g2 = payloads[1] * LN2 + math.log(payloads[1] * LN2)
    c1 = 0.5 * math.log1p(p)
    c2 = 0.5 * math.log1p(p / (1.0 + p))
    lp1 = g1 / c2
    assert lp1 < t_sub
    info = c1 * (t_sub - lp1) + g1
    c = math.floor(g2 / info)
    b = g2 - c * info
    if b > g1:
        return c * t_sub + (b - g1) / c1 + g1 / c2
    return c * t_sub + b / c2


@pytest.mark.parametrize(
    "t_sub,frozen",
    [(1400.0, 2957.515536), (1700.0, 2892.140682), (2000.0, 2778.694973), (2300.0, 2565.841586)],
)
def test_queue_congested_bounds_match_oracle(t_sub, frozen):
    sc = AwgnScenario((300.0, 1000.0), 1.0)
    br = queue_vlsf_lengths(QueueScenario(sc, t_sub))
    assert br.r == 1
    assert br.lengths[1] == pytest.approx(_oracle_queue_user2((300.0, 1000.0), 1.0, t_sub), rel=1e-12)
    assert br.lengths[1] == pytest.approx(frozen, abs=5e-6)
    # user 1 is uncongested at these intervals
    assert br.lengths[0] == pytest.approx(awgn_vlsf_lengths(sc)[0], rel=1e-12)


def test_queue_uncongested_equals_plain():
    sc = AwgnScenario((300.0, 1000.0), 1.0)
    raw_last = awgn_vlsf_lengths(sc)[-1]
    for t_sub in (raw_last, raw_last * 1.01, raw_last * 10.0):
        br = queue_vlsf_lengths(QueueScenario(sc, t_sub))
        assert br.lengths == pytest.approx(awgn_vlsf_lengths(sc), rel=1e-12)


def test_queue_breakdown_invariants():
    sc = AwgnScenario((300.0, 1000.0), 1.0)
    for t_sub in (200.0, 900.0, 1500.0, 2100.0, 3000.0):
        br = queue_vlsf_lengths(QueueScenario(sc, t_sub))
        assert 0 <= br.r <= 2
        assert br.info_per_interval > 0
        g = [message_threshold(k) for k in sc.payload_bits]
        for u in range(2):
            assert 0.0 <= br.leftover_nats[u] <= max(br.info_per_interval, g[u])
            stage = br.leftover_stage[u]
            if stage > 0:
                assert g[stage - 1] < br.leftover_nats[u]
            if stage < 2:
                assert br.leftover_nats[u] <= g[stage] + 1e-9


@given(scenario_strategy, st.floats(min_value=0.01, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_queue_breakdown_sums_to_thresholds(params, frac):
    s_count, power, salt = params
    sc = _random_scenario(s_count, power, salt)
    raw_last = awgn_vlsf_lengths(sc)[-1]
    br = queue_vlsf_lengths(QueueScenario(sc, max(1.0, frac * raw_last)))  # t_sub >= 1
    for s, k in enumerate(sc.payload_bits, start=1):
        g = message_threshold(k)
        if s <= br.r:  # light users finish inside the first interval
            assert br.full_intervals[s - 1] == 0 and br.leftover_nats[s - 1] == g
        else:
            total = br.full_intervals[s - 1] * br.info_per_interval + br.leftover_nats[s - 1]
            assert total == pytest.approx(g, rel=1e-12)


def test_queue_length_non_increasing_in_t_sub():
    sc = AwgnScenario((300.0, 1000.0), 1.0)
    grid = np.linspace(150.0, 3200.0, 160)
    lengths = np.array([queue_vlsf_lengths(QueueScenario(sc, t)).lengths for t in grid])
    assert np.all(np.diff(lengths[:, 1]) <= 1e-9)
    assert np.all(np.diff(lengths[:, 0]) <= 1e-9)


def test_queue_heavy_congestion_approaches_full_interference():
    # punishingly short intervals: nobody ever restarts, everyone always active
    sc = AwgnScenario((300.0, 1000.0), 1.0)
    br = queue_vlsf_lengths(QueueScenario(sc, 10.0))
    assert br.r == 0
    cap_full = capacity(sinr_awgn(1.0, 2))
    for u, k in enumerate(sc.payload_bits):
        full = message_threshold(k) / cap_full
        assert br.lengths[u] == pytest.approx(full, rel=0.05)
        assert br.lengths[u] >= full * (1.0 - 1e-12)


def test_queue_tied_payloads_uncongested_equal_plain():
    sc = AwgnScenario((300.0, 300.0), 1.0)
    plain = awgn_vlsf_lengths(sc)
    for t_sub in (1100.0, 2000.0, 5000.0):  # every interval at or above l' = 1052.03
        br = queue_vlsf_lengths(QueueScenario(sc, t_sub))
        assert br.r == 2
        assert br.lengths == pytest.approx(plain, rel=1e-12)


def test_queue_rejects_bad_interval():
    sc = AwgnScenario((300.0, 1000.0), 1.0)
    with pytest.raises(ValueError):
        QueueScenario(sc, 0.0)


@pytest.mark.parametrize("t_sub", [0.999, 1e-10, 1e-300])
def test_queue_rejects_sub_symbol_interval(t_sub):
    # below one symbol the walk crawls one boundary per pass and the interval count overflows
    sc = AwgnScenario((300.0, 1000.0), 1.0)
    with pytest.raises(ValueError, match="at least one symbol"):
        QueueScenario(sc, t_sub)
    assert queue_vlsf_lengths(QueueScenario(sc, 1.0)).r == 0


def test_queue_rejects_infinite_interval():
    # an endless interval would make 0 * t_sub a NaN length
    with pytest.raises(ValueError, match="finite"):
        QueueScenario(AwgnScenario((300.0, 1000.0), 1.0), math.inf)


def test_queue_names_an_interval_count_beyond_int64():
    # at -200 dB user 1 needs about 7e19 intervals of 600 symbols: storing the
    # count in the int64 column raised a bare OverflowError
    qs = QueueScenario(AwgnScenario((300.0, 1000.0), 10.0**-20), 600.0)
    with pytest.raises(ValueError, match=r"t_sub 600.0 needs .+ full intervals, beyond 2\^63"):
        queue_vlsf_lengths(qs)


def _reference_queue_vlsf_lengths(qs: QueueScenario):
    """The per-user loop that `queue_vlsf_lengths` replaced, kept verbatim as
    the bit-for-bit reference of its array form."""
    sc = qs.base
    s_total = sc.s_count
    g = sc.thresholds
    stops, caps = phase_lengths(g, np.full(s_total, sc.power), 1)
    prefix = np.concatenate([[0.0], stops])  # l'_0 = 0

    r = int(np.searchsorted(prefix[1:], qs.t_sub, side="left"))  # largest s with l'_s < t_sub
    if r == s_total:
        info = float(g[-1])  # every threshold is crossed inside one interval
    else:
        info = float(caps[r] * (qs.t_sub - prefix[r]) + (g[r - 1] if r else 0.0))
    if info <= 0.0:
        raise ValueError(f"no per-interval progress possible (I={info})")

    full = np.zeros(s_total, dtype=np.int64)
    leftover = np.zeros(s_total)
    stage = np.zeros(s_total, dtype=np.int64)
    lengths = np.empty(s_total)
    for s in range(1, s_total + 1):
        if s <= r:
            c_s, b_s = 0, float(g[s - 1])
        else:
            c_s = g[s - 1] // info  # a float: full_intervals stores it as int64
            if not c_s < 2.0**63:
                raise ValueError(f"t_sub {qs.t_sub} needs {c_s:.3g} full intervals, beyond 2^63")
            b_s = float(g[s - 1] - c_s * info)
        r_s = int(np.searchsorted(g, b_s, side="left"))  # largest t with g_t < b_s
        full[s - 1], leftover[s - 1], stage[s - 1] = c_s, b_s, r_s
        rem = (b_s - (g[r_s - 1] if r_s else 0.0)) / caps[r_s]
        lengths[s - 1] = c_s * qs.t_sub + rem + prefix[r_s]
    return r, info, full, leftover, stage, lengths


@st.composite
def _queue_scenarios(draw):
    """Tied or spread payloads, and an interval at, just below or just above
    a stop l'_s, or at a fraction of the last stop."""
    s_count = draw(st.integers(1, 8))
    base = draw(st.floats(2.0, 2000.0))
    if draw(st.booleans()):
        payloads = [base] * s_count
    else:
        payloads = sorted(draw(st.lists(st.floats(2.0, 2000.0), min_size=s_count,
                                        max_size=s_count)))
    sc = AwgnScenario(payloads, 10.0 ** draw(st.floats(-2.0, 2.0)))
    stops = awgn_vlsf_lengths(sc)
    kind = draw(st.sampled_from(["at", "below", "above", "fraction"]))
    if kind == "fraction":
        t_sub = max(1.0, draw(st.floats(0.01, 2.0)) * stops[-1])
    else:
        t_sub = float(stops[draw(st.integers(0, s_count - 1))])
        t_sub = {"at": t_sub, "below": np.nextafter(t_sub, 0.0),
                 "above": np.nextafter(t_sub, np.inf)}[kind]
    return QueueScenario(sc, max(1.0, float(t_sub)))


@given(_queue_scenarios())
@settings(max_examples=300, deadline=None)
def test_queue_breakdown_matches_the_per_user_loop_bit_for_bit(qs):
    br = queue_vlsf_lengths(qs)
    r, info, full, leftover, stage, lengths = _reference_queue_vlsf_lengths(qs)
    assert (type(br.r), br.r) == (int, r)
    assert (type(br.info_per_interval), br.info_per_interval.hex()) == (float, info.hex())
    for got, want in [(br.full_intervals, full), (br.leftover_nats, leftover),
                      (br.leftover_stage, stage), (br.lengths, lengths)]:
        assert got.dtype == want.dtype and got.shape == want.shape
        hexed = lambda a: [v.hex() if isinstance(v, float) else v for v in a.tolist()]
        assert hexed(got) == hexed(want)


# ------------------------------------------------------------- fading coeffs

def test_fading_coeffs_frozen_values():
    a = fading_vlsf_coeffs([1.5, 0.5], 1.0)
    assert a[0] == pytest.approx(1.4426950408889634, rel=1e-12)
    assert a[1] == pytest.approx(3.260275837433382, rel=1e-12)


def test_fading_coeffs_single_user():
    a = fading_vlsf_coeffs([0.7], 2.0)
    assert a[0] == pytest.approx(1.0 / math.log1p(1.4), rel=1e-12)


@pytest.mark.parametrize("gains,power,shared", [
    ([1.0, 1.0], 1.0, 2.4663034623764317),
    ([1.0] * 6, 10.0, 5.585087280155127),
    ([1.0] * 8, 0.5, 9.491221581029903),
], ids=["two_users", "six_users", "eight_users"])
def test_fading_coeffs_equal_gains_coincide(gains, power, shared):
    # equal gains stop in one phase, so every user gets the same float
    a = fading_vlsf_coeffs(gains, power)
    assert a.tolist() == [a[0]] * len(gains)
    assert a[0] == pytest.approx(shared, rel=1e-12)


def test_fading_coeffs_take_gains_in_any_order():
    # the decoding order follows from the gains, so reversed gains give reversed coefficients
    a = fading_vlsf_coeffs([0.5, 1.5], 1.0)
    assert a.tolist() == fading_vlsf_coeffs([1.5, 0.5], 1.0)[::-1].tolist()
    assert a == pytest.approx([3.2603, 1.4427], abs=1e-4)


def test_fading_coeffs_no_interference_change_telescopes():
    # earlier cancellations that do not move the capacity leave a_k = 1/C
    a = fading_vlsf_coeffs([5.0, 5.0 - 1e-12], 1.0)
    c_last = math.log1p((5.0 - 1e-12) / (1.0 + 5.0))
    assert a[1] == pytest.approx(1.0 / c_last, rel=1e-6)


@given(
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=1.1, max_value=100.0),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=50, deadline=None)
def test_fading_coeffs_scale_invariance(s_count, power, scale, salt):
    rng = np.random.default_rng(salt)
    gains = np.sort(rng.uniform(0.05, 5.0, size=s_count))[::-1]
    a = fading_vlsf_coeffs(gains, power)
    assert np.all(a > 0.0)
    a_scaled = fading_vlsf_coeffs(gains * scale, power / scale)
    assert a == pytest.approx(a_scaled, rel=1e-9)


@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8),
    st.floats(min_value=0.01, max_value=100.0),
)
@settings(max_examples=60, deadline=None)
def test_fading_coeffs_match_high_precision_oracle(gains, power):
    gains = sorted(gains, reverse=True)
    assert fading_vlsf_coeffs(gains, power) == pytest.approx(
        _oracle_fading_coeffs(gains, power), rel=1e-12)


# ties: a zero threshold gap or a power ratio of exactly 1
_GAPS = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1e3))
_RATIOS = st.one_of(st.just(1.0), st.floats(min_value=0.1, max_value=0.99))


@given(st.integers(min_value=1, max_value=8), st.floats(min_value=0.01, max_value=100.0),
       st.sampled_from([1, 2]), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_phase_lengths_stops_non_decreasing(s_count, power, dims, common, data):
    # thresholds non-decreasing and received powers non-increasing, ties included
    if common:  # block fading: one payload, weaker or equal users later
        thresholds = np.full(s_count, data.draw(st.floats(min_value=1.0, max_value=1e4)))
    else:  # cells with non-decreasing payloads and non-increasing powers
        gaps = st.lists(_GAPS, min_size=s_count - 1, max_size=s_count - 1)
        first = data.draw(st.floats(min_value=0.01, max_value=1e3))
        thresholds = np.cumsum([first, *data.draw(gaps)])
    steps = data.draw(st.lists(_RATIOS, min_size=s_count - 1, max_size=s_count - 1))
    rx = power * np.cumprod([1.0, *steps])
    stops, finish_rate = phase_lengths(thresholds, rx, dims)
    assert stops[0] > 0.0 and np.all(np.diff(stops) >= 0.0)
    assert np.all(finish_rate > 0.0)


@given(st.integers(min_value=1, max_value=8), st.floats(min_value=0.01, max_value=100.0),
       st.sampled_from([1, 2]), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_phase_lengths_take_users_in_any_order(s_count, power, dims, equal_powers, data):
    # the solver finds the stopping order: permuting the users permutes the outputs
    pick = st.lists(st.integers(min_value=0, max_value=2), min_size=s_count, max_size=s_count)
    thresholds = np.array([(5.0, 40.0, 300.0)[i] for i in data.draw(pick)])
    rx = np.full(s_count, power)
    if not equal_powers:
        rx = rx * np.array([(1.0, 0.3, 2.5)[i] for i in data.draw(pick)])
    perm = np.array(data.draw(st.permutations(range(s_count))))
    stops, finish_rate = phase_lengths(thresholds, rx, dims)
    p_stops, p_rate = phase_lengths(thresholds[perm], rx[perm], dims)
    if equal_powers:  # every sum sees the same addends, so the bits match
        assert p_stops.tolist() == stops[perm].tolist()
        assert p_rate.tolist() == finish_rate[perm].tolist()
    else:  # the interference sums run in another order
        assert p_stops == pytest.approx(stops[perm], rel=1e-12)
        assert p_rate == pytest.approx(finish_rate[perm], rel=1e-12)
    assert np.all(stops >= 0.0) and np.all(finish_rate > 0.0)
    for u in range(s_count):  # users alike in threshold and power stop at the same float
        twins = (thresholds == thresholds[u]) & (rx == rx[u])
        assert np.all(stops[twins] == stops[u])


@pytest.mark.parametrize("thresholds,rx,dims,stops,finish_rate", [
    (AwgnScenario((100.0, 400.0, 900.0), 2.0).thresholds, np.full(3, 2.0), 1,
     ["0x1.b5340744aafbdp+8", "0x1.3a31ee41a08aap+10", "0x1.d84beab9fe90ep+10"],
     ["0x1.588c2d9133490p-3", "0x1.058aefa811451p-2", "0x1.193ea7aad030bp-1"]),
    (np.ones(4), rayleigh_order_means(4), 2,
     ["0x1.daf4ea6059a0cp+0", "0x1.84426b1c7e3edp+1", "0x1.16d993e3b0b40p+2",
      "0x1.c46e190e2f8a1p+2"],
     ["0x1.13f7596e9c545p-1", "0x1.db72ede916fefp-2", "0x1.882f1ef83ed44p-2",
      "0x1.c8ff7c79a9a22p-3"]),
    (AwgnScenario((300.0, 1000.0), 1.0).thresholds, np.full(2, 1.0), 1,  # the queue's call
     ["0x1.070223ad66bf4p+10", "0x1.32f03c4870adcp+11"],
     ["0x1.9f323ecbf984cp-3", "0x1.62e42fefa39efp-2"]),
], ids=["awgn_three_users", "fading_rayleigh_means_4", "queue_caps"])
def test_phase_lengths_ordered_inputs_keep_their_bits(thresholds, rx, dims, stops,
                                                      finish_rate):
    # users given in stopping order without ties: every CSV and the report rest on these bits
    got = phase_lengths(thresholds, rx, dims)
    assert [float(v).hex() for v in got[0]] == stops
    assert [float(v).hex() for v in got[1]] == finish_rate


@pytest.mark.parametrize("rx", [np.full(2, 1e308), np.array([1e308, 1e-300]),
                                np.full(2, 5e-324)], ids=["sum_overflows", "drowned", "underflow"])
def test_phase_lengths_rejects_powers_that_leave_a_user_no_rate(rx):
    # an overflowing sum gave SINR 0 and infinite lengths, with RuntimeWarnings
    with pytest.raises(ValueError, match="leave an active user no rate"):
        phase_lengths(np.ones(2), rx, 1)


@pytest.mark.parametrize("gains,power", [
    ([1.0, 0.5], math.nan), ([math.nan, 0.5], 1.0), ([1.0, 0.5], 0.0), ([1.0, 0.5], math.inf),
    ([1.0, 0.0], 1.0),
], ids=["nan_power", "nan_gain", "zero_power", "inf_power", "zero_gain"])
def test_fading_coeffs_reject_non_finite_or_zero_power_and_gains(gains, power):
    # NaN inputs returned [nan, nan]; power 0 divided by zero
    with pytest.raises(ValueError, match="positive and finite"):
        fading_vlsf_coeffs(gains, power)


# ------------------------------------------------------------ order statistics

@pytest.mark.parametrize("s_count", [2.5, 0])
def test_rayleigh_order_means_rejects_non_integer_or_empty_count(s_count):
    # 2.5 returned three means
    with pytest.raises(ValueError, match="s_count must be an integer >= 1"):
        rayleigh_order_means(s_count)


def test_rayleigh_order_means_small_cases():
    assert rayleigh_order_means(1) == pytest.approx([1.0])
    assert rayleigh_order_means(2) == pytest.approx([1.5, 0.5])
    assert rayleigh_order_means(3) == pytest.approx([11.0 / 6.0, 5.0 / 6.0, 1.0 / 3.0])


@given(st.integers(min_value=1, max_value=200))
@settings(max_examples=40, deadline=None)
def test_rayleigh_order_means_sum_to_count(s):
    means = rayleigh_order_means(s)
    assert means.sum() == pytest.approx(float(s), rel=1e-12)
    assert np.all(np.diff(means) < 0) or s == 1
