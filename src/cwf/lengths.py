"""Closed-form average-length formulas for variable-length stop-feedback
transmission with progressive interference cancellation.

The model: when a user's accumulated information density crosses its
decoding threshold it stops transmitting, which raises the SINR of everyone
still active.  One solver, `phase_lengths`, applies Wald's identity phase by
phase on received powers with the walks' SINR rule (`channel.active_sinrs`),
the log-order remainder folded into the thresholds and otherwise dropped.
It finds the stopping order itself, users that tie stop together, and the
queued breakdown is read off its phase curve.  Lengths are stopping times:
the sweeps apply the (1-epsilon) idling where they report them, and epsilon
here sets only the fixed-length baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .channel import LN2, active_sinrs, capacity, check_positive, dispersion, is_int


@dataclass(frozen=True)
class AwgnScenario:
    """Equal-power AWGN cells with non-decreasing per-user payloads.

    payload_bits: K_1 <= K_2 <= ... <= K_S in bits, each >= 2; ties stop together.
    power: common linear transmit power (> 0).
    """

    payload_bits: tuple[float, ...]
    power: float

    def __post_init__(self):
        object.__setattr__(self, "payload_bits", tuple(float(k) for k in self.payload_bits))
        if len(self.payload_bits) < 1:
            raise ValueError("at least one user required")
        if not all(2.0 <= k < math.inf for k in self.payload_bits):
            raise ValueError(f"payloads must be finite and >= 2 bits, got {self.payload_bits}")
        if any(b > a for b, a in zip(self.payload_bits, self.payload_bits[1:])):
            raise ValueError("payload_bits must be non-decreasing")
        check_positive("power", self.power)

    @property
    def s_count(self) -> int:
        return len(self.payload_bits)

    @property
    def thresholds(self) -> np.ndarray:
        """Decoding thresholds of users 1..S in nats, ascending."""
        return np.array([message_threshold(k) for k in self.payload_bits])


@dataclass(frozen=True)
class QueueScenario:
    """AWGN scenario where a fresh packet arrives every t_sub >= 1 symbols."""

    base: AwgnScenario
    t_sub: float

    def __post_init__(self):
        if not 1.0 <= self.t_sub < math.inf:
            raise ValueError(f"t_sub must be finite and at least one symbol, got {self.t_sub}")


@dataclass(frozen=True)
class QueueBreakdown:
    """Per-user decomposition of the queued average lengths.

    r: largest user index that finishes within one interval (0 if none).
    info_per_interval: average nats a congested user accumulates per interval.
    full_intervals[s]: complete intervals consumed before the final one (c_s).
    leftover_nats[s]: nats still needed at the start of the final interval (b_s).
    leftover_stage[s]: phase of the final interval where decoding completes (r_s).
    lengths[s]: average length in symbols, without the (1-epsilon) idling.
    """

    r: int
    info_per_interval: float
    full_intervals: np.ndarray
    leftover_nats: np.ndarray
    leftover_stage: np.ndarray
    lengths: np.ndarray


def message_threshold(payload_bits: float) -> float:
    """Decoding threshold in nats for a payload of `payload_bits` bits.

    kappa = K*ln2; the threshold kappa + ln(kappa) makes the union bound
    over the 2^K - 1 wrong codewords equal 1/kappa:
    exp(kappa) * exp(-threshold) = 1/kappa.
    """
    if not 2.0 <= payload_bits < math.inf:
        raise ValueError(f"payload must be finite and >= 2 bits, got {payload_bits}")
    kappa = payload_bits * LN2
    return kappa + math.log(kappa)


def fixed_length_blocklength(payload_bits: float, snr: float, epsilon: float,
                             dims: int = 1) -> int:
    """Smallest blocklength n meeting the normal approximation at `epsilon`.

    Solves payload_bits*ln2 <= n*d*C - sqrt(n*d*V)*Qinv(epsilon) with C and V
    the real-AWGN capacity and dispersion at `snr`, where each of the n
    symbols spends d = `dims` real dimensions (2 for a complex symbol).
    A blocklength beyond 2^50 symbols raises ValueError.
    """
    check_positive("payload_bits", payload_bits)
    check_positive("snr", snr)
    _check_dims(dims)
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in (0, 0.5], got {epsilon}")
    kappa = payload_bits * LN2
    c = capacity(snr)
    v = dispersion(snr)
    qinv = NormalDist().inv_cdf(1.0 - epsilon)
    # largest real root of kappa = x*c - sqrt(x*v)*qinv in real dimensions x
    b = qinv * math.sqrt(v)
    root = (b + math.sqrt(b * b + 4.0 * c * kappa)) / (2.0 * c) if c else math.inf
    if not root * root <= dims * 2.0**50:  # where a symbol still moves n*d*C by 4 ulps
        raise ValueError(f"fixed blocklength {root * root / dims:.3g} exceeds 2^50 symbols")
    n = math.ceil(root * root / dims - 1e-9)

    def ok(m: int) -> bool:
        return kappa <= dims * m * c - math.sqrt(dims * m * v) * qinv

    while not ok(n):
        n += 1
    while n > 1 and ok(n - 1):
        n -= 1
    return n


def _check_dims(dims) -> None:
    if not (is_int(dims) and dims >= 1):
        raise ValueError(f"dims must be an integer >= 1, got {dims}")


def phase_lengths(thresholds, rx, dims: int):
    """Wald's identity phase by phase: each user's stop time in symbols, and
    its finish rate, the rate it had in the phase where it stopped.

    Each active user gathers capacity(active_sinrs(rx[active]), dims) nats
    per symbol.  A phase ends when the first active user reaches its
    threshold, and every user due at that time stops: ties stop together,
    and the inputs may come in any order.  ValueError unless each user has
    a positive finite threshold and received power and `dims` is an integer
    >= 1, or when the powers leave an active user no rate (their sum overflows).
    """
    thresholds, rx = np.asarray(thresholds, dtype=float), np.asarray(rx, dtype=float)
    if not (thresholds.ndim == rx.ndim == 1 and 1 <= thresholds.size == rx.size):
        raise ValueError(f"need one threshold per received power, got {thresholds} and {rx}")
    check_positive("thresholds", thresholds)
    check_positive("received powers", rx)
    _check_dims(dims)
    acc = np.zeros(len(rx))  # nats gathered so far
    stops, finish_rate = np.empty(len(rx)), np.empty(len(rx))
    active, t = np.arange(len(rx)), 0.0
    while active.size:
        with np.errstate(over="ignore"):  # an overflowing sum of powers leaves rate 0
            rate = capacity(active_sinrs(rx[active]), dims)
        if not rate.min() > 0.0:
            raise ValueError(f"received powers {rx} leave an active user no rate")
        left = (thresholds[active] - acc[active]) / rate
        step = left.min()
        t += step
        done = ~(left > step)  # not `==`: a NaN input ends the loop instead of spinning
        stops[active[done]], finish_rate[active[done]] = t, rate[done]
        acc[active] += step * rate
        active = active[~done]
    return stops, finish_rate


def awgn_vlsf_lengths(sc: AwgnScenario) -> np.ndarray:
    """Average stop-feedback code lengths under progressive cancellation.

    lengths[s-1] = sum_{t=1..s} (g_t - g_{t-1}) / C_{S-t+1}, g_t the decoding
    threshold of user t and C_u the capacity with u active users: phase t runs
    at the capacity of the S-t+1 users still transmitting, and equal payloads
    give a zero term.  These are stopping times: a code that idles with
    probability epsilon averages (1-epsilon) times them.
    """
    return phase_lengths(sc.thresholds, np.full(sc.s_count, sc.power), 1)[0]


def queue_vlsf_lengths(qs: QueueScenario) -> QueueBreakdown:
    """Average lengths when a fresh packet arrives every t_sub symbols, read
    off the cascade's phase curve: each user still active at prefix[t] = l'_t
    holds g0[t] = g_t nats (l'_0 = g_0 = 0).  Users whose uncongested length
    fits inside one interval keep the plain lengths (c_s = 0).  A congested
    user gathers I = `info_per_interval` nats per interval, the curve read
    forward to t_sub (interference resets every interval because the light
    users restart), needs c_s = floor(g_s / I) complete intervals, and
    finishes the remaining b_s nats on the curve of one more interval.
    """
    g = qs.base.thresholds
    stops, rates = phase_lengths(g, np.full(g.size, qs.base.power), 1)
    prefix, g0 = np.concatenate([[0.0], stops]), np.concatenate([[0.0], g])
    r = int(np.searchsorted(stops, qs.t_sub, side="left"))  # largest s with l'_s < t_sub
    # past the last stop every threshold is crossed inside one interval
    info = float(g[-1] if r == g.size else rates[r] * (qs.t_sub - prefix[r]) + g0[r])
    if info <= 0.0:
        raise ValueError(f"no per-interval progress possible (I={info})")
    full = g // info  # floats: full_intervals stores them as int64
    full[:r] = 0.0
    past = ~(full < 2.0**63)
    if past.any():
        raise ValueError(f"t_sub {qs.t_sub} needs {full[past][0]:.3g} full intervals, beyond 2^63")
    leftover = g - full * info
    stage = np.searchsorted(g, leftover, side="left")  # largest t with g_t < b_s
    lengths = full * qs.t_sub + (leftover - g0[stage]) / rates[stage] + prefix[stage]
    return QueueBreakdown(r, info, full.astype(np.int64), leftover, stage, lengths)


def fading_vlsf_coeffs(gains, power: float) -> np.ndarray:
    """Symbols-per-nat coefficients a_j for block fading with common payload.

    Gains come in any order: the strongest user decodes first, equal gains
    together.  User j's average length is a_j * threshold, so a_j is its
    stop time under unit thresholds.  Over gains sorted descending, the
    phases charge each earlier termination with its capacity jump for user j:

        a_1 = 1 / C(S users active, user 1)
        a_k = (1 + sum_{t<k} a_t * (C_{S-t,k} - C_{S-t+1,k})) / C_{S-k+1,k}
    """
    gains = np.asarray(gains, dtype=float)
    return phase_lengths(np.ones_like(gains), power * gains, 2)[0]


def rayleigh_order_means(s_count: int) -> np.ndarray:
    """Expected sorted squared magnitudes of s_count unit-mean Rayleigh fades.

    The j-th largest of S i.i.d. Exp(1) draws has mean sum_{u=j..S} 1/u;
    returned descending.  The list sums to S.
    """
    if not is_int(s_count) or s_count < 1:
        raise ValueError(f"s_count must be an integer >= 1, got {s_count}")
    tail = np.cumsum(1.0 / np.arange(s_count, 0, -1.0))
    return tail[::-1].copy()
