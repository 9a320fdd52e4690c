"""Closed-form average-length formulas for variable-length stop-feedback
transmission with progressive interference cancellation.

The model: S equal-power users in S cells, decoded in ascending payload
order.  When a user's accumulated information density crosses its decoding
threshold it stops transmitting, which raises the SINR of everyone still
active.  Average lengths follow from Wald's identity applied phase by phase,
with the log-order remainder folded into the thresholds and otherwise
dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .channel import LN2, capacity, dispersion, sinr_awgn, sinr_fading


@dataclass(frozen=True)
class AwgnScenario:
    """Equal-power AWGN cells with strictly increasing per-user payloads.

    payload_bits: K_1 < K_2 < ... < K_S in bits, each >= 2.
    power: common linear transmit power (> 0).
    epsilon: target error probability in [0, 1).
    """

    payload_bits: tuple[float, ...]
    power: float
    epsilon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "payload_bits", tuple(float(k) for k in self.payload_bits))
        if len(self.payload_bits) < 1:
            raise ValueError("at least one user required")
        if any(k < 2.0 for k in self.payload_bits):
            raise ValueError("payloads below 2 bits are not supported")
        if any(b >= a for b, a in zip(self.payload_bits, self.payload_bits[1:])):
            raise ValueError("payload_bits must be strictly increasing")
        if not self.power > 0.0:
            raise ValueError(f"power must be positive, got {self.power}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")

    @property
    def s_count(self) -> int:
        return len(self.payload_bits)


@dataclass(frozen=True)
class QueueScenario:
    """AWGN scenario where a fresh packet arrives every t_sub symbols."""

    base: AwgnScenario
    t_sub: float

    def __post_init__(self):
        if not self.t_sub > 0.0:
            raise ValueError(f"t_sub must be positive, got {self.t_sub}")


@dataclass(frozen=True)
class QueueBreakdown:
    """Per-user decomposition of the queued average lengths.

    r: largest user index that finishes within one interval (0 if none).
    info_per_interval: average nats a congested user accumulates per interval.
    full_intervals[s]: complete intervals consumed before the final one (c_s).
    leftover_nats[s]: nats still needed at the start of the final interval (b_s).
    leftover_stage[s]: phase of the final interval where decoding completes (r_s).
    lengths[s]: average length in symbols, including the (1-epsilon) idling.
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
    if payload_bits < 2.0:
        raise ValueError(f"payload must be >= 2 bits, got {payload_bits}")
    kappa = payload_bits * LN2
    return kappa + math.log(kappa)


def fixed_length_blocklength(payload_bits: float, snr: float, epsilon: float,
                             dims: int = 1) -> int:
    """Smallest blocklength n meeting the normal approximation at `epsilon`.

    Solves payload_bits*ln2 <= n*d*C - sqrt(n*d*V)*Qinv(epsilon) with C and V
    the real-AWGN capacity and dispersion at `snr`, where each of the n
    symbols spends d = `dims` real dimensions (2 for a complex symbol).
    """
    if not snr > 0.0:
        raise ValueError(f"snr must be positive, got {snr}")
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in (0, 0.5], got {epsilon}")
    kappa = payload_bits * LN2
    c = capacity(snr)
    v = dispersion(snr)
    qinv = float(ndtri(1.0 - epsilon))
    # largest real root of kappa = x*c - sqrt(x*v)*qinv in real dimensions x
    b = qinv * math.sqrt(v)
    root = (b + math.sqrt(b * b + 4.0 * c * kappa)) / (2.0 * c)
    n = math.ceil(root * root / dims - 1e-9)

    def ok(m: int) -> bool:
        return kappa <= dims * m * c - math.sqrt(dims * m * v) * qinv

    while not ok(n):
        n += 1
    while n > 1 and ok(n - 1):
        n -= 1
    return n


def _awgn_thresholds(sc: AwgnScenario) -> np.ndarray:
    return np.array([message_threshold(k) for k in sc.payload_bits])


def _awgn_phase_capacities(sc: AwgnScenario) -> np.ndarray:
    """caps[t-1] = capacity during phase t, when S-t+1 users are active."""
    s = sc.s_count
    return np.array(
        [capacity(sinr_awgn(sc.power, s - t + 1)) for t in range(1, s + 1)]
    )


def _raw_length_prefix(sc: AwgnScenario) -> np.ndarray:
    """Cumulative sums l'_s = sum_{t<=s} (g_t - g_{t-1}) / C_{S-t+1}, with
    l'_0 = 0 prepended.  These are the epsilon-free average lengths."""
    g = _awgn_thresholds(sc)
    caps = _awgn_phase_capacities(sc)
    steps = np.diff(g, prepend=0.0) / caps
    return np.concatenate([[0.0], np.cumsum(steps)])


def awgn_vlsf_lengths(sc: AwgnScenario) -> np.ndarray:
    """Average stop-feedback code lengths under progressive cancellation.

    lengths[s-1] = (1-eps) * sum_{t=1..s} (g_t - g_{t-1}) / C_{S-t+1} where
    g_t is the decoding threshold of user t and C_u the capacity with u
    active users.  User s spends each phase t at the capacity set by the
    S-t+1 users still transmitting.
    """
    return (1.0 - sc.epsilon) * _raw_length_prefix(sc)[1:]


def queue_vlsf_lengths(qs: QueueScenario) -> QueueBreakdown:
    """Average lengths when a fresh packet arrives every t_sub symbols.

    Users whose uncongested average length fits inside one interval keep the
    plain lengths.  A congested user accumulates `info_per_interval` nats per
    interval (interference resets every interval because the light users
    restart), needs c_s = floor(g_s / I) complete intervals, and finishes the
    remaining b_s nats in the phase structure of one more interval.
    """
    sc = qs.base
    s_total = sc.s_count
    g = _awgn_thresholds(sc)
    caps = _awgn_phase_capacities(sc)
    prefix = _raw_length_prefix(sc)

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
    scale = 1.0 - sc.epsilon
    for s in range(1, s_total + 1):
        if s <= r:
            c_s, b_s = 0, float(g[s - 1])
        else:
            c_s = int(g[s - 1] // info)
            b_s = float(g[s - 1] - c_s * info)
        r_s = int(np.searchsorted(g, b_s, side="left"))  # largest t with g_t < b_s
        full[s - 1], leftover[s - 1], stage[s - 1] = c_s, b_s, r_s
        rem = (b_s - (g[r_s - 1] if r_s else 0.0)) / caps[r_s]
        lengths[s - 1] = scale * (c_s * qs.t_sub + rem + prefix[r_s])
    return QueueBreakdown(r, info, full, leftover, stage, lengths)


def fading_vlsf_coeffs(gains, power: float) -> np.ndarray:
    """Symbols-per-nat coefficients a_j for block fading with common payload.

    Decoding order follows descending gain; user j's average length is
    a_j * (1-eps) * threshold.  The recursion charges each earlier user's
    termination with the capacity jump it causes for user j:

        a_1 = 1 / C(S users active, user 1)
        a_k = (1 + sum_{t<k} a_t * (C_{S-t,k} - C_{S-t+1,k})) / C_{S-k+1,k}
    """
    gains = np.asarray(gains, dtype=float)
    s_total = gains.shape[0]
    if np.any(gains <= 0.0):
        raise ValueError("all gains must be positive")
    if np.any(np.diff(gains) > 0.0):
        raise ValueError("gains must be sorted descending (decoding order)")

    def cap_sj(s: int, j: int) -> float:
        # s users active means users S-s+1..S are still transmitting
        return capacity(sinr_fading(power, gains, s_total - s + 1, j), dims=2)

    a = np.empty(s_total)
    a[0] = 1.0 / cap_sj(s_total, 1)
    for k in range(2, s_total + 1):
        acc = 1.0
        for t in range(1, k):
            acc += a[t - 1] * (cap_sj(s_total - t, k) - cap_sj(s_total - t + 1, k))
        a[k - 1] = acc / cap_sj(s_total - k + 1, k)
    return a


def rayleigh_order_means(s_count: int) -> np.ndarray:
    """Expected sorted squared magnitudes of s_count unit-mean Rayleigh fades.

    The j-th largest of S i.i.d. Exp(1) draws has mean sum_{u=j..S} 1/u;
    returned descending.  The list sums to S.
    """
    if s_count < 1:
        raise ValueError(f"s_count must be >= 1, got {s_count}")
    tail = np.cumsum(1.0 / np.arange(s_count, 0, -1.0))
    return tail[::-1].copy()
