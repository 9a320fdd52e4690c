"""Shared link-level primitives: SINRs, capacity, dispersion and
per-symbol information density increments.

Every link has unit noise variance, so SINRs are powers over 1 plus the
interference, and the information density takes the SINR as its power.
The walks, the closed-form lengths and `sinr_fading` share one SINR rule on
received powers, `active_sinrs`.

All information quantities are in nats.  Payload sizes given in bits are
converted at the boundary via kappa = K * ln(2).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

LN2 = math.log(2.0)


def active_sinrs(rx):
    """SINRs of the active users from their received powers: each hears its
    own power over unit noise plus the others', rx / (1 + sum(rx) - rx)."""
    return rx / (1.0 + (rx.sum() - rx))


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_positive(name: str, value) -> None:
    """Raise ValueError unless every entry of `value` is positive and finite."""
    v = np.asarray(value, dtype=float)
    if not ((v > 0.0) & (v < math.inf)).all():
        raise ValueError(f"{name} must be positive and finite, got {value}")


def sinr_awgn(power: float, active_users: int) -> float:
    """SINR of one user when `active_users` equal-power users share the band.

    All interferers transmit i.i.d. Gaussian codewords at `power`, so the
    interference-plus-noise is Gaussian with variance 1 + (s-1)*power: the
    equal-power case of `active_sinrs`, without building the s powers.
    """
    check_positive("power", power)
    if active_users < 1:
        raise ValueError(f"active_users must be >= 1, got {active_users}")
    return power / (1.0 + (active_users - 1) * power)


def sinr_fading(power: float, gains, active_from: int, j: int) -> float:
    """SINR of user `j` when users `active_from..S` are still transmitting.

    User indices are 1-based and follow the decoding order: users
    1..active_from-1 have already terminated.  `gains` holds the squared
    fading magnitudes |h|^2 of users 1..S.
    """
    gains = np.asarray(gains, dtype=float)
    s_total = gains.shape[0]
    if not ((gains >= 0.0) & (gains < math.inf)).all():  # zero gains are legal, NaN is not
        raise ValueError(f"gains must be non-negative and finite, got {gains}")
    if not (1 <= active_from <= s_total):
        raise ValueError(f"active_from {active_from} outside 1..{s_total}")
    if not (active_from <= j <= s_total):
        raise ValueError(f"user {j} is not active (active set {active_from}..{s_total})")
    check_positive("power", power)
    return float(active_sinrs(power * gains[active_from - 1:])[j - active_from])


def capacity(snr, dims: int = 1):
    """Gaussian channel capacity in nats per symbol at the given SINR.

    Each symbol spends `dims` real dimensions at 0.5*ln(1+snr) nats each:
    1 for a real AWGN link, 2 for a complex (fading) link.
    """
    snr = np.asarray(snr, dtype=float)
    if not (snr >= 0.0).all():
        raise ValueError(f"snr must be non-negative, got {snr}")
    c = dims * 0.5 * np.log1p(snr)
    return c if c.ndim else float(c)


def dispersion(snr):
    """Real-AWGN channel dispersion snr*(snr+2) / (2*(snr+1)^2), nats^2.

    Tends to 1/2 as snr grows; the variance coefficient of the normal
    approximation to the maximal code size.
    """
    snr = np.asarray(snr, dtype=float)
    if not ((snr >= 0.0) & (snr < math.inf)).all():
        raise ValueError(f"snr must be non-negative and finite, got {snr}")
    v = snr * (snr + 2.0) / (2.0 * (snr + 1.0) ** 2)
    return v if v.ndim else float(v)


def info_density_increment(x, y, power: float):
    """Per-symbol information density log dP(y|x)/dP(y) for a Gaussian link
    at unit noise.

    Input x ~ N(0, power), output y = x + w with w ~ N(0, 1):

        0.5*ln(power+1) + y^2 / (2*(power+1)) - (y-x)^2 / 2

    Accepts scalars or arrays (broadcast).  Its expectation over the channel
    equals capacity(power).
    """
    if not power > 0.0:
        raise ValueError(f"power must be positive, got {power}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tot = power + 1.0
    out = 0.5 * math.log(tot) + y * y / (2.0 * tot) - (y - x) ** 2 / 2.0
    return out if out.ndim else float(out)
