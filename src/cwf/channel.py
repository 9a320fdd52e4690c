"""Shared link-level primitives: SINRs, capacity, dispersion and
per-symbol information density increments.

Every link has unit noise variance, so SINRs are powers over 1 plus the
interference, and the information density takes the SINR as its power.
The walks, the closed-form lengths, `sinr_awgn` and `sinr_fading` share one
SINR rule on received powers, `active_sinrs`.

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
    if isinstance(value, float) and 0.0 < value < math.inf:
        return  # the walks check a power per call: a valid float skips numpy
    v = np.asarray(value, dtype=float)
    if not ((v > 0.0) & (v < math.inf)).all():
        raise ValueError(f"{name} must be positive and finite, got {value}")


def sinr_awgn(power: float, active_users: int) -> float:
    """SINR of one user when `active_users` equal-power users share the band:
    `active_sinrs` on that many equal received powers."""
    check_positive("power", power)
    if not (is_int(active_users) and active_users >= 1):
        raise ValueError(f"active_users must be an integer >= 1, got {active_users}")
    return float(active_sinrs(np.full(active_users, power))[0])


def sinr_fading(power: float, gains) -> float:
    """SINR of user S, the last to decode, while users 1..S all transmit;
    `gains` holds their squared fading magnitudes |h|^2 in decoding order."""
    gains = np.asarray(gains, dtype=float)
    if not (gains.size and ((gains >= 0.0) & (gains < math.inf)).all()):  # zero gains are legal
        raise ValueError(f"gains must be non-negative and finite, at least one, got {gains}")
    check_positive("power", power)
    return float(active_sinrs(power * gains)[-1])


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


def info_density_increment(x, y, power: float, out=None):
    """Per-symbol information density log dP(y|x)/dP(y) for a Gaussian link
    at unit noise.

    Input x ~ N(0, power), output y = x + w with w ~ N(0, 1):

        0.5*ln(power+1) + y^2 / (2*(power+1)) - (y-x)^2 / 2

    Accepts scalars or arrays (broadcast).  Its expectation over the channel
    equals capacity(power).  `out`, of the broadcast shape, may be `x` itself:
    the result is written there, bit for bit as above, with one temporary
    shaped like `y`.
    """
    check_positive("power", power)
    y = np.asarray(y, dtype=float)
    tot = power + 1.0
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(x), y.shape))
    y_term = y * y
    y_term /= 2.0 * tot
    y_term += 0.5 * math.log(tot)  # IEEE addition commutes, so the order above holds
    np.square(np.subtract(y, x, out=out), out=out)
    np.multiply(out, 0.5, out=out)  # halving is exact: the same bits as dividing by 2
    np.subtract(y_term, out, out=out)
    return out if out.ndim else float(out)
