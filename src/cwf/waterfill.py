"""Power allocation for fast Rayleigh fading: the multi-user constant-power
threshold optimization.

Every user transmits at power p/P(gain >= th) whenever its own gain clears
the threshold `th` and stays silent otherwise, so the long-run average
power is exactly p.  Raising the threshold thins out interference from
badly faded users; the capacity lower bound below, in closed form, is
maximized over `th` to pick the operating point, and `mc_capacity` checks
it by simulation.  Nothing here integrates numerically: the quadrature of
`cwf.quadrature` is the bound's oracle in `cwf validate` (criterion 8).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .channel import check_positive, is_int
from .simulate import BLOCK, Estimate, TrialPlan, estimate, point_seed, streams


@dataclass(frozen=True)
class FastFadingScenario:
    """S symmetric users, unit-mean exponential gains, average power p each."""

    s_count: int
    power: float

    def __post_init__(self):
        if not (is_int(self.s_count) and self.s_count >= 1):
            raise ValueError(f"s_count must be an integer >= 1, got {self.s_count}")
        n = self.s_count - 1  # the largest weight of lower_bound_terms must be a float
        if (math.lgamma(n + 1) - math.lgamma(n // 2 + 1) - math.lgamma(n - n // 2 + 1)
                > math.log(sys.float_info.max)):
            raise ValueError(f"s_count must be <= 1030, got {self.s_count}: "
                             f"C({n}, {n // 2}) overflows a float")
        check_positive("power", self.power)
        if math.isinf(1.0 / self.power):  # lower_bound_terms divides by it
            raise ValueError(f"power {self.power} is too small: 1/power overflows a float")


@dataclass(frozen=True)
class ThresholdSearchResult:
    """Single-user and interference-aware thresholds with their objectives."""

    gamma_single: float
    gamma_multi: float
    cl_at_single: float
    cl_at_multi: float
    mc_capacity_single: Estimate | None = None
    mc_capacity_multi: Estimate | None = None


def single_user_threshold(power: float, s_count: int) -> float:
    """Root of th * e^th = 1/power + (s_count - 1).

    The interference-blind constant-power cutoff: other users are frozen at
    unit gain, so the link sees fixed noise 1/power + S - 1.  The left side
    is monotone, so plain bisection converges; it stops when the midpoint
    rounds onto an end of the bracket, which then cannot shrink any more.
    Below a target of 1 the root lies in [target/e, target], so it keeps
    its digits however small 1/power is.
    """
    check_positive("power", power)
    if not (is_int(s_count) and s_count >= 1):
        raise ValueError(f"s_count must be an integer >= 1, got {s_count}")
    target = 1.0 / power + (s_count - 1)
    if target < 1.0:
        lo, hi = target / math.e, target
    else:
        lo, hi = 0.0, 1.0
        while hi * math.exp(hi) < target:
            hi = min(2.0 * hi, 709.0)  # 709 * e^709 exceeds every float; e^710 overflows
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid * math.exp(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lower_bound_terms(gamma_th: float | np.ndarray, sc: FastFadingScenario):
    """Yield the non-zero terms of `capacity_lower_bound`, one (weight, denom)
    pair per interferer count t.

    weight is the binomial weight C(S-1,t) (1-q)^(S-1-t) q^t and denom the
    noise-plus-mean-interference level q/p + t*(1+gamma_th); the term is
    weight * int_gamma_th^inf ln(1 + g/denom) e^-g dg.  An array gamma_th
    gives arrays shaped like it; a term is skipped only when every weight is 0.
    """
    s, p = sc.s_count, sc.power
    # numpy's exp and power for a float too: math.exp and ** may differ in the
    # last bit, and a float must give a one-element array's terms
    pon = np.exp(-gamma_th)
    for t in range(s):
        weight = math.comb(s - 1, t) * np.power(1.0 - pon, s - 1 - t) * np.power(pon, t)
        if np.count_nonzero(weight):
            yield weight, pon / p + t * (1.0 + gamma_th)


#: 1/(k k!) for k = 18..1, then 0: E1(x) = -euler_gamma - ln x - polyval(_E1_SERIES, -x)
#: below 1, where the first term left out is below 1e-17
_E1_SERIES = [1.0 / (k * math.factorial(k)) for k in range(18, 0, -1)] + [0.0]


def _scaled_exp1_series(x):
    """e^x E1(x) for 0 < x < 1, a float or an array: Horner on `_E1_SERIES`
    in `np.polyval`'s order."""
    neg, poly = -x, 0.0
    for coef in _E1_SERIES:
        poly = poly * neg + coef
    return np.exp(x) * (-np.euler_gamma - np.log(x) - poly)


def _fraction_levels(x_min: float) -> int:
    """Levels of the continued fraction for every x >= x_min >= 1."""
    return 8 + int(100.0 / x_min)


#: (2k - 1, k^2) of level k = 1, 2, ... of the continued fraction, as (exact)
#: floats, so a level costs the float path no int-to-float conversion
_FRACTION_TERMS = [(2.0 * k - 1.0, float(k * k)) for k in range(1, _fraction_levels(1.0) + 1)]


def _scaled_exp1_fraction(x, levels: int):
    """e^x E1(x) for x >= 1, a float or an array: the continued fraction
    evaluated backward from `levels` levels."""
    t = x + (2 * levels + 1)
    for odd, square in reversed(_FRACTION_TERMS[:levels]):
        t = x + odd - square / t
    return 1.0 / t


def scaled_exp1(x: np.ndarray) -> np.ndarray:
    """e^x E1(x) elementwise, for x > 0.

    Below 1 the power series of E1 (`_E1_SERIES`); from 1 the continued
    fraction 1/(x+1 - 1/(x+3 - 4/(x+5 - 9/(x+7 - ...)))), evaluated
    backward from 8 + 100/min(x) levels, which truncates it below 3e-17
    relative.  Agrees with mpmath to 5e-16 relative on [1e-300, 1e300].
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    low = x < 1.0
    if low.any():
        out[low] = _scaled_exp1_series(x[low])
    if not low.all():
        xs = x[~low]
        out[~low] = _scaled_exp1_fraction(xs, _fraction_levels(xs.min()))
    return out


def capacity_lower_bound(gamma_th: float | np.ndarray,
                         sc: FastFadingScenario) -> float | np.ndarray:
    """One-dimensional capacity lower bound of one user at threshold gamma_th.

    Conditions on the number t of active interferers (binomial over S-1
    peers) and replaces their interference by its conditional mean, which
    lower-bounds the true capacity by convexity of log(1 + c/x):

        sum_t  C(S-1,t) (1-q)^(S-1-t) q^t *
               int_gamma_th^inf ln(1 + g/d) e^-g dg,   d = q/p + t*(1+gamma_th)

    with q = exp(-gamma_th).  Integration by parts gives each integral in
    closed form, q * [ln(1 + gamma_th/d) + e^x E1(x)] with x = d + gamma_th,
    and `scaled_exp1` for the second part.  One loop over
    `lower_bound_terms` adds the terms in order of t, and each term's
    continued fraction runs to the depth of its own smallest x >= 1.  An
    array gamma_th gives one bound per element; a scalar takes
    `_float_lower_bound`, bit for bit equal to a one-element array.
    """
    if np.ndim(gamma_th) == 0:
        return _float_lower_bound(float(gamma_th), sc)
    gamma = np.asarray(gamma_th, dtype=float)
    if np.any(gamma < 0.0):
        raise ValueError(f"gamma_th must be non-negative, got {np.min(gamma)}")
    pon = np.exp(-gamma)
    total = 0.0
    for weight, d in lower_bound_terms(gamma, sc):
        with np.errstate(divide="ignore", over="ignore"):
            log_ratio = np.log1p(gamma / d)
        # past about 3000 dB, gamma_th / (q/p) overflows at t = 0 (q/p may even
        # underflow to 0); there ln(1 + gamma_th p/q) = ln gamma_th + gamma_th + ln p
        far = np.isinf(log_ratio)
        log_ratio[far] = np.log(gamma[far]) + gamma[far] + math.log(sc.power)
        total += weight * (pon * (log_ratio + scaled_exp1(d + gamma)))
    return total


def _float_lower_bound(gamma_th: float, sc: FastFadingScenario) -> float:
    """`capacity_lower_bound` at one float threshold: the array path's loop
    on floats, with numpy's exp, log and log1p and each term's fraction
    depth from its own x."""
    if gamma_th < 0.0:
        raise ValueError(f"gamma_th must be non-negative, got {gamma_th}")
    pon = float(np.exp(-gamma_th))
    total = 0.0
    for weight, d in lower_bound_terms(gamma_th, sc):
        d = float(d)
        # d is 0 where q/p underflows: numpy's gamma_th / 0 is inf, Python's raises
        log_ratio = float(np.log1p(gamma_th / d)) if d > 0.0 else math.inf
        if math.isinf(log_ratio):
            log_ratio = float(np.log(gamma_th)) + gamma_th + math.log(sc.power)
        x = d + gamma_th
        scaled = _scaled_exp1_series(x) if x < 1.0 else _scaled_exp1_fraction(x, _fraction_levels(x))
        total += weight * (pon * (log_ratio + scaled))
    return float(total)


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section search for the maximizer of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


#: first search cap: on-probability below 1e-3/S contributes nothing at desk scale
def _threshold_cap(s_count: int) -> float:
    return math.log(1000.0 * s_count)


#: coarse grid step of the threshold search and the golden-section tolerance
GRID_STEP = 0.01
REFINE_TOL = 1e-6


def optimize_threshold(sc: FastFadingScenario) -> ThresholdSearchResult:
    """Maximize the capacity lower bound over the on-off threshold.

    Coarse grid (step 0.01) over [0, ln(1000*S)] in one array call, then
    golden-section refinement.  While the argmax is the grid's last point,
    the cap doubles, up to 708 (q = e^-th stays a normal float a step past
    it), and the grid is searched again.  The search's own argmax is
    reported; the interference-blind threshold is evaluated beside it, so a
    search that misses the optimum shows as cl_at_multi < cl_at_single.
    The grid picks the bracket; the refinement and both reported bounds are
    float calls, bit for bit equal to one-element array calls.  The bound
    adds its terms one at a time, so a grid call's memory does not grow
    with S.
    """
    cap, limit = _threshold_cap(sc.s_count), math.floor(-math.log(sys.float_info.min))
    objective = lambda g: capacity_lower_bound(float(g), sc)
    while True:
        grid = np.arange(0.0, cap + GRID_STEP, GRID_STEP)
        values = capacity_lower_bound(grid, sc)
        best = int(np.argmax(values))
        if best < len(grid) - 1 or cap >= limit:
            break
        cap = min(2.0 * cap, limit)
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    gamma_multi = _golden_max(objective, float(lo), float(hi), REFINE_TOL)

    gamma_single = single_user_threshold(sc.power, sc.s_count)
    return ThresholdSearchResult(
        gamma_single=gamma_single,
        gamma_multi=gamma_multi,
        cl_at_single=objective(gamma_single),
        cl_at_multi=objective(gamma_multi),
    )


def mc_capacity(gamma_th: float, sc: FastFadingScenario, plan: TrialPlan) -> Estimate:
    """Monte Carlo estimate of one user's capacity under the on-off policy.

    Samples S independent exponential gains; when the user's own gain clears
    the threshold it sees ln(1 + (g1/q) / (1/p + sum_i (gi/q)[gi > th]))
    nats, else zero.  Where that ratio overflows (past about 3000 dB, with
    no interferer on) the capacity is ln g1 + th - ln(1/p + interference),
    as in the bound's `far` rule.  Trials are drawn in blocks of `BLOCK`,
    each from its own counter-based stream, so the estimate does not depend
    on scheduling.  A block's gains are drawn in row slices of at most
    BLOCK // S trials, the same draws in the same order, so memory does not
    grow with S.
    """
    if not (math.isfinite(gamma_th) and gamma_th >= 0.0):
        raise ValueError(f"gamma_th must be finite and non-negative, got {gamma_th}")
    pon = math.exp(-gamma_th)
    inv_p = 1.0 / sc.power
    rows = max(1, BLOCK // sc.s_count)

    def capacities(rng, n):
        out = np.empty(n)
        for start in range(0, n, rows):
            gains = rng.standard_exponential((min(rows, n - start), sc.s_count))
            own = gains[:, 0]
            others = gains[:, 1:]
            noise = inv_p + ((others / pon) * (others > gamma_th)).sum(axis=1)
            with np.errstate(over="ignore"):
                values = np.log1p((own / pon) / noise)
            far = np.isinf(values)
            values[far] = np.log(own[far]) + gamma_th - np.log(noise[far])
            out[start:start + len(gains)] = np.where(own > gamma_th, values, 0.0)
        return out

    return estimate(capacities(rng, n) for rng, n in streams(plan, BLOCK))


def evaluate_thresholds(sc: FastFadingScenario, trials: int,
                        seed: int) -> ThresholdSearchResult:
    """Optimize the threshold and attach Monte Carlo capacity estimates:
    seed `point_seed(seed, 0)` at gamma_single, `point_seed(seed, 1)` at gamma_multi."""
    base = optimize_threshold(sc)
    single, multi = (TrialPlan(trials, point_seed(seed, i)) for i in (0, 1))
    return replace(base, mc_capacity_single=mc_capacity(base.gamma_single, sc, single),
                   mc_capacity_multi=mc_capacity(base.gamma_multi, sc, multi))
