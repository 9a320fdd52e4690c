"""Power allocation for fast Rayleigh fading: the multi-user constant-power
threshold optimization.

Every user transmits at power p/P(gain >= th) whenever its own gain clears
the threshold `th` and stays silent otherwise, so the long-run average
power is exactly p.  Raising the threshold thins out interference from
badly faded users; the capacity lower bound below, in closed form and in
float arithmetic, is maximized over `th` by one Brent search, started at
the interference-blind threshold, to pick the operating point, and
`mc_capacity` checks it by simulation.
A sweep or c7 searches each scenario once, in the calling process; then
`evaluate_thresholds` fans the searches' `mc_capacity` calls out, one call
per task of `simulate._fan_out`.  Nothing here integrates
numerically: `cwf.quadrature` (QUADPACK, checked by adaptive Simpson) is
the bound's oracle in `cwf validate` (criterion 8).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .channel import check_positive, is_int
from .simulate import BLOCK, Estimate, TrialPlan, _fan_out, estimate, point_seed, streams


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


def single_user_threshold(sc: FastFadingScenario) -> float:
    """Root of th * e^th = x, x = 1/power + (s_count - 1): the Lambert W(x).

    The interference-blind constant-power cutoff: other users are frozen at
    unit gain, so the link sees fixed noise 1/power + S - 1.  W(x) lies in
    [x/(1+x), ln(1+x)] for every x > 0 (Hoorfar & Hassani, JIPAM 2008), so
    plain bisection of that one bracket converges, and keeps its digits
    however small or large x is.  It stops when the midpoint rounds onto an
    end of the bracket, which then cannot shrink any more.
    """
    target = 1.0 / sc.power + (sc.s_count - 1)
    lo, hi = target / (1.0 + target), math.log1p(target)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if mid * math.exp(mid) < target:
            lo = mid
        else:
            hi = mid


def lower_bound_terms(gamma_th: float, sc: FastFadingScenario):
    """Yield the non-zero terms of `capacity_lower_bound`, one (weight, denom)
    pair of floats per interferer count t.

    weight is the binomial weight C(S-1,t) (1-q)^(S-1-t) q^t and denom the
    noise-plus-mean-interference level q/p + t*(1+gamma_th); the term is
    weight * int_gamma_th^inf ln(1 + g/denom) e^-g dg.  A term whose weight
    is 0 is skipped.
    """
    s, p = sc.s_count, sc.power
    # numpy's exp and power: math.exp and ** may differ in the last bit
    pon = float(np.exp(-gamma_th))
    comb = 1  # C(s-1, t), exact in integers
    for t in range(s):
        weight = float(comb * np.power(1.0 - pon, s - 1 - t) * np.power(pon, t))
        if weight != 0.0:
            yield weight, pon / p + t * (1.0 + gamma_th)
        comb = comb * (s - 1 - t) // (t + 1)


#: 1/(k k!) for k = 18..1, then 0: E1(x) = -euler_gamma - ln x - polyval(_E1_SERIES, -x)
#: below 1, where the first term left out is below 1e-17
_E1_SERIES = [1.0 / (k * math.factorial(k)) for k in range(18, 0, -1)] + [0.0]


def _scaled_exp1_series(x: float) -> float:
    """e^x E1(x) for 0 < x < 1: Horner on `_E1_SERIES` in `np.polyval`'s order."""
    neg, poly = -x, 0.0
    for coef in _E1_SERIES:
        poly = poly * neg + coef
    return float(np.exp(x) * (-np.euler_gamma - np.log(x) - poly))


def _fraction_levels(x: float) -> int:
    """Levels of the continued fraction at x >= 1: 8 + 100/x, which
    truncates it below 3e-17 relative."""
    return 8 + int(100.0 / x)


#: (2k - 1, k^2) of level k = 1, 2, ... of the continued fraction, as (exact)
#: floats, so a level costs no int-to-float conversion
_FRACTION_TERMS = [(2.0 * k - 1.0, float(k * k)) for k in range(1, _fraction_levels(1.0) + 1)]


def _scaled_exp1_fraction(x: float, levels: int) -> float:
    """e^x E1(x) for x >= 1: the continued fraction
    1/(x+1 - 1/(x+3 - 4/(x+5 - 9/(x+7 - ...)))) evaluated backward from
    `levels` levels."""
    t = x + (2 * levels + 1)
    for odd, square in reversed(_FRACTION_TERMS[:levels]):
        t = x + odd - square / t
    return 1.0 / t


def capacity_lower_bound(gamma_th: float, sc: FastFadingScenario) -> float:
    """One-dimensional capacity lower bound of one user at threshold gamma_th.

    Conditions on the number t of active interferers (binomial over S-1
    peers) and replaces their interference by its conditional mean, which
    lower-bounds the true capacity by convexity of log(1 + c/x):

        sum_t  C(S-1,t) (1-q)^(S-1-t) q^t *
               int_gamma_th^inf ln(1 + g/d) e^-g dg,   d = q/p + t*(1+gamma_th)

    with q = exp(-gamma_th).  Integration by parts gives each integral in
    closed form, q * [ln(1 + gamma_th/d) + e^x E1(x)] with x = d + gamma_th.
    e^x E1(x) is the power series of E1 below 1 and the continued fraction
    from 1, at the depth of the term's own x; both agree with mpmath to
    5e-16 relative on [1e-300, 1e300].  One loop over `lower_bound_terms`
    adds the terms in order of t, in float arithmetic with numpy's exp,
    log and log1p.  gamma_th is one real number, finite and non-negative;
    an array raises TypeError.
    """
    if not isinstance(gamma_th, numbers.Real):
        raise TypeError(f"gamma_th must be a real number, got {type(gamma_th).__name__}")
    gamma_th = float(gamma_th)
    if not (math.isfinite(gamma_th) and gamma_th >= 0.0):
        raise ValueError(f"gamma_th must be finite and non-negative, got {gamma_th}")
    pon = float(np.exp(-gamma_th))
    total = 0.0
    for weight, d in lower_bound_terms(gamma_th, sc):
        # past about 3000 dB, gamma_th / (q/p) overflows at t = 0 (q/p may even
        # underflow to 0, where Python's division raises); there
        # ln(1 + gamma_th p/q) = ln gamma_th + gamma_th + ln p
        log_ratio = float(np.log1p(gamma_th / d)) if d > 0.0 else math.inf
        if math.isinf(log_ratio):
            log_ratio = float(np.log(gamma_th)) + gamma_th + math.log(sc.power)
        x = d + gamma_th
        scaled = _scaled_exp1_series(x) if x < 1.0 else _scaled_exp1_fraction(x, _fraction_levels(x))
        total += weight * (pon * (log_ratio + scaled))
    return total


def _brent_max(f, lo: float, hi: float, x: float, fx: float,
               tol: float) -> tuple[float, float]:
    """Brent's maximizer of f on [lo, hi], started at x inside with fx = f(x);
    returns the best point it evaluated and its value.

    Each step moves to the vertex of the parabola through the three best
    points, or takes a golden-section step into the larger side of the
    bracket when that vertex falls outside it or the steps stop halving
    (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 5).
    A step is at least tol/4 * min(1, x), and at least one ulp of x, so it
    moves among subnormals too.  The bracket [a, b] shrinks until
    b - a <= tol * min(1, x): a width of tol from x = 1 up, and tol relative
    to x below, so a maximizer near 0 keeps its digits.  The search also
    ends when rounding stops the bracket from shrinking, a few subnormal
    steps above 0.  x moves only to a point that scores at least f(x) (a
    tie moves it), so the value returned is never below fx.
    """
    cgold = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    w = v = x  # the second and third best points
    fv = fw = fx
    step = last = 0.0  # the latest step and the one before it
    while b - a > tol * min(1.0, x):
        bracket = (a, b)
        mid = 0.5 * (a + b)
        least = max(0.25 * tol * min(1.0, x), math.ulp(x))
        golden = True
        if abs(last) > least:
            # the parabola's vertex is x + p/q, q >= 0
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p = -p if q > 0.0 else p
            q = abs(q)
            before, last = last, step
            if abs(p) < abs(0.5 * q * before) and q * (a - x) < p < q * (b - x):
                golden = False
                step = p / q
                if min(x + step - a, b - x - step) < 2.0 * least:  # keep off the ends
                    step = least if x < mid else -least
        if golden:
            last = (a if x >= mid else b) - x
            step = cgold * last
        u = x + (step if abs(step) >= least else math.copysign(least, step))
        fu = f(u)
        if fu >= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v in (x, w):
                v, fv = u, fu
        if (a, b) == bracket:  # rounding put u on an end: no point lies between
            break
    return x, fx


#: the bracket-width tolerance of the threshold search (see `_brent_max`)
REFINE_TOL = 1e-6
#: the top of the searched thresholds: q = e^-th stays a normal float a step past it
THRESHOLD_MAX = float(math.floor(-math.log(sys.float_info.min)))


def optimize_threshold(sc: FastFadingScenario) -> ThresholdSearchResult:
    """Maximize the capacity lower bound over the on-off threshold.

    One Brent search over [0, 708] (`THRESHOLD_MAX`), started at the
    interference-blind threshold, to a bracket width of `REFINE_TOL` from 1
    up and `REFINE_TOL` relative below 1: about 16 bound evaluations on the
    benchmark's grid, the start's included.  It assumes the bound is
    unimodal in the threshold, which a dense reference grid checks in the
    tests from -3000 to 3080 dB.  The best point the search evaluated is
    reported with its bound, which is never below the blind threshold's
    (also the search's first value, cl_at_single).  The bound adds its
    terms one at a time, so a search's memory does not grow with S.
    """
    objective = lambda g: capacity_lower_bound(g, sc)
    gamma_single = single_user_threshold(sc)
    cl_at_single = objective(gamma_single)
    gamma_multi, cl_at_multi = _brent_max(objective, 0.0, THRESHOLD_MAX, gamma_single,
                                          cl_at_single, REFINE_TOL)
    return ThresholdSearchResult(gamma_single, gamma_multi, cl_at_single, cl_at_multi)


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
    grow with S.  Only a slice's on-rows, whose own gain clears the
    threshold, are gathered and given a rate; an off-row adds exactly 0 and
    its interference is never formed.  Each on-row's sum, division and
    logarithms are those of the whole slice, bit for bit.
    """
    if not (math.isfinite(gamma_th) and gamma_th >= 0.0):
        raise ValueError(f"gamma_th must be finite and non-negative, got {gamma_th}")
    pon = math.exp(-gamma_th)
    inv_p = 1.0 / sc.power
    rows = max(1, BLOCK // sc.s_count)

    def capacities(rng, n):
        out = np.zeros(n)
        for start in range(0, n, rows):
            gains = rng.standard_exponential((min(rows, n - start), sc.s_count))
            on = np.flatnonzero(gains[:, 0] > gamma_th)
            own = gains[on, 0]
            others = gains[on, 1:]
            # past a threshold of about 745 q underflows to 0 and g/q is inf
            with np.errstate(divide="ignore", over="ignore"):
                noise = inv_p + np.where(others > gamma_th, others / pon, 0.0).sum(axis=1)
                values = np.log1p((own / pon) / noise)
            far = np.isinf(values)
            values[far] = np.log(own[far]) + gamma_th - np.log(noise[far])
            out[start + on] = values
        return out

    return estimate(capacities(rng, n) for rng, n in streams(plan, BLOCK))


def evaluate_thresholds(scenarios, searches, trials: int,
                        seeds) -> list[tuple[Estimate, Estimate]]:
    """Monte Carlo capacity estimates at both thresholds of searches already
    made: scenario j, seeded seeds[j], on `point_seed(seeds[j], 0)` at
    searches[j].gamma_single and `point_seed(seeds[j], 1)` at
    searches[j].gamma_multi, returned as one (single, multi) pair per
    scenario.

    The 2n `mc_capacity` calls fan out as the indexed tasks of one
    `simulate._fan_out`, one (mean, se) row per call, so the estimates do
    not depend on the worker count.
    """
    calls = [(gamma, sc, TrialPlan(trials, point_seed(seed, i)))
             for sc, seed, res in zip(scenarios, seeds, searches, strict=True)
             for i, gamma in enumerate((res.gamma_single, res.gamma_multi))]

    def task(i):
        est = mc_capacity(*calls[i])
        return est.mean, est.se

    estimates = [Estimate(mean, se, trials) for mean, se in _fan_out(len(calls), task)]
    return list(zip(estimates[0::2], estimates[1::2]))
