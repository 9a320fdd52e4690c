"""Power allocation for fast Rayleigh fading: the multi-user constant-power
threshold optimization.

Every user transmits at power p/P(gain >= th) whenever its own gain clears
the threshold `th` and stays silent otherwise, so the long-run average
power is exactly p.  Raising the threshold thins out interference from
badly faded users; the capacity lower bound below is maximized over `th`
to pick the operating point, and `mc_capacity` checks it by simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .quadrature import QuadratureError, checked_exp_integral, exp_tail_quadrature
from .simulate import BLOCK, Estimate, TrialPlan, estimate, streams

__all__ = [
    "FastFadingScenario",
    "ThresholdSearchResult",
    "single_user_threshold",
    "lower_bound_terms",
    "log_integrand",
    "capacity_lower_bound",
    "optimize_threshold",
    "mc_capacity",
    "evaluate_thresholds",
]


@dataclass(frozen=True)
class FastFadingScenario:
    """S symmetric users, unit-mean exponential gains, average power p each."""

    s_count: int
    power: float

    def __post_init__(self):
        if self.s_count < 1:
            raise ValueError(f"s_count must be >= 1, got {self.s_count}")
        if not self.power > 0.0:
            raise ValueError(f"power must be positive, got {self.power}")


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
    """Root of th * e^th = 1/power + s_count - 1.

    The interference-blind constant-power cutoff: other users are frozen at
    unit gain, so the link sees fixed noise 1/power + S - 1.  The left side
    is monotone, so plain bisection converges; residual kept below 1e-10.
    """
    if not power > 0.0:
        raise ValueError(f"power must be positive, got {power}")
    if s_count < 1:
        raise ValueError(f"s_count must be >= 1, got {s_count}")
    target = 1.0 / power + s_count - 1.0
    lo, hi = 0.0, 1.0
    while hi * math.exp(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


def lower_bound_terms(gamma_th: float | np.ndarray, sc: FastFadingScenario):
    """Non-zero terms of `capacity_lower_bound`, one per interferer count t.

    Returns (weights, denoms): the binomial weights
    C(S-1,t) (1-q)^(S-1-t) q^t and, stacked along a first axis, the
    noise-plus-mean-interference levels denom = q/p + t*(1+gamma_th).  Each
    term integrates `log_integrand(denom)` against e^-g over
    [gamma_th, inf).  An array gamma_th gives arrays of weights and one row
    of levels per term; a term is skipped only when every weight is 0.
    """
    s, p = sc.s_count, sc.power
    # math.exp for scalars: np.exp may differ in the last bit
    pon = np.exp(-gamma_th) if np.ndim(gamma_th) > 0 else math.exp(-gamma_th)
    weights, denoms = [], []
    for t in range(s):
        weight = math.comb(s - 1, t) * (1.0 - pon) ** (s - 1 - t) * pon**t
        if np.any(weight):
            weights.append(weight)
            denoms.append(pon / p + t * (1.0 + gamma_th))
    return weights, np.array(denoms)


def log_integrand(denom: np.ndarray):
    """g -> ln(1 + g/denom) in the quadrature integrand contract: the rows of
    g for elements k run against denom[k]."""
    return lambda g, k: np.log1p(g / denom[k][..., None])


def capacity_lower_bound(gamma_th: float | np.ndarray, sc: FastFadingScenario, *,
                         cross_check: bool = True) -> float | np.ndarray:
    """One-dimensional capacity lower bound of one user at threshold gamma_th.

    Conditions on the number t of active interferers (binomial over S-1
    peers) and replaces their interference by its conditional mean, which
    lower-bounds the true capacity by convexity of log(1 + c/x):

        sum_t  C(S-1,t) (1-q)^(S-1-t) q^t *
               int_gamma_th^inf ln(1 + g / (q/p + t*(1+gamma_th))) e^-g dg

    with q = exp(-gamma_th).  Each integral runs through the primary
    exp-tail quadrature; with cross_check=True one adaptive Simpson pass
    over all terms must agree to `quadrature.AGREE_TOL` or QuadratureError
    is raised.  Without the cross-check gamma_th may be an array, giving one
    bound per element.
    """
    if np.any(np.less(gamma_th, 0.0)):
        raise ValueError(f"gamma_th must be non-negative, got {np.min(gamma_th)}")
    if cross_check and np.ndim(gamma_th) > 0:
        raise ValueError("the Simpson cross-check takes a scalar threshold; "
                         "pass cross_check=False for an array")
    weights, denoms = lower_bound_terms(gamma_th, sc)
    scales = denoms + gamma_th  # distance from gamma_th to the log branch point
    if cross_check:
        integrals = checked_exp_integral(log_integrand(denoms), gamma_th, scale=scales)
    else:
        integrals = [exp_tail_quadrature(log_integrand(d), gamma_th, scale=s)
                     for d, s in zip(denoms, scales)]
    total = 0.0
    for weight, integral in zip(weights, integrals):
        total += weight * integral
    return float(total) if np.ndim(total) == 0 else total


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


#: search cap: on-probability below 1e-3/S contributes nothing at desk scale
def _threshold_cap(s_count: int) -> float:
    return math.log(1000.0 * s_count)


#: coarse grid step of the threshold search and the golden-section tolerance
GRID_STEP = 0.01
REFINE_TOL = 1e-6


def optimize_threshold(sc: FastFadingScenario) -> ThresholdSearchResult:
    """Maximize the capacity lower bound over the on-off threshold.

    Coarse grid (step 0.01, evaluated in one array call) over
    [0, ln(1000*S)] followed by golden-section refinement; the
    interference-blind threshold is also evaluated so the reported
    objective pair always satisfies cl_at_multi >= cl_at_single.
    """
    cap = _threshold_cap(sc.s_count)
    grid = np.arange(0.0, cap + GRID_STEP, GRID_STEP)
    objective = lambda g: capacity_lower_bound(float(g), sc, cross_check=False)
    values = capacity_lower_bound(grid, sc, cross_check=False)
    if not np.isfinite(values).all():
        raise QuadratureError("non-finite objective on the threshold grid")
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    gamma_multi = _golden_max(objective, float(lo), float(hi), REFINE_TOL)

    gamma_single = single_user_threshold(sc.power, sc.s_count)
    cl_multi = capacity_lower_bound(gamma_multi, sc)
    cl_single = capacity_lower_bound(gamma_single, sc)
    # the blind threshold is itself a candidate; the argmax may never fall below it
    if cl_single > cl_multi:
        gamma_multi, cl_multi = gamma_single, cl_single
    return ThresholdSearchResult(
        gamma_single=gamma_single,
        gamma_multi=gamma_multi,
        cl_at_single=cl_single,
        cl_at_multi=cl_multi,
    )


def mc_capacity(gamma_th: float, sc: FastFadingScenario, plan: TrialPlan) -> Estimate:
    """Monte Carlo estimate of one user's capacity under the on-off policy.

    Samples S independent exponential gains; when the user's own gain clears
    the threshold it sees ln(1 + (g1/q) / (1/p + sum_i (gi/q)[gi > th]))
    nats, else zero.  Trials are drawn in blocks of `BLOCK`, each from its
    own counter-based stream, so the estimate does not depend on scheduling.
    """
    if not (math.isfinite(gamma_th) and gamma_th >= 0.0):
        raise ValueError(f"gamma_th must be finite and non-negative, got {gamma_th}")
    pon = math.exp(-gamma_th)
    inv_p = 1.0 / sc.power

    def capacities(rng, n):
        gains = rng.standard_exponential((n, sc.s_count))
        own = gains[:, 0]
        others = gains[:, 1:]
        interference = ((others / pon) * (others > gamma_th)).sum(axis=1)
        return np.where(own > gamma_th, np.log1p((own / pon) / (inv_p + interference)), 0.0)

    return estimate(capacities(rng, n) for rng, n in streams(plan, BLOCK))


def evaluate_thresholds(sc: FastFadingScenario, trials: int,
                        seed: int) -> ThresholdSearchResult:
    """Optimize the threshold and attach Monte Carlo capacity estimates."""
    base = optimize_threshold(sc)
    return replace(
        base,
        mc_capacity_single=mc_capacity(base.gamma_single, sc, TrialPlan(trials, seed)),
        mc_capacity_multi=mc_capacity(base.gamma_multi, sc, TrialPlan(trials, seed + 1)),
    )
