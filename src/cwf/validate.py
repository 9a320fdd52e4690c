"""End-to-end validation: every analytic result is checked against its
independent oracle at desk scale.  Each check fixes its own trial budget
and tolerance; neither is a parameter of the run.

`run_validate` executes the checks twice under the same seed and verifies
the two serialized reports match byte for byte (the determinism check),
then writes the report CSV.  Each check prints one summary line; the CSV
holds name, expected, observed, tolerance and verdict per criterion.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import exp1

from . import __version__
from .channel import LN2, capacity, sinr_awgn
from .config import DEFAULT_VALIDATE_SEED, point_seed
from .lengths import (
    AwgnScenario,
    QueueScenario,
    awgn_vlsf_lengths,
    fading_vlsf_coeffs,
    message_threshold,
    queue_vlsf_lengths,
    rayleigh_order_means,
)
from .quadrature import AGREE_TOL, QuadratureError, exp_tail_routes
from .simulate import (
    TrialPlan,
    simulate_awgn_multiuser,
    simulate_block_fading,
    simulate_error_probability,
    simulate_queue,
    sorted_exponential_means,
)
from .waterfill import (
    FastFadingScenario,
    capacity_lower_bound,
    log_integrand,
    lower_bound_terms,
    mc_capacity,
    optimize_threshold,
    single_user_threshold,
)

#: trial budgets are part of the acceptance contract, not tunable knobs
TRIALS_AWGN = 10_000
TRIALS_QUEUE = 10_000
TRIALS_FADING = 10_000
TRIALS_ERROR = 100_000
TRIALS_MC_CAPACITY = 1_000_000
TRIALS_ORDER_STATS = 1_000_000

QUEUE_GRID = (1400.0, 1700.0, 2000.0, 2300.0)
THRESHOLD_POWERS = (0.5, 1.0, 10.0)
THRESHOLD_USERS = (1, 2, 4)

RUNTIME_CAP_AWGN = 60.0
RUNTIME_CAP_THRESHOLD = 120.0


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    expected: str
    observed: str
    tolerance: str
    passed: bool

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _c1_awgn_vs_simulation(seed: int) -> CriterionResult:
    start = time.perf_counter()
    sc = AwgnScenario((300.0, 1000.0), 1.0, 0.0)
    expected = awgn_vlsf_lengths(sc)
    outcome = simulate_awgn_multiuser(sc, TrialPlan(TRIALS_AWGN, seed))
    rel = np.abs(outcome.mean - expected) / expected
    elapsed = time.perf_counter() - start
    ok = (bool((rel <= 0.05).all()) and not outcome.cap_flagged
          and elapsed < RUNTIME_CAP_AWGN)
    return CriterionResult(
        1, "awgn_lengths_vs_simulation",
        expected="; ".join(_fmt(v) for v in expected),
        observed="; ".join(_fmt(v) for v in outcome.mean),
        tolerance=f"rel<={_fmt(0.05)}",
        passed=ok,
    )


def _c2_single_user_identity(seed: int) -> CriterionResult:
    sc = AwgnScenario((1000.0,), 1.0, 1e-3)
    ell = awgn_vlsf_lengths(sc)[0]
    direct = (1.0 - sc.epsilon) * message_threshold(1000.0) / capacity(sinr_awgn(1.0, 1))
    rel = abs(ell - direct) / direct
    return CriterionResult(
        2, "single_user_reduction",
        expected=_fmt(direct), observed=_fmt(ell),
        tolerance=f"rel<={_fmt(1e-12)}",
        passed=rel <= 1e-12,
    )


def _c3_cancellation_gain(seed: int) -> CriterionResult:
    sc = AwgnScenario((300.0, 1000.0), 1.0, 0.0)
    ell2 = awgn_vlsf_lengths(sc)[-1]
    baseline = message_threshold(1000.0) / capacity(sinr_awgn(1.0, 2))
    ratio = ell2 / baseline
    return CriterionResult(
        3, "interference_cancellation_gain",
        expected=f"len2/baseline<=0.9 (baseline {_fmt(baseline)})",
        observed=_fmt(ratio),
        tolerance=f"ratio<={_fmt(0.9)}",
        passed=ratio <= 0.9,
    )


def _c4_queue_consistency(seed: int) -> CriterionResult:
    sc = AwgnScenario((300.0, 1000.0), 1.0, 1e-3)
    plain = awgn_vlsf_lengths(sc)
    raw_last = float(awgn_vlsf_lengths(AwgnScenario(sc.payload_bits, sc.power, 0.0))[-1])
    eq_rel = 0.0
    for t_sub in (raw_last, 1.3 * raw_last):
        br = queue_vlsf_lengths(QueueScenario(sc, t_sub))
        eq_rel = max(eq_rel, float(np.max(np.abs(br.lengths - plain) / plain)))

    sim_margin = -math.inf  # worst sim/bound ratio over the congested grid
    sc0 = AwgnScenario(sc.payload_bits, sc.power, 0.0)
    for i, t_sub in enumerate(QUEUE_GRID):
        qs = QueueScenario(sc0, t_sub)
        bound = queue_vlsf_lengths(qs).lengths
        outcome = simulate_queue(qs, TrialPlan(TRIALS_QUEUE, point_seed(seed, i)))
        sim_margin = max(sim_margin, float(np.max(outcome.mean / bound)))
    return CriterionResult(
        4, "queue_bound_consistency",
        expected="uncongested==plain; sim<=bound*1.05",
        observed=f"eq_rel={_fmt(eq_rel)}; sim/bound_max={_fmt(sim_margin)}",
        tolerance=f"eq<={_fmt(1e-12)}; ratio<={_fmt(1.05)}",
        passed=eq_rel <= 1e-12 and sim_margin <= 1.05,
    )


def _c5_fading_vs_simulation(seed: int) -> CriterionResult:
    gains = rayleigh_order_means(2)  # (1.5, 0.5)
    power, payload = 1.0, 1000.0
    expected = fading_vlsf_coeffs(gains, power) * message_threshold(payload)
    outcome = simulate_block_fading(gains, payload, power, TrialPlan(TRIALS_FADING, seed))
    rel = np.abs(outcome.mean - expected) / expected
    return CriterionResult(
        5, "fading_lengths_vs_simulation",
        expected="; ".join(_fmt(v) for v in expected),
        observed="; ".join(_fmt(v) for v in outcome.mean),
        tolerance=f"rel<={_fmt(0.05)}",
        passed=bool((rel <= 0.05).all()) and not outcome.cap_flagged,
    )


def _c6_error_bound(seed: int) -> CriterionResult:
    payload = 8.0
    kappa = payload * LN2
    bound = 1.0 / kappa  # equals 2^K * exp(-threshold) for this threshold
    est = simulate_error_probability(payload, 1.0, TrialPlan(TRIALS_ERROR, seed))
    return CriterionResult(
        6, "union_bound_error_rate",
        expected=f"upper95<={_fmt(bound)}",
        observed=f"rate={_fmt(est.rate)}; upper95={_fmt(est.upper95)}",
        tolerance="95% confidence",
        passed=est.upper95 <= bound,
    )


def _threshold_searches() -> dict:
    """`optimize_threshold` at every (power, S) point of the threshold grid,
    keyed by scenario; a search that fails maps to its QuadratureError."""
    searches = {}
    for power in THRESHOLD_POWERS:
        for s in THRESHOLD_USERS:
            sc = FastFadingScenario(s, power)
            try:
                searches[sc] = optimize_threshold(sc)
            except QuadratureError as exc:
                searches[sc] = exc
    return searches


def _c7_threshold_grid(seed: int) -> CriterionResult:
    start = time.perf_counter()
    searches = _threshold_searches()
    max_residual = 0.0
    for sc in searches:
        gamma_single = single_user_threshold(sc.power, sc.s_count)
        residual = abs(gamma_single * math.exp(gamma_single) - (1.0 / sc.power + sc.s_count - 1.0))
        max_residual = max(max_residual, residual)
    failures = [str(r) for r in searches.values() if isinstance(r, QuadratureError)]
    min_gap = min((r.cl_at_multi - r.cl_at_single for r in searches.values()
                   if not isinstance(r, QuadratureError)), default=math.inf)

    sep_sc = FastFadingScenario(4, 10.0)
    sep = searches[sep_sc]
    if isinstance(sep, QuadratureError):
        raise sep
    mc_single = mc_capacity(sep.gamma_single, sep_sc,
                            TrialPlan(TRIALS_MC_CAPACITY, point_seed(seed, 0)))
    mc_multi = mc_capacity(sep.gamma_multi, sep_sc,
                           TrialPlan(TRIALS_MC_CAPACITY, point_seed(seed, 1)))
    separated = mc_multi.low > mc_single.high
    elapsed = time.perf_counter() - start
    ok = (not failures and max_residual < 1e-10 and min_gap >= 0.0
          and separated and elapsed < RUNTIME_CAP_THRESHOLD)
    observed = (f"residual_max={_fmt(max_residual)}; cl_gap_min={_fmt(min_gap)}; "
                f"mc_multi={_fmt(mc_multi.mean)}+-{_fmt(mc_multi.ci95)}; "
                f"mc_single={_fmt(mc_single.mean)}+-{_fmt(mc_single.ci95)}")
    if failures:
        observed += f"; quadrature_failure={failures[-1].split(':')[0]}"
    return CriterionResult(
        7, "waterfill_threshold_grid",
        expected="residual<1e-10; cl(multi)>=cl(single); mc CIs separated",
        observed=observed,
        tolerance=f"residual<{_fmt(1e-10)}",
        passed=ok,
    )


def _c8_quadrature_oracle(seed: int) -> CriterionResult:
    closed_err = 0.0
    for power in THRESHOLD_POWERS:
        sc = FastFadingScenario(1, power)
        cl = capacity_lower_bound(0.0, sc)
        exact = math.exp(1.0 / power) * float(exp1(1.0 / power))
        closed_err = max(closed_err, abs(cl - exact))

    # primary-vs-Simpson agreement at both thresholds of every grid search
    disagreement = 0.0
    for sc, res in _threshold_searches().items():
        if isinstance(res, QuadratureError):
            continue
        for gamma_th in (res.gamma_single, res.gamma_multi):
            _, denoms = lower_bound_terms(gamma_th, sc)
            primary, check = exp_tail_routes(log_integrand(denoms), gamma_th,
                                             scale=denoms + gamma_th)
            disagreement = max(disagreement, float(np.max(np.abs(primary - check))))
    return CriterionResult(
        8, "quadrature_oracle",
        expected="closed-form and Simpson agreement",
        observed=f"closed_err={_fmt(closed_err)}; route_diff={_fmt(disagreement)}",
        tolerance=f"<={_fmt(AGREE_TOL)}",
        passed=closed_err <= AGREE_TOL and disagreement <= AGREE_TOL,
    )


def _c9_order_statistics(seed: int) -> CriterionResult:
    exact = rayleigh_order_means(3)
    est = sorted_exponential_means(3, TrialPlan(TRIALS_ORDER_STATS, seed))
    dev = np.abs(est.mean - exact) / est.se
    return CriterionResult(
        9, "exponential_order_statistics",
        expected="; ".join(_fmt(v) for v in exact),
        observed="; ".join(_fmt(v) for v in est.mean),
        tolerance=f"<={_fmt(4.0)} standard errors",
        passed=bool((dev <= 4.0).all()),
    )


_CRITERIA = {
    1: _c1_awgn_vs_simulation,
    2: _c2_single_user_identity,
    3: _c3_cancellation_gain,
    4: _c4_queue_consistency,
    5: _c5_fading_vs_simulation,
    6: _c6_error_bound,
    7: _c7_threshold_grid,
    8: _c8_quadrature_oracle,
    9: _c9_order_statistics,
}


def _run_once(seed: int, selection) -> list[CriterionResult]:
    return [_CRITERIA[index](point_seed(seed, 100 + index))
            for index in sorted(_CRITERIA) if index in selection]


def serialize_report(results: list[CriterionResult], seed: int) -> str:
    lines = [f"# cwf_version={__version__}", f"# kind=validate", f"# seed={seed}",
             "criterion,name,expected,observed,tolerance,verdict"]
    for r in results:
        lines.append(f"{r.index},{r.name},{r.expected},{r.observed},{r.tolerance},{r.verdict}")
    return "\n".join(lines) + "\n"


def run_validate(seed: int = DEFAULT_VALIDATE_SEED, out_path=None, *,
                 criteria=None, echo=print):
    """Run the acceptance checks; returns (results, all_passed, report_text).

    Criteria 1-9 run twice under the same seed; the determinism criterion
    (10) passes when both serialized reports agree byte for byte.  `criteria`
    restricts the run to a subset of indices (determinism always included
    when unrestricted).
    """
    selection = set(criteria) if criteria is not None else set(range(1, 11))
    wanted = sorted(selection - {10})

    start = time.perf_counter()
    first = _run_once(seed, wanted)
    for r in first:
        echo(f"criterion {r.index:2d} [{r.verdict}] {r.name}: observed {r.observed} "
             f"(tolerance {r.tolerance})")
    results = list(first)

    if 10 in selection:
        text_a = serialize_report(first, seed)
        second = _run_once(seed, wanted)
        text_b = serialize_report(second, seed)
        identical = text_a.encode() == text_b.encode()
        digest_a = hashlib.sha256(text_a.encode()).hexdigest()[:12]
        digest_b = hashlib.sha256(text_b.encode()).hexdigest()[:12]
        c10 = CriterionResult(
            10, "byte_identical_reruns",
            expected="identical report bytes across two same-seed runs",
            observed=f"sha256 {digest_a} vs {digest_b}",
            tolerance="exact",
            passed=identical,
        )
        echo(f"criterion 10 [{c10.verdict}] {c10.name}: observed {c10.observed}")
        results.append(c10)

    all_passed = all(r.passed for r in results)
    text = serialize_report(results, seed)
    if out_path is not None:
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode())
    echo(f"validate: {sum(r.passed for r in results)}/{len(results)} criteria passed "
         f"in {time.perf_counter() - start:.1f}s")
    return results, all_passed, text
