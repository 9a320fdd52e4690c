"""End-to-end validation: every analytic result is checked against its
independent oracle at desk scale.  Each check fixes its own trial budget
and tolerance; neither is a parameter of the run.

`run_validate` executes the checks twice under the same seed and verifies
the two serialized reports match byte for byte (the determinism check),
then writes the report CSV.  Each check prints one summary line; the CSV
holds name, expected, observed, tolerance and verdict per criterion.
A criterion over its runtime cap fails the run but leaves the report alone.
The report goes through the sweeps' CSV writer, `sweeps.write_csv`, and its
numbers through `sweeps.format_value`, so it shares their format.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy  # scipy.special loads on first attribute access, not at import

from . import __version__
from .channel import LN2, capacity, sinr_awgn
from .config import DEFAULT_VALIDATE_SEED, ConfigError, point_seed
from .lengths import (
    AwgnScenario,
    QueueScenario,
    awgn_vlsf_lengths,
    fading_vlsf_coeffs,
    message_threshold,
    queue_vlsf_lengths,
    rayleigh_order_means,
)
from .quadrature import AGREE_TOL, QuadratureError, checked_exp_integral
from .simulate import (
    TrialPlan,
    simulate_awgn_multiuser,
    simulate_block_fading,
    simulate_error_probability,
    simulate_queue,
    sorted_exponential_means,
)
from .sweeps import format_value, write_csv
from .waterfill import (
    FastFadingScenario,
    capacity_lower_bound,
    evaluate_thresholds,
    lower_bound_terms,
    optimize_threshold,
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

#: seconds one run of a criterion may take, in each pass; fails the run, not the row
RUNTIME_CAPS = {1: 60.0, 7: 120.0}


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


def _lengths_vs_simulation(index: int, name: str, expected, outcome) -> CriterionResult:
    """Closed-form lengths against a walk's means: within 5%, and not capped."""
    rel = np.abs(outcome.mean - expected) / expected
    return CriterionResult(
        index, name,
        expected="; ".join(format_value(v) for v in expected),
        observed="; ".join(format_value(v) for v in outcome.mean),
        tolerance=f"rel<={format_value(0.05)}",
        passed=bool((rel <= 0.05).all()) and not outcome.cap_flagged,
    )


def _c1_awgn_vs_simulation(seed: int) -> CriterionResult:
    sc = AwgnScenario((300.0, 1000.0), 1.0)
    return _lengths_vs_simulation(1, "awgn_lengths_vs_simulation", awgn_vlsf_lengths(sc),
                                  simulate_awgn_multiuser(sc, TrialPlan(TRIALS_AWGN, seed)))


def _c2_single_user_identity(seed: int) -> CriterionResult:
    epsilon = 1e-3
    ell = (1.0 - epsilon) * awgn_vlsf_lengths(AwgnScenario((1000.0,), 1.0))[0]
    direct = (1.0 - epsilon) * message_threshold(1000.0) / capacity(sinr_awgn(1.0, 1))
    rel = abs(ell - direct) / direct
    return CriterionResult(
        2, "single_user_reduction",
        expected=format_value(direct), observed=format_value(ell),
        tolerance=f"rel<={format_value(1e-12)}",
        passed=rel <= 1e-12,
    )


def _c3_cancellation_gain(seed: int) -> CriterionResult:
    ell2 = awgn_vlsf_lengths(AwgnScenario((300.0, 1000.0), 1.0))[-1]
    baseline = message_threshold(1000.0) / capacity(sinr_awgn(1.0, 2))
    ratio = ell2 / baseline
    return CriterionResult(
        3, "interference_cancellation_gain",
        expected=f"len2/baseline<=0.9 (baseline {format_value(baseline)})",
        observed=format_value(ratio),
        tolerance=f"ratio<={format_value(0.9)}",
        passed=ratio <= 0.9,
    )


def _c4_queue_consistency(seed: int) -> CriterionResult:
    sc = AwgnScenario((300.0, 1000.0), 1.0)
    plain = awgn_vlsf_lengths(sc)
    eq_rel = 0.0
    for t_sub in (plain[-1], 1.3 * plain[-1]):
        br = queue_vlsf_lengths(QueueScenario(sc, t_sub))
        eq_rel = max(eq_rel, float(np.max(np.abs(br.lengths - plain) / plain)))

    sim_margin = -math.inf  # worst sim/bound ratio over the congested grid
    for i, t_sub in enumerate(QUEUE_GRID):
        qs = QueueScenario(sc, t_sub)
        bound = queue_vlsf_lengths(qs).lengths
        outcome = simulate_queue(qs, TrialPlan(TRIALS_QUEUE, point_seed(seed, i)))
        sim_margin = max(sim_margin, float(np.max(outcome.mean / bound)))
    return CriterionResult(
        4, "queue_bound_consistency",
        expected="uncongested==plain; sim<=bound*1.05",
        observed=f"eq_rel={format_value(eq_rel)}; sim/bound_max={format_value(sim_margin)}",
        tolerance=f"eq<={format_value(1e-12)}; ratio<={format_value(1.05)}",
        passed=eq_rel <= 1e-12 and sim_margin <= 1.05,
    )


def _c5_fading_vs_simulation(seed: int) -> CriterionResult:
    gains = rayleigh_order_means(2)  # (1.5, 0.5)
    power, payload = 1.0, 1000.0
    return _lengths_vs_simulation(
        5, "fading_lengths_vs_simulation",
        fading_vlsf_coeffs(gains, power) * message_threshold(payload),
        simulate_block_fading(gains, payload, power, TrialPlan(TRIALS_FADING, seed)))


def _c6_error_bound(seed: int) -> CriterionResult:
    payload = 8.0
    kappa = payload * LN2
    bound = 1.0 / kappa  # equals 2^K * exp(-threshold) for this threshold
    est = simulate_error_probability(payload, 1.0, TrialPlan(TRIALS_ERROR, seed))
    return CriterionResult(
        6, "union_bound_error_rate",
        expected=f"upper95<={format_value(bound)}",
        observed=f"rate={format_value(est.rate)}; upper95={format_value(est.upper95)}",
        tolerance="95% confidence",
        passed=est.upper95 <= bound,
    )


def _threshold_searches() -> dict:
    """`optimize_threshold` at every (power, S) point of the threshold grid,
    keyed by scenario."""
    scenarios = (FastFadingScenario(s, power) for power in THRESHOLD_POWERS
                 for s in THRESHOLD_USERS)
    return {sc: optimize_threshold(sc) for sc in scenarios}


def _c7_threshold_grid(seed: int) -> CriterionResult:
    searches = _threshold_searches()
    max_residual = 0.0
    for sc, res in searches.items():
        residual = abs(res.gamma_single * math.exp(res.gamma_single)
                       - (1.0 / sc.power + (sc.s_count - 1)))
        max_residual = max(max_residual, residual)
    min_gap = min(r.cl_at_multi - r.cl_at_single for r in searches.values())

    sep = evaluate_thresholds(FastFadingScenario(4, 10.0), TRIALS_MC_CAPACITY, seed)
    mc_single, mc_multi = sep.mc_capacity_single, sep.mc_capacity_multi
    separated = mc_multi.low > mc_single.high
    observed = (f"residual_max={format_value(max_residual)}; cl_gap_min={format_value(min_gap)}; "
                f"mc_multi={format_value(mc_multi.mean)}+-{format_value(mc_multi.ci95)}; "
                f"mc_single={format_value(mc_single.mean)}+-{format_value(mc_single.ci95)}")
    return CriterionResult(
        7, "waterfill_threshold_grid",
        expected="residual<1e-10; cl(multi)>=cl(single); mc CIs separated",
        observed=observed,
        tolerance=f"residual<{format_value(1e-10)}",
        passed=max_residual < 1e-10 and min_gap >= 0.0 and separated,
    )


def _c8_quadrature_oracle(seed: int) -> CriterionResult:
    closed_err = 0.0
    for power in THRESHOLD_POWERS:
        sc = FastFadingScenario(1, power)
        cl = capacity_lower_bound(0.0, sc)
        exact = math.exp(1.0 / power) * float(scipy.special.exp1(1.0 / power))
        closed_err = max(closed_err, abs(cl - exact))

    # the closed-form bound against the checked quadrature (Gauss route and
    # Simpson), one integral per term of the bound, at both thresholds of
    # every c7 search
    quadrature_diff, failure = 0.0, ""
    for sc, res in _threshold_searches().items():
        for gamma_th in (res.gamma_single, res.gamma_multi):
            try:
                # scale: the distance from gamma_th down to the log's branch point -d
                oracle = sum(w * checked_exp_integral(lambda g, d=d: np.log1p(g / d), gamma_th,
                                                      scale=d + gamma_th)
                             for w, d in lower_bound_terms(gamma_th, sc))
            except QuadratureError as exc:
                failure = (f"; oracle_error={type(exc).__name__} at S={sc.s_count} "
                           f"p={format_value(sc.power)} th={format_value(gamma_th)}")
                continue
            quadrature_diff = max(quadrature_diff,
                                  abs(capacity_lower_bound(gamma_th, sc) - oracle))
    return CriterionResult(
        8, "quadrature_oracle",
        expected="closed form agrees with exp1 and with the checked quadrature",
        observed=(f"closed_err={format_value(closed_err)}; "
                  f"quadrature_diff={format_value(quadrature_diff)}{failure}"),
        tolerance=f"<={format_value(AGREE_TOL)}",
        passed=not failure and closed_err <= AGREE_TOL and quadrature_diff <= AGREE_TOL,
    )


def _c9_order_statistics(seed: int) -> CriterionResult:
    exact = rayleigh_order_means(3)
    est = sorted_exponential_means(3, TrialPlan(TRIALS_ORDER_STATS, seed))
    dev = np.abs(est.mean - exact) / est.se
    return CriterionResult(
        9, "exponential_order_statistics",
        expected="; ".join(format_value(v) for v in exact),
        observed="; ".join(format_value(v) for v in est.mean),
        tolerance=f"<={format_value(4.0)} standard errors",
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


def criteria_selection(criteria=None) -> set[int]:
    """The criterion indices a run covers, all by default: each in 1..10, one below 10."""
    selection = set(range(1, 11) if criteria is None else criteria)
    if not (selection <= set(range(1, 11)) and selection - {10}):  # 10 only reruns the others
        raise ConfigError(f"criteria are indices in 1..10, at least one below 10, got {criteria!r}")
    return selection


def _run_once(seed: int, selection) -> tuple[list[CriterionResult], list[str]]:
    """Results of the selected criteria, and a line for each over its cap."""
    results, overruns = [], []
    for index in (i for i in sorted(_CRITERIA) if i in selection):
        start = time.perf_counter()
        results.append(_CRITERIA[index](point_seed(seed, 100 + index)))
        elapsed = time.perf_counter() - start
        if elapsed >= RUNTIME_CAPS.get(index, math.inf):
            overruns.append(f"criterion {index:2d} over its runtime cap: {elapsed:.1f}s")
    return results, overruns


def serialize_report(results: list[CriterionResult], seed: int, out_path=None) -> str:
    """The report CSV's text, also written to `out_path` unless it is None."""
    return write_csv(out_path, {"cwf_version": __version__, "kind": "validate", "seed": seed},
                     ["criterion", "name", "expected", "observed", "tolerance", "verdict"],
                     [[r.index, r.name, r.expected, r.observed, r.tolerance, r.verdict]
                      for r in results])


def run_validate(seed: int = DEFAULT_VALIDATE_SEED, out_path=None, *, criteria=None):
    """Run the acceptance checks; returns (results, all_passed, report_text).

    Criteria 1-9 run twice under the same seed; the determinism criterion
    (10) passes when both serialized reports agree byte for byte.  `criteria`
    restricts the run to a subset of indices (determinism always included
    when unrestricted).  `all_passed` is also False when a criterion runs
    longer than its `RUNTIME_CAPS` bound in either pass; its row keeps the
    check's verdict.
    """
    selection = criteria_selection(criteria)
    wanted = sorted(selection - {10})

    start = time.perf_counter()
    first, overruns = _run_once(seed, wanted)
    for r in first:
        print(f"criterion {r.index:2d} [{r.verdict}] {r.name}: observed {r.observed} "
              f"(tolerance {r.tolerance})")
    results = list(first)

    if 10 in selection:
        text_a = serialize_report(first, seed)
        second, late = _run_once(seed, wanted)
        overruns += late
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
        print(f"criterion 10 [{c10.verdict}] {c10.name}: observed {c10.observed}")
        results.append(c10)

    for line in overruns:
        print(line)  # the verdicts stay in the report; the run fails
    all_passed = all(r.passed for r in results) and not overruns
    text = serialize_report(results, seed, out_path)
    print(f"validate: {sum(r.passed for r in results)}/{len(results)} criteria passed "
          f"in {time.perf_counter() - start:.1f}s")
    return results, all_passed, text
