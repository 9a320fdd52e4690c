"""Figure-style parameter sweeps emitted as deterministic CSV.

Each sweep kind of `config.DEFAULTS` has a runner `run_<kind>(cfg, out)`
returning the CSV text.  It solves every grid point's closed forms in one
pass, so a point outside their domain raises `ConfigError` before anything
is simulated or written.  Every output, the validate report too,
starts with '#'-prefixed metadata (tool version, config hash, seed), then a
fixed header, then one row per grid point in grid order.  Numbers carry 9
significant digits, so re-running a config with the same seed reproduces
the file byte for byte.  The walk sweeps report lengths with the
(1-epsilon) idling applied here, to the closed forms' stopping times.
"""

from __future__ import annotations

import io
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .channel import sinr_awgn, sinr_fading
from .config import ConfigError, ExperimentConfig, db_to_linear, point_seed
from .lengths import (
    AwgnScenario,
    QueueScenario,
    awgn_vlsf_lengths,
    fading_vlsf_coeffs,
    fixed_length_blocklength,
    message_threshold,
    queue_vlsf_lengths,
    rayleigh_order_means,
)
from .simulate import (
    TrialPlan,
    run_session,
    simulate_awgn_multiuser,
    simulate_queue,
    simulate_rayleigh_block_fading,
)
from .waterfill import FastFadingScenario, evaluate_thresholds, optimize_threshold


def format_value(v) -> str:
    """CSV cell formatting: 9 significant digits, empty for missing."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.9g}"
    return str(v)


def write_csv(path, metadata: dict, header: list[str], rows: list[list]) -> str:
    """Serialize and (optionally) write one CSV; returns its text.  ConfigError if unwritable."""
    buf = io.StringIO()
    for key, value in metadata.items():
        buf.write(f"# {key}={value}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(format_value(v) for v in row) + "\n")
    text = buf.getvalue()
    if path is not None:
        path = Path(path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode("utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
    return text


def _metadata(cfg: ExperimentConfig) -> dict:
    meta = {
        "cwf_version": __version__,
        "kind": cfg.kind,
        "config_hash": cfg.config_hash(),
        "snr_unit": "dB; linear power p = 10**(dB/10)",
    }
    if cfg.trials > 0:
        meta["seed"] = cfg.resolved_seed
        meta["trials"] = cfg.trials
    return meta


def _sim_header(s: int) -> list[str]:
    """Simulation columns of the walk sweeps, per user then per point."""
    return ([f"sim_mean_{u}" for u in range(1, s + 1)]
            + [f"sim_ci95_{u}" for u in range(1, s + 1)]
            + [f"sim_cap_hits_{u}" for u in range(1, s + 1)]
            + ["sim_diverged", "trials", "point_seed"])


def _solved(points) -> list:
    """Every grid point of the generator `points`, built and solved in one
    pass; a point outside a closed form's domain raises ConfigError."""
    try:
        return list(points)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _walk_rows(cfg: ExperimentConfig, s: int, points) -> list:
    """Rows of a walk sweep: each point's analytic cells from `points`, all
    solved first, then `simulate(plan)`'s cells under `_sim_header`.  The
    points' simulator calls run in one session (`simulate.run_session`), so
    the sweep forks its workers once."""
    solved = _solved(points)
    if cfg.trials <= 0:
        return [cells + [None] * (3 * s + 3) for cells, _ in solved]
    seeds = [point_seed(cfg.resolved_seed, index) for index in range(len(solved))]
    outcomes = run_session([partial(simulate, TrialPlan(cfg.trials, seed))
                            for (_, simulate), seed in zip(solved, seeds)])
    return [cells + [*outcome.mean, *outcome.ci95, *outcome.cap_hits, outcome.cap_flagged,
                     cfg.trials, seed]
            for (cells, _), outcome, seed in zip(solved, outcomes, seeds)]


def run_thm1_sweep(cfg: ExperimentConfig, out=None):
    """Fixed-length baseline vs cancellation-aware lengths over an SNR grid."""
    s = len(cfg.payload_bits)
    header = ["snr_db", "power", "epsilon"]
    header += [f"payload_bits_{u}" for u in range(1, s + 1)]
    header += [f"vlsf_len_{u}" for u in range(1, s + 1)]
    header += [f"vlsf_raw_len_{u}" for u in range(1, s + 1)]
    header += ["fixed_n", "savings_ratio", *_sim_header(s)]

    def points():
        for snr_db in cfg.snr_db:
            p = db_to_linear(snr_db)
            sc = AwgnScenario(cfg.payload_bits, p)
            raw = awgn_vlsf_lengths(sc)  # before fixed_n: it names an overflowing sum of powers
            ell = (1.0 - cfg.epsilon) * raw
            fixed_n = fixed_length_blocklength(cfg.payload_bits[-1], sinr_awgn(p, s), cfg.epsilon)
            yield ([snr_db, p, cfg.epsilon, *cfg.payload_bits, *ell, *raw,
                    fixed_n, 1.0 - ell[-1] / fixed_n], partial(simulate_awgn_multiuser, sc))

    return write_csv(out, _metadata(cfg), header, _walk_rows(cfg, s, points()))


def run_queue_sweep(cfg: ExperimentConfig, out=None):
    """Queued lengths and savings across the packet-interval grid."""
    s = len(cfg.payload_bits)
    header = ["snr_db", "power", "t_sub", "epsilon", "r", "info_per_interval"]
    for u in range(1, s + 1):
        header += [f"full_intervals_{u}", f"leftover_nats_{u}",
                   f"leftover_stage_{u}", f"queue_len_{u}"]
    header += ["fixed_n", "savings_ratio", *_sim_header(s)]

    def points():
        for snr_db in cfg.snr_db:
            p = db_to_linear(snr_db)
            sc = AwgnScenario(cfg.payload_bits, p)
            # as in thm1, the lengths name an overflowing sum of powers before fixed_n,
            # and fixed_n bounds the interval counts, which overflow int64 beyond 2^63
            awgn_vlsf_lengths(sc)
            fixed_n = fixed_length_blocklength(cfg.payload_bits[-1], sinr_awgn(p, s), cfg.epsilon)
            for t_sub in cfg.t_sub:
                qs = QueueScenario(sc, t_sub)
                br = queue_vlsf_lengths(qs)
                lengths = (1.0 - cfg.epsilon) * br.lengths
                cells = [snr_db, p, t_sub, cfg.epsilon, br.r, br.info_per_interval]
                for u in range(s):
                    cells += [br.full_intervals[u], br.leftover_nats[u],
                              br.leftover_stage[u], lengths[u]]
                cells += [fixed_n, 1.0 - lengths[-1] / fixed_n]
                yield cells, partial(simulate_queue, qs)

    return write_csv(out, _metadata(cfg), header, _walk_rows(cfg, s, points()))


def run_fading_sweep(cfg: ExperimentConfig, out=None):
    """Typical-gain fading lengths vs the fixed baseline over an SNR grid."""
    s = cfg.s_count
    payload = cfg.payload_bits[0]
    header = ["snr_db", "power", "s_count", "payload_bits"]
    header += [f"coeff_a_{u}" for u in range(1, s + 1)]
    header += [f"typical_len_{u}" for u in range(1, s + 1)]
    header += ["fixed_n", "savings_ratio", *_sim_header(s)]

    def points():
        gains = rayleigh_order_means(s)
        gamma = message_threshold(payload)
        for snr_db in cfg.snr_db:
            p = db_to_linear(snr_db)
            coeffs = fading_vlsf_coeffs(gains, p)  # before fixed_n
            typical = (1.0 - cfg.epsilon) * coeffs * gamma
            fixed_n = fixed_length_blocklength(payload, sinr_fading(p, gains), cfg.epsilon, dims=2)
            yield ([snr_db, p, s, payload, *coeffs, *typical,
                    fixed_n, 1.0 - typical[-1] / fixed_n],
                   partial(simulate_rayleigh_block_fading, s, payload, p))

    return write_csv(out, _metadata(cfg), header, _walk_rows(cfg, s, points()))


def run_waterfill_sweep(cfg: ExperimentConfig, out=None):
    """Threshold optimization per (power, user-count) grid point.

    The bound is a closed form, so every row has numbers and `status` is
    always `ok`; the column keeps the CSV layout.
    """
    header = ["snr_db", "power", "s_count", "gamma_single", "gamma_multi",
              "cl_single", "cl_multi", "mc_single_mean", "mc_single_ci95",
              "mc_multi_mean", "mc_multi_ci95", "trials", "point_seed", "status"]

    def points():
        for snr_db in cfg.snr_db:
            p = db_to_linear(snr_db)
            for s in cfg.s_counts:
                yield snr_db, p, s, FastFadingScenario(s_count=s, power=p)

    solved = _solved(points())
    scenarios = [sc for *_, sc in solved]
    results = [optimize_threshold(sc) for sc in scenarios]
    if cfg.trials > 0:
        seeds = [point_seed(cfg.resolved_seed, index) for index in range(len(solved))]
        pairs = evaluate_thresholds(scenarios, results, cfg.trials, seeds)
        mc = [[single.mean, single.ci95, multi.mean, multi.ci95, cfg.trials, seed]
              for (single, multi), seed in zip(pairs, seeds)]
    else:
        mc = [[None] * 6] * len(solved)
    rows = [[snr_db, p, s, res.gamma_single, res.gamma_multi,
             res.cl_at_single, res.cl_at_multi, *cells, "ok"]
            for (snr_db, p, s, _), res, cells in zip(solved, results, mc)]
    return write_csv(out, _metadata(cfg), header, rows)
