"""One benchmark workload, run in a fresh interpreter by run.py.

    python3 -I bench/workload.py --workload NAME --seed N --seconds S --trace 0|1
        --out-dir DIR [--size full|tiny] [--setup-only]

Prints "ready" once cwf is imported and the workload's inputs are built; a
set-up probe (--setup-only) exits there.  Otherwise the workload body runs
closed loop (one caller, next call after the previous returns) until the
time budget is spent and at least two repetitions are done, every output is
checked, and one JSON line with the raw measurements is printed last.

With --trace 1 untraced and traced repetitions alternate, each pair on the
same seed, so the per-layer numbers and the tracing overhead come from the
same process and the same stretch of host speed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THRESHOLD_CONFIG = BENCH_DIR / "threshold_grid.json"

#: c1's tolerance: simulated mean lengths within 5% of the epsilon-free lengths
C1_REL_TOL = 0.05
#: c4 checks the queue bound only on this packet-interval range
C4_T_SUB = (1400.0, 2300.0)

#: trials per grid point (walk_sweeps), per call (error_rate) and per MC
#: column (threshold_grid); "tiny" keeps every check's margin but runs fast
SIZES = {
    "full": {"thm1": 150, "queue": 100, "fading": 4, "error_rate": 5000,
             "mc_trials": 20000, "snr_stride": 1},
    "tiny": {"thm1": 150, "queue": 8, "fading": 2, "error_rate": 400,
             "mc_trials": 2000, "snr_stride": 6},
}

#: default-grid sizes of the CLI sweeps: grid points per subcommand
DEFAULT_GRID_POINTS = {"thm1": 16, "queue": 12, "fading": 16}


@dataclass
class Op:
    """One closed-loop call; `run` returns its output bytes (None on failure)."""

    rows: int
    run: Callable[[int], bytes | None]  # takes the repetition's seed
    check: Callable[[bytes], list[bool]]


@dataclass
class Workload:
    ops: list[Op]
    trials: int  # Monte Carlo trials per repetition
    points: int  # grid points per repetition
    kernel: str  # speed-clock reference kernel (see speedclock.KERNELS)
    coverage: dict  # counts (tracing.counts) a traced repetition must reach
    notes: dict = field(default_factory=dict)


def csv_rows(data: bytes) -> list[dict]:
    lines = [line for line in data.decode("utf-8").splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _cell_ok(key: str, value: str) -> bool:
    if key == "status" or value in ("true", "false"):
        return True
    try:
        return math.isfinite(float(value))
    except ValueError:
        return False


def _row_finite(row: dict) -> bool:
    return all(_cell_ok(k, v) for k, v in row.items())


def _user_columns(row: dict, prefix: str) -> list[str]:
    return sorted(k[len(prefix):] for k in row if k.startswith(prefix))


def _check_thm1(row: dict) -> bool:
    return all(abs(float(row[f"sim_mean_{u}"]) / float(row[f"vlsf_raw_len_{u}"]) - 1.0)
               <= C1_REL_TOL for u in _user_columns(row, "sim_mean_"))


def _cli_op(cli, argv: list[str], out: Path, rows: int,
            row_check: Callable[[dict], bool], on_rows=None) -> Op:
    def run(seed):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--seed", str(seed), "--out", str(out)])
        return out.read_bytes() if code == 0 else None

    def check(data):
        parsed = csv_rows(data)
        if on_rows is not None:
            on_rows(parsed)
        verdicts = [_row_finite(r) and row_check(r) for r in parsed[:rows]]
        return verdicts + [False] * (rows - len(verdicts))

    return Op(rows, run, check)


def _walk_coverage(trials: int) -> dict:
    # one trial_stream per walk trial: the per-trial Philox (seed, i) contract
    return {"trial_stream.calls": trials, "walk_trials": trials}


def build_walk_sweeps(size: dict, out_dir: Path) -> Workload:
    """thm1, queue and fading on their default grids: few, long walks."""
    from cwf import cli

    notes: dict = {}

    def queue_ratios(rows):
        ratios = [(float(r[f"sim_mean_{u}"]) / float(r[f"queue_len_{u}"]), float(r["t_sub"]), int(u))
                  for r in rows for u in _user_columns(r, "sim_mean_")]
        in_c4 = [x for x in ratios if C4_T_SUB[0] <= x[1] <= C4_T_SUB[1]]
        # reported for the first repetition's seed
        notes.setdefault("queue_sim_over_len_max", max(ratios))
        notes.setdefault("queue_sim_over_len_max_c4_range", max(in_c4))

    checks = {
        "thm1": (_check_thm1, None),
        "queue": (lambda r: r["sim_diverged"] == "false", queue_ratios),
        "fading": (lambda r: True, None),
    }
    ops = []
    for sub, (row_check, on_rows) in checks.items():
        argv = [sub, "--trials", str(size[sub])]
        ops.append(_cli_op(cli, argv, out_dir / f"{sub}.csv",
                           DEFAULT_GRID_POINTS[sub], row_check, on_rows))
    trials = sum(DEFAULT_GRID_POINTS[s] * size[s] for s in checks)
    return Workload(ops, trials=trials, points=sum(DEFAULT_GRID_POINTS.values()),
                    kernel="walk", coverage=_walk_coverage(trials), notes=notes)


def build_error_rate(size: dict, out_dir: Path) -> Workload:
    """The c6 scenario: many ~20-symbol walks plus 255 competitor walks each."""
    import cwf

    payload_bits, snr, trials = 8.0, 1.0, size["error_rate"]
    bound = 1.0 / (payload_bits * math.log(2.0))  # c6: upper95 <= 1/kappa

    def run(seed):
        est = cwf.simulate_error_probability(payload_bits, snr, cwf.TrialPlan(trials, seed))
        return json.dumps([est.rate, est.se, est.errors, est.trials, est.cap_hits,
                           est.upper95]).encode()

    def check(data):
        rate, se, errors, n, cap_hits, upper95 = json.loads(data)
        return [all(math.isfinite(v) for v in (rate, se, upper95))
                and n == trials and upper95 <= bound]

    return Workload([Op(1, run, check)], trials=trials, points=1,
                    kernel="walk", coverage=_walk_coverage(trials))


def build_threshold_grid(size: dict, out_dir: Path) -> Workload:
    """`cwf waterfill` over the committed 52-point grid with MC columns on."""
    from cwf import cli

    config = json.loads(THRESHOLD_CONFIG.read_text())
    path = THRESHOLD_CONFIG
    if size["snr_stride"] != 1:
        config["snr_db"] = config["snr_db"][::size["snr_stride"]]
        path = out_dir / "threshold_grid.json"
        path.write_text(json.dumps(config))
    points = len(config["snr_db"]) * len(config["s_counts"])
    argv = ["waterfill", "--config", str(path), "--trials", str(size["mc_trials"])]
    op = _cli_op(cli, argv, out_dir / "waterfill.csv", points,
                 lambda r: r["status"] == "ok")
    # two MC columns per grid point
    return Workload([op], trials=2 * points * size["mc_trials"], points=points,
                    kernel="quadrature", coverage={"optimize_threshold.calls": points})


BUILDERS = {
    "walk_sweeps": build_walk_sweeps,
    "error_rate": build_error_rate,
    "threshold_grid": build_threshold_grid,
}


def rep_seed(seed: int, rep: int) -> int:
    """Seed of one repetition: each input runs twice in a row, so a run
    covers several inputs (walk lengths vary by seed) and every output has
    a same-seed rerun to compare with."""
    return (seed * 1000 + rep // 2) % (1 << 63)  # cwf seeds are non-negative


def run_reps(ops: list[Op], seed: int, kernel: str, budget: float):
    """Closed loop over the workload body, at least two repetitions.

    Returns per-repetition (raw, reference-speed) seconds and the outputs.
    """
    from speedclock import SpeedClock

    times, outputs = [], []
    start = time.perf_counter()
    with SpeedClock(kernel) as clock:
        clock.lap()
        while len(times) < 2 or time.perf_counter() - start < budget:
            outputs.append([op.run(rep_seed(seed, len(times))) for op in ops])
            times.append(clock.lap())
    return times, outputs


def check_outputs(ops: list[Op], seed: int, outputs: list[list]) -> tuple[int, int]:
    """Rows attempted and failed; outputs of the same seed must be byte-identical."""
    seen: dict[int, tuple] = {}
    attempted = failed = 0
    for rep, outs in enumerate(outputs):
        first = seen.get(rep_seed(seed, rep))
        if first is None:
            verdicts = [op.check(out) if out is not None else [False] * op.rows
                        for op, out in zip(ops, outs)]
            first = seen[rep_seed(seed, rep)] = (outs, verdicts)
        for out, ref, verdict in zip(outs, *first):
            same = out is not None and out == ref
            attempted += len(verdict)
            failed += sum(1 for ok in verdict if not (ok and same))
    return attempted, failed


def traced_reps(ops: list[Op], seed: int, budget: float, spans_path: Path):
    """Closed loop alternating an untraced repetition with a traced one of
    the same seed, so both see the same host speed; timed raw, so no span
    holds speed samples.  Spans are written out at the end.

    Returns untraced and traced seconds, all outputs in repetition order and
    one tracing summary per traced repetition.
    """
    import tracing

    tracer = tracing.Tracer(uuid.uuid4().hex)
    walls: tuple[list, list] = ([], [])
    outputs, summaries, spans = [], [], []
    start = time.perf_counter()
    while len(outputs) < 2 or time.perf_counter() - start < budget:
        rep = len(outputs)
        traced = rep % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        outputs.append([op.run(rep_seed(seed, rep)) for op in ops])
        walls[traced].append(time.perf_counter() - t0)
        if traced:
            tracer.uninstall()
            summaries.append(tracing.summarize(tracer))
            spans.append(tracer.reset())
    tracing.write_spans(spans_path, tracer.run_id, spans)
    return walls, outputs, summaries


def set_up(args) -> Workload | None:
    """Import cwf from the checkout and build the workload's inputs."""
    if not (SRC / "cwf" / "__init__.py").is_file():
        print(f"cwf sources not found under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import cwf
    import cwf.cli  # noqa: F401  (every layer is imported during set-up)
    import cwf.sweeps  # noqa: F401
    import cwf.validate  # noqa: F401

    if not Path(cwf.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported cwf from {cwf.__file__}, not from {SRC}", file=sys.stderr)
        return None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[args.workload](SIZES[args.size], out_dir)


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from speedclock import SpeedClock

    with SpeedClock("python") as clock:
        clock.lap()
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, default=30.0)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--size", choices=sorted(SIZES), default="full")
        parser.add_argument("--out-dir", required=True)
        parser.add_argument("--setup-only", action="store_true")
        args = parser.parse_args(argv)
        work = set_up(args)
        setup_raw, setup_scaled = clock.lap()
    if work is None:
        return 2
    # set-up time as measured here, raw and at reference speed
    print(f"ready {setup_raw!r} {setup_scaled!r}", flush=True)
    if args.setup_only:
        return 0

    problems: list[str] = []
    if args.trace:
        import tracing

        spans_path = Path(args.out_dir).parent / f"spans_{args.workload}.tsv"
        (walls, traced_walls), outputs, summaries = traced_reps(
            work.ops, args.seed, args.seconds, spans_path)
        first_counts = tracing.counts(summaries[0])
        problems += [f"{key}={first_counts[key]}, expected {value}"
                     for key, value in work.coverage.items() if first_counts[key] != value]
        layers = tracing.layer_metrics(summaries)
        layers["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        result = {"raw_walls": walls, "traced_walls": traced_walls,
                  "layers": layers, "spans": str(spans_path.relative_to(ROOT))}
    else:
        times, outputs = run_reps(work.ops, args.seed, work.kernel, args.seconds)
        result = {"raw_walls": [raw for raw, _ in times],
                  "walls": [scaled for _, scaled in times],
                  "trials": work.trials, "points": work.points,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    attempted, failed = check_outputs(work.ops, args.seed, outputs)
    if args.trace:  # the checks fill in the notes
        result["layers"]["sweeps.queue_sim_over_len.max"] = work.notes.get(
            "queue_sim_over_len_max", (0.0,))[0]
    result.update(
        attempted=attempted + len(problems), failed=failed + len(problems),
        problems=problems, notes=work.notes,
        versions={"python": platform.python_version(),
                  "numpy": sys.modules["numpy"].__version__,
                  "scipy": sys.modules["scipy"].__version__,
                  "machine": platform.machine(), "nproc": os.cpu_count()},
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
