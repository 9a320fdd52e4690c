"""cwf benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload walk_sweeps --seed 1 --seconds 30 --trace 0

Workloads: walk_sweeps, error_rate, threshold_grid (see BENCHMARK.json).
Each run starts fresh interpreters with BLAS/OpenMP threads pinned to 1:
several set-up probes (interpreter start to cwf imported and inputs built),
then one process that runs the workload body closed loop for --seconds and
checks every output.  --trace 0 reports the end-to-end metrics; --trace 1
reports the per-layer metrics of a traced run instead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

#: set-up is measured this many times per run (after one warm-up) and the median kept
SETUP_PROBES = 7
#: every run must end within this many seconds
RUN_DEADLINE = 170.0

#: metric names and units, in the order BENCHMARK.json lists them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_cmd(args, out_dir: Path, *extra: str) -> list[str]:
    return [sys.executable, "-I", str(BENCH_DIR / "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size, "--out-dir", str(out_dir), *extra]


def probe_setup(cmd: list[str], env: dict) -> tuple[float, float]:
    """(raw, reference-speed) seconds from spawning a fresh interpreter until
    it reports ready.  The process measures its own set-up at reference
    speed; only the interpreter start before that is taken raw."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
        line = proc.stdout.readline().split()
        elapsed = time.perf_counter() - start
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0 or len(line) != 3 or line[0] != "ready":
        raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
    own_raw, own_scaled = float(line[1]), float(line[2])
    return elapsed, elapsed - own_raw + own_scaled


def run_workload(cmd: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(raw: dict, setup: list[tuple[float, float]]) -> dict:
    wall = statistics.median(raw["walls"])
    return {
        "setup_s": statistics.median(s for _, s in setup),
        "wall_s": wall,
        "trials_per_s": raw["trials"] / wall,
        "points_per_s": raw["points"] / wall,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def report(args, raw: dict, metrics: dict, units: dict, setup) -> None:
    v = raw["versions"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f" size={args.size} reps={len(raw['raw_walls'])}"
          + (f" traced_reps={len(raw['traced_walls'])} spans={raw['spans']}" if args.trace else ""))
    print(f"machine: nproc={v['nproc']} arch={v['machine']} python={v['python']}"
          f" numpy={v['numpy']} scipy={v['scipy']} threads pinned: "
          + ",".join(f"{k}=1" for k in THREAD_PINS))
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    samples = {"walls": raw.get("walls"), "raw_walls": raw["raw_walls"],
               "traced_walls": raw.get("traced_walls"),
               "setup": [s for _, s in setup], "raw_setup": [r for r, _ in setup]}
    for key, values in samples.items():
        if values:
            ordered = sorted(values)
            print(f"  {key} (s, n={len(values)}): min {ordered[0]:.4f} median "
                  f"{statistics.median(values):.4f} max {ordered[-1]:.4f}; "
                  + " ".join(f"{v:.3f}" for v in values))
    ratio = raw["failed"] / raw["attempted"]
    print(f"  fail_ratio = {ratio:.6g} ({raw['failed']} of {raw['attempted']} checks)")
    notes = raw["notes"]
    if "queue_sim_over_len_max" in notes:
        (r, t_sub, user), (r_c4, t_c4, u_c4) = (notes["queue_sim_over_len_max"],
                                               notes["queue_sim_over_len_max_c4_range"])
        print(f"  queue sim_mean/queue_len (not gated): max {r:.4f} at t_sub={t_sub:g} "
              f"user {user}; max on c4's 1400-2300 range {r_c4:.4f} at t_sub={t_c4:g} user {u_c4}")
    for problem in raw["problems"]:
        print(f"  check failed: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a reduced input for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cwf" / "__init__.py").is_file():
        print(f"no cwf sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    env = {**os.environ, **THREAD_PINS}
    out_dir = OUT_ROOT / f"run-{os.getpid()}"
    try:
        setup = []
        if not args.trace:
            probe = _child_cmd(args, out_dir, "--setup-only")
            setup = [probe_setup(probe, env) for _ in range(SETUP_PROBES + 1)][1:]
        timeout = RUN_DEADLINE - (time.perf_counter() - started)
        raw = run_workload(_child_cmd(args, out_dir), env, timeout)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if args.trace:
        metrics, units = raw["layers"], PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(raw, setup), END_TO_END_UNITS
    report(args, raw, metrics, units, setup)
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
