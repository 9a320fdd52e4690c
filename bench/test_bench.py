"""The benchmark's own tests: `python3 -m pytest bench` from the repository root.

Tiny-size runs must print every metric BENCHMARK.json names, with its unit;
two traced runs with the same seed must give identical counts; the tracer
must reach every binding of a traced function; and the benchmark must
refuse to run where the cwf sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per-layer counts that same-seed runs must repeat exactly
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(proc, spec_metrics):
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec_metrics]
    for m in spec_metrics:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(line.startswith(f"  {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in proc.stdout.splitlines()), m["name"]
    assert "fail_ratio = 0 " in proc.stdout
    return result


@pytest.fixture(scope="module")
def traced_pairs():
    return {w: (run_bench(w, 1), run_bench(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    result = check_metrics(run_bench(workload, 0), SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_repeats_counts(workload, traced_pairs):
    first, second = (check_metrics(p, SPEC["per_layer"])["metrics"]
                     for p in traced_pairs[workload])
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["trace.overhead_ratio"]["value"] > 0


def test_tracer_patches_every_binding():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import cwf
    import cwf.simulate
    import cwf.sweeps
    import cwf.validate
    import tracing

    original = cwf.simulate.simulate_awgn_multiuser
    with tracing.Tracer("test") as tracer:
        for module in (cwf, cwf.simulate, cwf.sweeps, cwf.validate):
            assert module.simulate_awgn_multiuser is not original
            assert module.simulate_awgn_multiuser.__wrapped__ is original
        rng = cwf.simulate.trial_stream(1, 0)
        assert isinstance(rng, tracing.CountingGenerator)
    assert cwf.sweeps.simulate_awgn_multiuser is original
    assert tracer.names == ["simulate.trial_stream"]


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
