"""The benchmark's tracer wraps public names of cwf by layer; a name that
disappears from the package would break only a traced benchmark run, so
every entry is resolved here."""

import ast
import importlib
import importlib.util
import os
from pathlib import Path


TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers() -> dict:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LAYERS")


def _resolves(layer: str, attr: str) -> bool:
    owner = importlib.import_module(f"cwf.{layer}")
    for part in attr.split("."):  # "Cls.meth" names a method
        owner = getattr(owner, part, None)
    return callable(owner)


def test_traced_layer_names_resolve():
    missing = [f"cwf.{layer}.{attr}" for layer, attrs in _layers().items()
               for attr in attrs if not _resolves(layer, attr)]
    assert not missing


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_forked_error_rate_counts_every_stream(monkeypatch):
    # the caller builds every trial's stream, so the tracer, which cannot see
    # a forked worker's calls, still counts one trial_stream call per trial
    from cwf import simulate

    tracing = _tracing()
    monkeypatch.setattr(simulate, "WORKERS", 2)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    plan = simulate.TrialPlan(40, 3)
    with tracing.Tracer("test") as tracer:
        traced = simulate.simulate_error_probability(4.0, 1.0, plan)
    assert forks == [1]
    assert tracing.summarize(tracer)["calls"]["simulate.trial_stream"] == plan.trials
    assert traced == simulate.simulate_error_probability(4.0, 1.0, plan)


def test_traced_forked_thm1_sweep_counts_every_stream_and_point(monkeypatch):
    # the sweep's session runs every simulator call in the caller too, so the
    # tracer counts one trial_stream per trial and one simulator span per point
    from cwf import simulate
    from cwf.config import default_config
    from cwf.sweeps import run_thm1_sweep

    tracing = _tracing()
    monkeypatch.setattr(simulate, "WORKERS", 2)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    cfg = default_config("thm1_sweep").override(snr_db=[0.0, 5.0, 10.0], trials=20, seed=3)
    with tracing.Tracer("test") as tracer:
        traced = run_thm1_sweep(cfg)
    assert forks == [1]
    calls = tracing.summarize(tracer)["calls"]
    assert calls["simulate.trial_stream"] == len(cfg.snr_db) * cfg.trials
    assert calls["simulate.simulate_awgn_multiuser"] == len(cfg.snr_db)
    assert traced == run_thm1_sweep(cfg)
