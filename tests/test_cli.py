import hashlib
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cwf
from cwf.cli import EXIT_CONFIG, EXIT_OK, EXIT_VALIDATION, main
from cwf.config import (
    ConfigError,
    ExperimentConfig,
    DEFAULT_VALIDATE_SEED,
    KINDS,
    db_to_linear,
    default_config,
    point_seed,
)
from cwf.lengths import (AwgnScenario, QueueScenario, awgn_vlsf_lengths, fading_vlsf_coeffs,
                         message_threshold, queue_vlsf_lengths, rayleigh_order_means)
from cwf.sweeps import (format_value, run_fading_sweep, run_queue_sweep, run_thm1_sweep,
                        run_waterfill_sweep)


# --------------------------------------------------------------------- config

def test_config_round_trip_preserves_all_fields():
    cfg = ExperimentConfig(
        kind="queue_sweep", snr_db=(0.0, 3.0), payload_bits=(300.0, 1000.0),
        t_sub=(1400.0, 2000.0), epsilon=1e-3, trials=100, seed=7, out="x.csv")
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_hash_stable_and_sensitive():
    cfg = default_config("thm1_sweep")
    assert cfg.config_hash() == cfg.config_hash()
    other = cfg.override(epsilon=0.01)
    assert other.config_hash() != cfg.config_hash()


def test_config_rejections():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="thm1_sweep", snr_db=())  # empty grid
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="thm1_sweep", snr_db=(0.0,), payload_bits=(300.0,),
                         trials=10)  # stochastic without seed
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "thm1_sweep", "snr_db": [0.0],
                                    "payload_bits": [300.0], "bogus": 1})


def test_db_conversion():
    assert db_to_linear(0.0) == pytest.approx(1.0)
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(-3.0) == pytest.approx(0.501187, rel=1e-5)


def test_point_seed_deterministic():
    assert point_seed(1, 0) == point_seed(1, 0)
    assert point_seed(1, 0) != point_seed(1, 1)
    assert point_seed(2, 0) != point_seed(1, 0)


# --------------------------------------------------------------------- sweeps

def test_thm1_sweep_byte_identical_and_shaped(tmp_path):
    cfg = ExperimentConfig(kind="thm1_sweep", snr_db=(0.0, 5.0),
                           payload_bits=(300.0, 1000.0), epsilon=1e-3,
                           trials=120, seed=99)
    text_a = run_thm1_sweep(cfg, tmp_path / "a.csv")
    run_thm1_sweep(cfg, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    lines = [l for l in text_a.splitlines() if not l.startswith("#")]
    assert len(lines) == 1 + 2  # header + one row per grid point
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert len(row) == len(header)
    assert "savings_ratio" in header
    savings = float(row[header.index("savings_ratio")])
    assert 0.0 < savings < 1.0


def test_thm1_sweep_single_point_grid():
    cfg = ExperimentConfig(kind="thm1_sweep", snr_db=(0.0,), payload_bits=(300.0, 1000.0))
    text = run_thm1_sweep(cfg, None)
    rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 1
    # analytic-only run leaves simulation cells empty
    assert rows[0].endswith(",,")


def test_queue_sweep_savings_monotone_and_saturating():
    t_grid = tuple(float(t) for t in range(600, 3001, 200))
    cfg = ExperimentConfig(kind="queue_sweep", snr_db=(0.0,),
                           payload_bits=(300.0, 1000.0), t_sub=t_grid, epsilon=1e-3)
    text = run_queue_sweep(cfg, None)
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    icol = header.index("savings_ratio")
    savings = [float(r.split(",")[icol]) for r in lines[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(savings, savings[1:]))
    # saturation: once uncongested the ratio stops moving
    assert savings[-1] == pytest.approx(savings[-2], abs=1e-9)


def test_fading_sweep_columns(tmp_path):
    cfg = ExperimentConfig(kind="fading_sweep", snr_db=(0.0, 8.0),
                           payload_bits=(1000.0,), s_count=2, epsilon=1e-3)
    text = run_fading_sweep(cfg, tmp_path / "f.csv")
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert "coeff_a_1" in header and "typical_len_2" in header
    assert len(lines) == 3


@pytest.mark.parametrize("kind,fields", [
    ("thm1_sweep", {"payload_bits": (100.0, 300.0)}),
    ("queue_sweep", {"payload_bits": (100.0, 300.0), "t_sub": (40.0,)}),
    ("fading_sweep", {"payload_bits": (100.0,), "s_count": 2}),
])
def test_walk_sweeps_report_cap_hits_per_user(kind, fields):
    cfg = ExperimentConfig(kind=kind, snr_db=(0.0,), trials=3, seed=5, **fields)
    run = {"thm1_sweep": run_thm1_sweep, "queue_sweep": run_queue_sweep,
           "fading_sweep": run_fading_sweep}[kind]
    lines = [l for l in run(cfg, None).splitlines() if not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    hits = [int(row[f"sim_cap_hits_{u}"]) for u in (1, 2)]
    assert all(0 <= h <= 3 for h in hits)
    # diverged: more than 1% of the 3 trials capped for some user
    assert row["sim_diverged"] == ("true" if max(hits) > 0.03 else "false")


def _idle_free_lengths(sub, cfg, row):
    """The epsilon-free closed form behind one walk-sweep row, and its column prefix."""
    p = db_to_linear(float(row["snr_db"]))
    if sub == "fading":
        gains = rayleigh_order_means(cfg.s_count)
        return "typical_len", fading_vlsf_coeffs(gains, p) * message_threshold(cfg.payload_bits[0])
    sc = AwgnScenario(cfg.payload_bits, p)
    if sub == "queue":
        return "queue_len", queue_vlsf_lengths(QueueScenario(sc, float(row["t_sub"]))).lengths
    return "vlsf_len", awgn_vlsf_lengths(sc)


@pytest.mark.parametrize("epsilon", [1e-3, 0.25])
@pytest.mark.parametrize("sub", ["thm1", "queue", "fading"])
def test_walk_sweep_lengths_are_idled_closed_forms(sub, epsilon):
    # the (1-epsilon) idling is applied once, where a sweep reports a length
    cfg = default_config(f"{sub}_sweep").override(epsilon=epsilon)
    text = {"thm1": run_thm1_sweep, "queue": run_queue_sweep,
               "fading": run_fading_sweep}[sub](cfg, None)
    header, *rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")]
    for cells in rows:
        row = dict(zip(header, cells))
        column, free = _idle_free_lengths(sub, cfg, row)
        users = range(1, len(free) + 1)
        assert [row[f"{column}_{u}"] for u in users] == [
            format_value((1.0 - epsilon) * v) for v in free]
        if sub == "thm1":  # the raw columns carry no idling
            assert [row[f"vlsf_raw_len_{u}"] for u in users] == [format_value(v) for v in free]


@pytest.mark.parametrize("run,trials", [
    (run_thm1_sweep, 10), (run_queue_sweep, 10), (run_fading_sweep, 2)])
def test_walk_sweeps_fork_once_and_do_not_depend_on_worker_count(monkeypatch, run, trials):
    # every point's calls share one session: WORKERS - 1 forks per sweep, and
    # rows merged in trial order give the same bytes at any worker count
    from cwf import simulate

    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    cfg = default_config(run.__name__[len("run_"):]).override(trials=trials, seed=7)
    texts = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(simulate, "WORKERS", workers)
        forks.clear()
        texts.append(run(cfg))
        assert len(forks) == workers - 1
    assert texts[0] == texts[1] == texts[2]


def _die(code):
    os._exit(code)


@pytest.mark.parametrize("who,fault,error", [
    ("worker", lambda: 1 / 0, ZeroDivisionError),  # re-raised with its own type
    ("worker", lambda: _die(3), ChildProcessError),
    ("caller", lambda: 1 / 0, ZeroDivisionError),
], ids=["worker_raises", "worker_dies", "caller_raises"])
def test_a_walk_sweep_failing_mid_way_leaves_no_child(monkeypatch, who, fault, error):
    from cwf import simulate, sweeps

    monkeypatch.setattr(simulate, "WORKERS", 3)
    caller, calls = os.getpid(), []

    def failing(sc, plan):
        calls.append(plan.seed)
        if len(calls) == 4 and (os.getpid() == caller) == (who == "caller"):
            fault()
        return simulate.simulate_awgn_multiuser(sc, plan)

    monkeypatch.setattr(sweeps, "simulate_awgn_multiuser", failing)
    with pytest.raises(error):
        run_thm1_sweep(default_config("thm1_sweep").override(trials=20, seed=7))
    assert len(calls) == 4  # the caller stops at the fourth point
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_waterfill_csv_does_not_depend_on_worker_count(tmp_path, monkeypatch):
    # the searches run in the caller, once per grid point, before the fork;
    # the MC columns fan out one mc_capacity call per task
    from cwf import simulate, sweeps, waterfill

    search, caller, searched = waterfill.optimize_threshold, os.getpid(), []
    monkeypatch.setattr(sweeps, "optimize_threshold",
                        lambda sc: searched.append((os.getpid(), sc)) or search(sc))
    cfg = default_config("waterfill_sweep")
    grid = [waterfill.FastFadingScenario(s, db_to_linear(db))
            for db in cfg.snr_db for s in cfg.s_counts]
    texts = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(simulate, "WORKERS", workers)
        searched.clear()
        out = tmp_path / f"waterfill_{workers}.csv"
        assert main(["waterfill", "--trials", "50", "--seed", "7", "--out", str(out)]) == EXIT_OK
        texts.append(out.read_bytes())
        assert searched == [(caller, sc) for sc in grid]
    assert texts[0] == texts[1] == texts[2]


def test_a_worker_failing_an_mc_capacity_call_is_reraised_with_its_type(monkeypatch):
    from cwf import simulate, waterfill

    monkeypatch.setattr(simulate, "WORKERS", 3)
    mc_capacity, caller = waterfill.mc_capacity, os.getpid()

    def failing(gamma_th, sc, plan):
        if os.getpid() != caller:
            raise FloatingPointError(f"S={sc.s_count}")
        return mc_capacity(gamma_th, sc, plan)

    monkeypatch.setattr(waterfill, "mc_capacity", failing)
    scenarios = [waterfill.FastFadingScenario(s, 1.0) for s in (1, 2, 3)]
    searches = [waterfill.optimize_threshold(sc) for sc in scenarios]
    with pytest.raises(FloatingPointError, match="S=1"):  # the first worker's first task
        waterfill.evaluate_thresholds(scenarios, searches, 100, [1, 2, 3])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_waterfill_sweep_ordering_columns():
    cfg = ExperimentConfig(kind="waterfill_sweep", snr_db=(0.0,), s_counts=(1, 2))
    text = run_waterfill_sweep(cfg, None)
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    gs, gm = header.index("gamma_single"), header.index("gamma_multi")
    cs, cm = header.index("cl_single"), header.index("cl_multi")
    for row in lines[1:]:
        cells = row.split(",")
        assert float(cells[cm]) >= float(cells[cs])
        assert cells[header.index("status")] == "ok"
        s_count = int(cells[header.index("s_count")])
        if s_count >= 2:
            assert float(cells[gm]) > float(cells[gs])


@pytest.mark.filterwarnings("error")
def test_waterfill_sweep_at_extreme_snr_is_finite():
    # Simpson failed to converge on every S = 1 row from 150 dB, and at 3080 dB
    # gamma_th / (q/p) overflowed; the closed form gives finite rows, no warning.
    # cl_multi >= cl_single is not asserted at S = 1: the optimum there lies
    # below REFINE_TOL (about 1e-8 at 80 dB), so the search cannot resolve it.
    # With no interferer on, mc_capacity's ratio overflowed at 3080 dB (inf, nan)
    cfg = ExperimentConfig(kind="waterfill_sweep", snr_db=(150.0, 300.0, 3000.0, 3080.0),
                           s_counts=(1, 2), trials=2000, seed=1)
    header, *rows = [l.split(",") for l in run_waterfill_sweep(cfg, None).splitlines()
                     if not l.startswith("#")]
    assert len(rows) == 8
    for cells in rows:
        row = dict(zip(header, cells))
        assert row["status"] == "ok"
        values = [float(row[c]) for c in ("gamma_single", "gamma_multi", "cl_single", "cl_multi",
                                          "mc_single_mean", "mc_single_ci95",
                                          "mc_multi_mean", "mc_multi_ci95")]
        assert all(math.isfinite(v) for v in values)
        if row["s_count"] == "2":
            assert float(row["cl_multi"]) >= float(row["cl_single"])
        if row["s_count"] == "1" and row["snr_db"] == "3080":
            # one user has no interference, so the bound is its capacity
            for which in ("single", "multi"):
                se = float(row[f"mc_{which}_ci95"]) / 1.96
                assert abs(float(row[f"mc_{which}_mean"]) - float(row[f"cl_{which}"])) <= 4.0 * se


# ------------------------------------------------------------------------ CLI

_GOLDEN_CONFIGS = {
    "thm1_seed3": {"kind": "thm1_sweep", "snr_db": [-5, 0, 5, 10], "payload_bits": [60, 150, 300],
                   "epsilon": 1e-3, "trials": 300, "seed": 3},
    "fading_seed5": {"kind": "fading_sweep", "snr_db": [0.0, 5.0], "payload_bits": [200],
                     "s_count": 3, "epsilon": 1e-3, "trials": 30, "seed": 5},
    "fading5": {"kind": "fading_sweep", "snr_db": [-5, -2, 0, 3, 5, 8, 10, 15],
                "payload_bits": [700], "s_count": 6, "epsilon": 1e-3, "trials": 0},
    "thm1big": {"kind": "thm1_sweep", "snr_db": [-10, -7, -5, -3, 0, 2, 5, 7, 10, 15, 20],
                "payload_bits": [40, 80, 150, 300, 600, 1000, 2000], "epsilon": 1e-3, "trials": 0},
    "queuebig": {"kind": "queue_sweep", "snr_db": [-5, 0, 5, 10],
                 "payload_bits": [60, 150, 300, 500, 700, 1200],
                 "t_sub": [100, 200, 400, 600, 800, 1000, 1500, 2000, 3000, 5000],
                 "epsilon": 1e-3, "trials": 0},
    # the benchmark's threshold grid, the only pin with S = 8 rows
    "threshold_grid": {**json.loads((Path(__file__).resolve().parents[1] / "bench"
                                     / "threshold_grid.json").read_text()), "trials": 2000},
}


@pytest.mark.parametrize("run,digest", [
    ("thm1", "9478d2357c6cccfb"),
    ("queue", "56583564fee4e7eb"),
    ("fading", "8e948aed5e98dc41"),
    ("waterfill", "8febcdde6896d218"),
    ("thm1 --seed 7 --trials 50", "fd5ce271155a33ff"),
    ("queue --seed 7 --trials 50", "c5399ff8f12eccb7"),
    ("fading --seed 7 --trials 4", "419a1c51e3bbd529"),
    ("waterfill --seed 7 --trials 50", "e6500c7b44cde2fd"),
    ("thm1_seed3", "b66a4dcccb9208ac"),
    ("fading_seed5", "0b34110db282bd5e"),
    ("fading5", "bb72d28af83110f3"),
    ("thm1big", "8ef7dc5103dbaf97"),
    ("queuebig", "9b32c29d60e45bec"),
    ("threshold_grid", "f89b248cd2a02bdd"),
])
def test_cli_csv_bytes_are_pinned(tmp_path, run, digest):
    """Golden bytes: the sha256 prefix of each CSV, so a refactor that claims
    byte-identical outputs is checked here.  The CSV header carries
    `__version__`, so a version bump must re-pin these hashes, and so must a
    platform whose libm rounds differently."""
    argv = run.split()
    if run in _GOLDEN_CONFIGS:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_GOLDEN_CONFIGS[run]))
        argv = [_GOLDEN_CONFIGS[run]["kind"].split("_")[0], "--config", str(path)]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


def test_cli_thm1_runs_and_writes(tmp_path, capsys):
    out = tmp_path / "thm1.csv"
    code = main(["thm1", "--out", str(out)])
    assert code == EXIT_OK
    assert out.exists()
    text = out.read_text()
    assert text.startswith("# cwf_version=")
    assert "snr_db" in text


def test_cli_thm1_accepts_equal_payloads(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "thm1_sweep", "snr_db": [0.0],
                                "payload_bits": [300.0, 300.0]}))
    out = tmp_path / "thm1.csv"
    assert main(["thm1", "--config", str(path), "--out", str(out)]) == EXIT_OK
    header, row = [line.split(",") for line in out.read_text().splitlines()
                   if not line.startswith("#")]
    values = dict(zip(header, row))
    assert values["vlsf_len_1"] == values["vlsf_len_2"]


def test_cli_rejects_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["queue", "--config", str(bad)]) == EXIT_CONFIG


@pytest.mark.parametrize("out", [5, ["a"]], ids=["number", "list"])
def test_cli_rejects_non_string_out(tmp_path, capsys, out):
    # the schema never checked `out`: pathlib raised a TypeError traceback (exit 1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**default_config("thm1_sweep").to_dict(), "out": out}))
    assert main(["thm1", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [f"config error: out must be a path string, "
                                                    f"got {out!r}"]


@pytest.mark.parametrize("argv", [["thm1"], ["validate", "--criteria", "2"]],
                         ids=["sweep", "validate"])
def test_cli_rejects_an_unwritable_out(tmp_path, capsys, argv):
    # a regular file where a directory should be: FileExistsError after the whole run (exit 1)
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "x.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: cannot write {out}: ")


def test_cli_rejects_kind_mismatch(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "thm1_sweep", "snr_db": [0.0],
                               "payload_bits": [300.0, 1000.0]}))
    assert main(["queue", "--config", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("epsilon", [0.0, 0.7])
@pytest.mark.parametrize("sub", ["thm1", "queue", "fading"])
def test_cli_rejects_epsilon_outside_fixed_length_domain(tmp_path, sub, epsilon):
    # the fixed_n baseline column needs epsilon in (0, 0.5]
    cfg = default_config(f"{sub}_sweep").to_dict()
    cfg["epsilon"] = epsilon
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    assert main([sub, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("sub,fields", [
    ("waterfill", {"s_counts": [0]}),
    ("thm1", {"payload_bits": [1000.0, 300.0]}),
    ("fading", {"payload_bits": [1.0]}),
    ("queue", {"t_sub": [-5.0]}),
    ("thm1", {"snr_db": [math.inf]}),
    ("queue", {"t_sub": [math.inf], "trials": 2, "seed": 1}),
    ("fading", {"payload_bits": [math.inf]}),
    ("thm1", {"payload_bits": [300.0, math.inf]}),
    ("fading", {"snr_db": [math.inf]}),
    ("waterfill", {"snr_db": [math.inf]}),
    ("waterfill", {"s_counts": [1031]}),
    # a fixed blocklength beyond 2^50 symbols, where the solver never returned
    ("thm1", {"snr_db": [-200.0]}),
    ("thm1", {"snr_db": [0.0], "payload_bits": [300.0, 1e25]}),
    ("queue", {"snr_db": [-200.0]}),
    ("fading", {"snr_db": [-200.0]}),
    # received powers whose sum overflows: SINR 0 gave inf lengths with warnings, or tracebacks
    ("thm1", {"snr_db": [3080.0]}),
    ("thm1", {"snr_db": [3080.0], "trials": 2, "seed": 1}),
    ("queue", {"snr_db": [3080.0]}),
    ("fading", {"snr_db": [3080.0]}),
    ("fading", {"s_count": 0}),
    # a linear power beyond the largest float, which raised an OverflowError naming no field
    ("thm1", {"snr_db": [4000.0]}),
    ("queue", {"snr_db": [4000.0]}),
    ("fading", {"snr_db": [4000.0]}),
    ("waterfill", {"snr_db": [4000.0]}),
    # a power whose reciprocal overflows: lower_bound_terms warned on pon / p
    ("waterfill", {"snr_db": [-3200.0]}),
], ids=["waterfill_no_users", "thm1_decreasing_payloads", "fading_tiny_payload",
        "queue_negative_interval", "thm1_infinite_snr", "queue_infinite_interval",
        "fading_infinite_payload", "thm1_infinite_payload", "fading_infinite_snr",
        "waterfill_infinite_snr", "waterfill_binomial_overflow",
        "thm1_minus_200_db", "thm1_huge_payload", "queue_minus_200_db", "fading_minus_200_db",
        "thm1_power_sum_overflow", "thm1_power_sum_overflow_trials", "queue_power_sum_overflow",
        "fading_power_sum_overflow", "fading_no_users", "thm1_linear_power_overflow",
        "queue_linear_power_overflow", "fading_linear_power_overflow",
        "waterfill_linear_power_overflow", "waterfill_reciprocal_power_overflow"])
def test_cli_rejects_out_of_domain_scenarios(tmp_path, capsys, sub, fields):
    # the sweeps' own scenario checks and closed forms run before any simulation:
    # exit 2, no CSV, no warning; json writes math.inf as Infinity, which
    # json.loads accepts
    cfg = {**default_config(f"{sub}_sweep").to_dict(), **fields}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([sub, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert not caught
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    if fields.get("snr_db") == [4000.0]:
        assert err == ["config error: snr_db 4000.0 overflows a float as a linear power"]


@pytest.mark.parametrize("sub,calls", [
    ("thm1", {"awgn_vlsf_lengths": 16, "fixed_length_blocklength": 16}),
    ("queue", {"awgn_vlsf_lengths": 1, "fixed_length_blocklength": 1, "queue_vlsf_lengths": 12}),
    ("fading", {"fading_vlsf_coeffs": 16, "fixed_length_blocklength": 16}),
])
def test_cli_solves_each_grid_point_once(tmp_path, monkeypatch, sub, calls):
    # one pass in the sweep, and none for the config or its flag overrides; the
    # queue sweep solves its lengths and fixed_n once per power, 1 power x 12 t_sub
    from cwf import lengths

    counts = dict.fromkeys(calls, 0)

    def counting(name, solve):
        def counted(*args, **kwargs):
            counts[name] += 1
            return solve(*args, **kwargs)
        return counted

    for name in calls:
        original = getattr(lengths, name)
        for module in [m for key, m in sys.modules.items() if key.startswith("cwf")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    out = tmp_path / "x.csv"
    assert main([sub, "--out", str(out)]) == EXIT_OK
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    assert len(rows) == max(calls.values())
    assert counts == calls


@pytest.mark.parametrize("sub,fields", [
    ("thm1", {"snr_db": [0.0, -200.0]}),
    ("queue", {"t_sub": [600.0, 0.5]}),
    ("fading", {"snr_db": [0.0, 3080.0]}),
    ("waterfill", {"s_counts": [1, 1031]}),
])
def test_cli_rejects_a_bad_last_point_before_simulating(tmp_path, capsys, monkeypatch, sub,
                                                         fields):
    # the whole grid is solved first, so the valid first point is never simulated
    from cwf import sweeps

    def no_simulation(*args, **kwargs):
        raise AssertionError("a simulator ran before the grid was solved")

    for name in ("simulate_awgn_multiuser", "simulate_queue", "simulate_rayleigh_block_fading",
                 "evaluate_thresholds", "optimize_threshold"):
        monkeypatch.setattr(sweeps, name, no_simulation)
    cfg = {**default_config(f"{sub}_sweep").to_dict(), **fields, "trials": 2, "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    assert main([sub, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error: ")


_RUN_CLI = "import sys; sys.path.insert(0, sys.argv[1]); from cwf.cli import main; " \
           "raise SystemExit(main(sys.argv[2:]))"


@pytest.mark.parametrize("t_sub", [1e-10, 1e-300], ids=["walk_hang", "interval_overflow"])
def test_cli_rejects_sub_symbol_interval(tmp_path, t_sub):
    # 1e-10 hung the walk's boundary loop; 1e-300 overflowed the interval
    # count with a message naming no field.  A fresh interpreter with
    # warnings as errors, so a hang fails on the timeout
    cfg = {**default_config("queue_sweep").to_dict(), "t_sub": [t_sub], "trials": 2, "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-I", "-W", "error", "-c", _RUN_CLI, str(src),
                           "queue", "--config", str(path), "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_CONFIG
    assert done.stderr.splitlines() == [
        f"config error: t_sub must be finite and at least one symbol, got {t_sub}"]
    assert not out.exists()


@pytest.mark.parametrize("sub,fields", [
    ("queue", {"t_sub": [1e20], "trials": 2, "seed": 1}),
    ("waterfill", {"snr_db": [-3000.0, -3082.0], "trials": 2000, "seed": 1}),
], ids=["queue_all_light_huge_interval", "waterfill_minus_3000_db"])
def test_cli_runs_extreme_valid_inputs_cleanly(tmp_path, sub, fields):
    # a queue cap of 50 x t_sub overflowed int64; the threshold bracket overflowed
    # math.exp.  A fresh interpreter with warnings as errors
    cfg = {**default_config(f"{sub}_sweep").to_dict(), **fields}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-I", "-W", "error", "-c", _RUN_CLI, str(src),
                           sub, "--config", str(path), "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    header, *rows = [line.split(",") for line in out.read_text().splitlines()
                     if not line.startswith("#")]
    assert rows and all(len(row) == len(header) for row in rows)
    for row in rows:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:  # a flag or a status
                continue
            assert math.isfinite(value), (header, row)


@pytest.mark.parametrize("cfg", [
    {"kind": "thm1_sweep", "snr_db": [0.0], "payload_bits": [300, 1000], "trials": 2.5, "seed": 1},
    {"kind": "fading_sweep", "snr_db": [0.0], "payload_bits": [1000], "s_count": 2.5},
    {"kind": "waterfill_sweep", "snr_db": [0.0], "s_counts": [2.5]},
], ids=["thm1_trials", "fading_s_count", "waterfill_s_counts"])
def test_cli_rejects_non_integer_counts(tmp_path, cfg):
    # neither a crash in the sweep nor a silent truncation to 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    assert main([cfg["kind"].split("_")[0], "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_config_rejects_validate_trials():
    # each criterion fixes its own trial budget; a budget here would be ignored
    assert default_config("validate").override(trials=0).trials == 0
    with pytest.raises(ConfigError, match="validate takes no trials"):
        default_config("validate").override(trials=5)


def test_every_sweep_kind_has_a_subcommand_and_a_runner():
    from cwf import sweeps
    from cwf.cli import SUBCOMMAND_KINDS

    assert list(SUBCOMMAND_KINDS) == ["thm1", "queue", "fading", "waterfill", "validate"]
    assert list(SUBCOMMAND_KINDS.values()) == list(KINDS)
    for kind in KINDS:
        assert default_config(kind).kind == kind
        if kind != "validate":
            assert callable(getattr(sweeps, f"run_{kind}"))
    with pytest.raises(ConfigError, match="unknown kind"):
        default_config("nope")


def test_config_rejects_bool_and_float_integer_fields():
    for fields in ({"trials": True}, {"seed": 1.0}, {"s_counts": [2.0]}, {"s_counts": [True]}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"kind": "waterfill_sweep", "snr_db": [0.0],
                                        "s_counts": [1], "seed": 3, **fields})


@pytest.mark.parametrize("sub", ["thm1", "queue", "fading", "waterfill"])
def test_cli_rejects_single_trial(tmp_path, sub):
    # one trial has no standard error, so no 95% column can be written
    out = tmp_path / "x.csv"
    assert main([sub, "--trials", "1", "--seed", "1", "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_cli_requires_seed_for_stochastic_run(tmp_path):
    assert main(["thm1", "--trials", "10", "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


def test_cli_seed_flag_overrides_and_reproduces(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "thm1_sweep", "snr_db": [0.0], "payload_bits": [100.0, 300.0],
        "trials": 80, "seed": 1}))
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert main(["thm1", "--config", str(cfg), "--out", str(a)]) == EXIT_OK
    assert main(["thm1", "--config", str(cfg), "--out", str(b)]) == EXIT_OK
    assert main(["thm1", "--config", str(cfg), "--seed", "2", "--out", str(c)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_run_all_sweeps_forwards_flags_and_first_failure(tmp_path, monkeypatch):
    from cwf import cli

    calls = []

    def fake_main(argv):
        calls.append(argv)
        return {"queue": 2, "waterfill": 3}.get(argv[0], EXIT_OK)

    monkeypatch.setattr(cli, "main", fake_main)
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_all_sweeps.py"
    run_all = runpy.run_path(str(script))["main"]
    assert run_all(["--trials", "5", "--seed", "9", "--outdir", str(tmp_path)]) == 2
    assert [argv[0] for argv in calls] == ["thm1", "queue", "fading", "waterfill"]
    assert calls[0] == ["thm1", "--trials", "5", "--seed", "9",
                        "--out", str(tmp_path / "thm1_sweep.csv")]


def test_cli_validate_criteria_subset(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["validate", "--criteria", "3,2", "--out", str(out)]) == EXIT_OK
    rows = [line.split(",")[0] for line in out.read_text().splitlines()[4:]]
    assert rows == ["2", "3"]  # run in index order, once: no determinism rerun
    assert "validate: 2/2 criteria passed" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "11", "2,,3", "2, 3", "02", "2-3", "x", "", "10",
                                   "10,10"])
def test_cli_validate_rejects_bad_criteria(tmp_path, capsys, value):
    out = tmp_path / "r.csv"
    assert main(["validate", "--criteria", value, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: --criteria")
    assert not out.exists()


def test_cli_criteria_flag_is_validate_only():
    with pytest.raises(SystemExit) as exc:
        main(["thm1", "--criteria", "2"])
    assert exc.value.code == 2  # argparse's usage error


def test_validate_subset_failure_reporting(tmp_path, monkeypatch):
    # order statistics forced far off: the harness must report and exit non-zero
    from cwf import validate
    from cwf.simulate import Estimate

    monkeypatch.setattr(validate, "sorted_exponential_means", lambda s, plan: Estimate(
        mean=np.full(s, 100.0), se=np.full(s, 0.01), trials=plan.trials))
    results, ok, text = validate.run_validate(DEFAULT_VALIDATE_SEED, tmp_path / "r.csv",
                                              criteria=[9])
    assert not ok
    assert results[0].verdict == "fail"
    assert (tmp_path / "r.csv").read_text().count("fail") == 1


def test_validate_runtime_cap_fails_run_not_row(monkeypatch, capsys):
    # the wall clock never enters the report that criterion 10 compares
    from cwf import validate

    monkeypatch.setattr(validate, "RUNTIME_CAPS", {2: 0.0})
    results, ok, text = validate.run_validate(DEFAULT_VALIDATE_SEED, None, criteria=[2])
    assert not ok
    assert results[0].verdict == "pass" and text.endswith(",pass\n")
    lines = capsys.readouterr().out.splitlines()
    assert any("criterion  2 over its runtime cap" in line for line in lines)


def test_validate_report_file_is_the_returned_text(tmp_path):
    # the report goes through the sweeps' CSV writer, which also makes its folder
    from cwf.validate import run_validate, serialize_report

    out = tmp_path / "reports" / "r.csv"
    results, ok, text = run_validate(DEFAULT_VALIDATE_SEED, out, criteria=[2, 3])
    assert ok
    assert out.read_bytes() == text.encode() == serialize_report(results, DEFAULT_VALIDATE_SEED).encode()
    assert text.splitlines()[:4] == [
        f"# cwf_version={cwf.__version__}", "# kind=validate", f"# seed={DEFAULT_VALIDATE_SEED}",
        "criterion,name,expected,observed,tolerance,verdict"]


@pytest.mark.parametrize("criteria", [[], [0], [11], [10], [10, 10], [2, 11]])
def test_validate_rejects_a_selection_outside_its_criteria(tmp_path, capsys, criteria):
    # these ran no check, or only the rerun of none, and reported "0/0 criteria passed"
    from cwf.validate import run_validate

    out = tmp_path / "r.csv"
    with pytest.raises(ConfigError, match=r"criteria are indices in 1\.\.10, at least one below 10"):
        run_validate(DEFAULT_VALIDATE_SEED, out, criteria=criteria)
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_validate_seed_change_moves_observations_not_verdicts(tmp_path):
    from cwf.validate import run_validate

    r1, ok1, _ = run_validate(1, None, criteria=[9])
    r2, ok2, _ = run_validate(2, None, criteria=[9])
    assert ok1 and ok2
    assert r1[0].observed != r2[0].observed


def test_validate_threshold_criteria_report_is_pinned():
    # golden bytes of c7 and c8 at the default seed: the threshold pair's
    # Monte Carlo columns and c8's closed-form-vs-quadrature gaps stay bit for bit
    from cwf.validate import run_validate

    results, ok, text = run_validate(DEFAULT_VALIDATE_SEED, None, criteria=[7, 8])
    assert ok and [r.index for r in results] == [7, 8]
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "497cb83647ad36c8"


def test_validate_quadrature_oracle_fails_its_row_when_the_oracle_raises(monkeypatch):
    from cwf import validate
    from cwf.quadrature import QuadratureError

    def raising(*args, **kwargs):
        raise QuadratureError("forced disagreement")

    monkeypatch.setattr(validate, "checked_exp_integral", raising)
    results, ok, text = validate.run_validate(DEFAULT_VALIDATE_SEED, None, criteria=[8])
    assert not ok and not results[0].passed
    assert "oracle_error=QuadratureError at S=4 p=10 th=" in results[0].observed
    assert len(text.splitlines()[-1].split(",")) == 6  # the message adds no CSV cell


def test_validate_quadrature_oracle_fails_its_row_on_an_oversized_error_estimate(monkeypatch):
    # QUADPACK's own error estimate, not only the Simpson cross-check, can fail the row
    import scipy.integrate

    from cwf import validate
    from cwf.quadrature import SIMPSON_TOL

    exact = scipy.integrate.quad
    monkeypatch.setattr(scipy.integrate, "quad",
                        lambda *args, **kwargs: (exact(*args, **kwargs)[0], 2.0 * SIMPSON_TOL))
    results, ok, _ = validate.run_validate(DEFAULT_VALIDATE_SEED, None, criteria=[8])
    assert not ok and not results[0].passed
    assert "oracle_error=QuadratureError at S=4 p=10 th=" in results[0].observed


def test_validate_quadrature_oracle_fails_a_wrong_closed_form(monkeypatch):
    # a bound off by 1e-3 for gamma_th > 0 only: the exp1 check at gamma_th = 0
    # cannot see it, the quadrature at the searches' thresholds must
    from cwf import validate
    from cwf.quadrature import AGREE_TOL

    exact = validate.capacity_lower_bound
    monkeypatch.setattr(validate, "capacity_lower_bound",
                        lambda gamma_th, sc: exact(gamma_th, sc) * (1.001 if gamma_th > 0 else 1.0))
    results, ok, _ = validate.run_validate(DEFAULT_VALIDATE_SEED, None, criteria=[8])
    assert not ok and not results[0].passed
    closed_err, quadrature_diff = (float(cell.split("=")[1])
                                   for cell in results[0].observed.split("; "))
    assert closed_err <= AGREE_TOL < quadrature_diff


def _no_cancellation(rx):
    # every criterion patched with it sums its received powers to 2: a finished
    # user keeps interfering with those still active
    return rx / (1.0 + 2.0 - rx)


def _scaled_capacity(snr, dims=1):
    from cwf.channel import capacity

    return 1.01 * capacity(snr, dims)


def _interference_blind_terms(gamma_th, sc):
    yield 1.0, float(np.exp(-gamma_th)) / sc.power  # only the no-interferer term


def _threshold_2_nats_low(payload_bits):
    # errs at a rate of 0.362 at c6's budget and seed, against the union bound
    # 1/kappa = 0.180; one nat low gives 0.156, which c6 cannot see
    return message_threshold(payload_bits) - 2.0


@pytest.mark.parametrize("index,target,mutant", [
    (1, "cwf.simulate.active_sinrs", _no_cancellation),
    (5, "cwf.simulate.active_sinrs", _no_cancellation),
    # validate keeps its own binding of capacity: only phase_lengths' rates move
    (2, "cwf.lengths.capacity", _scaled_capacity),
    (3, "cwf.lengths.active_sinrs", _no_cancellation),
    (7, "cwf.waterfill.lower_bound_terms", _interference_blind_terms),
    # c6 draws 100 000 trials: it runs with the acceptance gate
    pytest.param(6, "cwf.simulate.message_threshold", _threshold_2_nats_low,
                 marks=pytest.mark.acceptance),
], ids=["c1-walk-without-cancellation", "c5-walk-without-cancellation",
        "c2-phase-rates-scaled", "c3-lengths-without-cancellation",
        "c7-bound-blind-to-interference", "c6-decoder-threshold-2-nats-low"])
def test_validate_criterion_fails_on_a_mutant_of_what_it_checks(monkeypatch, index, target,
                                                               mutant):
    # each criterion at its own budget and seed must see one broken mechanism
    from cwf.validate import run_validate

    monkeypatch.setattr(target, mutant)
    results, ok, _ = run_validate(DEFAULT_VALIDATE_SEED, None, criteria=[index])
    assert not ok and [(r.index, r.verdict) for r in results] == [(index, "fail")]


def test_validate_threshold_grid_report_is_pinned():
    # golden bytes of c7 alone at the default seed: the search's thresholds
    # and bounds reach the report with the same 9-digit cells
    from cwf.validate import run_validate

    results, ok, text = run_validate(DEFAULT_VALIDATE_SEED, None, criteria=[7])
    assert ok and [r.index for r in results] == [7]
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "9b1a7fa34864daf4"


# ---------------------------------------------------------------- import path

_IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import cwf, cwf.cli, cwf.sweeps, cwf.validate
print("scipy" in sys.modules, "scipy.special" in sys.modules)
print("scipy.integrate" in sys.modules, "numpy.polynomial" in sys.modules)
from cwf.channel import sinr_awgn
from cwf.lengths import fixed_length_blocklength
n = fixed_length_blocklength(1000.0, sinr_awgn(1.0, 2), 1e-3)
print("scipy.special" in sys.modules, n)
"""


def test_import_leaves_scipy_special_until_first_use():
    # scipy.special is about half of a cold start; only c8 needs it, so neither
    # importing cwf nor solving a fixed-length baseline may load it; nor may
    # importing cwf load c8's quadrature (scipy.integrate) or numpy.polynomial
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE, str(src)],
                          capture_output=True, text=True, check=True)
    after_import, lazy, after_call = (line.split() for line in done.stdout.splitlines())
    # scipy itself stays imported: the benchmark's result line reads its
    # version from sys.modules["scipy"]
    assert after_import == ["True", "False"]
    assert lazy == ["False", "False"]
    # the baseline takes Qinv from the standard library; 3923 is the value
    # test_lengths pins for this call
    assert after_call == ["False", "3923"]
