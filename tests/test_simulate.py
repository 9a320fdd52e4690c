import math
import os
import pickle
import time
import tracemalloc
import weakref
from functools import partial

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from cwf import simulate
from cwf.channel import active_sinrs, capacity, info_density_increment, sinr_awgn
from cwf.lengths import (
    AwgnScenario,
    QueueScenario,
    awgn_vlsf_lengths,
    fading_vlsf_coeffs,
    message_threshold,
    phase_lengths,
    queue_vlsf_lengths,
)
from cwf.simulate import (
    ErrorRateEstimate,
    TrialPlan,
    estimate,
    point_seed,
    simulate_awgn_multiuser,
    simulate_block_fading,
    simulate_cell,
    simulate_error_probability,
    simulate_queue,
    simulate_rayleigh_block_fading,
    sorted_exponential_means,
    streams,
    trial_stream,
)

SC2 = AwgnScenario((100.0, 300.0), 1.0)


# ------------------------------------------------------------- reproducibility

def test_awgn_simulation_bit_identical_reruns():
    a = simulate_awgn_multiuser(SC2, TrialPlan(250, 314))
    b = simulate_awgn_multiuser(SC2, TrialPlan(250, 314))
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.se, b.se)
    assert np.array_equal(a.cap_hits, b.cap_hits)


def test_awgn_simulation_seed_changes_result():
    a = simulate_awgn_multiuser(SC2, TrialPlan(250, 314))
    b = simulate_awgn_multiuser(SC2, TrialPlan(250, 315))
    assert not np.array_equal(a.mean, b.mean)


def test_trial_streams_are_schedule_independent():
    # the stream of trial i depends only on (seed, i), not on other trials
    first = trial_stream(99, 3).standard_normal(8)
    again = trial_stream(99, 3).standard_normal(8)
    other = trial_stream(99, 4).standard_normal(8)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


@pytest.mark.parametrize("trials,seed", [(50, -1), (50, 2**64), (2.5, 1), (50, 1.0), (50, True)])
def test_trial_plan_rejects_non_integer_or_out_of_range_seed(trials, seed):
    # a Philox key is 64 bits: -1 used to replay seed 2**64 - 1 bit for bit
    with pytest.raises(ValueError, match="integer|2\\*\\*64"):
        TrialPlan(trials, seed)


def test_point_seed_gives_valid_plan_seeds_at_the_key_bounds():
    assert TrialPlan(2, 2**64 - 1).seed == 2**64 - 1
    assert trial_stream(2**64 - 1, 0).standard_normal(2).shape == (2,)
    for parent in (0, 2**64 - 1, 2**80):
        assert 0 <= point_seed(parent, 3) < 2**64


def test_streams_serve_consecutive_blocks():
    blocks = list(streams(TrialPlan(5, 99), 2))
    assert [n for _, n in blocks] == [2, 2, 1]
    for k, (rng, _) in enumerate(blocks):
        assert np.array_equal(rng.standard_normal(4), trial_stream(99, k).standard_normal(4))


def _philox(seed, index):
    """The reference stream: a fresh Philox keyed [seed, index]."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _draw(rng, kind, size):
    if kind == "exponential":
        return rng.standard_exponential(size)
    if kind == "out":
        out = np.full(size, np.nan)
        assert rng.standard_normal(out=out) is out
        return out
    return rng.standard_normal(size)


@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**20)),
                min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 3), st.sampled_from(["normal", "out", "exponential"]),
                          st.integers(0, 9)), max_size=40))
@settings(max_examples=80, deadline=None)
def test_interleaved_streams_draw_like_independent_philox(keys, draws):
    # the streams share one Philox; each saves and restores its own state
    handles, refs = [trial_stream(*k) for k in keys], [_philox(*k) for k in keys]
    for which, kind, size in draws:
        h = which % len(keys)
        assert np.array_equal(_draw(handles[h], kind, size), _draw(refs[h], kind, size))
    for rng, ref in zip(handles, refs):  # every stream goes on where it stopped
        assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))


def test_building_a_stream_builds_no_philox(monkeypatch):
    trial_stream(1, 0).standard_normal(1)  # the process's one Philox exists from here

    def no_philox(*args, **kwargs):
        raise AssertionError("a stream built its own Philox")

    monkeypatch.setattr(np.random, "Philox", no_philox)
    for k in range(3):
        assert trial_stream(1, k).standard_normal(2).shape == (2,)


def test_shared_philox_does_not_keep_a_dropped_stream_alive():
    # the generator holds its owner weakly, so a finished stream is freed at
    # once and the next stream's first draw saves no state for it
    first = trial_stream(3, 0)
    first.standard_normal(3)
    gone = weakref.ref(first)
    del first
    assert gone() is None
    ref = np.random.Generator(np.random.Philox(key=[3, 1]))
    assert np.array_equal(trial_stream(3, 1).standard_normal(4), ref.standard_normal(4))


def test_streams_first_drawn_in_a_forked_child_match_philox(shared):
    # the caller builds every stream and keys the shared Philox on its own
    # draws; the children key their copies on their first draws
    shared(3)
    trial_stream(5, 99).standard_normal(3)

    def trial(rng):
        return np.concatenate([rng.standard_normal(4), rng.standard_exponential(2),
                               rng.standard_normal(3), [os.getpid()]])

    rows = simulate._fan_out(7, simulate._trial_task(TrialPlan(7, 5), trial))
    assert rows.shape == (7, 10)
    assert len(set(rows[:, -1])) == 3  # two children and the caller
    for k, got in enumerate(rows[:, :-1]):
        ref = _philox(5, k)
        want = np.concatenate([ref.standard_normal(4), ref.standard_exponential(2),
                               ref.standard_normal(3)])
        assert np.array_equal(got, want)


# ------------------------------------------------------------------ estimator

@given(
    st.integers(min_value=2, max_value=300),
    st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_estimate_merges_blocks_like_two_pass(n, k, seed, fractions):
    rng = np.random.default_rng(seed)
    x = rng.standard_exponential(n if k is None else (n, k)) * 10.0 ** rng.uniform(-3, 3)
    mean, se = x.mean(axis=0), x.std(axis=0, ddof=1) / math.sqrt(n)
    single = estimate([x])
    assert np.array_equal(single.mean, mean) and np.array_equal(single.se, se)
    assert single.trials == n
    cuts = sorted({1 + int(f * (n - 2)) for f in fractions})  # non-empty blocks
    merged = estimate(np.split(x, cuts))
    assert merged.trials == n
    np.testing.assert_allclose(merged.mean, mean, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(merged.se, se, rtol=1e-12, atol=0.0)
    with pytest.raises(ValueError):
        estimate([x[:1]])
    with pytest.raises(ValueError):
        estimate([])


SC_PIN = AwgnScenario((100.0, 300.0), 1.0)


def _capped(cap, predicted, simulator, *args):
    """`simulator(*args)` with its cap rule, CAP_FACTOR x `predicted`, at `cap` symbols."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "CAP_FACTOR", (cap + 0.5) / predicted)
        return simulator(*args)


def _queue_prediction(qs):
    """The length `simulate_queue` multiplies by CAP_FACTOR for its cap."""
    return queue_vlsf_lengths(qs).lengths.max()


QS_STARVED = QueueScenario(SC_PIN, 40.0)


PINNED = pytest.mark.parametrize("run,stop_sums,cap_hits", [
    (lambda: simulate_awgn_multiuser(SC_PIN, TrialPlan(200, 1)), [73611, 152968], [0, 0]),
    (lambda: simulate_queue(QueueScenario(SC_PIN, 300.0), TrialPlan(200, 3)),
     [73260, 210190], [0, 0]),
    (lambda: _capped(300, _queue_prediction(QS_STARVED), simulate_queue, QS_STARVED,
                     TrialPlan(40, 4)), [11974, 12000], [36, 40]),
    (lambda: simulate_block_fading([1.5, 0.5], 300.0, 1.0, TrialPlan(200, 5)),
     [61050, 139152], [0, 0]),
    (lambda: simulate_rayleigh_block_fading(2, 200.0, 1.0, TrialPlan(100, 6)),
     [34812, 336701], [0, 0]),
    # three equal powers at -5 dB, where p/(1+2p) and the engine's p/(1+(3p-p)) differ in
    # the last bit: this pins the engine's form
    (lambda: simulate_awgn_multiuser(AwgnScenario((60.0, 150.0, 300.0), 10**-0.5),
                                     TrialPlan(200, 7)), [101735, 219502, 374186], [0, 0, 0]),
    # unequal payloads at unequal powers, given as lists: the sums are those of the
    # engine run directly on these inputs with the cap CAP_FACTOR x the slowest
    # phase_lengths stop
    (lambda: simulate_cell([message_threshold(300.0), message_threshold(1000.0)], [10.0, 4.9],
                           1, TrialPlan(200, 8)), [86919, 226666], [0, 0]),
], ids=["awgn", "queue", "queue_capped", "block_fading", "rayleigh", "awgn_three_users",
        "cell_unequal_powers"])


@PINNED
def test_walk_engine_pinned_stop_sums(run, stop_sums, cap_hits):
    # integer sums of stopping times pin the draws and crossings exactly; a
    # change of RNG consumption must update them deliberately
    out = run()
    assert [int(round(m * out.trials)) for m in out.mean] == stop_sums
    assert out.cap_hits.tolist() == cap_hits


@PINNED
def test_walk_outcomes_do_not_depend_on_look_ahead(monkeypatch, run, stop_sums, cap_hits):
    # look-ahead keeps unused normals for the next chunk, so the chunk cap
    # changes speed only; 56 normals are 7 to 14 symbols at these walks' widths
    outs = []
    for max_chunk in (56, 1000):
        monkeypatch.setattr(simulate, "_MAX_CHUNK", max_chunk)
        outs.append(run())
    a, b = outs
    assert np.array_equal(a.mean, b.mean) and np.array_equal(a.se, b.se)
    assert np.array_equal(a.cap_hits, b.cap_hits)
    assert [int(round(m * a.trials)) for m in a.mean] == stop_sums


def test_error_rate_does_not_depend_on_look_ahead(monkeypatch):
    outs = []
    for max_chunk in (7, 1000):
        monkeypatch.setattr(simulate, "_MAX_CHUNK", max_chunk)
        outs.append(simulate_error_probability(8.0, 1.0, TrialPlan(300, 51)))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("cap_factor,errors,cap_hits", [
    (simulate.CAP_FACTOR, 12, 0),
    (1.0, 10, 158),  # a cap of 20 symbols, about the truth's mean length
], ids=["uncapped", "capped"])
def test_error_rate_pinned_counts(monkeypatch, cap_factor, errors, cap_hits):
    # exact counts pin the truth's and the competitors' draws and crossings, in
    # one-row competitor blocks and in one block
    monkeypatch.setattr(simulate, "CAP_FACTOR", cap_factor)
    for max_chunk in (7, simulate._MAX_CHUNK):
        monkeypatch.setattr(simulate, "_MAX_CHUNK", max_chunk)
        est = simulate_error_probability(8.0, 1.0, TrialPlan(300, 51))
        assert (est.errors, est.cap_hits) == (errors, cap_hits)


def test_error_rate_memory_is_bounded_by_competitor_blocks(monkeypatch):
    # 4095 competitors of about 350 symbols each: drawn at once, they and their
    # temporaries peaked at 63.5 MB
    monkeypatch.setattr(simulate, "WORKERS", 1)
    tracemalloc.start()
    try:
        simulate_error_probability(12.0, 0.05, TrialPlan(2, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def _reference_walk(rng, thresholds, rx, dims, cap, t_sub=None, congested=None):
    """The walk engine as it stood before its link table, Python-scalar state
    and reusable draw buffer: the reference whose rows `_walk_trial` must
    return bit for bit.  Frozen; do not edit."""
    s_total = len(thresholds)
    if congested is None:
        congested = np.zeros(s_total, dtype=bool)
    light = ~congested
    acc = np.zeros(s_total)
    active = np.ones(s_total, dtype=bool)
    stop = np.full(s_total, cap, dtype=np.int64)
    done = np.zeros(s_total, dtype=bool)
    spare = np.empty(0)
    t = 0
    interval = 1
    boundary = math.inf if t_sub is None else int(round(t_sub))
    users = None
    while t < cap and not done.all():
        while boundary <= t:
            interval += 1
            boundary = int(round(interval * t_sub))
        if users is None:
            users = np.flatnonzero(active).tolist()
            snr = active_sinrs(rx[users])
            rates, gains, snr = capacity(snr, dims).tolist(), np.sqrt(snr).tolist(), snr.tolist()
            width = len(users) * 2 * dims
        need = min((thresholds[u] - acc[u]) / rate for u, rate in zip(users, rates))
        chunk = int(min(max(16.0, 1.25 * need + 8.0), float(boundary - t),
                        float(cap - t), simulate._MAX_CHUNK))
        if spare.size < chunk * width:
            spare = np.concatenate([spare, rng.standard_normal(chunk * width - spare.size)])
        z = spare[:chunk * width].reshape(chunk, len(users), 2, dims)
        used = chunk
        cums = []
        for i, u in enumerate(users):
            x = gains[i] * z[:used, i, 0]
            inc = info_density_increment(x, x + z[:used, i, 1], snr[i], out=x)
            inc[0, 0] += acc[u]
            cums.append(np.cumsum(inc, out=inc.reshape(-1))[dims - 1::dims])
            first = int(np.argmax(cums[-1] >= thresholds[u]))
            if cums[-1][first] >= thresholds[u]:
                used = first + 1
        spare = spare[used * width:]
        t += used
        for i, u in enumerate(users):
            acc[u] = cums[i][used - 1]
            if acc[u] >= thresholds[u]:
                if not done[u]:
                    stop[u] = t
                    done[u] = True
                if congested[u]:
                    acc[u] = 0.0
                else:
                    active[u] = False
                    users = None
        if t == boundary:
            acc[light] = 0.0
            active[light] = True
            users = None
    return stop, ~done


@st.composite
def _walk_cases(draw):
    """(seed, dims, thresholds, rx, cap, t_sub, congested) of one walk call."""
    s_count = draw(st.integers(1, 5))
    floats = partial(st.floats, allow_nan=False, allow_infinity=False)
    users = partial(st.lists, min_size=s_count, max_size=s_count)
    return (draw(st.integers(0, 2**64 - 1)), draw(st.sampled_from([1, 2])),
            np.array(draw(users(floats(0.5, 60.0)))), np.array(draw(users(floats(0.05, 20.0)))),
            draw(st.integers(1, 3000)), draw(st.one_of(st.none(), floats(4.0, 400.0))),
            draw(st.one_of(st.none(), users(st.booleans()).map(np.array))))


@given(_walk_cases())
# every user congested, with boundaries every 9 symbols: each crossing restarts
# its own user, and no boundary restarts anyone
@example((7, 1, np.array([20.0, 45.0]), np.array([1.0, 1.0]), 300, 9.0, np.array([True, True])))
@settings(max_examples=60, deadline=None)
def test_walk_engine_matches_its_frozen_reference(case):
    # same draws, same floats, same crossings: every row bit for bit, with and
    # without interval boundaries and congested users, in chunks of 56 normals
    # (2 to 28 symbols) and at the default look-ahead
    seed, dims, thresholds, rx, cap, t_sub, congested = case
    for max_chunk in (56, simulate._MAX_CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_MAX_CHUNK", max_chunk)
            links = {}  # one table for every trial, as a call with a fixed rx shares it
            for k in range(3):
                got = simulate._walk_trial(trial_stream(seed, k), thresholds, rx, dims, cap,
                                           t_sub, congested, links)
                want = _reference_walk(trial_stream(seed, k), thresholds, rx, dims, cap,
                                       t_sub, congested)
                got, want = np.array([got]), np.array([want])  # as `_fan_out` stacks rows
                assert got.dtype == want.dtype and np.array_equal(got, want)


def test_walk_memory_is_bounded_by_the_look_ahead(monkeypatch):
    # users at -13 dB with payloads of 3000, 6000, ... bits times dims stop after
    # about 88 000 to 366 000 symbols, so chunks reach the look-ahead cap; the one
    # draw buffer never holds more than _MAX_CHUNK normals, whatever the walk's
    # width (2 * dims * active users), and with the chunk's increments the peak
    # stays near 3 chunks of normals (8, 16 and 28 when the cap counted symbols)
    monkeypatch.setattr(simulate, "WORKERS", 1)
    # the process's one Philox exists from here: building it imports numpy.random,
    # which tracemalloc counts as about 4 chunks of normals
    trial_stream(1, 0).standard_normal(1)
    for dims, s_count in [(1, 2), (2, 2), (2, 4)]:
        thresholds = [message_threshold(3000.0 * dims * (u + 1)) for u in range(s_count)]
        tracemalloc.start()
        try:
            out = simulate_cell(thresholds, [0.05] * s_count, dims, TrialPlan(2, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.mean.min() > 2 * simulate._MAX_CHUNK  # the walk is long enough to show it
        assert peak < 4 * simulate._MAX_CHUNK * 8, (dims, s_count, peak)


def test_a_link_table_never_outlives_its_call():
    # two calls in one session with the same user count and different powers:
    # each gives what it gives alone, and what the reference engine gives
    thresholds = [message_threshold(100.0), message_threshold(300.0)]
    calls = [partial(simulate_cell, thresholds, rx, 1, TrialPlan(40, 9))
             for rx in ([1.0, 1.0], [4.0, 0.5])]
    together = simulate.run_session(calls)
    assert not np.array_equal(together[0].mean, together[1].mean)
    for call, out in zip(calls, together):
        alone = call()
        assert np.array_equal(out.mean, alone.mean) and np.array_equal(out.se, alone.se)
        rx = np.array(call.args[1])
        cap = int(simulate.CAP_FACTOR * phase_lengths(np.array(thresholds), rx, 1)[0].max())
        stops = sum(_reference_walk(trial_stream(9, k), thresholds, rx, 1, cap)[0]
                    for k in range(40))
        assert [int(round(m * 40)) for m in out.mean] == stops.tolist()


@pytest.fixture
def shared(monkeypatch):
    """Set the worker count."""
    return lambda workers: monkeypatch.setattr(simulate, "WORKERS", workers)


@PINNED
def test_walk_outcomes_do_not_depend_on_worker_count(shared, run, stop_sums, cap_hits):
    # per-trial rows are merged in trial order and averaged as one block
    outs = []
    for workers in (1, 2, 3):
        shared(workers)
        outs.append(run())
    for out in outs[1:]:
        assert np.array_equal(out.mean, outs[0].mean) and np.array_equal(out.se, outs[0].se)
        assert np.array_equal(out.cap_hits, outs[0].cap_hits)
    assert [int(round(m * outs[0].trials)) for m in outs[0].mean] == stop_sums
    assert outs[0].cap_hits.tolist() == cap_hits


def test_error_rate_does_not_depend_on_worker_count(shared):
    outs = []
    for workers in (1, 2, 3):
        shared(workers)
        outs.append(simulate_error_probability(8.0, 1.0, TrialPlan(300, 51)))
    assert outs[0] == outs[1] == outs[2]
    assert outs[0].errors > 0


def test_every_trial_stream_is_built_once_in_the_caller(monkeypatch, shared):
    built = []

    def spy(seed, index):
        built.append((os.getpid(), index))
        return trial_stream(seed, index)

    shared(3)
    monkeypatch.setattr(simulate, "trial_stream", spy)
    plan = TrialPlan(50, 8)
    simulate_awgn_multiuser(SC2, plan)
    simulate_error_probability(4.0, 1.0, plan)
    assert built == [(os.getpid(), k) for k in range(plan.trials)] * 2


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def indexed_fan_out(monkeypatch):
    """`_fan_out` of indexed tasks over three workers."""
    monkeypatch.setattr(simulate, "WORKERS", 3)
    return simulate._fan_out


def _index_and_pid(index):
    return index, os.getpid()


def _ranges(rows):
    """The trial indices of `_index_and_pid` rows, grouped by the process that ran them."""
    return [[int(i) for i, p in rows if p == pid] for pid in dict.fromkeys(rows[:, 1])]


def test_fan_out_splits_contiguous_ranges_in_trial_order(indexed_fan_out):
    rows = indexed_fan_out(7, _index_and_pid)
    assert rows[:, 0].tolist() == list(range(7))
    assert _ranges(rows) == [[0, 1], [2, 3], [4, 5, 6]]
    assert rows[-1, 1] == os.getpid()  # the caller runs the last range
    rows = indexed_fan_out(2, _index_and_pid)
    assert _ranges(rows) == [[0], [1]]  # never more ranges than trials
    _no_child_left()


@pytest.mark.parametrize("call", [
    lambda: simulate_awgn_multiuser(SC2, TrialPlan(2, 8)),
    lambda: simulate_error_probability(4.0, 1.0, TrialPlan(2, 8)),
], ids=["awgn", "error_rate"])
def test_a_bare_call_of_any_size_is_a_session_of_one_call(monkeypatch, shared, call):
    # outside a sweep, even a 2-trial call forks WORKERS - 1 workers and reaps them
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    outs = []
    for workers in (1, 2, 3):
        shared(workers)
        forks.clear()
        outs.append(pickle.dumps(call()))
        assert len(forks) == workers - 1
        _no_child_left()
    assert outs[0] == outs[1] == outs[2]


class WorkerFailure(Exception):
    pass


def test_fan_out_reraises_a_worker_exception_with_its_type(indexed_fan_out):
    def trial(index):
        if index == 2:  # the first trial of the second range, run by the second child
            raise WorkerFailure(f"trial {index}")
        return index

    with pytest.raises(WorkerFailure) as failure:
        indexed_fan_out(6, trial)
    assert str(failure.value) == "trial 2"
    _no_child_left()


def test_fan_out_kills_every_child_when_the_caller_fails(indexed_fan_out):
    def trial(index):
        if index == 4:  # the first trial of the caller's own range
            raise WorkerFailure("caller")
        time.sleep(60)  # the children would outlive the call unless killed

    start = time.monotonic()
    with pytest.raises(WorkerFailure, match="caller"):
        indexed_fan_out(6, trial)
    assert time.monotonic() - start < 30
    _no_child_left()


def test_fan_out_reports_a_worker_that_died(indexed_fan_out):
    def trial(index):
        if index == 0:
            os._exit(3)  # dies without sending a result
        return index

    with pytest.raises(ChildProcessError, match="died"):
        indexed_fan_out(6, trial)
    _no_child_left()


@pytest.fixture
def indexed_session(monkeypatch):
    """One session over three workers that runs `_fan_out` once per point,
    each task called as `trial(point, index)`; returns the runner and the
    caller's fork log."""
    monkeypatch.setattr(simulate, "WORKERS", 3)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

    def run(trial, trials=(6, 6, 2, 6)):
        return simulate.run_session([partial(simulate._fan_out, n, partial(trial, point))
                                     for point, n in enumerate(trials)])

    return run, forks


def test_a_session_forks_once_for_all_its_calls(indexed_session):
    run, forks = indexed_session
    calls = run(lambda point, index: (point, index, os.getpid()))
    assert len(forks) == 2  # WORKERS - 1, however many calls
    workers = None
    for point, rows in enumerate(calls):
        assert rows[:, 0].tolist() == [point] * len(rows)
        assert rows[:, 1].tolist() == list(range(len(rows)))
        assert rows[-1, 2] == os.getpid()  # the caller runs the last range
        if len(rows) == 6:
            assert _ranges(rows[:, 1:]) == [[0, 1], [2, 3], [4, 5]]
            workers = workers or list(dict.fromkeys(rows[:4, 2]))
            assert list(dict.fromkeys(rows[:4, 2])) == workers  # the same two workers
        else:
            assert _ranges(rows[:, 1:]) == [[0], [1]]  # the second worker sits this one out
    _no_child_left()


def test_a_session_kills_every_worker_when_the_caller_fails(indexed_session):
    run, _ = indexed_session

    def trial(point, index):
        if (point, index) == (1, 4):  # the caller's own range of the second call
            raise WorkerFailure("caller")
        if point == 3:
            time.sleep(60)  # the workers, running ahead, would outlive the session
        return index

    start = time.monotonic()
    with pytest.raises(WorkerFailure, match="caller"):
        run(trial)
    assert time.monotonic() - start < 30
    _no_child_left()


def test_simulators_leave_no_child_process(shared):
    shared(3)
    simulate_queue(QueueScenario(SC2, 300.0), TrialPlan(20, 2))
    simulate_error_probability(4.0, 1.0, TrialPlan(20, 2))
    _no_child_left()


def test_queue_reduces_to_plain_walk_without_congestion():
    # huge interval: identical draws, identical stopping times, bit for bit
    plan = TrialPlan(150, 2024)
    plain = simulate_awgn_multiuser(SC2, plan)
    queued = simulate_queue(QueueScenario(SC2, 1e8), plan)
    assert np.array_equal(plain.mean, queued.mean)
    assert np.array_equal(plain.se, queued.se)


# ------------------------------------------------------------ Wald consistency

def test_wald_identity_and_single_user_mean():
    # independent fixed-horizon oracle walk, built directly on the increment
    payload, snr, trials, horizon = 100.0, 1.0, 4000, 500
    gamma = message_threshold(payload)
    cap = capacity(snr)
    rng = np.random.default_rng(8)
    x = math.sqrt(snr) * rng.standard_normal((trials, horizon))
    y = x + rng.standard_normal((trials, horizon))
    cum = np.cumsum(info_density_increment(x, y, snr), axis=1)
    crossed = cum >= gamma
    assert crossed[:, -1].all(), "horizon too short for the oracle walk"
    idx = np.argmax(crossed, axis=1)
    stop_info = cum[np.arange(trials), idx]
    tau = idx + 1.0

    # Wald: E[accumulated at stop] == capacity * E[stop]
    diff = stop_info - cap * tau
    assert abs(diff.mean()) <= 4.0 * diff.std(ddof=1) / math.sqrt(trials)

    # the packaged simulator agrees with the oracle walk
    sc = AwgnScenario((payload,), snr)
    sim = simulate_awgn_multiuser(sc, TrialPlan(trials, 9))
    se = math.hypot(sim.se[0], tau.std(ddof=1) / math.sqrt(trials))
    assert abs(sim.mean[0] - tau.mean()) <= 5.0 * se
    # and with the analytic prediction at the 5% level
    assert sim.mean[0] == pytest.approx(awgn_vlsf_lengths(sc)[0], rel=0.05)


# ------------------------------------------------- interference cancellation

def test_cancellation_strictly_shortens_second_user():
    # user 2 beats the length it would need under full interference throughout
    with_ic = simulate_awgn_multiuser(SC2, TrialPlan(1500, 77))
    full = message_threshold(300.0) / capacity(sinr_awgn(1.0, 2))
    assert full - with_ic.mean[1] >= 3.0 * with_ic.se[1]


def test_equal_payloads_walk_matches_shared_length():
    # equal payloads are the symmetric case: both users near the cascade's shared
    # length, a little below it because whoever crosses first speeds the other up
    sc = AwgnScenario((300.0, 300.0), 1.0)
    shared = message_threshold(300.0) / capacity(sinr_awgn(1.0, 2))
    out = simulate_awgn_multiuser(sc, TrialPlan(2000, 78))
    assert out.mean == pytest.approx([shared, shared], rel=0.05)
    assert out.cap_hits.sum() == 0


def test_stopping_times_ordered_by_payload():
    sc = AwgnScenario((50.0, 120.0, 260.0), 1.0)
    out = simulate_awgn_multiuser(sc, TrialPlan(400, 11))
    assert out.mean[0] <= out.mean[1] <= out.mean[2]
    assert out.cap_hits.sum() == 0
    assert np.all(out.mean >= 1.0)


def test_cap_hits_are_counted_not_hidden():
    out = _capped(50, awgn_vlsf_lengths(SC2)[-1], simulate_awgn_multiuser, SC2, TrialPlan(60, 5))
    assert out.cap_hits[1] == 60  # nobody finishes 300 bits in 50 symbols
    assert out.cap_flagged
    assert out.mean[1] == pytest.approx(50.0)


@pytest.mark.parametrize("thresholds,rx,dims,match", [
    ([math.nan, 700.0], [1.0, 1.0], 1, "thresholds must be positive and finite"),
    ([0.0, 700.0], [1.0, 1.0], 1, "thresholds must be positive and finite"),
    ([-1.0, 700.0], [1.0, 1.0], 1, "thresholds must be positive and finite"),
    ([200.0, 700.0], [1.0, math.nan], 1, "received powers must be positive and finite"),
    ([200.0, 700.0], [1.0, 0.0], 1, "received powers must be positive and finite"),
    ([200.0, 700.0], [-1.0, 1.0], 1, "received powers must be positive and finite"),
    ([200.0, 700.0], [1.0], 1, "one threshold per received power"),
    ([], [], 1, "one threshold per received power"),
    ([200.0, 700.0], [1.0, 1.0], 0, "dims must be an integer >= 1"),
    ([200.0, 700.0], [1.0, 1.0], 2.0, "dims must be an integer >= 1"),
], ids=["nan_threshold", "zero_threshold", "negative_threshold", "nan_power", "zero_power",
        "negative_power", "lengths_differ", "no_users", "zero_dims", "float_dims"])
def test_cell_rejects_bad_inputs_before_any_trial(monkeypatch, thresholds, rx, dims, match):
    # a NaN threshold died converting a NaN cap to an integer, naming nothing; the
    # closed forms and the walk entry point share one check
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(simulate, "_run_trials", no_trials)
    with pytest.raises(ValueError, match=match):
        simulate_cell(thresholds, rx, dims, TrialPlan(2, 1))
    with pytest.raises(ValueError, match=match):
        phase_lengths(thresholds, rx, dims)


# ---------------------------------------------------------------- block fading

def test_block_fading_matches_coeff_prediction():
    gains = np.array([1.5, 0.5])
    payload, power = 300.0, 1.0
    expected = fading_vlsf_coeffs(gains, power) * message_threshold(payload)
    out = simulate_block_fading(gains, payload, power, TrialPlan(1500, 21))
    assert out.mean == pytest.approx(expected, rel=0.05)


def test_block_fading_equal_gains_symmetric():
    out = simulate_block_fading([1.0, 1.0], 300.0, 1.0, TrialPlan(1500, 22))
    se = math.hypot(out.se[0], out.se[1])
    assert abs(out.mean[0] - out.mean[1]) <= 4.0 * se
    shared = fading_vlsf_coeffs([1.0, 1.0], 1.0)[0] * message_threshold(300.0)
    assert out.mean == pytest.approx([shared, shared], rel=0.05)


def test_block_fading_reports_unsorted_gains_in_input_order():
    # the weaker user comes first; its mean and cap follow from the cascade, not a sort
    gains, payload, power = [0.5, 1.5], 1000.0, 1.0
    expected = fading_vlsf_coeffs(gains, power) * message_threshold(payload)
    assert expected[0] > expected[1]
    out = simulate_block_fading(gains, payload, power, TrialPlan(500, 24))
    assert out.mean == pytest.approx(expected, rel=0.05)
    assert out.cap_hits.sum() == 0


def test_block_fading_single_user_complex_rate():
    out = simulate_block_fading([1.0], 200.0, 1.0, TrialPlan(1200, 23))
    want = message_threshold(200.0) / math.log(2.0)  # ln(1+p) per complex symbol
    assert out.mean[0] == pytest.approx(want, rel=0.05)


@pytest.mark.parametrize("gains,power", [
    ([1.0, 0.5], 0.0), ([1.0, 0.5], math.inf), ([1.0, 0.5], math.nan), ([math.nan, 0.5], 1.0),
], ids=["zero_power", "inf_power", "nan_power", "nan_gain"])
def test_block_fading_rejects_non_finite_or_zero_power_and_gains(gains, power):
    # these warned or died converting a NaN cap to an integer
    with pytest.raises(ValueError, match="positive and finite"):
        simulate_block_fading(gains, 100.0, power, TrialPlan(2, 1))


@pytest.mark.parametrize("s_count,power,match", [
    (2, 0.0, "positive and finite"), (2, math.inf, "positive and finite"),
    (2, math.nan, "positive and finite"), (2.5, 1.0, "an integer"),
], ids=["zero_power", "inf_power", "nan_power", "fractional_users"])
def test_rayleigh_block_fading_rejects_bad_power_or_count(s_count, power, match):
    with pytest.raises(ValueError, match=match):
        simulate_rayleigh_block_fading(s_count, 100.0, power, TrialPlan(2, 1))


def test_rayleigh_block_fading_ordering_and_reproducibility():
    a = simulate_rayleigh_block_fading(2, 200.0, 1.0, TrialPlan(300, 31))
    b = simulate_rayleigh_block_fading(2, 200.0, 1.0, TrialPlan(300, 31))
    assert np.array_equal(a.mean, b.mean)
    assert a.mean[0] < a.mean[1]  # best channel decodes first


# --------------------------------------------------------------------- queue

def test_queue_simulation_respects_analytic_bound():
    sc = AwgnScenario((300.0, 1000.0), 1.0)
    qs = QueueScenario(sc, 1700.0)
    bound = queue_vlsf_lengths(qs).lengths
    out = simulate_queue(qs, TrialPlan(1200, 41))
    assert np.all(out.mean <= bound * 1.05)
    assert out.mean[1] == pytest.approx(bound[1], rel=0.05)


def test_queue_divergence_flag_on_starved_cap():
    sc = AwgnScenario((300.0, 1000.0), 1.0)
    qs = QueueScenario(sc, 40.0)
    out = _capped(300, _queue_prediction(qs), simulate_queue, qs, TrialPlan(40, 43))
    assert out.cap_flagged
    assert out.cap_hits[1] == 40


# --------------------------------------------------------------- error rates

def test_error_rate_below_union_bound():
    est = simulate_error_probability(8.0, 1.0, TrialPlan(3000, 51))
    bound = 1.0 / (8.0 * math.log(2.0))
    assert est.upper95 <= bound
    assert est.cap_hits == 0
    assert est.errors > 0  # the event is not vanishingly rare at K=8


def test_error_rate_upper95_is_wilson_limit():
    z = 1.96
    est = ErrorRateEstimate(errors=10, trials=40, cap_hits=0)
    assert est.rate == 0.25 and est.se == math.sqrt(0.25 * 0.75 / 40)
    centre = (0.25 + z * z / 80) / (1 + z * z / 40)
    half = z / (1 + z * z / 40) * math.sqrt(0.25 * 0.75 / 40 + z * z / (4 * 40 * 40))
    assert est.upper95 == pytest.approx(centre + half, rel=1e-12)


def test_error_rate_bound_positive_without_errors():
    # a zero-error run still carries a 95% bound: Wilson's 1.96^2/(n + 1.96^2)
    est = ErrorRateEstimate(errors=0, trials=300, cap_hits=0)
    assert est.errors == 0 and est.rate == 0.0 and est.se == 0.0
    assert est.upper95 == pytest.approx(1.96**2 / (300 + 1.96**2), rel=1e-12)
    assert est.upper95 > 0.0


def test_error_rate_decreases_with_threshold():
    # a larger payload decodes at a higher threshold, whose union bound is lower
    low = simulate_error_probability(2.0, 1.0, TrialPlan(2500, 54))
    high = simulate_error_probability(12.0, 1.0, TrialPlan(2500, 54))
    assert high.rate < low.rate


@pytest.mark.parametrize("payload", [1.5, 12.5, 2.5])
def test_error_rate_rejects_payload_outside_2_to_12_bits(payload):
    # 2.5 bits ran round(2^2.5) - 1 = 5 competitors against a bound for 2^K codewords
    with pytest.raises(ValueError, match=r"\[2, 12\]"):
        simulate_error_probability(payload, 1.0, TrialPlan(10, 1))


@pytest.mark.parametrize("snr", [math.inf, math.nan])
def test_error_rate_rejects_non_finite_snr(snr):
    # an infinite snr died converting a NaN cap to an integer
    with pytest.raises(ValueError, match="snr must be positive and finite"):
        simulate_error_probability(8.0, snr, TrialPlan(10, 1))


# ----------------------------------------------------------- order statistics

def test_sorted_exponential_means_against_harmonic_sums():
    est = sorted_exponential_means(3, TrialPlan(150_000, 61))
    exact = np.array([11.0 / 6.0, 5.0 / 6.0, 1.0 / 3.0])
    assert np.all(np.abs(est.mean - exact) <= 4.0 * est.se)


def test_sorted_exponential_means_rejects_single_trial():
    with pytest.raises(ValueError, match="trials must be >= 2"):
        sorted_exponential_means(3, TrialPlan(1, 63))


@pytest.mark.parametrize("s_count", [2.5, True, 0])
def test_sorted_exponential_means_rejects_non_integer_count(s_count):
    # 2.5 died with a TypeError inside the draw
    with pytest.raises(ValueError, match="s_count must be an integer >= 1"):
        sorted_exponential_means(s_count, TrialPlan(10, 64))


def test_sorted_exponential_means_deterministic_partial_chunk():
    a = sorted_exponential_means(2, TrialPlan(70_001, 62))
    b = sorted_exponential_means(2, TrialPlan(70_001, 62))
    assert np.array_equal(a.mean, b.mean)
