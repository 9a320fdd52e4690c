"""Stochastic oracles: coupled information-density random walks with
dynamic interference cancellation, the queued variant, and the empirical
error-rate check of the random-coding union bound.

One walk engine (`_walk_trial`) serves the AWGN, block-fading and queued
simulators.  It takes each user's received power and applies one SINR
rule: an active user hears its own power over unit noise plus the power of
every other active user.  `simulate_cell`, the twin of
`lengths.phase_lengths`, runs it on fixed received powers: S equal powers
for an AWGN cell, power times gain for block fading.  Every active user
accumulates one unit-noise information-density increment per symbol,
drawn at that SINR.  The rates, gains and SINRs of an active set are
computed once per simulator call, at the set's first use, in a link table:
`simulate_cell` and `simulate_queue` share one table among all their
trials, and the fresh-Rayleigh walk, whose powers change with every trial,
gives each trial its own.
A user whose running sum crosses its threshold stops transmitting from the
next symbol on, which raises everyone else's SINR.  The queued variant is
the same walk plus a boundary schedule and two reset rules: at every
packet-interval boundary the light users restart from zero, and a
congested user that crosses resets its sum and stays active.  Only the
true-codeword walk is tracked here; competing-codeword crossings are a
separate, rarer event measured by `simulate_error_probability`, which
decodes payloads of 2 to 12 bits at their `message_threshold`.

One estimator serves every Monte Carlo mean: `streams` hands out the
trials of a plan in blocks, stream (s, k) of a run seeded with s serving
its k-th block, and `estimate` merges the per-block moments into an
`Estimate` (mean, standard error, 95% half-width).  A block is one trial
for the walks and the error-rate check and `BLOCK` = 2^16 trials for the
bulk samplers; block sizes are part of the output contract, so results do
not depend on execution order, and identical (scenario, plan) pairs
produce bit-identical outcomes.  Every derived seed is `point_seed(parent, i)`.
A stream is a `(seed, k)` handle (`TrialStream`) that draws exactly what a
fresh Philox keyed [seed, k] would: all streams of a process share one
Philox, which a stream keys at its first draw, and a stream's state is
saved in it whenever another stream draws, so building one costs no Philox.

One draw rule serves every walk: symbol t takes the next 2*dims normals
of its trial's stream for each active user, in user order, the input and
then the noise.  In the error-rate check the competing codewords then take
the (M-1)*tau normals that follow the true walk's 2*tau, in blocks of rows
of at most `_MAX_CHUNK` normals (or one row); the first block in which one
crosses ends the trial, whose stream nothing else reads.  A walk holds at
most `_MAX_CHUNK` = 2^15 normals of look-ahead, whatever its width: a
chunk of the walk engine is at most `_MAX_CHUNK` // (normals per symbol)
symbols (at least one), drawn into one buffer per trial, and the
error-rate truth's window and its growth step are at most `_MAX_CHUNK` // 2
rows.  Every normal a chunk does not use stays at the buffer's front for
the next one, so chunk and block sizes change speed and memory, never
results.

`_fan_out(count, task)` runs `task(i)`, which returns one row, for every
index i on every CPU the process may use (`WORKERS`), always inside a
session (`run_session`): the session forks `WORKERS` - 1 workers once, and
each runs the same sequence of calls as the caller.  Each call splits its
indices into contiguous ranges: a worker runs its range and sends the rows
down its pipe, the caller runs the last range and stacks the rows in index
order.  A simulator is one function of one trial's stream that returns the
trial's row: its stops and cap flags for a walk, (error, capped) for the
error-rate check; its task (`_trial_task`) runs trial i on stream
(seed, i), and the caller builds every trial's stream handle.  Stops are
averaged as one block and flags and errors summed, so results never depend
on the worker count.  A threshold sweep or c7 first searches each
scenario once, in the caller; `waterfill.evaluate_thresholds` then fans
the Monte Carlo capacity columns out, one `mc_capacity` call per task.
A walk sweep runs all its points in one session; any other call is a
session of one call.  Every worker is reaped before its session returns
or raises.  Without POSIX fork, `WORKERS` is 1 and a session has no
workers.

Each simulator caps its trials at `CAP_FACTOR` times its analytic
prediction: the slowest `phase_lengths` stop for `simulate_cell`, the
slowest queued length for `simulate_queue`, ten times the typical-gain
stop for fresh Rayleigh gains.  Capped trials are never dropped silently:
they enter the means at the cap value (a lower bound) and are counted in
`cap_hits`.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import traceback
import weakref
from dataclasses import dataclass

import numpy as np

from .channel import active_sinrs, capacity, check_positive, info_density_increment, is_int
from .lengths import (AwgnScenario, QueueScenario, message_threshold, phase_lengths,
                      queue_vlsf_lengths, rayleigh_order_means)

#: per-trial symbol cap, as a multiple of the predicted mean length
CAP_FACTOR = 50.0

#: the most normals a walk holds as look-ahead, whatever its width, and in a block
#: of error-rate competitors beyond one row; changes speed and memory, never results
_MAX_CHUNK = 1 << 15

#: trials per stream in the bulk samplers (`mc_capacity`, order statistics)
BLOCK = 1 << 16

#: trial ranges a walk runs at once, one per usable CPU; 1 without POSIX fork
WORKERS = (len(os.sched_getaffinity(0))
           if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1)


def point_seed(parent: int, index: int) -> int:
    """Seed of child `index` of a run seeded `parent`, in [0, 2^64) on every platform."""
    return int(np.random.SeedSequence([parent, index]).generate_state(1)[0])


_ZEROS = np.zeros(4, dtype=np.uint64)  # a fresh Philox's counter, and an empty buffer


class TrialStream:
    """Stream (seed, k): the draws of a fresh `Generator(Philox(key=[seed, k]))`.

    Every stream of a process draws through one shared Philox generator,
    made at the first draw.  A stream keys it at its own first draw (counter
    0, empty buffer); when another stream draws, this one's full bit-generator
    state is saved here, if this stream is still referenced, and restored at
    its next draw.  So any interleaving, in any forked worker, gives each
    stream its own Philox sequence, and building one costs no Philox.  The
    swap takes no lock: streams are for one thread.
    """

    __slots__ = ("seed", "index", "_state", "__weakref__")
    _generator = None  # the process's one Generator(Philox)
    _owner = None  # weak reference to the stream whose state it holds

    def __init__(self, seed: int, index: int):
        self.seed, self.index, self._state = seed, index, None

    def _keyed(self) -> np.random.Generator:
        cls = TrialStream
        owner = cls._owner and cls._owner()
        if owner is not self:
            if cls._generator is None:
                cls._generator = np.random.Generator(np.random.Philox(0))
            bits = cls._generator.bit_generator
            if owner is not None:  # a dropped stream never draws again: nothing to save
                owner._state = bits.state
            bits.state = self._state or {
                "bit_generator": "Philox", "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
                "buffer": _ZEROS, "state": {
                    "counter": _ZEROS, "key": np.array([self.seed, self.index], dtype=np.uint64)}}
            self._state = None
            cls._owner = weakref.ref(self)
        return cls._generator

    def standard_normal(self, size=None, out=None):
        return self._keyed().standard_normal(size, out=out)

    def standard_exponential(self, size=None):
        return self._keyed().standard_exponential(size)


def trial_stream(seed: int, index: int) -> TrialStream:
    """Independent counter-based stream for one block of one experiment:
    Philox keyed [seed, index], keyed at its first draw (`TrialStream`)."""
    return TrialStream(seed, index)


@dataclass(frozen=True)
class TrialPlan:
    """How many trials to run and under which seed.

    At least two trials give a standard error; the seed is a 64-bit Philox key.
    The symbol cap is not part of the plan: each simulator applies its own cap rule.
    """

    trials: int
    seed: int

    def __post_init__(self):
        if not (is_int(self.trials) and is_int(self.seed)):
            raise ValueError(f"trials and seed must be integers: {self.trials!r}, {self.seed!r}")
        if self.trials < 2:
            raise ValueError(f"trials must be >= 2, got {self.trials}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


def streams(plan: TrialPlan, block: int):
    """Yield (stream k, trial count) for consecutive blocks of `block` trials."""
    for k, start in enumerate(range(0, plan.trials, block)):
        yield trial_stream(plan.seed, k), min(block, plan.trials - start)


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error, scalar or one entry per user."""

    mean: float | np.ndarray
    se: float | np.ndarray
    trials: int

    @property
    def ci95(self):
        """Half-width of the normal 95% confidence interval."""
        return 1.96 * self.se

    @property
    def low(self):
        return self.mean - self.ci95

    @property
    def high(self):
        return self.mean + self.ci95


def estimate(samples) -> Estimate:
    """Mean and standard error of per-trial rows arriving in blocks.

    Each block, shaped (n,) or (n, k), is reduced two-pass to its mean and
    sum of squared deviations; blocks are merged pairwise (Chan, Golub &
    LeVeque, 1983), so a single block reproduces numpy's two-pass
    `std(ddof=1)` bit for bit.
    """
    total, mean, m2 = 0, 0.0, 0.0
    for x in samples:
        n = len(x)
        x_mean = x.mean(axis=0)
        delta = x_mean - mean
        merged = total + n
        mean = mean + delta * (n / merged)
        m2 = m2 + ((x - x_mean) ** 2).sum(axis=0) + delta * delta * (total * n / merged)
        total = merged
    if total < 2:
        raise ValueError(f"need at least 2 samples for a standard error, got {total}")
    return Estimate(mean=mean, se=np.sqrt(m2 / (total - 1)) / math.sqrt(total), trials=total)


@dataclass(frozen=True)
class StoppingOutcome(Estimate):
    """Per-user sample means of the stopping times, in symbols."""

    cap_hits: np.ndarray

    @property
    def cap_flagged(self) -> bool:
        """True when more than 1% of trials hit the symbol cap for any user."""
        return bool((self.cap_hits > 0.01 * self.trials).any())


@dataclass(frozen=True)
class ErrorRateEstimate:
    """Empirical decoding error rate with a binomial standard error."""

    errors: int
    trials: int
    cap_hits: int

    @property
    def rate(self) -> float:
        return self.errors / self.trials

    @property
    def se(self) -> float:
        return math.sqrt(max(self.rate * (1.0 - self.rate), 0.0) / self.trials)

    @property
    def upper95(self) -> float:
        """Upper limit of the 95% Wilson score interval, positive even when
        no error occurred."""
        n, z2 = self.trials, 1.96**2
        spread = math.sqrt(z2 * self.rate * (1.0 - self.rate) / n + z2 * z2 / (4.0 * n * n))
        return (self.rate + z2 / (2.0 * n) + spread) / (1.0 + z2 / n)


def _walk_trial(rng, thresholds, rx, dims, cap, t_sub=None, congested=None, links=None):
    """One trial of the coupled walk; returns per-user first-crossing times
    (or the cap) and which users never crossed, as two lists.

    `rx[u]` is user u's received power at unit noise.  While a set of users
    is active, each hears its own power over unit noise plus the others'
    power (`channel.active_sinrs`); equal powers give the AWGN walk.  Symbol
    t takes the next 2*dims normals of the stream for each active user, in
    user order: the input, then the noise; a symbol spends `dims` real
    dimensions (2 for a complex link) whose increments share the symbol
    SINR, and crossings are checked once per symbol.  The walk looks ahead
    in chunks, each a (chunk, active users, 2, dims) view of one draw
    buffer; the earliest in-chunk crossing ends the chunk, because it
    changes the interference felt by everyone else, and the normals after
    it stay in the buffer: the next refill moves them to its front and
    draws the rest behind them, so the buffer never outgrows the largest
    chunk: at most `_MAX_CHUNK` normals whatever the number of active
    users, or one symbol when a symbol takes more.  Chunk sizes affect speed
    and memory only.

    `links`, the link table, maps a tuple of active users to their
    (rates, gains, SINRs, normals per symbol), filled on first use; a
    caller whose `rx` is fixed passes one table to all its trials.  The
    per-user state lives in Python lists.

    A crossing user resets its accumulation and stays active when it is
    `congested`; any other user goes silent until the next interval
    boundary (every `t_sub` symbols), where it restarts from zero.  With no
    boundary and no congested user this is the plain cancellation walk.
    """
    s_total = len(thresholds)
    thresholds = np.asarray(thresholds, dtype=float).tolist()
    congested = ([False] * s_total if congested is None
                 else np.asarray(congested, dtype=bool).tolist())
    if links is None:
        links = {}
    acc = [0.0] * s_total
    active = [True] * s_total
    stop = [cap] * s_total
    capped = [True] * s_total  # users that have not crossed yet
    buf = np.empty(0)  # drawn normals, of which buf[start:end] are unused, in stream order
    start = end = 0
    t = 0
    interval = 1
    # a boundary where every user is congested restarts no one: it need not end a chunk
    boundary = math.inf if t_sub is None or all(congested) else int(round(t_sub))
    users = None  # the active users, looked up in the link table when the set changes
    while t < cap and any(capped):
        while boundary <= t:  # move on to the first boundary after t
            interval += 1
            boundary = int(round(interval * t_sub))
        if users is None:
            users = tuple(u for u in range(s_total) if active[u])
            link = links.get(users)
            if link is None:
                snr = active_sinrs(rx[list(users)])
                link = links[users] = (capacity(snr, dims).tolist(), np.sqrt(snr).tolist(),
                                       snr.tolist(), len(users) * 2 * dims)
            rates, gains, snr, width = link
        need = min((thresholds[u] - acc[u]) / rate for u, rate in zip(users, rates))
        chunk = int(min(max(16.0, 1.25 * need + 8.0), float(boundary - t),
                        float(cap - t), max(1, _MAX_CHUNK // width)))
        size = chunk * width
        if end - start < size:  # keep the unused normals at the front, draw the rest
            kept = end - start
            old, buf = buf, buf if buf.size >= size else np.empty(size)
            buf[:kept] = old[start:end]
            rng.standard_normal(out=buf[kept:size])
            start, end = 0, size
        z = buf[start:start + size].reshape(chunk, len(users), 2, dims)
        used = chunk
        cums = []
        for i, u in enumerate(users):
            # symbols after the earliest crossing so far are never read
            x = gains[i] * z[:used, i, 0]
            inc = info_density_increment(x, x + z[:used, i, 1], snr[i], out=x)
            inc[0, 0] += acc[u]  # the running sum is the same float whatever the chunking
            cum = inc.cumsum(out=inc.reshape(-1))[dims - 1::dims]  # per symbol
            cums.append(cum)
            first = int((cum >= thresholds[u]).argmax())
            if cum[first] >= thresholds[u]:
                used = first + 1
        start += used * width
        t += used
        for u, cum in zip(users, cums):
            acc[u] = float(cum[used - 1])
            if acc[u] >= thresholds[u]:
                if capped[u]:
                    stop[u] = t
                    capped[u] = False
                if congested[u]:
                    acc[u] = 0.0  # next queued packet starts immediately
                else:
                    active[u] = False
                    users = None
        if t == boundary:  # packet arrival: light users restart
            for u in range(s_total):
                if not congested[u]:
                    acc[u] = 0.0
                    active[u] = True
            users = None
    return stop, capped


class _Handed(BaseException):
    """Ends a worker's part of one call once it has sent its rows."""


#: the open session, or None: (None, [(pid, read end) of each worker]) in the
#: caller, (rank, write end) in worker `rank`
_session = None


def _run_calls(calls) -> list:
    """Each call's result in order; a worker's calls end at `_Handed`."""
    results = []
    for call in calls:
        try:
            results.append(call())
        except _Handed:
            results.append(None)
    return results


def _send(outcome) -> None:
    """Pickle a worker's (ok, rows or exception) down its pipe."""
    try:
        data = pickle.dumps(outcome)
    except Exception:  # an unpicklable exception
        data = pickle.dumps((False, RuntimeError(
            f"trial worker {os.getpid()}: unpicklable outcome {outcome[1]!r}")))
    _session[1].write(data)
    _session[1].flush()


def _fork(calls, rank: int):
    """Start worker `rank` of a session, which runs `calls` as the caller
    does and exits; returns (pid, read end of its pipe).  An exception the
    worker raises is sent down the pipe, in place of that call's rows."""
    global _session
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    try:  # worker: never returns to the caller's stack
        os.close(read)
        _session = (rank, os.fdopen(write, "wb"))
        try:
            _run_calls(calls)
        except BaseException as exc:  # handed to the caller, which re-raises it
            if hasattr(exc, "add_note"):  # Python >= 3.11
                exc.add_note(f"raised in trial worker {os.getpid()}:\n{traceback.format_exc()}")
            _send((False, exc))
    finally:
        os._exit(0)


def run_session(calls) -> list:
    """Run `calls`, simulator calls that take no arguments, in order in this
    process and return their results, every `_fan_out` among them sharing
    one set of workers.

    This forks `WORKERS` - 1 workers once (none when `WORKERS` is 1), each
    of which runs the same calls on its own copy of the process; inside a
    session nothing forks again, and calls made in one join it.  Every
    worker is killed and reaped before this returns or raises, so no process
    outlives the session.
    """
    global _session
    if _session is not None:
        return _run_calls(calls)
    workers = []
    try:
        for rank in range(WORKERS - 1):
            workers.append(_fork(calls, rank))
        _session = (None, workers)
        return _run_calls(calls)
    finally:
        _session = None
        for pid, pipe in workers:  # a worker whose rows were all read has nothing left to do
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fan_out(count: int, task) -> np.ndarray:
    """Run `task(i)` for every index i < `count` and return the rows it
    returns, stacked in index order as one array.

    The call runs in a session (`run_session`), a session of its own when
    none is open.  Its indices split into min(WORKERS, count) contiguous
    ranges, each run in increasing order: worker r runs range r and sends
    its rows down its pipe without waiting, the caller runs the last range
    and then reads the workers' rows of this call in order.  The split
    depends on the call alone, never on timing.  A worker's exception is
    re-raised here with its own type, and a worker that dies raises
    `ChildProcessError`.
    """
    if _session is None:
        return run_session([lambda: _fan_out(count, task)])[0]
    rank, channel = _session
    ranges = min(WORKERS, count)
    if rank is not None and rank >= ranges - 1:
        raise _Handed  # the caller runs the last range; this worker has none here
    mine = ranges - 1 if rank is None else rank
    rows = np.array([task(i) for i in range(count * mine // ranges,
                                            count * (mine + 1) // ranges)])
    if rank is not None:
        _send((True, rows))
        raise _Handed
    parts = []
    for pid, pipe in channel[:ranges - 1]:
        try:
            ok, value = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            channel.remove((pid, pipe))
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            raise ChildProcessError(f"trial worker {pid} died (wait status {status})") from None
        if not ok:
            raise value
        parts.append(value)
    return np.concatenate(parts + [rows])


def _trial_task(plan: TrialPlan, trial):
    """`trial(rng)` as a task of `_fan_out` over the plan's trials: task i
    runs trial i on stream (seed, i).  Called with increasing i, as
    `_fan_out` does, it builds and drops the handles before i on the way,
    so the caller, which runs the last range, builds every trial's handle;
    a handle that is only built costs no Philox."""
    handles = enumerate(streams(plan, 1))

    def task(i):
        for k, (rng, _) in handles:
            if k == i:
                return trial(rng)

    return task


def _run_trials(plan: TrialPlan, trial) -> StoppingOutcome:
    """Run the walk `trial(rng)`, which returns its (stops, capped) row, on
    each trial's own stream and average the stops.

    The rows of all trials come back in trial order (`_fan_out`); their
    stops are averaged as one block and their cap flags summed, so the
    result does not depend on the worker count.
    """
    rows = _fan_out(plan.trials, _trial_task(plan, trial))
    est = estimate([rows[:, 0]])
    return StoppingOutcome(est.mean, est.se, est.trials, cap_hits=rows[:, 1].sum(axis=0))


def simulate_cell(thresholds, rx, dims: int, plan: TrialPlan) -> StoppingOutcome:
    """Coupled stopping times of users with fixed received powers, in any
    order; means follow the input order.  `lengths.phase_lengths` on the same
    inputs checks them, and a trial is capped at `CAP_FACTOR` times the
    slowest predicted stop."""
    thresholds, rx = np.asarray(thresholds, dtype=float), np.asarray(rx, dtype=float)
    cap = int(CAP_FACTOR * phase_lengths(thresholds, rx, dims)[0].max())
    links = {}  # rx is fixed: one link table serves every trial of this call
    return _run_trials(plan, lambda rng: _walk_trial(rng, thresholds, rx, dims, cap,
                                                     links=links))


def simulate_awgn_multiuser(sc: AwgnScenario, plan: TrialPlan) -> StoppingOutcome:
    """Coupled stopping times of S equal-power AWGN users, each at its own
    payload's decoding threshold."""
    return simulate_cell(sc.thresholds, np.full(sc.s_count, sc.power), 1, plan)


def simulate_block_fading(gains, payload_bits: float, power: float,
                          plan: TrialPlan) -> StoppingOutcome:
    """Stopping times for fixed fading gains, in any order, and a common payload.

    Complex links: each symbol contributes two real-dimension increments,
    and crossings are checked once per complex symbol.  Means follow the input order.
    """
    gains = np.asarray(gains, dtype=float)
    check_positive("gains", gains)
    check_positive("power", power)
    thresholds = np.full(gains.size, message_threshold(payload_bits))
    return simulate_cell(thresholds, power * gains, 2, plan)


def simulate_rayleigh_block_fading(s_count: int, payload_bits: float, power: float,
                                   plan: TrialPlan) -> StoppingOutcome:
    """Block-fading walk with fresh sorted Rayleigh gains drawn per trial.

    A trial draws its S exponential gains from its stream, then the walk's
    normals.  Per-user means are reported in decoding order (largest gain
    first), so entry j averages the stopping time of the j-th best channel.
    """
    rx_typical = power * rayleigh_order_means(s_count)  # rejects a bad s_count first
    thresholds = np.full(s_count, message_threshold(payload_bits))
    typical = phase_lengths(thresholds, rx_typical, 2)[0]
    # random draws can be much slower than the typical-gain prediction
    cap = int(10.0 * CAP_FACTOR * typical[-1])

    def trial(rng):
        rx = power * np.sort(rng.standard_exponential(s_count))[::-1]
        return _walk_trial(rng, thresholds, rx, 2, cap)  # fresh rx: a table of its own

    return _run_trials(plan, trial)


def simulate_queue(qs: QueueScenario, plan: TrialPlan) -> StoppingOutcome:
    """Tagged-message completion times under periodic packet arrivals.

    Worst-case alignment: everyone starts at the beginning of an interval.
    Users that fit inside one interval restart a fresh packet at every
    boundary; congested users stay busy continuously, starting the next
    queued packet the moment one finishes.  The recorded time per user is
    the completion of its first (tagged) message.  A trial is capped at
    `CAP_FACTOR` times the slowest queued length, whatever `t_sub`.
    A light user that misses a boundary restarts from zero, whereas
    `queue_vlsf_lengths` assumes it never misses one, so the walk is slower
    than the formula where a light user's length sits just below `t_sub`.
    """
    sc = qs.base
    s_total = sc.s_count
    thresholds = sc.thresholds
    breakdown = queue_vlsf_lengths(qs)
    congested = np.arange(s_total) >= breakdown.r  # users r+1..S carry accumulation
    rx = np.full(s_total, sc.power)
    # light users restart every interval, so every user may draw until the last stops
    last = breakdown.lengths.max()
    cap = int(CAP_FACTOR * last)
    links = {}  # rx is fixed: one link table serves every trial of this call
    return _run_trials(plan, lambda rng: _walk_trial(
        rng, thresholds, rx, 1, cap, qs.t_sub, congested, links))


def simulate_error_probability(payload_bits: float, snr: float,
                               plan: TrialPlan) -> ErrorRateEstimate:
    """Empirical error rate of threshold decoding against M-1 false codewords.

    Per trial, the true walk runs until its crossing at the payload's
    `message_threshold`; every competing codeword then replays the same
    received symbols with its own independent inputs, and an error is scored
    when any competitor crosses no later than the true walk.  Payloads are
    whole bits in [2, 12]: the threshold needs 2, all 2^K walks fit in 12,
    and the union bound it is checked against counts 2^K codewords.
    """
    if not (2 <= payload_bits <= 12 and float(payload_bits).is_integer()):
        raise ValueError(f"payload_bits must be a whole number in [2, 12], got {payload_bits}")
    check_positive("snr", snr)
    competitors = 2 ** int(payload_bits) - 1
    threshold = message_threshold(payload_bits)
    rate = capacity(snr)
    cap = int(CAP_FACTOR * max(threshold, rate) / rate)
    sqrt_snr = math.sqrt(snr)
    window = max(1, _MAX_CHUNK // 2)  # rows of the truth's look-ahead, 2 normals each

    def trial(rng):
        # symbol t reads row t: the input, then the noise; the window doubles
        z = rng.standard_normal((min(int(2.0 * threshold / rate) + 32, cap, window), 2))
        while True:
            x = sqrt_snr * z[:, 0]
            received = x + z[:, 1]
            cum = np.cumsum(info_density_increment(x, received, snr, out=x), out=x)
            tau = int(np.argmax(cum >= threshold)) + 1
            crossed = cum[tau - 1] >= threshold
            if crossed or len(z) == cap:
                break
            more = min(len(z), cap - len(z), window)
            z = np.concatenate([z, rng.standard_normal((more, 2))])
        if not crossed:
            tau = cap  # undecided truth; competitors may still cross
        # competitors take the (M-1)*tau normals after the truth's 2*tau, a block at a time
        spare = z[tau:].ravel()
        rows = min(competitors, max(1, _MAX_CHUNK // tau))
        block = np.empty(rows * tau)  # at most max(_MAX_CHUNK, tau) normals
        for first in range(0, competitors, rows):
            false_z = block[:min(rows, competitors - first) * tau]
            kept = min(spare.size, false_z.size)
            false_z[:kept] = spare[:kept]
            spare = spare[kept:]
            rng.standard_normal(out=false_z[kept:])
            false_x = np.multiply(false_z, sqrt_snr, out=false_z).reshape(-1, tau)
            info_density_increment(false_x, received[:tau], snr, out=false_x)
            if np.cumsum(false_x, axis=1, out=false_x).max() >= threshold:
                return True, not crossed
        return False, not crossed

    errors, cap_hits = _fan_out(plan.trials, _trial_task(plan, trial)).sum(axis=0).tolist()
    return ErrorRateEstimate(errors=errors, trials=plan.trials, cap_hits=cap_hits)


def sorted_exponential_means(s_count: int, plan: TrialPlan) -> Estimate:
    """Empirical means of descending-sorted unit exponentials."""
    if not (is_int(s_count) and s_count >= 1):
        raise ValueError(f"s_count must be an integer >= 1, got {s_count}")
    return estimate(np.sort(rng.standard_exponential((n, s_count)), axis=1)[:, ::-1]
                    for rng, n in streams(plan, BLOCK))
