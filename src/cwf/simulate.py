"""Stochastic oracles: coupled information-density random walks with
dynamic interference cancellation, the queued variant, and the empirical
error-rate check of the random-coding union bound.

One walk engine (`_walk_trial`) serves the AWGN, block-fading and queued
simulators.  It takes each user's received power and applies one SINR
rule: an active user hears its own power over unit noise plus the power of
every other active user.  An AWGN cell is the unit-gain case of a
block-fading cell, so the AWGN and queued walks pass S equal powers and the
fading walks pass power times gain.  Every active user accumulates one
unit-noise information-density increment per symbol, drawn at that SINR.
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

One draw rule serves every walk: symbol t takes the next 2*dims normals
of its trial's stream for each active user, in user order, the input and
then the noise.  In the error-rate check the competing codewords then take
the (M-1)*tau normals that follow the true walk's 2*tau, in blocks of rows
of at most `_MAX_CHUNK` normals (or one row); the first block in which one
crosses ends the trial, whose stream nothing else reads.  Walks look ahead
in chunks of at most `_MAX_CHUNK` symbols but keep every normal they did
not use, so neither look-ahead nor blocks ever change a result.

The walks and the error-rate check run their trials on every CPU the
process may use (`WORKERS`): `_fan_out` splits the trials into contiguous
ranges, builds every trial's stream in the calling process, runs all ranges
but the last in forked children and the last itself, and merges the
results in trial order.  Per-trial rows are averaged as one block and
error counts are summed, so results never depend on the worker count.
Every child is reaped before the call returns.  A call whose trials are
expected to draw fewer than `_MIN_SHARED_NORMALS` normals (each simulator
predicts its draws from its analytic lengths) runs in the caller alone.
Where POSIX fork is missing, `WORKERS` is 1 and the trials run in the
caller.

Each simulator caps its trials by its own rule, `CAP_FACTOR` times its
analytic prediction (ten times that for fresh Rayleigh gains).  Capped
trials are never dropped silently: they enter the means at the cap value
(a lower bound) and are counted in `cap_hits`.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import signal
import traceback
from dataclasses import dataclass

import numpy as np

from .channel import active_sinrs, capacity, check_positive, info_density_increment, is_int
from .lengths import (AwgnScenario, QueueScenario, message_threshold, phase_lengths,
                      queue_vlsf_lengths, rayleigh_order_means)

#: per-trial symbol cap, as a multiple of the predicted mean length
CAP_FACTOR = 50.0

#: longest look-ahead of any walk in symbols, and the most normals in a block of
#: error-rate competitors beyond one row; bounds memory, never results
_MAX_CHUNK = 1 << 15

#: trials per stream in the bulk samplers (`mc_capacity`, order statistics)
BLOCK = 1 << 16

#: trial ranges a walk runs at once, one per usable CPU; 1 without POSIX fork
WORKERS = (len(os.sched_getaffinity(0))
           if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1)

#: a call forks only when its trials are expected to draw at least this many
#: normals (about 0.1 s of walks on a 2-vCPU Xeon VM); below that the fork, the
#: child's copy-on-write faults and the reap are a large and unsteady share
_MIN_SHARED_NORMALS = 4_000_000


def point_seed(parent: int, index: int) -> int:
    """Seed of child `index` of a run seeded `parent`, in [0, 2^64) on every platform."""
    return int(np.random.SeedSequence([parent, index]).generate_state(1)[0])


def trial_stream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one block of one experiment."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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


def _walk_trial(rng, thresholds, rx, dims, cap, t_sub=None, congested=None):
    """One trial of the coupled walk; returns per-user first-crossing times
    (or the cap) and which users never crossed.

    `rx[u]` is user u's received power at unit noise.  While a set of users
    is active, each hears its own power over unit noise plus the others'
    power (`channel.active_sinrs`); equal powers give the AWGN walk.  Symbol
    t takes the next 2*dims normals of the stream for each active user, in
    user order: the input, then the noise; a symbol spends `dims` real
    dimensions (2 for a complex link) whose increments share the symbol
    SINR, and crossings are checked once per symbol.  The walk looks ahead
    in chunks, each a (chunk, active users, 2, dims) view of a buffer of
    drawn normals; the earliest in-chunk crossing ends the chunk, because it
    changes the interference felt by everyone else, and the normals after
    it stay in the buffer for the next chunk.  Chunk sizes affect speed
    only.

    A crossing user resets its accumulation and stays active when it is
    `congested`; any other user goes silent until the next interval
    boundary (every `t_sub` symbols), where it restarts from zero.  With no
    boundary and no congested user this is the plain cancellation walk.
    """
    s_total = len(thresholds)
    if congested is None:
        congested = np.zeros(s_total, dtype=bool)
    light = ~congested
    acc = np.zeros(s_total)
    active = np.ones(s_total, dtype=bool)
    stop = np.full(s_total, cap, dtype=np.int64)
    done = np.zeros(s_total, dtype=bool)
    spare = np.empty(0)  # drawn but unused normals, in stream order
    t = 0
    interval = 1
    boundary = math.inf if t_sub is None else int(round(t_sub))
    users = None  # the active users and their links, rebuilt when the set changes
    while t < cap and not done.all():
        while boundary <= t:  # guard against sub-symbol intervals
            interval += 1
            boundary = int(round(interval * t_sub))
        if users is None:
            users = np.flatnonzero(active).tolist()
            snr = active_sinrs(rx[users])
            rates, gains, snr = capacity(snr, dims).tolist(), np.sqrt(snr).tolist(), snr.tolist()
            width = len(users) * 2 * dims  # normals per symbol
        need = min((thresholds[u] - acc[u]) / rate for u, rate in zip(users, rates))
        chunk = int(min(max(16.0, 1.25 * need + 8.0), float(boundary - t),
                        float(cap - t), _MAX_CHUNK))
        if spare.size < chunk * width:
            spare = np.concatenate([spare, rng.standard_normal(chunk * width - spare.size)])
        z = spare[:chunk * width].reshape(chunk, len(users), 2, dims)
        used = chunk
        cums = []
        for i, u in enumerate(users):
            # symbols after the earliest crossing so far are never read
            x = gains[i] * z[:used, i, 0]
            inc = info_density_increment(x, x + z[:used, i, 1], snr[i], out=x)
            inc[0, 0] += acc[u]  # the running sum is the same float whatever the chunking
            cums.append(np.cumsum(inc, out=inc.reshape(-1))[dims - 1::dims])  # per symbol
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
                    acc[u] = 0.0  # next queued packet starts immediately
                else:
                    active[u] = False
                    users = None
        if t == boundary:  # packet arrival: light users restart
            acc[light] = 0.0
            active[light] = True
            users = None
    return stop, ~done


def _fork(work, rngs):
    """Start a child that runs `work(rngs)`, pickles the result (or the
    exception it raised) into a pipe and exits; returns (pid, read end)."""
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
    try:  # child: never returns to the caller's stack
        os.close(read)
        try:
            outcome = (True, work(rngs))
        except BaseException as exc:  # handed to the parent, which re-raises it
            if hasattr(exc, "add_note"):  # Python >= 3.11
                exc.add_note(f"raised in trial worker {os.getpid()}:\n{traceback.format_exc()}")
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome)
        except Exception:  # an unpicklable result or exception
            data = pickle.dumps((False, RuntimeError(
                f"trial worker {os.getpid()}: unpicklable outcome {outcome[1]!r}")))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _fan_out(plan: TrialPlan, work, normals: float) -> list:
    """Run `work(rngs)` on contiguous ranges of the plan's trial streams and
    return the results in trial order, one per range.

    A trial is expected to draw `normals` normals.  A call expected to draw
    fewer than `_MIN_SHARED_NORMALS` runs as one range in the caller; any
    other splits into min(WORKERS, trials) ranges.  The split depends on
    the call alone, never on timing, so which trials the caller runs is
    the same on every run.  The caller builds every stream through
    `streams(plan, 1)`, so trial i runs on the same stream whoever runs it.
    Each range but the last is built, handed to a forked child and dropped;
    the caller then runs the last range on streams built as it goes, and
    reads the children's pipes in order.  A child's exception is re-raised
    here with its own type.  Every child is reaped before this returns or
    raises, so no process outlives the call.
    """
    ranges = min(WORKERS, plan.trials) if plan.trials * normals >= _MIN_SHARED_NORMALS else 1
    bounds = [plan.trials * r // ranges for r in range(ranges + 1)]
    rngs = (rng for rng, _ in streams(plan, 1))
    children = []  # (pid, read end) of every unreaped child, in trial order
    try:
        for lo, hi in zip(bounds[:-2], bounds[1:-1]):
            children.append(_fork(work, list(itertools.islice(rngs, hi - lo))))
        last = work(rngs)
        results = []
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            pipe.close()
            if not data:
                raise ChildProcessError(f"trial worker {pid} died (wait status {status})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results + [last]
    finally:
        for pid, pipe in children:  # only after a failure
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_trials(plan: TrialPlan, trial, lengths, dims: int) -> StoppingOutcome:
    """Run `trial(rng)` on each trial's own stream and average the outcomes.

    `lengths` are the users' predicted stopping times in symbols of `dims`
    real dimensions; a walk draws 2 normals per active user and dimension,
    so they predict its work.  The trial ranges run in parallel
    (`_fan_out`); their per-trial stop and cap rows are concatenated in
    trial order and averaged as one block, so the result does not depend
    on the worker count.
    """
    def work(rngs):
        stops, capped = zip(*[trial(rng) for rng in rngs])
        return np.array(stops), np.array(capped)

    parts = _fan_out(plan, work, 2.0 * dims * np.sum(lengths))
    est = estimate([np.concatenate([stops for stops, _ in parts])])
    capped = np.concatenate([capped for _, capped in parts])
    return StoppingOutcome(est.mean, est.se, est.trials, cap_hits=capped.sum(axis=0))


def simulate_awgn_multiuser(sc: AwgnScenario, plan: TrialPlan) -> StoppingOutcome:
    """Coupled stopping times of S equal-power AWGN users.

    Every user holds the decoding threshold of its own payload; crossing
    deactivates it from the next symbol on.  No (1-epsilon) idling is
    applied, so means compare against the epsilon-free analytic lengths.
    """
    s_total = sc.s_count
    thresholds = sc.thresholds
    rx = np.full(s_total, sc.power)
    stops = phase_lengths(thresholds, rx, 1)[0]
    cap = int(CAP_FACTOR * stops[-1])
    return _run_trials(plan, lambda rng: _walk_trial(rng, thresholds, rx, 1, cap), stops, 1)


def simulate_block_fading(gains, payload_bits: float, power: float,
                          plan: TrialPlan) -> StoppingOutcome:
    """Stopping times for fixed fading gains and a common payload.

    Complex links: each symbol contributes two real-dimension increments,
    and crossings are checked once per complex symbol.
    """
    gains = np.asarray(gains, dtype=float)
    check_positive("gains", gains)
    check_positive("power", power)
    s_total = gains.shape[0]
    thresholds = np.full(s_total, message_threshold(payload_bits))
    rx = power * gains
    stops = phase_lengths(thresholds, np.sort(rx)[::-1], 2)[0]
    cap = int(CAP_FACTOR * stops[-1])
    return _run_trials(plan, lambda rng: _walk_trial(rng, thresholds, rx, 2, cap), stops, 2)


def simulate_rayleigh_block_fading(s_count: int, payload_bits: float, power: float,
                                   plan: TrialPlan) -> StoppingOutcome:
    """Block-fading walk with fresh sorted Rayleigh gains drawn per trial.

    A trial draws its S exponential gains from its stream, then the walk's
    normals.  Per-user means are reported in decoding order (largest gain
    first), so entry j averages the stopping time of the j-th best channel.
    """
    check_positive("power", power)
    rx_typical = power * rayleigh_order_means(s_count)  # rejects a bad s_count first
    thresholds = np.full(s_count, message_threshold(payload_bits))
    typical = phase_lengths(thresholds, rx_typical, 2)[0]
    # random draws can be much slower than the typical-gain prediction
    cap = int(10.0 * CAP_FACTOR * typical[-1])

    def trial(rng):
        rx = power * np.sort(rng.standard_exponential(s_count))[::-1]
        return _walk_trial(rng, thresholds, rx, 2, cap)

    return _run_trials(plan, trial, typical, 2)


def simulate_queue(qs: QueueScenario, plan: TrialPlan) -> StoppingOutcome:
    """Tagged-message completion times under periodic packet arrivals.

    Worst-case alignment: everyone starts at the beginning of an interval.
    Users that fit inside one interval restart a fresh packet at every
    boundary; congested users stay busy continuously, starting the next
    queued packet the moment one finishes.  The recorded time per user is
    the completion of its first (tagged) message.
    """
    sc = qs.base
    s_total = sc.s_count
    thresholds = sc.thresholds
    base = AwgnScenario(sc.payload_bits, sc.power, 0.0)
    breakdown = queue_vlsf_lengths(QueueScenario(base, qs.t_sub))
    congested = np.arange(s_total) >= breakdown.r  # users r+1..S carry accumulation
    cap = int(CAP_FACTOR * max(breakdown.lengths.max(), qs.t_sub))
    rx = np.full(s_total, sc.power)
    # light users restart every interval, so every user may draw until the last stops
    stops = np.full(s_total, breakdown.lengths.max())
    return _run_trials(plan, lambda rng: _walk_trial(
        rng, thresholds, rx, 1, cap, qs.t_sub, congested), stops, 1)


def simulate_error_probability(payload_bits: float, snr: float,
                               plan: TrialPlan) -> ErrorRateEstimate:
    """Empirical error rate of threshold decoding against M-1 false codewords.

    Per trial, the true walk runs until its crossing at the payload's
    `message_threshold`; every competing codeword then replays the same
    received symbols with its own independent inputs, and an error is scored
    when any competitor crosses no later than the true walk.  Payloads lie
    in [2, 12] bits: the threshold needs 2, and all 2^K walks fit in 12.
    """
    if not 2 <= payload_bits <= 12:
        raise ValueError(f"payload_bits must lie in [2, 12], got {payload_bits}")
    check_positive("snr", snr)
    competitors = int(round(2.0**payload_bits)) - 1
    threshold = message_threshold(payload_bits)
    rate = capacity(snr)
    cap = int(CAP_FACTOR * max(threshold, rate) / rate)
    sqrt_snr = math.sqrt(snr)

    def work(rngs):
        errors = 0
        cap_hits = 0
        for rng in rngs:
            # symbol t reads row t: the input, then the noise; the window doubles
            z = rng.standard_normal((min(int(2.0 * threshold / rate) + 32, cap, _MAX_CHUNK), 2))
            while True:
                x = sqrt_snr * z[:, 0]
                received = x + z[:, 1]
                cum = np.cumsum(info_density_increment(x, received, snr, out=x), out=x)
                tau = int(np.argmax(cum >= threshold)) + 1
                crossed = cum[tau - 1] >= threshold
                if crossed or len(z) == cap:
                    break
                more = min(len(z), cap - len(z), _MAX_CHUNK)
                z = np.concatenate([z, rng.standard_normal((more, 2))])
            if not crossed:
                tau = cap
                cap_hits += 1  # undecided truth; competitors may still cross
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
                    errors += 1
                    break
        return errors, cap_hits

    # the truth draws 2 normals per symbol and each competitor 1, for about
    # threshold / rate symbols
    parts = _fan_out(plan, work, (competitors + 2) * threshold / rate)
    return ErrorRateEstimate(errors=sum(e for e, _ in parts), trials=plan.trials,
                             cap_hits=sum(c for _, c in parts))


def sorted_exponential_means(s_count: int, plan: TrialPlan) -> Estimate:
    """Empirical means of descending-sorted unit exponentials."""
    if not (is_int(s_count) and s_count >= 1):
        raise ValueError(f"s_count must be an integer >= 1, got {s_count}")
    return estimate(np.sort(rng.standard_exponential((n, s_count)), axis=1)[:, ::-1]
                    for rng, n in streams(plan, BLOCK))
