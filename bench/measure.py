"""Timing, memory and result assembly shared by the workloads."""

from __future__ import annotations

import contextlib
import gc
import random
import resource
import signal
import statistics
import time
from array import array
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field

import inputs
import oracle
from spans import Tracer

SETUP_REPEATS = 5
KEPT_ROUNDS = 100  # about how many rounds' per-operation times a run keeps
OUT_DIR_NAME = ".bench-out"  # under the checkout: spans of traced runs, scratch input files

# Operations and set-ups are timed on CPU clocks, not on the wall clock.  On
# a shared host the wall clock also counts the time the hypervisor and the
# neighbours take the processor away.  The program is single-threaded and
# waits on nothing but its own children, so on an idle machine the CPU and
# wall clocks agree; each run prints their ratio.
process_clock = time.process_time  # CPU seconds, user plus system, of this process


def family_clock() -> float:
    """CPU seconds of this process plus those of its children that have ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# CPU time alone still moves with the host: on a shared host the same code
# runs up to 1.7 times slower in some stretches of seconds to minutes than in
# others (another tenant on the same physical core, most likely).  So a fixed
# reference task is timed between operations, and every time is reported at
# reference speed: the speed at which one reference task takes REFERENCE_S of
# CPU time, about what it takes on an uncontended core of the 2-core Xeon VM
# the README's figures come from.  The task does the kind of work the program
# does (closures and a cover reduction on int masks, frozenset algebra) with
# the benchmark's own code, so no change to the program changes it.
REFERENCE_S = 0.008
_REFERENCE_TABLE = inputs.random_table(random.Random("reference"), 70, 12, 0.3)


def reference_time() -> float:
    """CPU seconds one run of the reference task takes now."""
    start = process_clock()
    extents = sorted(oracle.closure_system(_REFERENCE_TABLE), key=oracle.concept_key)
    covers = oracle.all_pairs_covers(extents)
    sets = [frozenset(oracle.bits(e)) for e in extents]
    sum(len(sets[a] & sets[b]) for a, b in covers)
    return process_clock() - start


def at_reference_speed(seconds, speed: list[float], firsts, ends) -> list[float]:
    """Scale each time by the mean of the reference times taken around it.

    ``speed[firsts[i]]`` is the last reference time taken before
    ``seconds[i]`` began, ``speed[firsts[i]+1:ends[i]]`` were taken while it
    ran, and ``speed[ends[i]]``, if there is one, after it.
    """
    out = []
    for t, first, end in zip(seconds, firsts, ends):
        around = speed[first : end + 1]
        out.append(t * REFERENCE_S * len(around) / sum(around))
    return out


@dataclass
class Outcome:
    """What one workload run produced, before it is turned into metrics."""

    clock: Callable[[], float] = process_clock  # the CPU clock operations are timed on
    # One entry per operation completed in a kept round (see end_round), in
    # arrays: this bookkeeping is part of the peak memory reported, so it is
    # kept small and does not grow with the program's speed.  ``firsts`` and
    # ``ends`` locate the reference times around each operation, as
    # :func:`at_reference_speed` describes.
    latencies: array = field(default_factory=lambda: array("d"))  # CPU seconds
    positions: array = field(default_factory=lambda: array("i"))  # the operation's place in its round
    firsts: array = field(default_factory=lambda: array("i"))
    ends: array = field(default_factory=lambda: array("i"))
    keep_every: int = 1  # per-operation times are kept for every keep_every-th round
    cpu: float = 0.0  # CPU seconds of all completed operations, kept or not
    wall: float = 0.0  # wall-clock seconds of the same operations
    speed: list[float] = field(default_factory=list)  # reference times, in the order taken
    sampling: float = 0.0  # CPU seconds spent timing the reference task
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)  # operation label -> times it failed
    problems: list[str] = field(default_factory=list)  # check failures, first few kept

    def new_round(self) -> None:
        self.rounds += 1

    def take_speed(self) -> None:
        """Time the reference task: before each operation or round, and once at the end."""
        start = process_clock()
        self.speed.append(reference_time())
        self.sampling += process_clock() - start

    def start(self) -> tuple:
        """Marks taken as an operation begins, for :meth:`record`."""
        return time.perf_counter(), self.clock(), self.sampling, len(self.speed) - 1

    def record(self, position: int, marks: tuple) -> None:
        """Record the operation begun at ``marks`` that has just returned.

        Reference tasks timed while it ran are taken out of its time.
        """
        cpu, wall = self.clock(), time.perf_counter()
        wall_start, cpu_start, sampling_start, first = marks
        sampled = self.sampling - sampling_start
        self.cpu += cpu - cpu_start - sampled
        self.wall += wall - wall_start - sampled
        if (self.rounds - 1) % self.keep_every:
            return
        self.latencies.append(cpu - cpu_start - sampled)
        self.positions.append(position)
        self.firsts.append(first)
        self.ends.append(len(self.speed))

    def fail(self, label: str) -> None:
        self.failed += 1
        self.failures[label] += 1

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


@contextlib.contextmanager
def sampling_speed(outcome: Outcome, interval: float):
    """Also time the reference task every ``interval`` seconds, inside operations.

    An operation that takes a second or more can see the host's speed change
    while it runs; samples taken inside it follow the change.  Python runs
    the handler between two bytecodes of the operation, and
    :meth:`Outcome.record` takes its CPU time out of the operation's.  The
    timer is a wall-clock one: a CPU-time timer would make the kernel count
    the process's CPU time in whole scheduler ticks.
    """
    busy = False

    def sample(signum, frame):
        nonlocal busy
        if not busy:  # a signal that arrives during a sample is dropped
            busy = True
            try:
                outcome.take_speed()
            finally:
                busy = False

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def end_round(outcome: Outcome, budget: float) -> bool:
    """Close a round; return whether the rounds so far come nearest ``budget``.

    ``budget`` is seconds of operation time, on the wall clock here, so that
    a run lasts about as long on a busy machine as on an idle one.  Rounds
    are whole, so a run stops after the number of rounds whose operation
    time is nearest the budget (at least one): after ``r`` rounds of mean
    time ``T`` once ``r*T + T/2 >= budget``.  Set-up, checks and the
    interpreter's start come on top.

    After the first round, the rounds whose per-operation times are kept
    are set: every ``k``-th, for about KEPT_ROUNDS of them over the run.
    """
    if not outcome.wall:  # no operation completed
        return True
    if outcome.rounds == 1:
        outcome.keep_every = max(1, int(budget / (outcome.wall * KEPT_ROUNDS)))
    return outcome.wall * (1 + 0.5 / outcome.rounds) >= budget


def timed_setup(build, clock=process_clock):
    """Run ``build`` several times; return its last result and the median time.

    Each build is timed on ``clock`` and scaled to reference speed.
    """
    times, speed = [], []
    result = None
    for _ in range(SETUP_REPEATS):
        result = None  # let the previous result go before building the next
        gc.collect()
        speed.append(reference_time())
        start = clock()
        result = build()
        times.append(clock() - start)
    speed.append(reference_time())
    scaled = at_reference_speed(times, speed, range(SETUP_REPEATS), range(1, SETUP_REPEATS + 1))
    return result, statistics.median(scaled)


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def _p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98] if len(values) > 1 else values[0]


def scaled_latencies(outcome: Outcome) -> list[float]:
    """The kept operation times, each at reference speed."""
    return at_reference_speed(outcome.latencies, outcome.speed, outcome.firsts, outcome.ends)


def op_costs(outcome: Outcome) -> list[float]:
    """Each operation's median time at reference speed over the rounds of the run.

    Every round runs the same operations, so each operation has one time per
    round; the median keeps a burst of noise in a few rounds from moving it.
    The costs are in round order.
    """
    times = defaultdict(list)
    for position, seconds in zip(outcome.positions, scaled_latencies(outcome)):
        times[position].append(seconds)
    return [statistics.median(times[k]) for k in sorted(times)]


def latency_metrics(outcome: Outcome) -> dict[str, tuple[float, str]]:
    """Throughput and latency percentiles of one round, from the operations' median costs."""
    costs = op_costs(outcome)
    return {
        "ops_per_s": (len(costs) / sum(costs), "ops/s"),
        "op_p50_ms": (statistics.median(costs) * 1e3, "ms"),
        "op_p99_ms": (_p99(costs) * 1e3, "ms"),
    }


def host_figures(outcome: Outcome) -> dict[str, float]:
    """How busy the host was: printed with the results, not part of them."""
    return {
        # wall-clock time of the timed operations over their CPU time: 1 on an idle machine
        "wall/CPU time of operations": outcome.wall / outcome.cpu,
        # the host's speed over reference speed, from the median reference time
        "host speed / reference speed": REFERENCE_S / statistics.median(outcome.speed),
    }


def phases(seconds: float, trace: bool, run_phase, traced_setup=None):
    """Run the timed phase, or for a traced run an untraced and a traced half.

    ``run_phase(seconds, tracer)`` runs whole rounds of operations until
    :func:`end_round` says they come nearest ``seconds`` of operation
    time and returns an :class:`Outcome`.  Returns the outcome used for
    end-to-end figures (the untraced one), the combined attempted/failed
    counts, and in a traced run the tracer with the per-layer figures.
    """
    if not trace:
        outcome = run_phase(seconds, None)
        return outcome, outcome, None, {}
    plain = run_phase(seconds / 2, None)
    tracer = Tracer()
    with tracer:
        if traced_setup is not None:
            traced_setup()
        traced = run_phase(seconds / 2, tracer)
    layers = tracer.layer_metrics(traced.attempted)
    plain_costs, traced_costs = scaled_latencies(plain), scaled_latencies(traced)
    plain_p50 = statistics.median(plain_costs)
    layers["trace.overhead_p50_ms"] = (statistics.median(traced_costs) - plain_p50) * 1e3
    plain_mean = statistics.fmean(plain_costs)
    layers["trace.overhead_pct"] = (statistics.fmean(traced_costs) / plain_mean - 1) * 100
    total = Outcome(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        failures=plain.failures + traced.failures,
        problems=(plain.problems + traced.problems)[:20],
    )
    return plain, total, tracer, layers
