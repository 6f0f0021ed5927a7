"""Host-speed calibration: a fixed pure-Python block timed during each run.

A shared host runs the same interpreter code faster or slower from second
to second.  Timing this fixed block every few tens of milliseconds while a
segment runs (:class:`PeriodicCalibration`) measures how fast the host ran
meanwhile, and rescaling the segment's wall time by ``REFERENCE_BLOCK_S /
mean block time`` expresses it in *reference-host seconds*: the seconds the
segment would have taken on the host where :data:`REFERENCE_BLOCK_S` was
measured.  Blocks timed only before and after a segment track it worse than
raw wall time does, because the host changes speed within the segment.

The block deliberately imports nothing from ``repro``: a change to the
simulator must move the segment and never the yardstick.  It mixes the
simulator's kinds of interpreter work, since host slowdowns hit them
unequally: a toy bus stepped per cycle (slotted objects, attribute traffic,
a filter and a ``min`` with a key), plain objects with dict and list
members, random reads over a table larger than the CPU's private caches,
and pure-Python standard library code (``fractions``, ``heapq``).
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

#: Median seconds of one :meth:`HostCalibration.block` on the reference
#: host (a 2-vCPU Intel Xeon virtual machine, Python 3.11).
REFERENCE_BLOCK_S = 0.0133
#: CPU seconds of one block on the same host, timed every
#: :data:`OVERLAPPED_PERIOD_S` in the parent while the two workers of a pool
#: simulate.
REFERENCE_OVERLAPPED_BLOCK_S = 0.0153

#: Seconds of work between two blocks sampled during a run.  Beside the
#: workers of a pool the blocks are sparser, so that they take little CPU
#: from the workers.
PERIOD_S = 0.05
OVERLAPPED_PERIOD_S = 0.45

_TOY_CYCLES = 4000
_TABLE_ROWS = 1 << 16
_TABLE_READS = 12000
_OBJECTS = 3000
_FRACTION_STEPS = 300
#: What one block computes; checked so the block cannot change silently
#: without :data:`REFERENCE_BLOCK_S` being measured again.
_EXPECTED = (126, 789_340_090, 4_504_628, Fraction(6122, 15))


class _Master:
    __slots__ = ("budget", "gap", "granted", "ident", "pending")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.pending = False
        self.budget = 0
        self.granted = 0
        self.gap = ident + 1

    def tick(self) -> None:
        if not self.pending:
            self.gap -= 1
            if self.gap <= 0:
                self.pending = True
        if self.budget < 224:
            self.budget += 1


class _Bus:
    __slots__ = ("holder", "masters", "order", "release", "stats")

    def __init__(self, num_masters: int) -> None:
        self.masters = [_Master(i) for i in range(num_masters)]
        self.holder: _Master | None = None
        self.release = 0
        self.order = list(range(num_masters))
        self.stats = {"grants": 0, "busy": 0}

    def tick(self, now: int) -> None:
        holder = self.holder
        if holder is not None:
            self.stats["busy"] += 1
            holder.budget -= 4
            if now >= self.release:
                holder.pending = False
                holder.gap = (now * 7 + holder.ident) % 13
                self.holder = None
            return
        eligible = [m for m in self.masters if m.pending and m.budget >= 56]
        if eligible:
            first = self.order[now % len(self.order)]
            winner = min(eligible, key=lambda m: (m.ident - first) % 4)
            winner.granted += 1
            self.holder = winner
            self.release = now + 5 + (now & 31)
            self.stats["grants"] += 1


def _toy_bus() -> int:
    bus = _Bus(4)
    masters = bus.masters
    for now in range(_TOY_CYCLES):
        for master in masters:
            master.tick()
        bus.tick(now)
    return bus.stats["grants"]


class _Record:
    def __init__(self, value: int) -> None:
        self.value = value
        self.fields = {"x": value}
        self.history = [value]

    def update(self, step: int) -> int:
        return self.fields["x"] + step + len(self.history)


def _records() -> int:
    records = [_Record(i) for i in range(_OBJECTS)]
    total = 0
    for record in records:
        total += record.update(1)
        record.history.append(total & 7)
    index = {(i & 127, r.value & 3): r for i, r in enumerate(records)}
    return total + len(index)


def _stdlib() -> Fraction:
    rng = random.Random(11)
    heap: list[tuple[float, int]] = []
    total = Fraction(0)
    for i in range(_FRACTION_STEPS):
        heapq.heappush(heap, (rng.random(), i))
        if i % 3 == 0:
            heapq.heappop(heap)
        total += Fraction(i % 7, 1 + i % 5)
    return total


class HostCalibration:
    """The calibration block, with the table it reads built once."""

    def __init__(self) -> None:
        rng = random.Random(2017)
        self._table = [(i, 3 * i + 1) for i in range(_TABLE_ROWS)]
        self._reads = [rng.randrange(_TABLE_ROWS) for _ in range(_TABLE_READS)]

    def _table_walk(self) -> int:
        table = self._table
        total = 0
        for index in self._reads:
            row = table[index]
            total += row[1] - row[0]
        return total

    def block(self, clock: Callable[[], float] = time.perf_counter) -> float:
        """Seconds one block takes right now by ``clock`` (the garbage
        collector paused)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = clock()
            outcome = (_toy_bus(), self._table_walk(), _records(), _stdlib())
            elapsed = clock() - started
        finally:
            if enabled:
                gc.enable()
        if outcome != _EXPECTED:
            raise RuntimeError(f"calibration block computed {outcome}, not {_EXPECTED}")
        return elapsed

    def blocks(self, count: int) -> list[float]:
        return [self.block() for _ in range(count)]


def factor(samples: list[float], overlapped: bool = False) -> float:
    """Reference-host seconds per raw second while blocks took ``samples``.

    ``overlapped`` blocks ran beside the two workers of a pool, timed in CPU
    seconds, and compare with :data:`REFERENCE_OVERLAPPED_BLOCK_S`.
    """
    reference = REFERENCE_OVERLAPPED_BLOCK_S if overlapped else REFERENCE_BLOCK_S
    return reference * len(samples) / sum(samples)


class PeriodicCalibration:
    """Times a calibration block after every ``period_s`` of work.

    A one-shot ``SIGALRM`` timer, re-armed after each block, interrupts the
    work between two bytecodes of the main thread; the block touches
    nothing of the work's.  Sampling on a timer keeps the blocks as dense
    in a run of a few long jobs as in one of many short ones.
    """

    def __init__(
        self,
        calibration: HostCalibration,
        period_s: float,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.calibration = calibration
        self.period_s = period_s
        self.clock = clock
        self.samples: list[float] = []
        #: Wall seconds the blocks took, to leave out of the work's time.
        self.spent_s = 0.0

    def __enter__(self) -> PeriodicCalibration:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum: int, frame: object) -> None:
        started = time.perf_counter()
        self.samples.append(self.calibration.block(self.clock))
        self.spent_s += time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, self.period_s)


@dataclass
class Phase:
    """One timed phase of a segment."""

    #: Wall seconds, the blocks' own time left out where it can be.
    raw_s: float
    #: Reference-host seconds per raw second during the phase.
    factor: float
    #: ``time.perf_counter`` stamps of the phase's start and end.
    started: float
    ended: float

    @property
    def host_s(self) -> float:
        return self.raw_s * self.factor

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


class PhaseClock:
    """Times the phases of one segment in reference-host seconds.

    A serial phase is work of this process alone: blocks are timed right
    before and after it and every :data:`PERIOD_S` during it, and their own
    time is left out of the phase's.  An *overlapped* phase is one in which
    the workers of a pool simulate: blocks timed in this process then see
    the host as the workers do, so only they make the factor.  They are
    timed in this thread's CPU seconds, which measure how fast the host runs
    beside the workers and not how much of a CPU the scheduler leaves this
    process; that share would move with how busy the program keeps its
    workers.  They come every :data:`OVERLAPPED_PERIOD_S`, the first a whole
    period in, once the pool has started, and take about 3% of a CPU; their
    time cannot be left out, since the workers go on meanwhile.
    """

    def __init__(self, calibration: HostCalibration) -> None:
        self.calibration = calibration
        self.phases: dict[str, Phase] = {}

    @contextmanager
    def phase(self, name: str, overlapped: bool = False) -> Iterator[None]:
        gc.collect()
        before = self.calibration.block()
        if overlapped:
            sampler = PeriodicCalibration(self.calibration, OVERLAPPED_PERIOD_S, time.thread_time)
        else:
            sampler = PeriodicCalibration(self.calibration, PERIOD_S)
        started = time.perf_counter()
        with sampler:
            yield
        ended = time.perf_counter()
        after = self.calibration.block()
        if overlapped and sampler.samples:
            raw = ended - started
            scale = factor(sampler.samples, overlapped=True)
        else:
            raw = ended - started - sampler.spent_s
            scale = factor([before, *sampler.samples, after])
        self.phases[name] = Phase(raw, scale, started, ended)
