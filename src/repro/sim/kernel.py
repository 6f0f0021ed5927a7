"""Cycle-driven simulation kernel with an event queue for dead-cycle skipping.

The kernel owns the clock, the component list, the trace recorder and the
per-run random streams.  One call to :meth:`Kernel.step` advances the
simulated platform by exactly one cycle:

1. every component's :meth:`~repro.sim.component.Component.tick` runs
   (evaluate phase, registration order);
2. every component's :meth:`~repro.sim.component.Component.post_tick` runs
   (commit phase, registration order);
3. the clock advances.

:meth:`Kernel.run` steps until a stop condition (cycle limit or a registered
completion predicate) is met.  In addition, ``run`` *fast-forwards* through
dead cycles: when every component promises to be inert until some future
cycle, the kernel jumps the clock there in one step, replaying the skipped
cycles' uniform accounting through
:meth:`~repro.sim.component.Component.fast_forward`.  Because a cycle is only
skipped when *no* component can change state in it, the executed event cycles
(grants, completions, cache accesses, RNG draws) are identical to plain
stepping — fast-forwarded runs are bit-identical to cycle-by-cycle runs.

How far the kernel may jump is decided by an **event queue**: components
*push* their wakes into a binary heap (:class:`EventQueue`) via
:meth:`Kernel.schedule_wake` at the state transitions where the wake
changes (a bus grant, a request completion, a trace item boundary), and
superseded wakes are invalidated lazily through per-component generation
counters, so finding the next wake is an O(log n) heap peek per executed
cycle.  A component that sets
:attr:`~repro.sim.component.Component.event_driven` owns its heap entry;
any other component is *polled* instead — before each scheduling decision
the kernel folds its :meth:`~repro.sim.component.Component.next_event` into
the heap minimum.  The poll fallback is needed for correctness by
components whose wake reads state other components own (the WCET-mode
contenders).  A wake that is scheduled but stale (the component's state
moved on without rescheduling) only ever *adds* executed cycles — by the
hint contract a tick before a component's true wake is uniform
bookkeeping, so staleness degrades skipping, never correctness.

The one switch, ``fast_forward``, selects between skipping and plain
cycle-by-cycle stepping; :class:`~repro.sim.config.ExecutionMode` maps
``FAST`` and ``REFERENCE`` onto it.

Components may do arbitrarily much work per *event* to widen the gaps between
events: the cores' batch interpreter (:mod:`repro.cpu.core_model`) executes a
whole bus-free trace stretch at the cycle it becomes known and then exposes
the stretch end as its wake, so the kernel jumps stretches that the per-item
hints would have broken into per-item wakes.  The kernel needs no knowledge
of this — the wake/``fast_forward`` contract already expresses it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Iterable, Protocol

from .clock import Clock
from .component import Component
from .errors import SchedulingError
from .rng import RandomStreams
from .trace import NullTraceRecorder, TraceRecorder

__all__ = ["EventQueue", "Kernel", "RunProfiler"]


class RunProfiler(Protocol):
    """What :meth:`Kernel.enable_profiling` needs from a profiler.

    The concrete implementation lives in :mod:`repro.obs.profiler`; the
    kernel only depends on this structural interface so the simulation core
    stays import-free of the observability layer.
    """

    def proxy(self, component: "Component", hook: str) -> Any:
        """Return a stand-in exposing ``hook`` as a timed callable."""
        ...

    def on_run(self, wall_seconds: float, executed_cycles: int) -> None:
        """Record the wall-clock of one finished :meth:`Kernel.run` call."""
        ...


class EventQueue:
    """A heap of scheduled component wakes with lazy invalidation.

    Each registered component owns one *slot*.  Scheduling a wake pushes a
    ``(cycle, slot, generation)`` entry and bumps the slot's generation, so
    every previously pushed entry for the slot becomes stale; stale entries
    are discarded lazily when they reach the heap top (:meth:`next_wake`),
    which keeps both :meth:`schedule` and :meth:`cancel` O(log n) worst case
    and O(1) amortised — no in-heap deletion ever happens.

    A slot has at most one *live* entry (its most recent schedule).  A live
    entry persists until rescheduled or cancelled, even after its cycle
    passes: a live entry at or before the current cycle reads as "this
    component may act every cycle", which forces execution rather than
    skipping — the safe direction.
    """

    __slots__ = ("_generations", "_heap", "_targets")

    def __init__(self) -> None:
        #: Pending ``(cycle, slot, generation)`` entries (stale ones included).
        self._heap: list[tuple[int, int, int]] = []
        #: Current generation per slot; only entries carrying it are live.
        self._generations: list[int] = []
        #: Cycle of the slot's live entry, or ``None`` when nothing is
        #: scheduled.  Used to deduplicate same-cycle reschedules.
        self._targets: list[int | None] = []

    def add_slot(self) -> int:
        """Allocate a slot for one more component and return its index."""
        self._generations.append(0)
        self._targets.append(None)
        return len(self._generations) - 1

    def schedule(self, slot: int, cycle: int) -> None:
        """Make ``cycle`` the slot's wake, superseding any earlier schedule.

        Re-scheduling the already-live cycle is a no-op (no heap churn), which
        keeps steady-state re-confirmations — e.g. the bus re-asserting its
        release cycle every executed cycle of a long transaction — free.
        """
        if self._targets[slot] == cycle:
            return
        generation = self._generations[slot] + 1
        self._generations[slot] = generation
        self._targets[slot] = cycle
        heappush(self._heap, (cycle, slot, generation))

    def cancel(self, slot: int) -> None:
        """Drop the slot's live entry (the component has no self-scheduled wake)."""
        if self._targets[slot] is None:
            return
        self._generations[slot] += 1
        self._targets[slot] = None

    def next_wake(self) -> int | None:
        """Earliest live wake, or ``None`` when nothing is scheduled.

        Pops stale heap entries on the way; the returned entry itself is left
        in place (it stays live until its component reschedules or cancels).
        """
        heap = self._heap
        generations = self._generations
        while heap:
            cycle, slot, generation = heap[0]
            if generation == generations[slot]:
                return cycle
            heappop(heap)
        return None

    def scheduled_cycle(self, slot: int) -> int | None:
        """Cycle of the slot's live entry, or ``None`` (observability)."""
        return self._targets[slot]

    def clear(self) -> None:
        """Invalidate every entry (all slots keep their identity)."""
        self._heap.clear()
        generations = self._generations
        targets = self._targets
        for slot in range(len(generations)):
            generations[slot] += 1
            targets[slot] = None

    def __len__(self) -> int:
        """Number of heap entries, stale ones included (observability)."""
        return len(self._heap)


class Kernel:
    """The cycle-driven simulation engine."""

    def __init__(
        self,
        seed: int = 0,
        run_index: int = 0,
        frequency_hz: float = 100_000_000.0,
        trace: TraceRecorder | None = None,
        fast_forward: bool = True,
    ) -> None:
        self.clock = Clock(frequency_hz=frequency_hz)
        self.streams = RandomStreams(seed=seed, run_index=run_index)
        self.trace = trace if trace is not None else NullTraceRecorder()
        self._components: list[Component] = []
        self._by_name: dict[str, Component] = {}
        self._tickers: list[Component] = []
        self._post_tickers: list[Component] = []
        self._fast_forwarders: list[Component] = []
        #: Pre-bound ``next_event`` methods of the components that do not
        #: push wakes (the poll fallback); binding them at registration
        #: spares the attribute lookup per component per executed cycle.
        self._poll_hinters: list[Callable[[int], int | None]] = []
        self._all_hinted = True
        self._stop_conditions: list[Callable[[], bool]] = []
        self._stop_hints: list[Callable[[int], int | None]] = []
        self.finished = False
        self.stop_condition_fired = False
        #: Cycle bound of the :meth:`run` in progress (``start + max_cycles``),
        #: ``None`` outside a run.  See :meth:`run_horizon`.
        self._run_limit: int | None = None
        #: Enable event-aware fast-forwarding in :meth:`run`.  Skipping is
        #: bit-identical to stepping by construction; the switch exists for
        #: equivalence tests and benchmarking, not as a safety valve.
        self.fast_forward = fast_forward
        self._events = EventQueue()
        #: Cycles :meth:`run` jumped over instead of stepping (observability).
        self.cycles_skipped = 0
        #: Wall-clock profiler installed by :meth:`enable_profiling`
        #: (``None`` keeps the uninstrumented hot loop — the default).
        self.profiler: RunProfiler | None = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, component: Component) -> Component:
        """Register ``component`` so it is ticked every cycle.

        Components are ticked in registration order; the platform builder
        registers them in pipeline order (cores, caches, arbiter, bus, memory)
        so that requests issued in a cycle can be observed by the arbiter in
        the same cycle, matching the single-cycle arbitration of the paper.
        """
        if component.name in self._by_name:
            raise SchedulingError(f"a component named {component.name!r} is already registered")
        if self.profiler is not None:
            # The hook lists were already swapped for timing proxies; a late
            # registration would run unprofiled and skew the attribution.
            raise SchedulingError("cannot register components after profiling was enabled")
        component.bind(self)
        component._wake_slot = self._events.add_slot()
        component._wake_schedule = self._events.schedule
        component._wake_cancel = self._events.cancel
        self._components.append(component)
        self._by_name[component.name] = component
        # Components that keep the base class's no-op hooks are excluded from
        # the per-cycle loops entirely; this is the single hottest loop in the
        # simulator, and no built-in component overrides post_tick.
        if type(component).tick is not Component.tick:
            self._tickers.append(component)
        if type(component).post_tick is not Component.post_tick:
            self._post_tickers.append(component)
        if type(component).fast_forward is not Component.fast_forward:
            self._fast_forwarders.append(component)
        if component.event_driven:
            # The component owns a heap entry; seed it from its current state
            # so the first scheduling decision sees a valid wake even before
            # the component's first tick had a chance to push one.
            self._prime_wake(component)
        else:
            self._poll_hinters.append(component.next_event)
            if type(component).next_event is Component.next_event:
                # The base hint pins the wake to the current cycle, so one
                # non-opted-in component disables skipping for the whole
                # kernel; remember that and spare run() the per-cycle probing.
                self._all_hinted = False
        return component

    def _prime_wake(self, component: Component) -> None:
        """Seed an event-driven component's heap entry from its hint."""
        hint = component.next_event(self.clock.cycle)
        if hint is None:
            self._events.cancel(component._wake_slot)
        else:
            self._events.schedule(component._wake_slot, hint)

    def enable_profiling(self, profiler: RunProfiler) -> None:
        """Attribute hook wall-clock to components via ``profiler``.

        Swaps every entry of the pre-bound hook lists for a timing proxy, so
        the per-cycle cost exists *only* on profiled kernels — the disabled
        mode keeps the exact loops the hook-list filtering built (the same
        zero-cost-when-off pattern).  Must be called after every component is
        registered (later registrations raise) and at most once per kernel.
        """
        if self.profiler is not None:
            raise SchedulingError("profiling is already enabled on this kernel")
        self.profiler = profiler
        self._tickers = [profiler.proxy(c, "tick") for c in self._tickers]
        self._post_tickers = [profiler.proxy(c, "post_tick") for c in self._post_tickers]
        self._fast_forwarders = [
            profiler.proxy(c, "fast_forward") for c in self._fast_forwarders
        ]

    def register_all(self, components: Iterable[Component]) -> None:
        """Register several components in order."""
        for component in components:
            self.register(component)

    @property
    def components(self) -> tuple[Component, ...]:
        return tuple(self._components)

    def component(self, name: str) -> Component:
        """Return the registered component called ``name``."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no component named {name!r}") from None

    # ------------------------------------------------------------------
    # Wake scheduling (the push side of the fast-forward contract)
    # ------------------------------------------------------------------
    def schedule_wake(self, component: Component, cycle: int) -> None:
        """Schedule (or move) ``component``'s wake to ``cycle``.

        The wake carries the same meaning as a ``next_event`` hint returning
        ``cycle``: every tick of the component before ``cycle`` is uniform
        bookkeeping replayed by ``fast_forward``, and the component must be
        ticked at ``cycle``.  It stays in force — superseding any earlier
        schedule via the queue's generation counters — until rescheduled or
        cancelled; components therefore push exactly at the state transitions
        after which their previous wake no longer describes them (a bus
        grant, a completion, a credit replenish target, a stretch end).
        """
        self._events.schedule(component._wake_slot, cycle)

    def cancel_wake(self, component: Component) -> None:
        """Drop ``component``'s scheduled wake (hint value ``None``: only
        another component's activity — a tick the kernel executes anyway —
        can affect it)."""
        self._events.cancel(component._wake_slot)

    def scheduled_wake(self, component: Component) -> int | None:
        """The component's currently scheduled wake cycle (observability)."""
        return self._events.scheduled_cycle(component._wake_slot)

    # ------------------------------------------------------------------
    # Stop conditions
    # ------------------------------------------------------------------
    def add_stop_condition(
        self,
        predicate: Callable[[], bool],
        next_event: Callable[[int], int | None] | None = None,
    ) -> None:
        """Stop the run as soon as ``predicate()`` returns True (checked once per cycle).

        ``predicate`` is assumed to watch *event* state — state that flips on
        the exact cycle its event executes (task finished, request granted,
        bus released, ...).  Such predicates cannot flip across a
        fast-forwarded stretch, because cycles are only skipped when every
        tick in them would be a no-op.  A predicate that instead watches the
        clock ("stop at cycle X") or *accounting* — anything replayed in bulk
        by ``fast_forward`` (stall-cycle counters, credit balances, monitor
        windows) or applied eagerly by the cores' batch interpreter
        (trace-progress counters such as ``items_completed``/``l1_hits`` and
        cache hit statistics, which advance whole bus-free stretches at a
        time) — must supply ``next_event``, the same wake-hint contract as
        components: given the current cycle, return the earliest future cycle
        at which the predicate could flip, or ``None`` for "no time bound"
        (even a conservative ``lambda now: now`` suffices).  Without a hint
        such a predicate would fire on the wrong cycle; with one, the kernel
        re-checks it at the hinted cycles and the batch interpreter disables
        itself (:attr:`has_hinted_stops`), so the firing cycle is exactly the
        stepped one.
        """
        self._stop_conditions.append(predicate)
        if next_event is not None:
            self._stop_hints.append(next_event)

    def _should_stop(self) -> bool:
        # Checked once per executed cycle; a plain loop avoids allocating a
        # generator + closure pair each time (any() with a genexpr does).
        for predicate in self._stop_conditions:
            if predicate():
                return True
        return False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self, cycles: int = 1) -> int:
        """Advance the simulation by ``cycles`` cycles and return the new time."""
        if self.finished:
            raise SchedulingError("cannot step a kernel that has already finished")
        tickers = self._tickers
        post_tickers = self._post_tickers
        clock = self.clock
        for _ in range(cycles):
            for component in tickers:
                component.tick()
            for component in post_tickers:
                component.post_tick()
            clock.advance()
        return clock.cycle

    def _poll_refine(self, wake: int, now: int) -> int:
        """Fold the poll-fallback hints and stop hints into a heap ``wake``.

        Only components that do not push wakes (e.g. the WCET-mode
        contenders, whose hint reads *another* component's state) and the
        hinted stop conditions are polled; the run loop skips this entirely
        when neither exists.  Returns ``now`` as soon as any hint pins the
        current cycle (no skipping possible), otherwise the earliest future
        wake not above the starting ``wake``.
        """
        for hinter in self._poll_hinters:
            hint = hinter(now)
            if hint is None:
                continue
            if hint <= now:
                return now
            if hint < wake:
                wake = hint
        for stop_hint in self._stop_hints:
            hint = stop_hint(now)
            if hint is None:
                continue
            if hint <= now:
                return now
            if hint < wake:
                wake = hint
        return wake

    @property
    def has_hinted_stops(self) -> bool:
        """Whether any registered stop condition supplied a wake hint.

        Hinted predicates are the ones allowed to watch the clock or
        fast-forwarded accounting (see :meth:`add_stop_condition`); a
        counter-watching one would observe eagerly-applied batch effects
        cycles before their real completion ticks, so the cores' batch
        interpreter falls back to cycle-accurate execution whenever such a
        predicate exists.
        """
        return bool(self._stop_hints)

    def run_horizon(self, now: int) -> int | None:
        """Earliest cycle whose tick might *not* execute, or ``None`` if unbounded.

        The cycle budget of the :meth:`run` in progress bounds how far the
        run can possibly step: the tick at the returned cycle — and at every
        later cycle — may never run.  Components that apply work *eagerly*
        for future cycles (the cores' batch interpreter) must keep that work
        strictly below this horizon, otherwise a run truncated at its budget
        would report effects from cycles it never executed.  Hinted stop
        conditions could also end the run early, but they disable eager
        batching altogether (:attr:`has_hinted_stops`), so they need no
        bounding here; they are still folded in as defense in depth.
        """
        bound = self._run_limit
        for stop_hint in self._stop_hints:
            hint = stop_hint(now)
            if hint is not None and (bound is None or hint < bound):
                bound = hint
        return bound

    def _jump_to(self, wake: int) -> None:
        """Fast-forward every component and the clock to cycle ``wake``."""
        delta = wake - self.clock.cycle
        trace = self.trace
        if trace.enabled:
            trace.record(self.clock.cycle, "kernel", "kernel.jump", cycles=delta, to=wake)
        for component in self._fast_forwarders:
            component.fast_forward(delta)
        self.clock.advance(delta)
        self.cycles_skipped += delta

    def run(self, max_cycles: int = 1_000_000) -> int:
        """Run until a stop condition fires or ``max_cycles`` is reached.

        Returns the number of cycles executed by this call (stepped plus
        fast-forwarded).  Whether the run ended because a stop condition fired
        (as opposed to exhausting the ``max_cycles`` budget) is recorded in
        :attr:`stop_condition_fired`; :attr:`truncated` is the complementary
        view.
        """
        if self.finished:
            raise SchedulingError("cannot run a kernel that has already finished")
        profiler = self.profiler
        # Profiler telemetry: wall time of the host loop, not simulated time.
        # repro-lint: allow[DET001]
        run_started = perf_counter() if profiler is not None else 0.0
        clock = self.clock
        start = clock.cycle
        limit = start + max_cycles
        self._run_limit = limit
        fast_forward = self.fast_forward and self._all_hinted
        tickers = self._tickers
        post_tickers = self._post_tickers
        # The heap peek is inlined below (the queue's internals are bound
        # once): at a handful of components the scheduling decision is only
        # a few hundred nanoseconds, and a call per executed cycle is
        # measurable against it.
        events_heap = self._events._heap
        events_generations = self._events._generations
        must_poll = bool(self._poll_hinters or self._stop_hints)
        stop_fired = False
        while clock.cycle < limit:
            if self._should_stop():
                stop_fired = True
                break
            if fast_forward:
                wake = limit
                while events_heap:
                    cycle_, slot_, generation_ = events_heap[0]
                    if generation_ == events_generations[slot_]:
                        if cycle_ < limit:
                            wake = cycle_
                        break
                    heappop(events_heap)
                if must_poll and wake > clock.cycle:
                    wake = self._poll_refine(wake, clock.cycle)
                if wake > clock.cycle:
                    self._jump_to(wake)
                    # No tick ran during the jump, so an event-state stop
                    # predicate (the add_stop_condition contract) cannot have
                    # flipped: fall straight through to stepping the wake
                    # cycle.  Only hinted predicates — the ones allowed to
                    # watch the clock or fast-forwarded accounting — must be
                    # re-checked, and only the cycle budget can run out.
                    if self._stop_hints:
                        continue
                    if clock.cycle >= limit:
                        break
            # One cycle, inlined from step(): this is the hottest loop in the
            # simulator and the call/loop setup of step(1) is measurable.
            for component in tickers:
                component.tick()
            for component in post_tickers:
                component.post_tick()
            clock.advance()
        if not stop_fired:
            # The loop ran out of cycle budget; a stop condition may still
            # hold at the boundary (e.g. the last step finished the work).
            stop_fired = self._should_stop()
        self.stop_condition_fired = stop_fired
        self.finished = True
        if profiler is not None:
            # repro-lint: allow[DET001]
            profiler.on_run(perf_counter() - run_started, clock.cycle - start)
        return clock.cycle - start

    @property
    def truncated(self) -> bool:
        """True when the run stopped at the cycle budget without completing."""
        return self.finished and not self.stop_condition_fired

    def reset(self) -> None:
        """Reset the clock and every component to its power-on state."""
        self.clock.reset()
        self.finished = False
        self.stop_condition_fired = False
        self._run_limit = None
        self.cycles_skipped = 0
        self._events.clear()
        for component in self._components:
            component.reset()
        # Re-seed the heap from the components' power-on hints, exactly as
        # registration did.
        for component in self._components:
            if component.event_driven:
                self._prime_wake(component)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Kernel(cycle={self.clock.cycle}, components={len(self._components)}, "
            f"finished={self.finished})"
        )
