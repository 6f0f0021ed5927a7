"""The traced pass: spans, a per-layer cProfile and simulated counters.

Nothing here runs during the timed segments.  Spans are recorded from the
benchmark's own code around its calls into the program (``Campaign.run``,
the scenario runners, ``mbpta_from_samples``, the set-up phases), kept in
memory and written out once at exit.  The profile is bucketed by
``repro.<package>``; time and calls of functions outside ``repro`` (builtins,
numpy) are charged to the ``repro`` package that called them directly.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

#: The simulator layers the per-layer metrics report, one per package.
LAYERS = ("sim", "cpu", "cache", "bus", "arbiters", "core", "memory", "workloads", "platform")

#: Scenario runners wrapped during the traced pass.
SCENARIO_FUNCTIONS = (
    "run_isolation",
    "run_max_contention",
    "run_wcet_estimation",
    "run_mixed_criticality",
)

_PACKAGE = re.compile(r"[/\\]repro[/\\](?:(\w+)[/\\])?\w+\.py$")
#: Bucket of code outside ``repro`` whose direct caller is also outside it.
OTHER = "other"


@dataclass
class SpanRecorder:
    """In-memory spans: name, start, end, parent; written out at exit."""

    spans: list[dict[str, object]] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _origin: float = field(default_factory=time.perf_counter)

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[None]:
        ident = len(self.spans)
        record: dict[str, object] = {
            "id": ident,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start_s": time.perf_counter() - self._origin,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(ident)
        try:
            yield
        finally:
            self._stack.pop()
            record["end_s"] = time.perf_counter() - self._origin

    def add(self, name: str, start: float, end: float, **attrs: object) -> None:
        """Record a span another process timed, from its ``perf_counter``
        stamps (a system-wide monotonic clock), under the open span."""
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start_s": start - self._origin,
                "end_s": end - self._origin,
                **attrs,
            }
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=1, sort_keys=True))


def bucket_of(filename: str) -> str | None:
    """``repro`` package of a source file, or ``None`` outside ``repro``."""
    match = _PACKAGE.search(filename)
    if match is None:
        return None
    return match.group(1) or "repro"


@dataclass
class LayerProfile:
    self_s: dict[str, float]
    calls: dict[str, int]


def profile_layers(profile: cProfile.Profile, exclude: Callable[[str], bool]) -> LayerProfile:
    """Self time and calls per ``repro`` package.

    A function outside ``repro`` is split among its direct callers by the
    calls and time each caller spent in it; what a non-``repro`` caller
    spent goes to :data:`OTHER`.  Functions for which ``exclude(filename)``
    holds (the benchmark's own) and what they call directly are dropped.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}

    def charge(bucket: str, seconds: float, count: int) -> None:
        self_s[bucket] = self_s.get(bucket, 0.0) + seconds
        calls[bucket] = calls.get(bucket, 0) + count

    for (filename, _, _), (_, ncalls, tottime, _, callers) in stats.items():
        if exclude(filename):
            continue
        bucket = bucket_of(filename)
        if bucket is not None:
            charge(bucket, tottime, ncalls)
            continue
        if not callers:
            charge(OTHER, tottime, ncalls)
            continue
        for (caller_file, _, _), (caller_calls, _, caller_tottime, _) in callers.items():
            if exclude(caller_file):
                continue
            charge(bucket_of(caller_file) or OTHER, caller_tottime, caller_calls)
    return LayerProfile(self_s=self_s, calls=calls)


@contextmanager
def wrapped_scenarios(recorder: SpanRecorder, systems: list) -> Iterator[None]:
    """Wrap the scenario runners with spans; collect their ``SystemResult``.

    The campaign's built-in scenario runners import these functions from
    :mod:`repro.platform.scenarios` at call time, so replacing the module
    attributes reaches every in-process run.
    """
    import repro.platform.scenarios as scenarios

    originals = {name: getattr(scenarios, name) for name in SCENARIO_FUNCTIONS}

    def wrap(name: str, function: Callable) -> Callable:
        def traced(*args: object, **kwargs: object) -> object:
            with recorder.span(name, run_index=kwargs.get("run_index")):
                result = function(*args, **kwargs)
            systems.append(result.system)
            return result

        return traced

    for name, function in originals.items():
        setattr(scenarios, name, wrap(name, function))
    try:
        yield
    finally:
        for name, function in originals.items():
            setattr(scenarios, name, function)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def simulated_counters(systems: list) -> dict[str, float]:
    """Simulated per-layer counters pooled over every captured run (the L2
    miss rate, which ``SystemResult`` gives only as a rate, is their mean)."""
    total_cycles = sum(s.total_cycles for s in systems)
    counters = [c for s in systems for c in s.core_counters.values()]
    accesses = sum(c.accesses for c in counters)
    memory = [s.extra["memory"] for s in systems]
    dram_accesses = sum(m["reads"] + m["writes"] for m in memory)
    row_outcomes = sum(m["row_hits"] + m["row_misses"] + m["row_conflicts"] for m in memory)
    return {
        "sim.skip_ratio": _ratio(
            sum(s.observability["cycles_skipped"] for s in systems), total_cycles
        ),
        "cpu.batched_ratio": _ratio(
            sum(s.observability["batched_items"] for s in systems),
            sum(c.items_completed for c in counters),
        ),
        "cache.l1_miss_rate": _ratio(accesses - sum(c.l1_hits for c in counters), accesses),
        "cache.l2_miss_rate": _ratio(sum(s.l2_miss_rate for s in systems), len(systems)),
        "bus.utilization": _ratio(
            sum(s.bus_utilization * s.total_cycles for s in systems), total_cycles
        ),
        "core.cba_blocked_share": _ratio(
            sum(s.cba_blocked_cycles for s in systems), total_cycles
        ),
        "memory.row_hit_ratio": _ratio(sum(m["row_hits"] for m in memory), row_outcomes),
        "memory.reorder_ratio": _ratio(
            sum(m["reordered_accesses"] for m in memory), dram_accesses
        ),
    }
