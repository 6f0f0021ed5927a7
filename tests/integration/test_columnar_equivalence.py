"""Columnar trace and batch interpreter equivalence matrix.

The FAST execution mode pre-materialises every trace into ``(gap, address,
kind)`` arrays consumed by the core's cursor, and lets the batch interpreter
execute whole bus-free stretches (L1-hit reads and pure compute) in one
call.  It promises to be *bit-identical* to the REFERENCE oracle, which
steps every cycle over lazy item-at-a-time traces: same RNG draws, same
cache outcomes, same grant/completion cycles, same counters, same pWCET
inputs.  These tests enforce the promise across every arbitration policy,
CBA on and off, and the scenarios that exercise every consumption state
(greedy contention, the Table I WCET-estimation mode, multiprogram runs with
store buffers, best-effort co-runners, runs truncated mid-stretch or under
contention, the vectorised residency scan) on two to eight cores, mirroring
the fast-forward equivalence matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cpu.trace import MaterializedTrace
from repro.platform.presets import cba_config, rp_config
from repro.platform.scenarios import (
    ScenarioResult,
    run_isolation,
    run_max_contention,
    run_mixed_criticality,
    run_multiprogram,
    run_wcet_estimation,
)
from repro.platform.system import MulticoreSystem
from repro.sim.config import ExecutionMode, PlatformConfig
from repro.workloads.base import WorkloadSpec
from repro.workloads.synthetic import cpu_bound_workload, mixed_workload

ARBITERS = [
    "fifo",
    "round_robin",
    "tdma",
    "lottery",
    "random_permutations",
    "fixed_priority",
]

MAX_CYCLES = 2_000_000
REFERENCE = ExecutionMode.REFERENCE
FAST = ExecutionMode.FAST


def _config(arbitration: str, use_cba: bool, **kwargs) -> PlatformConfig:
    return PlatformConfig(
        arbitration=arbitration, random_caches=True, use_cba=use_cba, **kwargs
    )


def _snapshot(result: ScenarioResult) -> dict:
    """Flatten everything observable about a scenario run for comparison."""
    system = result.system
    return {
        "scenario": result.scenario,
        "tua_cycles": result.tua_cycles,
        "truncated": result.truncated,
        "total_cycles": system.total_cycles,
        "core_counters": {
            core: counters.as_dict() for core, counters in system.core_counters.items()
        },
        "request_latencies": {
            core: counters.request_latencies
            for core, counters in system.core_counters.items()
        },
        "bus_utilization": system.bus_utilization,
        "bandwidth_shares": system.bandwidth_shares,
        "grants_per_core": system.grants_per_core,
        "cycles_per_core": system.cycles_per_core,
        "cba_blocked_cycles": system.cba_blocked_cycles,
        "l1_miss_rates": system.l1_miss_rates,
        "l2_miss_rate": system.l2_miss_rate,
        "extra": system.extra,
    }


@pytest.fixture
def varied_workload() -> WorkloadSpec:
    """A workload exercising every access kind and the pure-compute tail."""
    return WorkloadSpec(
        name="varied",
        num_accesses=150,
        working_set_bytes=32 * 1024,
        mean_compute_gap=4.0,
        gap_variability=0.6,
        write_fraction=0.3,
        atomic_fraction=0.05,
        hot_fraction=0.4,
        hot_region_bytes=2 * 1024,
        tail_compute_cycles=25,
    )


@pytest.mark.parametrize("use_cba", [False, True], ids=["plain", "cba"])
@pytest.mark.parametrize("arbitration", ARBITERS)
def test_max_contention_identical_with_and_without_materialization(
    arbitration: str, use_cba: bool, varied_workload: WorkloadSpec
):
    """Greedy contention across the full policy/CBA matrix, with a workload
    that mixes reads, writes, atomics, hot-region reuse and a compute tail:
    the batch path must place every boundary bus access, grant and RNG draw
    on exactly the cycles the stepped item-at-a-time path produces."""
    config = _config(arbitration, use_cba)
    kwargs = dict(seed=11, run_index=2, max_cycles=MAX_CYCLES)
    lazy = run_max_contention(varied_workload, config, mode=REFERENCE, **kwargs)
    columnar = run_max_contention(varied_workload, config, mode=FAST, **kwargs)
    assert _snapshot(lazy) == _snapshot(columnar)


@pytest.mark.parametrize("use_cba", [True, False], ids=["cba", "plain"])
@pytest.mark.parametrize("arbitration", ARBITERS)
def test_wcet_estimation_identical_with_and_without_materialization(
    arbitration: str, use_cba: bool, varied_workload: WorkloadSpec
):
    """The Table I analysis-mode scenario: the contenders observe the TuA's
    request line cycle by cycle (the most timing-sensitive observer, and the
    poll-fallback components of the event queue), which the cursor and batch
    paths must toggle on exactly the same cycles as the item-at-a-time
    path."""
    config = _config(arbitration, use_cba)
    kwargs = dict(seed=5, run_index=7, max_cycles=MAX_CYCLES)
    lazy = run_wcet_estimation(varied_workload, config, mode=REFERENCE, **kwargs)
    columnar = run_wcet_estimation(varied_workload, config, mode=FAST, **kwargs)
    assert _snapshot(lazy) == _snapshot(columnar)


@pytest.mark.parametrize("use_cba", [False, True], ids=["plain", "cba"])
@pytest.mark.parametrize("arbitration", ARBITERS)
def test_multiprogram_with_store_buffers_identical(arbitration: str, use_cba: bool):
    """Real tasks on every core plus write buffers: exercises the buffered
    store drain, port-wait and store-stall states on the cursor path, the
    suspension of batching while stores drain, and core wakes rescheduled
    from inside the bus's tick (completion callbacks)."""
    config = _config(arbitration, use_cba, store_buffer_entries=2)
    store_heavy = WorkloadSpec(
        name="store_heavy",
        num_accesses=120,
        working_set_bytes=64 * 1024,
        mean_compute_gap=2.0,
        write_fraction=0.6,
    )
    workloads = {
        0: mixed_workload(num_accesses=120),
        1: store_heavy,
        2: cpu_bound_workload(num_accesses=80),
    }
    kwargs = dict(seed=3, run_index=1, max_cycles=MAX_CYCLES)
    lazy = run_multiprogram(workloads, config, mode=REFERENCE, **kwargs)
    columnar = run_multiprogram(workloads, config, mode=FAST, **kwargs)
    assert _snapshot(lazy) == _snapshot(columnar)


@pytest.mark.parametrize("num_cores", [2, 8], ids=["2cores", "8cores"])
@pytest.mark.parametrize("use_cba", [False, True], ids=["plain", "cba"])
@pytest.mark.parametrize("arbitration", ARBITERS)
def test_max_contention_identical_across_core_counts(
    arbitration: str, use_cba: bool, num_cores: int, varied_workload: WorkloadSpec
):
    """Every policy's decision state depends on the master count (TDMA slot
    tables, lottery tickets, permutation lengths, CBA credit banks): the
    FAST path must match the oracle on the narrowest and on a wide bus, not
    only on the default four cores."""
    preset = cba_config if use_cba else rp_config
    config = preset(num_cores, arbitration=arbitration)
    kwargs = dict(seed=13, run_index=5, max_cycles=MAX_CYCLES)
    reference = run_max_contention(varied_workload, config, mode=REFERENCE, **kwargs)
    fast = run_max_contention(varied_workload, config, mode=FAST, **kwargs)
    assert _snapshot(reference) == _snapshot(fast)


@pytest.mark.parametrize("use_cba", [False, True], ids=["plain", "cba"])
@pytest.mark.parametrize("arbitration", ARBITERS)
def test_mixed_criticality_identical_across_arbiters(
    arbitration: str, use_cba: bool, varied_workload: WorkloadSpec
):
    """Best-effort programs on the other cores (not greedy contenders): their
    L1-resident stretches batch while the TuA's misses hold the bus, so
    batched cores and bus-bound cores interleave under every policy."""
    config = _config(arbitration, use_cba)
    kwargs = dict(
        seed=17, run_index=3, max_cycles=MAX_CYCLES, best_effort="cpu_bound"
    )
    reference = run_mixed_criticality(varied_workload, config, mode=REFERENCE, **kwargs)
    fast = run_mixed_criticality(varied_workload, config, mode=FAST, **kwargs)
    assert _snapshot(reference) == _snapshot(fast)


@pytest.mark.parametrize("max_cycles", [700, 1_500, 3_001, 6_000])
def test_contention_truncated_runs_identical(max_cycles: int, varied_workload):
    """Truncation under CBA contention stops the run mid-transaction and
    mid-budget-recovery: the partial bus, credit and counter state must match
    the oracle's exactly."""
    config = _config("round_robin", use_cba=True)
    kwargs = dict(seed=7, run_index=0, max_cycles=max_cycles, allow_truncation=True)
    reference = run_max_contention(varied_workload, config, mode=REFERENCE, **kwargs)
    fast = run_max_contention(varied_workload, config, mode=FAST, **kwargs)
    assert reference.truncated and fast.truncated
    assert _snapshot(reference) == _snapshot(fast)


@pytest.mark.parametrize("max_cycles", [1_500, 3_000, 8_000, 12_345])
def test_batch_truncated_runs_identical(max_cycles: int):
    """A run truncated at its cycle budget mid-stretch must report exactly
    the partial work the stepped run reports: the batch interpreter bounds
    its eager effects by the kernel's run horizon, and wakes landing exactly
    on (or past) the horizon are never executed, so nothing from cycles past
    the truncation point leaks into counters or cache state."""
    config = _config("round_robin", use_cba=False)
    l1_resident = WorkloadSpec(
        name="l1_resident",
        num_accesses=2_000,
        working_set_bytes=512,
        mean_compute_gap=6.0,
        write_fraction=0.0,
    )
    kwargs = dict(seed=7, run_index=0, max_cycles=max_cycles, allow_truncation=True)
    plain = run_isolation(l1_resident, config, mode=REFERENCE, **kwargs)
    batched = run_isolation(l1_resident, config, mode=FAST, **kwargs)
    assert plain.truncated and batched.truncated
    assert _snapshot(plain) == _snapshot(batched)


@pytest.mark.parametrize("arbitration", ["round_robin", "random_permutations"])
def test_vectorised_residency_identical(arbitration: str):
    """An L1-resident, write-free workload drives the *vectorised* residency
    scan (long stretches, windows unbounded by stores)."""
    config = _config(arbitration, use_cba=False)
    l1_resident = WorkloadSpec(
        name="l1_resident",
        num_accesses=4_000,
        working_set_bytes=512,
        mean_compute_gap=4.0,
        write_fraction=0.0,
    )
    kwargs = dict(seed=19, run_index=2, max_cycles=MAX_CYCLES)
    baseline = run_isolation(l1_resident, config, mode=REFERENCE, **kwargs)
    fast = run_isolation(l1_resident, config, mode=FAST, **kwargs)
    assert _snapshot(baseline) == _snapshot(fast)


# ----------------------------------------------------------------------
# Non-vacuity: FAST really batches, skips and walks columns; REFERENCE
# really does none of it.
# ----------------------------------------------------------------------


def test_batching_is_not_vacuous(varied_workload: WorkloadSpec):
    """The matrix must actually exercise the batch path: an isolation run
    of the hot-region workload batches a substantial share of its items."""
    config = _config("round_robin", use_cba=False)
    system = MulticoreSystem(config, seed=1, run_index=0)
    core = system.add_task(0, varied_workload)
    system.run(max_cycles=MAX_CYCLES)
    assert core.batch_stretches > 0
    assert core.batched_items > 0
    off_system = MulticoreSystem(config, seed=1, run_index=0, mode=REFERENCE)
    off_core = off_system.add_task(0, varied_workload)
    off_system.run(max_cycles=MAX_CYCLES)
    assert off_core.batched_items == 0


def test_fast_mode_schedules_through_the_heap(varied_workload: WorkloadSpec):
    """FAST must actually schedule through the event queue: the platform's
    pushed components own live heap entries from registration on, and the
    run skips cycles; the REFERENCE run steps every one of them."""
    config = _config("round_robin", use_cba=False)
    system = MulticoreSystem(config, seed=1, run_index=0)
    core = system.add_task(0, varied_workload)
    system.finalize()
    kernel = system.kernel
    assert kernel.scheduled_wake(core) == 0  # primed from next_event
    system.run(max_cycles=MAX_CYCLES)
    assert kernel.cycles_skipped > 0
    stepped = MulticoreSystem(config, seed=1, run_index=0, mode=REFERENCE)
    stepped.add_task(0, varied_workload)
    stepped.run(max_cycles=MAX_CYCLES)
    assert stepped.kernel.cycles_skipped == 0


def test_materialization_is_not_vacuous(varied_workload: WorkloadSpec):
    """The FAST run must actually use a materialised trace (and the
    REFERENCE run must not), so the matrix cannot pass by comparing
    identical paths."""
    config = _config("random_permutations", use_cba=False)
    columnar = MulticoreSystem(config, seed=1, run_index=0, mode=FAST)
    lazy = MulticoreSystem(config, seed=1, run_index=0, mode=REFERENCE)
    columnar_core = columnar.add_task(0, varied_workload)
    lazy_core = lazy.add_task(0, varied_workload)
    assert isinstance(columnar_core.trace, MaterializedTrace)
    assert not isinstance(lazy_core.trace, MaterializedTrace)
    # The columnar trace holds the whole run pre-computed as parallel arrays.
    trace = columnar_core.trace
    assert len(trace) == varied_workload.num_accesses + 1  # + compute tail
    assert trace.compute_gaps.dtype == np.int64
    assert trace.addresses.dtype == np.int64
    assert trace.kinds.dtype == np.int8
    assert not trace.compute_gaps.flags.writeable
