"""Tests for the fuzz invariant harness itself."""

import pytest

from repro.fuzz import (
    check_modes,
    check_scenario,
    fuzz_iteration,
    run_mode,
    snapshot,
)
from repro.sim.config import ExecutionMode


def _scenario_of_kind(kind: str, seed: int = 77, budget: int = 200):
    for i in range(budget):
        scenario = fuzz_iteration(seed, i)
        if scenario.kind == kind:
            return scenario
    raise AssertionError(f"no {kind} scenario within {budget} draws")


def test_all_kinds_run_in_production_mode():
    for kind in ("isolation", "max_contention", "wcet_estimation",
                 "multiprogram", "mixed_criticality"):
        scenario = _scenario_of_kind(kind)
        result = run_mode(scenario, ExecutionMode.FAST)
        assert result.total_cycles > 0


def test_snapshot_covers_counters_and_memory():
    scenario = fuzz_iteration(77, 0)
    shot = snapshot(run_mode(scenario, ExecutionMode.FAST), scenario.tua_core)
    assert shot["total_cycles"] > 0
    assert scenario.tua_core in shot["core_counters"]
    assert "memory" in shot["extra"]
    # Observability output is mode-dependent and must stay out of the snapshot.
    assert "observability" not in shot


def test_check_modes_passes_on_a_healthy_scenario():
    assert check_modes(fuzz_iteration(77, 0)) is None


def test_perturbing_one_mode_is_detected():
    scenario = fuzz_iteration(77, 0)

    # A perturbation of the L2 latency table in exactly one mode must
    # surface as a "modes" violation.
    def perturb_latency(system, mode):
        if mode is ExecutionMode.FAST:
            slave = system.l2_slave
            slave._duration_by_class = {
                kind: max(1, duration - 1)
                for kind, duration in slave._duration_by_class.items()
            }

    violation = check_modes(scenario, perturb_latency)
    assert violation is not None
    assert violation.invariant == "modes"
    assert "fast diverges from reference" in violation.detail


def test_unknown_invariant_name_rejected():
    scenario = fuzz_iteration(77, 0).with_updates(checks=("nonsense",))
    with pytest.raises(ValueError):
        check_scenario(scenario)


def test_modes_table_matches_the_equivalence_matrix():
    """``check_modes`` runs exactly the oracle and the production path, in
    that order: REFERENCE steps every cycle without batching, FAST skips
    cycles and batches."""
    scenario = _scenario_of_kind("isolation")
    seen = []

    def record(system, mode):
        seen.append((mode, system.kernel.fast_forward))

    assert check_modes(scenario, record) is None
    assert seen == [(ExecutionMode.REFERENCE, False), (ExecutionMode.FAST, True)]
    assert list(ExecutionMode) == [ExecutionMode.REFERENCE, ExecutionMode.FAST]
