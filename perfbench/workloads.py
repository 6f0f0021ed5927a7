"""The benchmark's workloads: fixed job lists built from a seed.

Every workload is a closed loop: one *segment* runs the whole job list
through the public campaign API (``Campaign.run`` with the default execution
mode of the scenario runners), and the next segment starts only when the
previous one has finished.  Only ``campaign_pool`` uses a process pool; its
two workers match the two CPUs of the reference host.

Why each workload exists, and which layers it loads (shares of profiled
self time, as the traced pass prints them):

* ``fig1_grid`` is the whole Figure 1 grid as ``repro figure1`` builds it,
  on its default serial executor, but at scale 0.3 with two runs per bar
  (``repro figure1`` defaults to scale 1.0 with five).  ISO bars are bound
  by the cpu and caches, CON bars by the bus, so every layer shows, diluted:
  bus 20%, sim 19%, core 16%, cache 16%, cpu 13%.  At scale 1.0 the shares
  move by at most 3 points.
* ``bus_saturated`` is a miss-bound streaming task under maximum contention
  and in WCET-estimation mode: ``core`` + ``bus`` + ``arbiters`` take 48%,
  at 300 accesses per run as at the builder's default 2000.
* ``manycore_l1`` is 16 cores of L1-resident tasks under round robin, at the
  builder's default 500 accesses: ``cpu`` takes 40%, ``sim`` 21%, the bus
  13% and ``workloads`` (trace build) 10%, the other side of the scheduler
  and batch-interpreter trade-offs.
* ``campaign_pool`` is a pWCET campaign through a 2-worker pool into an
  artifact store, a resume pass that reads the store back, and MBPTA per
  point, on banked DRAM too: the ``campaign``, ``memory`` and ``mbpta``
  layers.  Its points are sized as ``run_mbpta_experiment`` sizes them
  (scale 0.25, 40 runs).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from hostcal import Phase, PhaseClock
from repro.campaign import (
    ArtifactStore,
    Campaign,
    CampaignJob,
    JobResult,
    ParallelExecutor,
    SerialExecutor,
    aggregate_by_label,
    seed_block_jobs,
)
from repro.experiments.figure1 import FIGURE1_CONFIGURATIONS
from repro.experiments.figure1 import _configurations as figure1_configurations
from repro.experiments.runner import scale_workload
from repro.mbpta import mbpta_from_samples
from repro.platform import MulticoreSystem
from repro.platform.presets import cba_config, hcba_config, rp_config
from repro.sim.config import MemoryConfig
from repro.workloads.eembc import FIGURE1_BENCHMARKS, eembc_workload
from repro.workloads.synthetic import cpu_bound_workload, streaming_workload

#: Figure 1 values published in the paper (worst RP-CON and CBA-CON
#: slowdown, mean CBA-ISO slowdown).
PAPER_WORST_RP_CON = 3.34
PAPER_WORST_CBA_CON = 2.34
PAPER_MEAN_CBA_ISO = 1.03


@dataclass
class Plan:
    """The fixed job list of one workload at one seed."""

    jobs: list[CampaignJob]
    #: Jobs the pool-vs-serial check and the traced pass run serially.
    slice_jobs: list[CampaignJob] = field(default_factory=list)

    @property
    def points(self) -> int:
        return len({job.label for job in self.jobs})


@dataclass
class Segment:
    """What one closed-loop pass over a plan produced."""

    results: dict[str, JobResult]
    truncated_runs: int
    #: Errors found by the output checks of this segment.
    errors: list[str]
    #: The segment's timed phases: the campaign that executes the jobs
    #: ("write"), and for a pool segment "resume" and "mbpta".
    phases: dict[str, Phase] = field(default_factory=dict)
    #: Batched-dispatch accounting of a pool segment's executor.
    batch_stats: dict[str, object] = field(default_factory=dict)

    @property
    def raw_s(self) -> float:
        return sum(phase.raw_s for phase in self.phases.values())

    @property
    def host_s(self) -> float:
        return sum(phase.host_s for phase in self.phases.values())

    @property
    def cycles(self) -> float:
        return sum(m["total_cycles"] for r in self.results.values() for m in r.metrics)

    def fingerprint(self) -> tuple:
        return fingerprint(self.results)


def fingerprint(results: dict[str, JobResult]) -> tuple:
    """Every simulated output of a set of jobs, host timings excluded."""
    return tuple(
        (
            job_id,
            result.samples,
            tuple(tuple(sorted(m.items())) for m in result.metrics),
            result.truncated_runs,
        )
        for job_id, result in sorted(results.items())
    )


def run_serial(jobs: list[CampaignJob]) -> tuple[dict[str, JobResult], Campaign]:
    campaign = Campaign(executor=SerialExecutor())
    return campaign.run(jobs), campaign


def _serial_segment(plan: Plan, scratch: Path, clock: PhaseClock) -> Segment:
    with clock.phase("write"):
        results, campaign = run_serial(plan.jobs)
    return Segment(
        results=results,
        truncated_runs=campaign.last_report.truncated_runs,
        errors=[],
        phases=clock.phases,
    )


@dataclass(frozen=True)
class Workload:
    """A workload; why each exists is in this module's docstring and in
    ``BENCHMARK.json``."""

    name: str
    build: Callable[[int], Plan]
    run_segment: Callable[[Plan, Path, PhaseClock], Segment] = _serial_segment
    #: Output checks on one segment's results; returns error strings.
    check: Callable[[Plan, Segment], list[str]] = lambda plan, segment: []
    pool_workers: int = 0


# ----------------------------------------------------------------------
# fig1_grid
# ----------------------------------------------------------------------
#: The smallest scale whose Figure 1 shape is still meaningful, with two
#: runs per bar: the averaged runs keep each seed's work within 1% of the
#: others', where one run at scale 0.5 varies 2-4%.
FIG1_SCALE = 0.3
FIG1_RUNS = 2


def build_fig1(seed: int) -> Plan:
    jobs: list[CampaignJob] = []
    for benchmark in FIGURE1_BENCHMARKS:
        workload = scale_workload(eembc_workload(benchmark), FIG1_SCALE)
        # The grid ``repro figure1`` runs: 4 cores, task under analysis on 0.
        for label, (config, kind) in figure1_configurations(4, 0).items():
            jobs.extend(
                seed_block_jobs(
                    f"{benchmark}/{label}",
                    "isolation" if kind == "iso" else "max_contention",
                    seed=seed,
                    num_runs=FIG1_RUNS,
                    workload=workload,
                    config=config,
                )
            )
    return Plan(jobs=jobs)


def fig1_slowdowns(plan: Plan, results: dict[str, JobResult]) -> dict[str, dict[str, float]]:
    """benchmark -> configuration -> mean cycles normalised to RP-ISO."""
    aggregated = aggregate_by_label(plan.jobs, results)
    slowdowns: dict[str, dict[str, float]] = {}
    for benchmark in FIGURE1_BENCHMARKS:
        means = {c: aggregated[f"{benchmark}/{c}"].mean for c in FIGURE1_CONFIGURATIONS}
        slowdowns[benchmark] = {c: means[c] / means["RP-ISO"] for c in means}
    return slowdowns


def headline(slowdowns: dict[str, dict[str, float]]) -> tuple[float, float, float]:
    """Worst RP-CON and CBA-CON slowdowns and the mean CBA-ISO slowdown."""
    rows = slowdowns.values()
    return (
        max(s["RP-CON"] for s in rows),
        max(s["CBA-CON"] for s in rows),
        statistics.fmean(s["CBA-ISO"] for s in rows),
    )


def paper_gap(slowdowns: dict[str, dict[str, float]]) -> float:
    """Mean distance of the three headline Figure 1 numbers from the paper's."""
    paper = (PAPER_WORST_RP_CON, PAPER_WORST_CBA_CON, PAPER_MEAN_CBA_ISO)
    return statistics.fmean(
        abs(ours - theirs) for ours, theirs in zip(headline(slowdowns), paper, strict=True)
    )


def check_fig1(plan: Plan, segment: Segment) -> list[str]:
    errors = []
    slowdowns = fig1_slowdowns(plan, segment.results)
    for benchmark, row in slowdowns.items():
        for arbiter in ("RP", "CBA", "H-CBA"):
            if row[f"{arbiter}-CON"] < row[f"{arbiter}-ISO"]:
                errors.append(f"fig1: {benchmark} {arbiter}-CON < {arbiter}-ISO")
    worst_rp, worst_cba, _ = headline(slowdowns)
    if not worst_cba < worst_rp:
        errors.append(f"fig1: worst CBA-CON {worst_cba:.3f} >= worst RP-CON {worst_rp:.3f}")
    return errors


# ----------------------------------------------------------------------
# bus_saturated
# ----------------------------------------------------------------------
BUS_ACCESSES = 300
BUS_RUNS = 4


def build_bus(seed: int) -> Plan:
    workload = streaming_workload(num_accesses=BUS_ACCESSES)
    configs = {
        "RP": rp_config(4),
        "RP+CBA": cba_config(4),
        "TDMA+CBA": cba_config(4, arbitration="tdma"),
        "H-CBA": hcba_config(4, favoured_core=0),
    }
    jobs: list[CampaignJob] = []
    for name, config in configs.items():
        for scenario in ("max_contention", "wcet_estimation"):
            jobs.extend(
                seed_block_jobs(
                    f"{name}/{scenario}",
                    scenario,
                    seed=seed,
                    num_runs=BUS_RUNS,
                    workload=workload,
                    config=config,
                )
            )
    return Plan(jobs=jobs)


# ----------------------------------------------------------------------
# manycore_l1
# ----------------------------------------------------------------------
MANYCORE_CORES = 16
MANYCORE_ACCESSES = 500
MANYCORE_RUNS = 8


def build_manycore(seed: int) -> Plan:
    jobs = seed_block_jobs(
        "rr16/cpu_bound",
        "mixed_criticality",
        seed=seed,
        num_runs=MANYCORE_RUNS,
        workload=cpu_bound_workload(num_accesses=MANYCORE_ACCESSES),
        config=rp_config(MANYCORE_CORES, arbitration="round_robin"),
        options=(("best_effort", "cpu_bound"),),
    )
    return Plan(jobs=jobs)


# ----------------------------------------------------------------------
# campaign_pool
# ----------------------------------------------------------------------
POOL_WORKERS = 2
POOL_RUNS_PER_POINT = 40
POOL_SCALE = 0.25
POOL_SLICE_RUNS = 2


def build_pool(seed: int) -> Plan:
    tua = scale_workload(eembc_workload("canrdr"), POOL_SCALE)
    banked = {
        policy: cba_config(4).with_updates(
            memory=MemoryConfig(model="banked", controller_policy=policy)
        )
        for policy in ("in_order", "frfcfs")
    }
    points = {
        "CBA/wcet_estimation": ("wcet_estimation", cba_config(4), ()),
        "H-CBA/wcet_estimation": ("wcet_estimation", hcba_config(4, favoured_core=0), ()),
        "banked-in_order/mixed_criticality": (
            "mixed_criticality", banked["in_order"], (("best_effort", "cpu_bound"),)
        ),
        "banked-frfcfs/mixed_criticality": (
            "mixed_criticality", banked["frfcfs"], (("best_effort", "cpu_bound"),)
        ),
    }
    jobs: list[CampaignJob] = []
    slice_jobs: list[CampaignJob] = []
    for label, (scenario, config, options) in points.items():
        point_jobs = seed_block_jobs(
            label,
            scenario,
            seed=seed,
            num_runs=POOL_RUNS_PER_POINT,
            workload=tua,
            config=config,
            options=options,
        )
        jobs.extend(point_jobs)
        slice_jobs.extend(point_jobs[:POOL_SLICE_RUNS])
    return Plan(jobs=jobs, slice_jobs=slice_jobs)


def pool_segment(plan: Plan, scratch: Path, clock: PhaseClock) -> Segment:
    """Pool campaign into a fresh store, resume pass, MBPTA per point.

    Only the pool campaign is an overlapped phase; the resume pass and
    MBPTA run in this process alone.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    store_path = scratch / "store.jsonl"
    for stale in scratch.glob("store.jsonl*"):
        stale.unlink()
    errors: list[str] = []
    try:
        executor = ParallelExecutor(max_workers=POOL_WORKERS)
        with clock.phase("write", overlapped=True):
            campaign = Campaign(executor=executor, store=ArtifactStore(store_path))
            results = campaign.run(plan.jobs)
        written = campaign.last_report

        with clock.phase("resume"):
            resume = Campaign(
                executor=ParallelExecutor(max_workers=POOL_WORKERS),
                store=ArtifactStore(store_path),
                resume=True,
            )
            resumed = resume.run(plan.jobs)
        if resume.last_report.executed_jobs != 0:
            errors.append(f"resume executed {resume.last_report.executed_jobs} jobs")
        if _samples(resumed) != _samples(results):
            errors.append("resume returned different samples")

        with clock.phase("mbpta"):
            pwcet_points(plan, results)
    finally:
        for stale in scratch.glob("store.jsonl*"):
            stale.unlink()
    return Segment(
        results=results,
        truncated_runs=written.truncated_runs,
        errors=errors,
        phases=clock.phases,
        batch_stats=dict(executor.last_batch_stats),
    )


def pwcet_points(plan: Plan, results: dict[str, JobResult]) -> None:
    """MBPTA (i.i.d. tests, EVT fit, pWCET curve) on every point's samples."""
    for label, runs in aggregate_by_label(plan.jobs, results).items():
        mbpta_from_samples(runs.samples, metadata={"label": label})


def _samples(results: dict[str, JobResult]) -> dict[str, tuple[float, ...]]:
    return {job_id: result.samples for job_id, result in results.items()}


def check_pool(plan: Plan, segment: Segment) -> list[str]:
    """Pool samples must equal a serial run of the slice."""
    serial, _ = run_serial(plan.slice_jobs)
    if _samples(serial) != {j: segment.results[j].samples for j in serial}:
        return ["pool samples differ from serial samples on the slice"]
    return []


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig1_grid", build_fig1, check=check_fig1),
        Workload("bus_saturated", build_bus),
        Workload("manycore_l1", build_manycore),
        Workload(
            "campaign_pool",
            build_pool,
            run_segment=pool_segment,
            check=check_pool,
            pool_workers=POOL_WORKERS,
        ),
    )
}


def first_system(job: CampaignJob) -> MulticoreSystem:
    """The first job's platform with its task loaded, ready for cycle 0."""
    system = MulticoreSystem(job.config, seed=job.seed, run_index=job.run_start)
    system.add_task(job.tua_core, job.workload)
    system.finalize()
    return system
