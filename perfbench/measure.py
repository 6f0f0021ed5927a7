"""The benchmark's passes over one workload at one seed.

Every run first runs one warm-up segment of the workload, whose outputs
become the reference every later segment must reproduce exactly, then one
of the two passes below, and last times the set-up (``import repro`` plus
building the workload's jobs) in several fresh interpreters.

The timed pass (``--trace 0``) repeats the segment until the requested
seconds have passed and reports the end-to-end metrics as medians over
segments.  Each segment is timed phase by phase in reference-host seconds
(see :class:`hostcal.PhaseClock`).  The traced pass
(``--trace 1``) runs :mod:`tracing`'s profile and spans over the workload's
jobs instead and reports the per-layer metrics, including what the tracing
cost.  Metric names and units come from ``BENCHMARK.json``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
timed metric with its raw wall time and calibration factor.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import hostcal
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch stores and the span file, inside the checkout.
OUT_DIR = ROOT / ".perfbench-out"

#: Fresh interpreters timed per run; the median is reported.
SETUP_PROBES = 3
#: Timed segments per run at least, even past the requested seconds.
MIN_SEGMENTS = 4
#: The measuring loop stops here whatever was requested, so a run on a slow
#: host still ends within three minutes.
MAX_MEASURE_S = 90.0
#: Calibration blocks before and after a profiled run, which is not sampled
#: periodically because the profiler would slow the blocks down.
BRACKET_BLOCKS = 8


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """``(end_to_end, per_layer)`` metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


class SetupError(RuntimeError):
    """The program could not be imported or its jobs not built."""


@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, attempted: int, failed: int, error: str) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.errors.append(error)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Setup:
    import_s: float
    build_s: float
    total_s: float
    raw_total_s: float
    factor: float


def measure_setup(workload: str, seed: int, recorder: tracing.SpanRecorder) -> Setup:
    """Median set-up over :data:`SETUP_PROBES` fresh interpreters."""
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
               "--workload", workload, "--seed", str(seed)]
    probes = []
    for index in range(SETUP_PROBES):
        with recorder.span("setup.probe", index=index):
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=120, check=False)
            if done.returncode != 0:
                raise SetupError(done.stderr.strip() or f"probe exited {done.returncode}")
            probe = json.loads(done.stdout.strip().splitlines()[-1])
            if not Path(probe["repro_file"]).resolve().is_relative_to(SRC.resolve()):
                raise SetupError(f"imported repro from {probe['repro_file']}, not {SRC}")
            recorder.add("setup.import", probe["started"], probe["imported"])
            recorder.add("setup.build", probe["imported"], probe["built"])
        probes.append(probe)
    imports = [p["import_s"] for p in probes]
    builds = [p["build_s"] for p in probes]
    factors = [p["factor"] for p in probes]
    median = statistics.median
    return Setup(
        import_s=median(i * f for i, f in zip(imports, factors, strict=True)),
        build_s=median(b * f for b, f in zip(builds, factors, strict=True)),
        total_s=median((i + b) * f for i, b, f in zip(imports, builds, factors, strict=True)),
        raw_total_s=median(i + b for i, b in zip(imports, builds, strict=True)),
        factor=median(factors),
    )


# ----------------------------------------------------------------------
# Segments, checks and calibration
# ----------------------------------------------------------------------
def differing(reference: tuple, rows: tuple) -> int:
    """Jobs whose simulated outputs differ from the reference's."""
    expected = {row[0]: row for row in reference}
    return sum(1 for row in rows if expected.get(row[0]) != row)


def checked_segment(
    workload: workloads.Workload,
    plan: workloads.Plan,
    scratch: Path,
    reference: tuple | None,
    ledger: Ledger,
    calibration: hostcal.HostCalibration,
) -> workloads.Segment | None:
    """Run one segment, its phases timed, and check its outputs; ``None``
    if it raised."""
    jobs = len(plan.jobs)
    try:
        segment = workload.run_segment(plan, scratch, hostcal.PhaseClock(calibration))
    except Exception as exc:  # a failing program is reported, not raised
        ledger.record(jobs, jobs, f"segment raised {type(exc).__name__}: {exc}")
        return None
    lost = jobs - len(segment.results)
    ledger.record(jobs, lost, f"{lost} jobs returned no result")
    ledger.record(0, segment.truncated_runs, f"{segment.truncated_runs} truncated runs")
    for error in segment.errors:
        ledger.record(1, 1, error)
    if reference is not None:
        differ = differing(reference, segment.fingerprint())
        ledger.record(0, differ, f"{differ} jobs differ from the warm-up segment")
    return segment


def bracketed(
    calibration: hostcal.HostCalibration, run: Callable[[], object]
) -> tuple[object, float, float]:
    """``run()``'s value, raw seconds and calibration factor, the host
    sampled by :data:`BRACKET_BLOCKS` blocks before and after the run."""
    gc.collect()
    before = calibration.blocks(BRACKET_BLOCKS)
    started = time.perf_counter()
    value = run()
    raw = time.perf_counter() - started
    return value, raw, hostcal.factor(before + calibration.blocks(BRACKET_BLOCKS))


def peak_rss_mb(with_children: bool) -> float:
    """Peak RSS of this process, or of it and the largest child it has
    waited for; read before the set-up probes run, so that the only
    children are a pool's workers."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


# ----------------------------------------------------------------------
# The timed pass
# ----------------------------------------------------------------------
@dataclass
class Timed:
    raw_s: float
    host_s: float
    cycles: float

    @property
    def factor(self) -> float:
        return self.host_s / self.raw_s


def timed_pass(workload, plan, scratch, reference, ledger, calibration, seconds) -> dict:
    timed: list[Timed] = []
    phase_factors: dict[str, list[float]] = {}
    started = time.perf_counter()
    while True:
        segment = checked_segment(workload, plan, scratch, reference, ledger, calibration)
        if segment is None:
            break
        timed.append(Timed(segment.raw_s, segment.host_s, segment.cycles))
        for name, phase in segment.phases.items():
            phase_factors.setdefault(name, []).append(phase.factor)
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and len(timed) >= MIN_SEGMENTS):
            break
    if not timed:
        return {}
    median = statistics.median
    factor = median(t.factor for t in timed)
    mcps = median(t.cycles / t.host_s for t in timed) / 1e6
    per_point = median(t.host_s for t in timed) / plan.points
    by_phase = ", ".join(f"{name} {median(f):.4f}" for name, f in phase_factors.items())
    print(f"{len(timed)} segments of {len(plan.jobs)} jobs, {plan.points} points; "
          f"calibration factor median {factor:.4f}, "
          f"range {min(t.factor for t in timed):.4f}-{max(t.factor for t in timed):.4f} "
          f"(by phase: {by_phase})")
    print(f"sim_mcycles_per_s {mcps:.4f} Mcycles/s "
          f"(raw {median(t.cycles / t.raw_s for t in timed) / 1e6:.4f}, factor {factor:.4f})")
    print(f"s_per_point {per_point:.5f} s "
          f"(raw {median(t.raw_s for t in timed) / plan.points:.5f}, factor {factor:.4f})")
    return {"sim_mcycles_per_s": mcps, "s_per_point": per_point}


# ----------------------------------------------------------------------
# The traced pass
# ----------------------------------------------------------------------
def pool_accounting(workload, plan, segment) -> dict[str, float]:
    """Campaign-layer metrics of one untraced pool segment."""
    jobs = len(plan.jobs)
    stats = segment.batch_stats
    contexts = stats["context_cache_hits"] + stats["context_cache_misses"]
    simulated = sum(r.elapsed_seconds for r in segment.results.values())
    phases = segment.phases
    return {
        "campaign.write_s_per_job": phases["write"].host_s / jobs,
        "campaign.resume_s_per_job": phases["resume"].host_s / jobs,
        "campaign.overhead_share": 1.0 - simulated / (
            workload.pool_workers * phases["write"].wall_s
        ),
        "campaign.context_cache_hit_ratio": stats["context_cache_hits"] / contexts,
        "campaign.shm_batches": float(stats["shm_batches"]),
        "campaign.trace_cache_hits": float(stats["trace_cache_hits"]),
        "mbpta.ms_per_point": phases["mbpta"].host_s * 1e3 / plan.points,
    }


def serial_accounting(results, raw_s: float) -> dict[str, float]:
    """Campaign-layer metrics of an unsampled serial run: no store, pool or
    MBPTA."""
    simulated = sum(r.elapsed_seconds for r in results.values())
    return {
        "campaign.write_s_per_job": 0.0,
        "campaign.resume_s_per_job": 0.0,
        "campaign.overhead_share": 1.0 - simulated / raw_s,
        "campaign.context_cache_hit_ratio": 0.0,
        "campaign.shm_batches": 0.0,
        "campaign.trace_cache_hits": 0.0,
        "mbpta.ms_per_point": 0.0,
    }


def traced_pass(workload, plan, scratch, reference, ledger, calibration, recorder,
                warm) -> dict[str, float]:
    metrics: dict[str, float] = {}
    if workload.pool_workers:
        segment = checked_segment(workload, plan, scratch, reference, ledger, calibration)
        if segment is not None:
            metrics.update(pool_accounting(workload, plan, segment))
            phases = segment.phases
            recorder.add("Campaign.run", phases["write"].started, phases["write"].ended,
                         executor="pool", jobs=len(plan.jobs))
            recorder.add("Campaign.run", phases["resume"].started, phases["resume"].ended,
                         executor="pool", resume=True)
            recorder.add("mbpta_from_samples", phases["mbpta"].started, phases["mbpta"].ended,
                         points=plan.points)
        # The slice runs serially so the in-worker layers show in the profile.
        jobs = plan.slice_jobs
    else:
        jobs = plan.jobs

    (untraced, _), untraced_raw, untraced_factor = bracketed(
        calibration, lambda: workloads.run_serial(jobs)
    )
    differ = differing(reference, workloads.fingerprint(untraced))
    ledger.record(len(untraced), differ, f"{differ} untraced jobs differ from the warm-up segment")
    if not workload.pool_workers:
        metrics.update(serial_accounting(untraced, untraced_raw))
    systems: list = []
    profile = cProfile.Profile()

    def traced_run():
        with recorder.span("Campaign.run", executor="serial", jobs=len(jobs)), \
                tracing.wrapped_scenarios(recorder, systems):
            profile.enable()
            try:
                return workloads.run_serial(jobs)
            finally:
                profile.disable()

    (results, _), traced_raw, traced_factor = bracketed(calibration, traced_run)
    rows = workloads.fingerprint(results)
    differ = differing(reference, rows)
    ledger.record(len(rows), differ, f"{differ} traced jobs differ from the warm-up segment")

    kcycles = sum(m["total_cycles"] for r in results.values() for m in r.metrics) / 1e3
    layers = tracing.profile_layers(
        profile, exclude=lambda filename: Path(filename).resolve().parent == BENCH_DIR
    )
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = layers.self_s.get(layer, 0.0) * traced_factor
        metrics[f"{layer}.calls_per_kcycle"] = layers.calls.get(layer, 0) / kcycles
    metrics["total.calls_per_kcycle"] = sum(layers.calls.values()) / kcycles
    total_self_s = sum(layers.self_s.values())
    print("self-time shares: " + ", ".join(
        f"{bucket} {100 * seconds / total_self_s:.1f}%"
        for bucket, seconds in sorted(layers.self_s.items(), key=lambda item: -item[1])
    ))
    metrics.update(tracing.simulated_counters(systems))
    metrics["trace.overhead_ratio"] = (traced_raw * traced_factor) / (
        untraced_raw * untraced_factor
    )
    print(f"trace.overhead_ratio {metrics['trace.overhead_ratio']:.3f} "
          f"(traced raw {traced_raw:.3f} s, factor {traced_factor:.4f}; "
          f"untraced raw {untraced_raw:.3f} s, factor {untraced_factor:.4f})")
    # Defined on the Figure 1 grid only; 0 elsewhere.
    metrics["paper_gap"] = 0.0
    if workload.name == "fig1_grid":
        metrics["paper_gap"] = workloads.paper_gap(workloads.fig1_slowdowns(plan, warm.results))
        print(f"paper_gap {metrics['paper_gap']:.4f} slowdown (simulated, exact at this seed)")
    return metrics


# ----------------------------------------------------------------------
def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = workloads.WORKLOADS.get(workload_name)
    if workload is None:
        print(f"perfbench: unknown workload {workload_name!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    if not workload.pool_workers:
        # One CPU for the whole run: the calibration blocks then time the
        # CPU the jobs run on.  A pool needs every CPU for its workers.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    recorder = tracing.SpanRecorder()
    calibration = hostcal.HostCalibration()
    ledger = Ledger()
    scratch = OUT_DIR / f"scratch-{workload_name}-{seed}"
    plan = workload.build(seed)
    metrics: dict[str, float] = {}
    with recorder.span("warm_up", jobs=len(plan.jobs)):
        warm = checked_segment(workload, plan, scratch, None, ledger, calibration)
    if warm is not None:
        errors = workload.check(plan, warm)
        ledger.record(1, int(bool(errors)), "; ".join(errors))
        reference = warm.fingerprint()
        if trace:
            metrics = traced_pass(workload, plan, scratch, reference, ledger, calibration,
                                  recorder, warm)
        else:
            metrics = timed_pass(workload, plan, scratch, reference, ledger, calibration,
                                 seconds)
    peak_rss = peak_rss_mb(with_children=bool(workload.pool_workers))

    try:
        setup = measure_setup(workload_name, seed, recorder)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    print(f"setup_s {setup.total_s:.4f} s (raw {setup.raw_total_s:.4f}, factor "
          f"{setup.factor:.4f}; import {setup.import_s:.4f} s, build {setup.build_s:.4f} s; "
          f"median of {SETUP_PROBES} fresh interpreters)")

    error_rate = ledger.failed / max(ledger.attempted, 1)
    print(f"error_rate {error_rate:.6f} ratio "
          f"({ledger.failed} of {ledger.attempted} operations failed)")
    for error in ledger.errors:
        print(f"  error: {error}")
    if trace:
        metrics.update(
            {"setup.import_s": setup.import_s, "setup.build_s": setup.build_s,
             "error_rate": error_rate}
        )
        units = per_layer
        path = OUT_DIR / f"trace-{workload_name}-seed{seed}.json"
        recorder.write(path)
        print(f"{len(recorder.spans)} spans written to {path.relative_to(ROOT)}")
    else:
        metrics.update(
            {"setup_s": setup.total_s, "peak_rss_mb": peak_rss}
        )
        units = end_to_end
    missing = sorted(set(units) - set(metrics))
    ledger.record(0, len(missing), f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0
