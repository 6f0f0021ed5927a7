"""One set-up measurement in a fresh interpreter.

Times ``import repro`` and building the workload's jobs plus the first
job's platform (ready for its first simulated cycle), with the host
calibration sampled throughout, and prints one JSON line.  ``measure.py``
starts several of these per run and reports their median.

    python3 perfbench/setup_probe.py --workload fig1_grid --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import hostcal  # noqa: E402  (benchmark module; imports nothing from repro)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    # The same single CPU as a serial run's main process, whatever the workload.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    calibration = hostcal.HostCalibration()
    before = calibration.block()
    with hostcal.PeriodicCalibration(calibration, hostcal.PERIOD_S) as sampler:
        started = time.perf_counter()
        import repro

        imported = time.perf_counter()
        import_blocks_s = sampler.spent_s
        import workloads

        plan = workloads.WORKLOADS[args.workload].build(args.seed)
        workloads.first_system(plan.jobs[0])
        built = time.perf_counter()
    after = calibration.block()
    print(
        json.dumps(
            {
                "started": started,
                "imported": imported,
                "built": built,
                "import_s": imported - started - import_blocks_s,
                "build_s": built - imported - (sampler.spent_s - import_blocks_s),
                "factor": hostcal.factor([before, *sampler.samples, after]),
                "repro_file": repro.__file__,
            }
        )
    )


if __name__ == "__main__":
    main()
