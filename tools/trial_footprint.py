#!/usr/bin/env python3
"""Time and peak memory of one large bit-exact trial, stage by stage.

Usage: PYTHONPATH=src tools/trial_footprint.py [SEED]

Runs the K = 10, N = 20, M = 5, F = 10^6, B = 5, L = 2, delta_b = 2 trial
(trial 0 of SEED, default 1) through `cli._bitexact_delivery`, as
`simulate --mode bitexact` does.  Prints the `perf_counter` time of each
stage (library, placement, partition, delivery) and of the whole trial,
then the process's peak RSS (`ru_maxrss`) after the trial.  Then it
decodes all 10 F-APs at their deadlines, checks each against its file
bit for bit, and prints the decoding time and the peak RSS after it.
Uses the standard library only, besides the package itself.  Run it in a
fresh process: the peak RSS is the process's, import included.
"""

from __future__ import annotations

import functools
import resource
import sys
import time

from fogcoded import cli, core, delivery
from fogcoded.analytics import FixedLConfig

STAGES = (
    (core, "generate_library", "library"),
    (core, "place_caches", "placement"),
    (core, "partition_into_subfiles", "partition"),
    (delivery, "run_delivery", "delivery"),
)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed(module, name: str, label: str) -> None:
    """Replace module.name with a wrapper that prints its wall time."""
    inner = getattr(module, name)

    @functools.wraps(inner)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = inner(*args, **kwargs)
        print(f"{label:<10} {time.perf_counter() - start:8.3f} s")
        return result

    setattr(module, name, wrapper)


def main(seed: int = 1) -> int:
    params = FixedLConfig(K=10, N=20, M=5.0, F=1_000_000, B=5, L=2, delta_b=2)
    schedule = core.make_fixed_L_schedule(10, 5, 2, cli._trial_seeds(seed, 0)[2])
    for stage in STAGES:
        timed(*stage)
    start = time.perf_counter()
    records, result = cli._bitexact_delivery(params, schedule, seed, 0)
    print(f"{'trial':<10} {time.perf_counter() - start:8.3f} s")
    print(f"{'peak RSS':<10} {peak_rss_mb():8.1f} MB after the trial")
    start = time.perf_counter()
    for k in range(1, params.K + 1):
        decoded = delivery.decode_fap(
            k, result.events, records.library, records.caches, records,
            upto_slot=schedule.deadline_slot(k, params.delta_b),
        )
        if not (decoded == records.library.file(schedule.demand[k])).all():
            print(f"F-AP {k} decoded wrong bits", file=sys.stderr)
            return 1
    print(f"{'decode':<10} {time.perf_counter() - start:8.3f} s for {params.K} F-APs")
    print(f"{'peak RSS':<10} {peak_rss_mb():8.1f} MB after decoding")
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:2])))
