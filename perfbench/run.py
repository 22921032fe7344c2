"""fogcoded benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Repeats the workload, each repeat in a
fresh interpreter and one at a time, until about S seconds have passed
(at least MIN_REPEATS repeats).  Fresh processes matter: analytics.b_count
keeps a process-wide lru_cache that every CLI run pays for once, and
ru_maxrss is a per-process high-water mark.

--trace 0 reports the end-to-end metrics (medians over the repeats).
run_s and setup_s are scaled to the machine's reference speed: each
repeat also times a fixed loop that does not touch the package
(workload.reference_seconds), and its seconds are multiplied by
REF_S / that time.  On a shared host whose speed drifts by a third within
minutes, this cuts the spread between runs about threefold; a change to
the package moves the scaled times in the same proportion as the raw ones.  The
raw medians are printed on the line before the result.
--trace 1 alternates untraced and traced repeats and reports the per-layer
metrics (medians over the traced repeats) plus trace.overhead_frac, the
traced over the untraced median run_s, minus one.  The spans of the last
traced repeat are written to perfbench/out/.

The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the line before it gives
the environment, the repeat count and failed_frac.  Exits 1 without a
result when a repeat cannot run at all (e.g. the package is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER
from workload import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
END_TO_END = [("run_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]
SCALED = {"run_s", "setup_s"}
REF_S = 0.27  # median reference_seconds() on the host of perfbench/baseline.json
MIN_REPEATS = 3
RUN_LIMIT_S = 170  # a run must end within 180 s, even if a repeat hangs
# one thread per process: the workloads are single-threaded by design
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RepeatFailed(RuntimeError):
    """A repeat crashed or printed no result."""


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
    }


def repeat(name: str, seed: int, trace: bool, timeout: float) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), name, str(seed), str(int(trace)), repr(t0)],
        cwd=ROOT, env={**os.environ, **SINGLE_THREAD},
        capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepeatFailed(f"{name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def measure(name: str, seed: int, seconds: float, trace: bool):
    """(untraced repeats, traced repeats), run until `seconds` have passed."""
    plain, traced = [], []
    start = time.monotonic()

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    while True:
        plain.append(repeat(name, seed, False, left()))
        if trace:
            traced.append(repeat(name, seed, True, left()))
        elapsed = time.monotonic() - start
        rounds = len(plain)
        if rounds >= MIN_REPEATS and elapsed + elapsed / rounds > seconds:
            return plain, traced


def median(runs: list[dict], key: str, scaled: bool = False) -> float:
    return statistics.median(r[key] * REF_S / r["ref_s"] if scaled else r[key] for r in runs)


def summarize(plain: list[dict], traced: list[dict], trace: bool) -> dict:
    if not trace:
        return {name: {"value": median(plain, name, name in SCALED), "unit": unit}
                for name, unit in END_TO_END}
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name, _ in PER_LAYER if name != "trace.overhead_frac"}
    layers["trace.overhead_frac"] = (
        median(traced, "run_s", True) / median(plain, "run_s", True) - 1)
    return {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fogcoded" / "__init__.py").is_file():
        print(f"error: no fogcoded package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RepeatFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for failure in r["failures"]:
            print(f"FAIL {args.workload} seed={args.seed}: {failure}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "repeats": len(plain),
        "traced_repeats": len(traced), "failed_frac": failed / attempted,
        "raw_run_s": median(plain, "run_s"), "raw_setup_s": median(plain, "setup_s"),
        "ref_s": median(plain, "ref_s"), "env": environment(),
    }))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": summarize(plain, traced, bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
