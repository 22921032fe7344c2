"""Run the benchmark over several seeds and report each end-to-end metric's
median and spread (interquartile distance over median) against its bound.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0]

Runs are sequential.  Each run's result line is appended to
perfbench/out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from workload import HERE, ROOT, WORKLOADS


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, **result}) + "\n")
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']}/{result['attempted']} failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            "ok" if spread < bound / 3 else "WIDE" if spread <= bound else "OVER")
        print(f"{name:36s} median {med:.6g}  spread {spread:.4f}  bound {bound}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
