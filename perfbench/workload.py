"""One repeat of one benchmark workload, run in a fresh interpreter.

    python3 perfbench/workload.py NAME SEED TRACE T0

TRACE is 0 or 1; T0 is the parent's time.monotonic() taken just before it
started this process, so that setup_s covers interpreter start, the
package import and building the inputs.  The last line of standard output
is one JSON object with setup_s, run_s, ref_s (see reference_seconds),
peak_rss_mb, attempted, failed and, when traced, the per-layer figures.

Each workload drives the entry points the ``fogcoded`` CLI uses
(``cli.run_sweep`` + ``cli.write_csv``, ``cli.run_single``,
``cli.run_verification``) and then checks its own outputs: an operation
(sweep row, trial or verify check) that raises, reports an error or fails
its check is counted as failed.
"""

from __future__ import annotations

import csv
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

N, M = 20, 5.0
REL_TOL = 1e-9  # measured vs closed-form load; bounds and monotonicity slack

# Parameters of each workload; the reasons are in BENCHMARK.json and
# perfbench/baseline.json.
WORKLOADS = {
    "analytic-sweep": {"kind": "sweep", "K": 14, "B": 7, "L": 2, "F": 10**4,
                       "deltas": (1, 2, 4, 7)},
    "bitexact-k12": {"kind": "bitexact", "K": 12, "B": 6, "L": 2, "delta_b": 2,
                     "F": 2 * 10**4, "trials": 2},
    "verify": {"kind": "verify", "max_k": 12},
}

# Tiny sizes of the same workloads, for the benchmark's own tests.
SMOKE = {
    "analytic-sweep": {"kind": "sweep", "K": 6, "B": 3, "L": 2, "F": 1000,
                       "deltas": (1, 2, 3)},
    "bitexact-k12": {"kind": "bitexact", "K": 6, "B": 3, "L": 2, "delta_b": 2,
                     "F": 2000, "trials": 2},
    "verify": {"kind": "verify", "max_k": 4},
}


def reference_seconds() -> float:
    """Time of a fixed mix of pure-Python and small-numpy work that does not
    touch the package: a yardstick for the machine's speed at this moment.
    It runs after the timed section and the gate, so it is in no metric."""
    d: dict[int, int] = {}
    a = np.arange(1 << 14)
    start = time.perf_counter()
    for i in range(340_000):
        k = (i * 2654435761) & 0xFFFF
        d[k] = d.get(k, 0) + k.bit_count()
    for v in range(2500):
        np.flatnonzero(a % 64 == v % 64)
    return time.perf_counter() - start


def import_package():
    """Import fogcoded from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import fogcoded

    if Path(fogcoded.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"fogcoded imported from {fogcoded.__file__}, not {src}")
    return fogcoded


def sweep_failures(rows, csv_path: Path, deltas, columns) -> list[str]:
    """One entry per sweep row that fails its check.

    A row passes when it has no error, its measured load equals the fixed-L
    closed form to REL_TOL, it lies within [lower_bound, upper_bound], it
    is no larger than the row of the previous (smaller) delta_b, and the
    CSV written for it matches.  The CSV header must equal the CLI's
    column list, with one row per delta_b.
    """
    with open(csv_path, newline="") as f:
        header, *body = list(csv.reader(f))
    failures = []
    for i, delta_b in enumerate(deltas):
        row = rows[i] if i < len(rows) else None
        if row is None:
            failures.append(f"delta_b={delta_b}: no row")
            continue
        problems = []
        m, cf = row.measured_load, row.closed_form_load
        if row.error:
            problems.append(f"error {row.error!r}")
        if row.config.delta_b != delta_b:
            problems.append(f"row is for delta_b={row.config.delta_b}")
        if m is None or cf is None or abs(m - cf) > REL_TOL * cf:
            problems.append(f"measured {m} != closed form {cf}")
        elif not (row.lower_bound * (1 - REL_TOL) <= m <= row.upper_bound * (1 + REL_TOL)):
            problems.append(f"{m} outside [{row.lower_bound}, {row.upper_bound}]")
        elif i and rows[i - 1].measured_load is not None and (
                m > rows[i - 1].measured_load * (1 + REL_TOL)):
            problems.append(f"load {m} grew from {rows[i - 1].measured_load}")
        if header != list(columns) or len(body) != len(deltas) or body[i] != row.csv_values():
            problems.append("CSV header or row does not match")
        if problems:
            failures.append(f"delta_b={delta_b}: " + "; ".join(problems))
    return failures


def decode_failure(schedule, records, params, result, library, caches):
    """None when every F-AP decodes its file bit-exactly by its deadline
    slot from its cache and the transmissions; else the first problem."""
    from fogcoded import delivery
    from fogcoded.errors import FogcodedError

    if library is None or caches is None:
        return "library or caches were not captured"
    for fap in range(1, params.K + 1):
        deadline = schedule.deadline_slot(fap, params.delta_b)
        try:
            decoded = delivery.decode_fap(
                fap, result.events, library, caches, records, upto_slot=deadline)
        except FogcodedError as exc:
            return f"F-AP {fap}: {exc}"
        if not np.array_equal(decoded, library.file(schedule.demand[fap])):
            return f"F-AP {fap} decoded wrong bits by slot {deadline}"
    return None


def run(name: str, seed: int, trace: bool, params: dict | None = None,
        t0: float | None = None, out_dir: Path = OUT) -> dict:
    """Run one repeat of workload `name` in this process and check it."""
    import_package()
    from fogcoded import cli

    p = WORKLOADS[name] if params is None else params
    kind = p["kind"]
    trial_failures: list = []
    after = None
    if kind == "bitexact":
        def after(*captured):
            trial_failures.append(decode_failure(*captured))
    tracer = Tracer(record=trace, after_delivery=after)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"sweep-seed{seed}.csv"

    if kind == "sweep":
        config = cli.ExperimentConfig(
            K=p["K"], N=N, M=M, F=p["F"], B=p["B"], delta_b=p["deltas"][0],
            L=p["L"], mode="analytic", trials=1, seed=seed, sweep="deltab",
            values=tuple(float(d) for d in p["deltas"]),
        )
        attempted = len(p["deltas"])
    elif kind == "bitexact":
        config = cli.ExperimentConfig(
            K=p["K"], N=N, M=M, F=p["F"], B=p["B"], delta_b=p["delta_b"],
            L=p["L"], mode="bitexact", trials=p["trials"], seed=seed,
        )
        attempted = p["trials"]
    else:
        attempted = 1  # replaced by the number of checks once they ran

    failures: list[str] = []
    with tracer.installed():
        setup_s = None if t0 is None else time.monotonic() - t0
        start = time.perf_counter()
        try:
            if kind == "sweep":
                rows = cli.run_sweep(config)
                cli.write_csv(rows, str(csv_path))
            elif kind == "bitexact":
                row = cli.run_single(config)
            else:
                checks = cli.run_verification(max_k=p["max_k"], seed=seed)
        except Exception:  # a raising workload fails all its operations
            traceback.print_exc()
            failures = ["workload raised"] * attempted
        run_s = time.perf_counter() - start - tracer.gate_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if not failures:
        if kind == "sweep":
            failures = sweep_failures(rows, csv_path, p["deltas"], cli.CSV_COLUMNS)
        elif kind == "bitexact":
            failures = [f for f in trial_failures if f is not None]
            failures += ["trial not decoded"] * (attempted - len(trial_failures))
            if row.error:
                failures = [row.error] * attempted
        else:
            attempted = max(len(checks), 1)
            failures = [f"{c.name}: {c.detail or 'not PASS'}" for c in checks if c.ok is not True]
            if not checks:
                failures = ["no checks ran"]

    result = {
        "workload": name, "seed": seed, "trace": trace, "setup_s": setup_s,
        "ref_s": reference_seconds(),
        "run_s": run_s, "peak_rss_mb": peak_rss_mb, "attempted": attempted,
        "failed": min(len(failures), attempted), "failures": failures[:5],
    }
    if trace:
        result["layers"] = tracer.layer_metrics()
        (out_dir / f"trace-{name}-seed{seed}.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "params": p, "run_s": run_s,
             "layers": result["layers"], **tracer.dump()}))
    return result


def main(argv: list[str]) -> int:
    name, seed, trace, t0 = argv
    result = run(name, int(seed), trace == "1", t0=float(t0))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
