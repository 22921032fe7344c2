"""Tests of the benchmark itself: the gate must count a wrong result as
failed, smoke sizes of every workload must pass, and BENCHMARK.json must
list exactly the metrics the driver prints.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import workload

workload.import_package()
from fogcoded import analytics, cli, delivery  # noqa: E402

BENCHMARK = json.loads((workload.ROOT / "BENCHMARK.json").read_text())


def smoke(name, tmp_path, trace=False):
    return workload.run(name, seed=1, trace=trace, params=workload.SMOKE[name],
                        out_dir=tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_smoke_workload_passes(name, trace, tmp_path):
    result = smoke(name, tmp_path, trace)
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["failures"]
    assert result["run_s"] > 0
    if trace:
        names = {n for n, _ in spans.PER_LAYER} - {"trace.overhead_frac"}
        assert set(result["layers"]) == names
        assert (tmp_path / f"trace-{name}-seed1.json").is_file()


def test_tracer_restores_the_package(tmp_path):
    before = (cli.run_single, delivery.run_delivery, analytics.partition_eta)
    smoke("verify", tmp_path, trace=True)
    assert (cli.run_single, delivery.run_delivery, analytics.partition_eta) == before


def test_perturbed_closed_form_counts_as_failed(monkeypatch, tmp_path):
    real = analytics.closed_form_load
    monkeypatch.setattr(analytics, "closed_form_load", lambda cfg: real(cfg) * (1 + 1e-6))
    result = smoke("analytic-sweep", tmp_path)
    assert result["failed"] / result["attempted"] > 0


def test_flipped_decoded_bit_counts_as_failed(monkeypatch, tmp_path):
    real = delivery.decode_fap

    def flipped(*args, **kwargs):
        out = real(*args, **kwargs).copy()
        out[0] ^= 1
        return out

    monkeypatch.setattr(delivery, "decode_fap", flipped)
    result = smoke("bitexact-k12", tmp_path)
    assert result["failed"] == result["attempted"] > 0


def test_failing_check_counts_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "check_b_count",
                        lambda: cli.CheckResult("b-count oracle", False, "injected"))
    result = smoke("verify", tmp_path)
    assert result["failed"] == 1 and result["attempted"] > 1


def test_raising_workload_counts_as_failed(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise cli.InvalidParams("injected")

    monkeypatch.setattr(cli, "run_single", boom)
    result = smoke("bitexact-k12", tmp_path)
    assert result["failed"] == result["attempted"] == 2


def test_sweep_gate_rejects_a_load_that_grows_with_delta(tmp_path):
    rows = cli.run_sweep(cli.ExperimentConfig(
        K=6, N=20, M=5.0, F=1000, B=3, delta_b=1, L=2, mode="analytic",
        trials=1, seed=0, sweep="deltab", values=(1.0, 2.0)))
    path = tmp_path / "sweep.csv"
    cli.write_csv(rows, str(path))
    assert workload.sweep_failures(rows, path, (1, 2), cli.CSV_COLUMNS) == []
    swapped = rows[::-1]
    cli.write_csv(swapped, str(path))
    failures = workload.sweep_failures(swapped, path, (2, 1), cli.CSV_COLUMNS)
    assert len(failures) == 1 and "grew" in failures[0]


def test_benchmark_json_matches_the_driver():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workload.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_driver_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(workload.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(workload.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_array_mb_counts_array_fields():
    lib = type("Lib", (), {})()
    lib.bits = np.zeros((2, 500_000), dtype=np.uint8)
    lib.name = "not an array"
    assert spans.array_mb(lib) == 1.0


def test_times_are_scaled_to_the_reference_speed():
    plain = [{"run_s": 2.0, "setup_s": 0.2, "peak_rss_mb": 50.0, "ref_s": 2 * run.REF_S}]
    metrics = run.summarize(plain, [], trace=False)
    assert metrics["run_s"]["value"] == pytest.approx(1.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.1)
    assert metrics["peak_rss_mb"]["value"] == 50.0
