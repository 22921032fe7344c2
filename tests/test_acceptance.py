"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import functools
import math
import time

import numpy as np
import pytest

from fogcoded import analytics, cli, core, delivery
from fogcoded.analytics import FixedLConfig


def criterion(number, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {number} {name}: PASS")
        return wrapper
    return deco


def fixed_l_shapes(max_k):
    return [
        (b, l)
        for b in range(2, max_k + 1)
        for l in range(1, max_k // b + 1)
    ]


@criterion(1, "golden transmission tables")
def test_golden_tables(capsys):
    started = time.perf_counter()
    assert cli.main(["tables"]) == 0
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - started
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    parsed = [
        (int(r[0]), int(r[1]), int(r[2]), r[3], r[4], r[7]) for r in rows
    ]
    sent_per_slot = {2: 0, 3: 0, 4: 0}
    for slot, *_rest, content in parsed:
        if content != "-":
            sent_per_slot[slot] += 1
    assert sent_per_slot == {2: 8, 3: 4, 4: 11}
    assert sum(sent_per_slot.values()) == 23
    # the first slot-3 candidate (whole set, deadline F-AP 2) is skipped
    assert (3, 4, 1, "{2}", "{1,3,4}", "-") in parsed
    # a one-operand ride-along when the partner subfile was already delivered
    assert any(
        r == (4, 3, 2, "{3,4}", "{2}", "W[4,{2,3}]") for r in parsed
    )
    assert elapsed < 1.0, f"tables took {elapsed:.2f}s"


@criterion(2, "analytic delivery equals closed form")
def test_closed_form_agreement():
    started = time.perf_counter()
    for b in (3, 4, 5):
        for l in (1, 2):
            k = b * l
            for ratio in (0.25, 0.5, 0.75):
                for delta_b in range(1, b + 1):
                    params = core.SystemParams(
                        K=k, N=k, M=ratio * k, F=1000, B=b, delta_b=delta_b
                    )
                    schedule = core.make_fixed_L_schedule(k, b, l, seed=delta_b)
                    records = core.analytic_subfile_table(params, schedule)
                    run = delivery.run_delivery(schedule, records, params)
                    expected = analytics.closed_form_load(FixedLConfig(
                        K=k, N=k, M=ratio * k, F=1000, B=b, L=l, delta_b=delta_b
                    ))
                    assert run.report.normalized_load == pytest.approx(
                        expected, rel=1e-9
                    ), (b, l, ratio, delta_b)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"grid took {elapsed:.2f}s"


@criterion(3, "full-delay load equals the synchronous baseline")
def test_full_delay_equality():
    for b in (3, 4, 5):
        for l in (1, 2):
            k = b * l
            for ratio in (0.25, 0.5, 0.75):
                cfg = FixedLConfig(
                    K=k, N=k, M=ratio * k, F=1000, B=b, L=l, delta_b=b
                )
                sync = analytics.mn_sync_load(cfg)
                assert analytics.closed_form_load(cfg) == pytest.approx(
                    sync, rel=1e-12
                ), (b, l, ratio)
    demo = FixedLConfig(K=4, N=4, M=2.0, F=16, B=4, L=1, delta_b=4)
    assert analytics.closed_form_load(demo) == pytest.approx(15 / 16, rel=1e-12)


@criterion(4, "demo-config load ladder over all delays")
def test_demo_load_ladder():
    expected = {1: 2.0, 2: 1.4375, 3: 1.1875, 4: 0.9375}
    schedule = core.make_fixed_L_schedule(4, 4, 1)
    for delta_b, want in expected.items():
        cfg = FixedLConfig(K=4, N=4, M=2.0, F=16, B=4, L=1, delta_b=delta_b)
        assert analytics.closed_form_load(cfg) == pytest.approx(want, rel=1e-9)
        # independent oracle: exhaustive partition enumeration
        oracle = sum(analytics.brute_force_Q(schedule)[delta_b - 1]) / 16
        assert oracle == pytest.approx(want, rel=1e-9)
        # and the delivery engine itself
        params = core.SystemParams(K=4, N=4, M=2.0, F=16, B=4, delta_b=delta_b)
        records = core.analytic_subfile_table(params, schedule)
        run = delivery.run_delivery(schedule, records, params)
        assert run.report.normalized_load == pytest.approx(want, rel=1e-9)


@criterion(5, "counting formula matches exhaustive oracle up to K=12")
def test_oracle_equivalence_grid():
    started = time.perf_counter()
    for b, l in fixed_l_shapes(12):
        k = b * l
        schedule = core.make_fixed_L_schedule(k, b, l)
        histogram = analytics.brute_force_eta_histogram(schedule)
        for delta_b, counts in enumerate(histogram, 1):
            cfg = FixedLConfig(K=k, N=k, M=k / 2, F=1, B=b, L=l, delta_b=delta_b)
            for s in range(1, k + 1):
                brute_total = sum(counts[s, y] * y for y in range(k + 1))
                assert analytics.Q_count(s, cfg) == brute_total, (b, l, delta_b, s)
                assert sum(
                    analytics.q_count(s, y, cfg) for y in analytics.y_range(s, cfg)
                ) == math.comb(k, s), (b, l, delta_b, s)
                for y in analytics.y_range(s, cfg):
                    assert analytics.q_count(s, y, cfg) == counts[s, y], (
                        b, l, delta_b, s, y,
                    )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle grid took {elapsed:.2f}s"


@criterion(6, "bit-exact decodability under deadlines")
def test_bit_exact_decodability():
    started = time.perf_counter()
    K, B, F = 8, 5, 10_000
    for seed in range(50):
        params_any = core.SystemParams(K=K, N=K, M=K / 2, F=F, B=B, delta_b=1)
        schedule = core.make_random_schedule(K, B, seed)
        files = schedule.demand.values()
        library = core.generate_library(params_any, seed, files)
        caches = core.place_caches(params_any, seed + 1_000, files)
        for delta_b in range(1, B + 1):
            params = core.SystemParams(K=K, N=K, M=K / 2, F=F, B=B, delta_b=delta_b)
            records = core.partition_into_subfiles(library, caches, schedule)
            run = delivery.run_delivery(schedule, records, params)
            for k in range(1, K + 1):
                deadline = schedule.deadline_slot(k, delta_b)
                decoded = delivery.decode_fap(
                    k, run.events, library, caches, records, upto_slot=deadline
                )
                assert np.array_equal(decoded, library.file(schedule.demand[k]))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"decodability sweep took {elapsed:.2f}s"


@criterion(7, "load bounds sandwich and qualitative sweep shapes")
def test_bounds_and_sweep_shapes():
    K, N, B = 10, 20, 5
    m_values = (5.0, 10.0, 15.0)
    cell_loads: dict[tuple[float, int], list[float]] = {}
    for seed in range(200):
        m = m_values[seed % 3]
        delta_b = (seed % 5) + 1
        params = core.SystemParams(K=K, N=N, M=m, F=10_000, B=B, delta_b=delta_b)
        schedule = core.make_random_schedule(K, B, seed)
        records = core.analytic_subfile_table(params, schedule)
        load = delivery.run_delivery(schedule, records, params).report.normalized_load
        lower, upper = analytics.load_bounds(params)
        assert lower * (1 - 1e-9) <= load <= upper * (1 + 1e-9), (seed, m, delta_b)
        sync = analytics.mn_sync_load(params)
        assert 1 - 1e-9 <= load / sync <= math.ceil(B / delta_b) + 1e-9
        cell_loads.setdefault((m, delta_b), []).append(load)

    # per-schedule: relaxing the deadline never raises the load
    for seed in (0, 1, 2, 3, 4):
        schedule = core.make_random_schedule(K, B, seed)
        loads = []
        for delta_b in range(1, B + 1):
            params = core.SystemParams(K=K, N=N, M=10.0, F=10_000, B=B, delta_b=delta_b)
            records = core.analytic_subfile_table(params, schedule)
            loads.append(
                delivery.run_delivery(schedule, records, params).report.normalized_load
            )
        assert all(x >= y - 1e-9 for x, y in zip(loads, loads[1:]))

    # ensemble: a bigger cache never raises the load, for every delay
    for delta_b in range(1, B + 1):
        means = [float(np.mean(cell_loads[(m, delta_b)])) for m in m_values]
        assert all(x >= y for x, y in zip(means, means[1:])), (delta_b, means)

    # coded load grows more slowly with L than the uncoded load
    ratio = 0.3
    for delta_b in (1, 3, 5):
        coded, plain = [], []
        for l in (1, 2):
            k = B * l
            cfg = FixedLConfig(
                K=k, N=N, M=ratio * N, F=1, B=B, L=l, delta_b=delta_b
            )
            coded.append(analytics.closed_form_load(cfg))
            plain.append(analytics.uncoded_load(cfg))
        assert coded[1] - coded[0] < plain[1] - plain[0]


@criterion(8, "bit-exact load concentrates on the analytic value")
def test_concentration():
    params = core.SystemParams(K=4, N=4, M=2.0, F=100_000, B=4, delta_b=2)
    schedule = core.make_fixed_L_schedule(4, 4, 1)
    library = core.generate_library(params, 12, schedule.demand.values())
    caches = core.place_caches(params, 13, schedule.demand.values())
    records = core.partition_into_subfiles(library, caches, schedule)
    bitexact = delivery.run_delivery(schedule, records, params).report.normalized_load
    analytic_records = core.analytic_subfile_table(params, schedule)
    analytic = delivery.run_delivery(
        schedule, analytic_records, params
    ).report.normalized_load
    assert analytic == pytest.approx(23 / 16, rel=1e-12)
    assert abs(bitexact - analytic) / analytic < 0.05
