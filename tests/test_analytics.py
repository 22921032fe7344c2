"""Counting machinery and closed-form load tests.

Each counting routine is checked against an independent brute-force
enumeration, which is the arbiter wherever a closed form allows more than
one reading.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_counting
import reference_partition
from fogcoded import analytics, core, delivery
from fogcoded.analytics import FixedLConfig
from fogcoded.errors import InvalidParams, OutOfRange, TooLarge


def cfg(K=4, B=4, L=1, delta_b=2, N=None, M=None, F=16):
    N = K if N is None else N
    M = K / 2 if M is None else M
    return FixedLConfig(K=K, N=N, M=M, F=F, B=B, L=L, delta_b=delta_b)


class TestBCount:
    def test_single_group(self):
        assert analytics.b_count(1, 2, 3) == 3

    def test_one_each(self):
        assert analytics.b_count(2, 2, 3) == 9

    def test_recursive_case(self):
        assert analytics.b_count(2, 3, 2) == 4

    def test_saturated(self):
        assert analytics.b_count(3, 6, 2) == 1

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            analytics.b_count(2, 1, 3)
        with pytest.raises(OutOfRange):
            analytics.b_count(2, 7, 3)

    def test_brute_force_grid(self):
        for y in range(1, 5):
            for l in range(1, 5):
                counts = analytics.brute_force_b(y, l)
                for alpha in range(y, y * l + 1):
                    assert analytics.b_count(y, alpha, l) == counts[alpha], (y, alpha, l)

    def test_oracle_matches_reference(self):
        for y in range(1, 13):
            for l in range(1, 12 // y + 1):
                want = [reference_counting.brute_force_b(y, a, l) for a in range(y * l + 1)]
                assert analytics.brute_force_b(y, l).tolist() == want, (y, l)

    def test_oracle_refuses_large_before_allocating(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("subsets allocated before the size check")

        monkeypatch.setattr(np, "arange", fail)
        with pytest.raises(TooLarge):
            analytics.brute_force_b(3, 7)


class TestQPieces:
    def test_q1_empty_alpha_range_is_zero(self):
        # A truncated last window too short to hold the leftover members.
        assert analytics.q1_count(s=4, Y=1, delta_b_prime=1, delta_b=2, L=1, B=4) == 0

    def test_q1_oracle_decided_value(self):
        # For one full window plus a one-slot window pinned at the end of a
        # four-slot timeline there are exactly two placements, each carrying
        # one valid member choice; brute force fixes the total at q = 3
        # together with the single two-full-window placement.
        assert analytics.q1_count(s=2, Y=2, delta_b_prime=1, delta_b=2, L=1, B=4) == 2
        assert analytics.q2_count(s=2, Y=2, delta_b=2, L=1, B=4) == 1
        assert analytics.q_count(2, 2, cfg(delta_b=2)) == 3
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        assert analytics.brute_force_eta_histogram(schedule)[2 - 1, 2, 2] == 3

    def test_q1_q2_sum_matches_q(self):
        for delta_b in (2, 3):
            for s in range(1, 5):
                for y in analytics.y_range(s, cfg(delta_b=delta_b)):
                    total = analytics.q2_count(s, y, delta_b, 1, 4) + sum(
                        analytics.q1_count(s, y, dbp, delta_b, 1, 4)
                        for dbp in range(1, delta_b)
                    )
                    assert total == analytics.q_count(s, y, cfg(delta_b=delta_b))

    def test_q2_unit_delay(self):
        assert analytics.q2_count(s=2, Y=2, delta_b=1, L=1, B=4) == 6

    def test_q2_infeasible_placement_is_zero(self):
        # Two full three-slot windows cannot fit in four slots.
        assert analytics.q2_count(s=2, Y=2, delta_b=3, L=1, B=4) == 0


class TestQCount:
    def test_memoized_per_shape(self, monkeypatch):
        # the cache ratio is not part of the count: configs that differ
        # only in M share it
        analytics._q_count.cache_clear()
        calls = []
        original = analytics.q2_count

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(analytics, "q2_count", counted)
        first = analytics.q_count(2, 1, cfg(M=1.0))
        assert analytics.q_count(2, 1, cfg(M=3.0)) == first == 3
        assert len(calls) == 1
        analytics._q_count.cache_clear()

    def test_full_delay(self):
        c = cfg(delta_b=4)
        for s in range(1, 5):
            assert analytics.q_count(s, 1, c) == math.comb(4, s)
            assert analytics.q_count(s, 2, c) == 0

    def test_worked_triples(self):
        c = cfg(delta_b=2)
        assert analytics.q_count(3, 1, c) == 0
        assert analytics.q_count(3, 2, c) == 4
        assert analytics.q_count(2, 1, c) == 3

    def test_completeness(self):
        # Every encoding set splits into exactly one subset count.
        for b, l in ((4, 1), (3, 2), (2, 3), (5, 1)):
            k = b * l
            for delta_b in range(1, b + 1):
                c = cfg(K=k, B=b, L=l, delta_b=delta_b)
                for s in range(1, k + 1):
                    total = sum(
                        analytics.q_count(s, y, c) for y in analytics.y_range(s, c)
                    )
                    assert total == math.comb(k, s), (b, l, delta_b, s)

    def test_matches_brute_force_per_y(self):
        for b, l in ((4, 1), (3, 2)):
            k = b * l
            schedule = core.make_fixed_L_schedule(k, b, l)
            histogram = analytics.brute_force_eta_histogram(schedule)
            for delta_b, counts in enumerate(histogram, 1):
                c = cfg(K=k, B=b, L=l, delta_b=delta_b)
                for s in range(1, k + 1):
                    for y in analytics.y_range(s, c):
                        assert analytics.q_count(s, y, c) == counts[s, y], (
                            b, l, delta_b, s, y,
                        )


class TestQTotal:
    def test_worked_totals(self):
        c = cfg(delta_b=2)
        assert [analytics.Q_count(s, c) for s in range(1, 5)] == [4, 9, 8, 2]

    def test_full_delay_equals_binomials(self):
        c = cfg(delta_b=4)
        for s in range(1, 5):
            assert analytics.Q_count(s, c) == math.comb(4, s)

    def test_unit_delay_singleton_slots(self):
        c = cfg(delta_b=1)
        for s in range(1, 5):
            assert analytics.Q_count(s, c) == s * math.comb(4, s)


class TestBruteForceQ:
    def test_matches_counting_small_grids(self):
        for b, l in ((4, 1), (3, 2)):
            k = b * l
            Q = analytics.brute_force_Q(core.make_fixed_L_schedule(k, b, l))
            assert len(Q) == b
            for delta_b in range(1, b + 1):
                c = cfg(K=k, B=b, L=l, delta_b=delta_b)
                assert Q[delta_b - 1] == [analytics.Q_count(s, c) for s in range(1, k + 1)]

    def test_single_set_full_delay(self):
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        assert analytics.brute_force_Q(schedule)[4 - 1][4 - 1] == 1

    def test_schedule_relabeling_invariance(self):
        # The totals do not depend on which F-APs land in which slot.
        canonical = core.make_fixed_L_schedule(6, 3, 2)
        shuffled = core.make_fixed_L_schedule(6, 3, 2, seed=11)
        assert analytics.brute_force_Q(canonical) == analytics.brute_force_Q(shuffled)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            analytics.brute_force_Q(core.make_fixed_L_schedule(25, 25, 1))


def random_schedules(max_k):
    """Random surjective schedules with 2 <= B <= K <= max_k."""
    return st.integers(min_value=2, max_value=max_k).flatmap(
        lambda k: st.tuples(
            st.integers(min_value=2, max_value=k),
            st.integers(min_value=0, max_value=10_000),
        ).map(lambda bs: core.make_random_schedule(k, *bs))
    )


class TestBruteForceEtaHistogram:
    @settings(max_examples=30, deadline=None)
    @given(random_schedules(max_k=8))
    def test_matches_reference_partition(self, schedule):
        # every nonempty set cut by the paper's literal partition
        K = schedule.K
        want = np.zeros((schedule.B, K + 1, K + 1), dtype=np.int64)
        for s in range(1, K + 1):
            for members in combinations(range(1, K + 1), s):
                for delta_b in range(1, schedule.B + 1):
                    y = reference_partition.partition_encoding_set(
                        members, schedule, delta_b
                    ).eta
                    want[delta_b - 1, s, y] += 1
        got = analytics.brute_force_eta_histogram(schedule)
        assert got.dtype == np.int64 and np.array_equal(got, want), schedule.slots


class TestScheduleQ:
    @settings(max_examples=100, deadline=None)
    @given(random_schedules(max_k=12))
    def test_matches_brute_force_on_random_schedules(self, schedule):
        for delta_b, Q in enumerate(analytics.brute_force_Q(schedule), 1):
            assert analytics.schedule_Q(schedule, delta_b) == Q, (schedule.slots, delta_b)

    def test_matches_counter_reference(self):
        # exact big integers, past where a brute force can go
        for K, B, delta_b, seed in ((200, 40, 7, 3), (30, 7, 1, 0), (30, 7, 7, 1)):
            schedule = core.make_random_schedule(K, B, seed)
            assert analytics.schedule_Q(schedule, delta_b) == reference_counting.schedule_Q(
                schedule, delta_b
            ), (K, B, delta_b)

    @settings(max_examples=30, deadline=None)
    @given(random_schedules(max_k=7), st.sampled_from([0.25, 0.5, 0.75]))
    def test_matches_delivery_engine(self, schedule, ratio):
        # The engine on expected lengths is the reference for analytic loads.
        K = schedule.K
        for delta_b in range(1, schedule.B + 1):
            params = core.SystemParams(
                K=K, N=K + 3, M=ratio * (K + 3), F=1000, B=schedule.B, delta_b=delta_b
            )
            records = core.analytic_subfile_table(params, schedule)
            report = delivery.run_delivery(schedule, records, params).report
            Q = analytics.schedule_Q(schedule, delta_b)
            assert report.transmission_count == sum(Q)
            assert analytics.load_of(params, Q) == pytest.approx(
                report.normalized_load, rel=1e-12
            )

    def test_fixed_l_matches_counting_formula(self):
        for b, l in ((2, 1), (4, 1), (3, 2), (4, 3), (5, 4), (3, 8)):
            k = b * l
            for delta_b in range(1, b + 1):
                c = cfg(K=k, B=b, L=l, delta_b=delta_b)
                schedule = core.make_fixed_L_schedule(k, b, l, seed=delta_b)
                Q = analytics.schedule_Q(schedule, delta_b)
                assert Q == [analytics.Q_count(s, c) for s in range(1, k + 1)]
                assert analytics.load_of(c, Q) == analytics.closed_form_load(c)

    def test_delay_range(self):
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        for delta_b in (0, 5):
            with pytest.raises(InvalidParams):
                analytics.schedule_Q(schedule, delta_b)


class TestClosedFormLoad:
    def test_worked_ladder(self):
        loads = [
            analytics.closed_form_load(cfg(delta_b=d, N=4, M=2.0)) for d in (1, 2, 3, 4)
        ]
        assert loads == pytest.approx([2.0, 1.4375, 1.1875, 0.9375], rel=1e-12)

    def test_unit_delay_equals_uncoded_here(self):
        # With one request per slot and unit delay no coding happens.
        assert analytics.closed_form_load(cfg(delta_b=1, N=4, M=2.0)) == pytest.approx(
            analytics.uncoded_load(2.0, 4, 4)
        )

    def test_b2_shapes(self):
        c1 = cfg(K=2, B=2, L=1, delta_b=2, N=4, M=2.0)
        assert analytics.closed_form_load(c1) == pytest.approx(
            analytics.mn_sync_load(2.0, 4, 2), rel=1e-12
        )
        c2 = cfg(K=2, B=2, L=1, delta_b=1, N=4, M=2.0)
        assert analytics.closed_form_load(c2) == pytest.approx(
            analytics.uncoded_load(2.0, 4, 2)
        )

    def test_monotone_in_delay(self):
        for b, l in ((4, 1), (5, 1), (3, 2)):
            k = b * l
            loads = [
                analytics.closed_form_load(cfg(K=k, B=b, L=l, delta_b=d))
                for d in range(1, b + 1)
            ]
            assert all(x >= y - 1e-12 for x, y in zip(loads, loads[1:]))


class TestBaselineLoads:
    def test_mn_sync_worked_value(self):
        assert analytics.mn_sync_load(2.0, 4, 4) == pytest.approx(0.9375)

    def test_mn_sync_full_cache_limit(self):
        assert analytics.mn_sync_load(4.0 - 1e-9, 4, 4) == pytest.approx(0.0, abs=1e-8)

    def test_mn_sync_single_fap(self):
        assert analytics.mn_sync_load(1.0, 4, 1) == pytest.approx(0.75)
        assert analytics.mn_sync_load(1.0, 4, 1) == pytest.approx(
            analytics.uncoded_load(1.0, 4, 1)
        )

    def test_uncoded(self):
        assert analytics.uncoded_load(2.0, 4, 4) == pytest.approx(2.0)
        assert analytics.uncoded_load(1.0, 4, 1) == pytest.approx(0.75)

    def test_uncoded_domain(self):
        with pytest.raises(InvalidParams):
            analytics.uncoded_load(0.0, 4, 4)


class TestLoadBounds:
    def test_worked_pair(self):
        lower, upper = analytics.load_bounds(2.0, 4, 4, B=4, delta_b=2)
        assert lower == pytest.approx(0.9375)
        assert upper == pytest.approx(1.875)

    def test_full_delay_upper_meets_lower(self):
        lower, upper = analytics.load_bounds(2.0, 4, 4, B=4, delta_b=4)
        assert upper == pytest.approx(lower)

    def test_uncoded_cap(self):
        # With a small cache the uncoded limb of the minimum is the binding one.
        lower, upper = analytics.load_bounds(0.1, 20, 10, B=5, delta_b=1)
        assert upper == pytest.approx(analytics.uncoded_load(0.1, 20, 10))

    def test_sync_equality_grid(self):
        for b, l in ((3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (5, 2)):
            k = b * l
            for ratio in (0.25, 0.5, 0.75):
                c = cfg(K=k, B=b, L=l, delta_b=b, M=ratio * k)
                sync = analytics.mn_sync_load(c.M, c.N, c.K)
                assert analytics.closed_form_load(c) == pytest.approx(sync, rel=1e-12)

    def test_sandwich_and_ratio(self):
        for b, l in ((3, 1), (4, 1), (5, 1), (3, 2)):
            k = b * l
            for ratio in (0.25, 0.5, 0.75):
                for delta_b in range(1, b + 1):
                    c = cfg(K=k, B=b, L=l, delta_b=delta_b, M=ratio * k)
                    load = analytics.closed_form_load(c)
                    lower, upper = analytics.load_bounds(c.M, c.N, k, b, delta_b)
                    assert lower * (1 - 1e-9) <= load <= upper * (1 + 1e-9)
                    windows = math.ceil(b / delta_b)
                    assert 1 - 1e-9 <= load / lower <= windows + 1e-9


class TestFixedLConfigValidation:
    def test_shape(self):
        with pytest.raises(InvalidParams):
            FixedLConfig(K=5, N=5, M=1, F=1, B=2, L=2, delta_b=1)

    def test_cache_range(self):
        with pytest.raises(InvalidParams):
            FixedLConfig(K=4, N=4, M=0, F=1, B=4, L=1, delta_b=1)

    def test_delay_range(self):
        with pytest.raises(InvalidParams):
            FixedLConfig(K=4, N=4, M=2, F=1, B=4, L=1, delta_b=5)
