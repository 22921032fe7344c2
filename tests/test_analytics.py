"""Counting machinery and closed-form load tests.

Each counting routine is checked against an independent brute-force
enumeration, which is the arbiter wherever a closed form allows more than
one reading.  The fixed-L count grids against brute force (b_count,
q_count at every Y, Q_count) live in `verify`
(cli.check_counting_oracle, cli.check_b_count), which the suite runs through
the pinned `verify --max-k 12` outputs of test_golden.py and acceptance
criterion 5.
"""

import math
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_counting
import reference_partition
from fogcoded import analytics, core, delivery
from fogcoded.analytics import FixedLConfig
from fogcoded.errors import InvalidParams, TooLarge


def cfg(K=4, B=4, L=1, delta_b=2, N=None, M=None, F=16):
    N = K if N is None else N
    M = K / 2 if M is None else M
    return FixedLConfig(K=K, N=N, M=M, F=F, B=B, L=L, delta_b=delta_b)


def sys_params(K, N, M, B=2, delta_b=1):
    """SystemParams for the baselines, which read only K, N and M, and the
    bounds, which also read B and delta_b."""
    return core.SystemParams(K=K, N=N, M=M, F=1, B=B, delta_b=delta_b)


class TestBCount:
    def test_large_y_from_a_cold_cache(self):
        # G_Y is built in a loop: no recursion depth grows with Y
        analytics._g_poly.cache_clear()
        assert analytics.b_count(1200, 1200, 1) == 1

    def test_single_group(self):
        assert analytics.b_count(1, 2, 3) == 3

    def test_one_each(self):
        assert analytics.b_count(2, 2, 3) == 9

    def test_recursive_case(self):
        assert analytics.b_count(2, 3, 2) == 4

    def test_saturated(self):
        assert analytics.b_count(3, 6, 2) == 1

    def test_out_of_range(self):
        with pytest.raises(InvalidParams):
            analytics.b_count(2, 1, 3)
        with pytest.raises(InvalidParams):
            analytics.b_count(2, 7, 3)

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
    """The paper's q1 and q2 pieces, as the alpha-sum reference computes
    them, against brute force and the q table."""

    def test_q1_empty_alpha_range_is_zero(self):
        # A truncated last window too short to hold the leftover members.
        assert reference_counting.q1_count(s=4, Y=1, delta_b_prime=1, delta_b=2, L=1, B=4) == 0

    def test_q1_oracle_decided_value(self):
        # For one full window plus a one-slot window pinned at the end of a
        # four-slot timeline there are exactly two placements, each carrying
        # one valid member choice; brute force fixes the total at q = 3
        # together with the single two-full-window placement.
        assert reference_counting.q1_count(s=2, Y=2, delta_b_prime=1, delta_b=2, L=1, B=4) == 2
        assert reference_counting.q2_count(s=2, Y=2, delta_b=2, L=1, B=4) == 1
        assert analytics.q_count(2, 2, cfg(delta_b=2)) == 3
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        assert analytics.brute_force_eta_histogram(schedule)[2 - 1, 2, 2] == 3

    def test_q1_q2_sum_matches_q(self):
        for delta_b in (2, 3):
            for s in range(1, 5):
                for y in range(5):
                    total = reference_counting.q2_count(s, y, delta_b, 1, 4) + sum(
                        reference_counting.q1_count(s, y, dbp, delta_b, 1, 4)
                        for dbp in range(1, delta_b)
                    )
                    assert total == analytics.q_count(s, y, cfg(delta_b=delta_b))

    def test_q2_unit_delay(self):
        assert reference_counting.q2_count(s=2, Y=2, delta_b=1, L=1, B=4) == 6

    def test_q2_infeasible_placement_is_zero(self):
        # Two full three-slot windows cannot fit in four slots.
        assert reference_counting.q2_count(s=2, Y=2, delta_b=3, L=1, B=4) == 0


class TestQCount:
    def test_memoized_per_shape(self):
        # the cache ratio is not part of the count: configs that differ
        # only in M share one table build
        analytics._q_table.cache_clear()
        first = analytics.q_count(2, 1, cfg(M=1.0))
        assert analytics.q_count(2, 1, cfg(M=3.0)) == first == 3
        assert analytics.Q_count(2, cfg(M=2.0)) == 9
        assert analytics._q_table.cache_info().misses == 1
        analytics._q_table.cache_clear()

    @pytest.mark.parametrize("s", [0, -1, 5])
    def test_s_outside_1_to_k_is_refused(self, s):
        with pytest.raises(InvalidParams, match=f"got s={s}, K=4"):
            analytics.q_count(s, 1, cfg())
        with pytest.raises(InvalidParams, match=f"got s={s}, K=4"):
            analytics.Q_count(s, cfg())

    @pytest.mark.parametrize("count, args, name", [
        (analytics.b_count, (2, 3, 1.5), "L"),
        (analytics.b_count, (2.0, 3, 2), "Y"),
        (analytics.b_count, (2, 3.0, 2), "alpha"),
        (analytics.q_count, (1.5, 1, cfg()), "s"),
        (analytics.q_count, (2, 1.0, cfg()), "Y"),
        (analytics.Q_count, (2.0, cfg()), "s"),
        (cfg().subfile_fraction, (1.5,), "s"),
    ])
    def test_non_integer_argument_is_refused(self, count, args, name):
        with pytest.raises(InvalidParams, match=f"^{name} must be an integer, got"):
            count(*args)

    def test_y_outside_y_range_counts_zero(self):
        c = cfg(delta_b=2)
        for y in (-1, 0, 3, 99):
            assert analytics.q_count(2, y, c) == 0

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


class TestQTable:
    """The per-shape q table against the alpha-sum it replaced and the
    slot scan, at sizes past the brute-force limit."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_alpha_sum_reference(self, data):
        b = data.draw(st.integers(2, 24), label="B")
        l = data.draw(st.integers(1, 48 // b), label="L")
        delta_b = data.draw(st.integers(1, b), label="delta_b")
        c = cfg(K=b * l, B=b, L=l, delta_b=delta_b)
        for s in range(1, b * l + 1):
            for y in range(b + 2):
                want = reference_counting._q_count(s, y, b, l, delta_b)
                assert analytics.q_count(s, y, c) == want, (s, y)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_q_row_matches_slot_scan(self, data):
        b = data.draw(st.integers(2, 30), label="B")
        l = data.draw(st.integers(1, 60 // b), label="L")
        delta_b = data.draw(st.integers(1, b), label="delta_b")
        c = cfg(K=b * l, B=b, L=l, delta_b=delta_b)
        schedule = core.make_fixed_L_schedule(b * l, b, l)
        Q = [analytics.Q_count(s, c) for s in range(1, b * l + 1)]
        assert Q == reference_counting.schedule_Q(schedule, delta_b)

    def test_closed_form_exact_at_k_200(self):
        c = cfg(K=200, B=40, L=5, delta_b=7, N=400, M=100.0)
        schedule = core.make_fixed_L_schedule(200, 40, 5, seed=11)
        Q = reference_counting.schedule_Q(schedule, 7)
        assert [analytics.Q_count(s, c) for s in range(1, 201)] == Q
        load, count = analytics.schedule_load(c, [5] * 40)
        assert count == sum(Q)
        assert analytics.closed_form_load(c) == load
        assert load == pytest.approx(analytics.load_of(c, Q), rel=1e-13, abs=0)


class TestFixedLLoad:
    """The window chain on B slots of L F-APs, which gives the closed form,
    against the q table."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_q_table(self, data):
        b = data.draw(st.integers(2, 16), label="B")
        l = data.draw(st.integers(1, 64 // b), label="L")
        delta_b = data.draw(st.integers(1, b), label="delta_b")
        ratio = data.draw(st.floats(0.01, 0.99), label="M/N")
        c = cfg(K=b * l, B=b, L=l, delta_b=delta_b, N=2 * b * l, M=ratio * 2 * b * l)
        Q = [analytics.Q_count(s, c) for s in range(1, b * l + 1)]
        load, count = analytics.schedule_load(c, [l] * b)
        assert count == sum(Q)
        assert load == pytest.approx(analytics.load_of(c, Q), rel=1e-12, abs=0)

    def test_finite_past_the_float_range_of_its_terms(self):
        # (1 - p)^L underflows here, and its inverse would overflow
        c = cfg(K=400, B=2, L=200, delta_b=1, N=1000, M=999.0)
        load, _ = analytics.schedule_load(c, [200] * 2)
        assert 0 < load <= analytics.uncoded_load(c)

    def test_k_4000_within_the_bounds(self):
        # the count is below K * 2^K, the bound behind the CLI's analytic K cap
        c = cfg(K=4000, B=400, L=10, delta_b=7, N=8000, M=2000.0)
        load, count = analytics.schedule_load(c, [10] * 400)
        lower, upper = analytics.load_bounds(c)
        assert lower <= load <= upper
        assert count.bit_length() <= 4000 + (4000).bit_length()


class TestBruteForceQ:
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
    """schedule_load: the window chain that sums Q(s) and the load of any
    schedule."""

    @settings(max_examples=100, deadline=None)
    @given(random_schedules(max_k=12), st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]))
    def test_matches_brute_force_on_random_schedules(self, schedule, ratio):
        K = schedule.K
        for delta_b, Q in enumerate(analytics.brute_force_Q(schedule), 1):
            params = core.SystemParams(
                K=K, N=K + 3, M=ratio * (K + 3), F=1, B=schedule.B, delta_b=delta_b
            )
            load, count = analytics.schedule_load(params, map(len, schedule.slots))
            assert count == sum(Q), (schedule.slots, delta_b)
            assert load == pytest.approx(analytics.load_of(params, Q), rel=1e-12)

    def test_matches_counter_reference(self):
        # exact big integers, past where a brute force can go
        for K, B, delta_b, seed in ((200, 40, 7, 3), (30, 7, 1, 0), (30, 7, 7, 1)):
            schedule = core.make_random_schedule(K, B, seed)
            params = core.SystemParams(K=K, N=2 * K, M=K / 3, F=1, B=B, delta_b=delta_b)
            Q = reference_counting.schedule_Q(schedule, delta_b)
            load, count = analytics.schedule_load(params, map(len, schedule.slots))
            assert count == sum(Q), (K, B, delta_b)
            assert load == pytest.approx(analytics.load_of(params, Q), rel=1e-12)

    def test_refuses_non_integer_slot_sizes(self):
        # the count's split w >> n needs an integer n
        params = core.SystemParams(K=4, N=4, M=2, F=1, B=2, delta_b=1)
        with pytest.raises(InvalidParams, match="slot size must be an integer, got 2.0"):
            analytics.schedule_load(params, [2.0, 2.0])

    def test_numpy_slot_sizes_count_past_int64(self):
        # the count scan's w >> n starts from 2^K, past a C long at K >= 63
        params = core.SystemParams(K=100, N=200, M=50, F=1, B=50, delta_b=3)
        want = analytics.schedule_load(params, [2] * 50)
        assert analytics.schedule_load(params, np.full(50, 2)) == want

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
            load, count = analytics.schedule_load(params, map(len, schedule.slots))
            assert count == report.transmission_count
            assert load == pytest.approx(report.normalized_load, rel=1e-12)

    def test_fixed_l_matches_counting_formula(self):
        for b, l in ((2, 1), (4, 1), (3, 2), (4, 3), (5, 4), (3, 8)):
            k = b * l
            for delta_b in range(1, b + 1):
                c = cfg(K=k, B=b, L=l, delta_b=delta_b)
                schedule = core.make_fixed_L_schedule(k, b, l, seed=delta_b)
                Q = [analytics.Q_count(s, c) for s in range(1, k + 1)]
                assert reference_counting.schedule_Q(schedule, delta_b) == Q
                load, count = analytics.schedule_load(c, map(len, schedule.slots))
                assert count == sum(Q)
                assert load == pytest.approx(analytics.closed_form_load(c), rel=1e-12)

    def test_large_k_is_finite_and_bounded(self):
        K, B = 2000, 200
        schedule = core.make_random_schedule(K, B, 5)
        for delta_b in (1, 7, B):
            params = core.SystemParams(K=K, N=2 * K, M=K / 2, F=1, B=B, delta_b=delta_b)
            load, count = analytics.schedule_load(params, map(len, schedule.slots))
            lower, upper = analytics.load_bounds(params)
            assert math.isfinite(load)
            assert lower * (1 - 1e-12) <= load <= upper * (1 + 1e-12)
            if delta_b == B:
                # one window: every nonempty set is one subset
                assert load == pytest.approx(
                    analytics.mn_sync_load(params), rel=1e-12
                )
                assert count == 2**K - 1

    @pytest.mark.parametrize("sizes, match", [
        ([1, 1, 1, 1], "need B=5 slot sizes, got 4"),  # a 4-slot schedule
        ([1, 1, 1, 1, 1], "must sum to K=4, got 5"),
        ([1, 1, 1, 1, 0], "a size of 0"),
    ], ids=["count", "sum", "size"])
    def test_bad_sizes_rejected(self, sizes, match):
        params = core.SystemParams(K=4, N=4, M=2.0, F=16, B=5, delta_b=5)
        with pytest.raises(InvalidParams, match=match):
            analytics.schedule_load(params, sizes)


def exact_load(c):
    """sum_s f(s) * Q(s) in exact rationals, rounded once to a float."""
    p = Fraction(c.M) / c.N
    return float(sum(
        p ** (s - 1) * (1 - p) ** (c.K - s + 1) * analytics.Q_count(s, c)
        for s in range(1, c.K + 1)
    ))


class TestClosedFormLoad:
    @pytest.mark.parametrize("K, N, M, B, L, delta_b, want", [
        (4, 4, 2.0, 4, 1, 1, 2.0),  # the demo's ladder over every delay
        (4, 4, 2.0, 4, 1, 2, 1.4375),
        (4, 4, 2.0, 4, 1, 3, 1.1875),
        (4, 4, 2.0, 4, 1, 4, 0.9375),
        (8, 20, 5.0, 4, 2, 2, 3.9198760986328125),
        (14, 20, 5.0, 7, 2, 2, 6.670039672404528),  # the analytic-sweep shape
        (14, 20, 5.0, 7, 2, 4, 4.71182020381093),
        (14, 20, 5.0, 7, 2, 7, 2.9465461559593678),
    ])
    def test_exact_on_pinned_shapes(self, K, N, M, B, L, delta_b, want):
        c = cfg(K=K, N=N, M=M, B=B, L=L, delta_b=delta_b)
        assert exact_load(c) == want
        assert analytics.closed_form_load(c) == want

    @pytest.mark.parametrize("B, L, delta_b", [(12, 4, 8), (12, 4, 12), (6, 8, 6), (8, 6, 3)])
    def test_within_two_ulps_on_dyadic_shapes(self, B, L, delta_b):
        # p = 3/4: the chain's weights (1 - p)^n are exact, so only its sums round
        c = cfg(K=B * L, N=2 * B * L, M=1.5 * B * L, B=B, L=L, delta_b=delta_b)
        want = exact_load(c)
        assert abs(analytics.closed_form_load(c) - want) <= 2 * math.ulp(want)

    def test_runs_the_load_scan_only(self, monkeypatch):
        # the exact count, over integers as wide as 2^K, is schedule_load's;
        # the closed form scans the float weights alone
        wholes = []
        scan = analytics._window_scan
        monkeypatch.setattr(analytics, "_window_scan",
                            lambda delta_b, sizes, whole, split:
                            wholes.append(whole) or scan(delta_b, sizes, whole, split))
        c = cfg(K=14, N=20, M=5.0, B=7, L=2, delta_b=2)
        assert analytics.closed_form_load(c) == 6.670039672404528
        assert wholes == [1.0]
        assert analytics.schedule_load(c, [2] * 7)[0] == 6.670039672404528
        assert wholes == [1.0, 1 << 14, 1.0]

    def test_unit_delay_equals_uncoded_here(self):
        # With one request per slot and unit delay no coding happens.
        c = cfg(delta_b=1, N=4, M=2.0)
        assert analytics.closed_form_load(c) == pytest.approx(analytics.uncoded_load(c))

    def test_b2_shapes(self):
        c1 = cfg(K=2, B=2, L=1, delta_b=2, N=4, M=2.0)
        assert analytics.closed_form_load(c1) == pytest.approx(
            analytics.mn_sync_load(c1), rel=1e-12
        )
        c2 = cfg(K=2, B=2, L=1, delta_b=1, N=4, M=2.0)
        assert analytics.closed_form_load(c2) == pytest.approx(analytics.uncoded_load(c2))

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
        assert analytics.mn_sync_load(sys_params(4, 4, 2.0)) == pytest.approx(0.9375)

    def test_mn_sync_full_cache_limit(self):
        assert analytics.mn_sync_load(sys_params(4, 4, 4.0 - 1e-9)) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_mn_sync_single_fap(self):
        single = sys_params(1, 4, 1.0)
        assert analytics.mn_sync_load(single) == pytest.approx(0.75)
        assert analytics.mn_sync_load(single) == pytest.approx(analytics.uncoded_load(single))

    def test_uncoded(self):
        assert analytics.uncoded_load(sys_params(4, 4, 2.0)) == pytest.approx(2.0)
        assert analytics.uncoded_load(sys_params(1, 4, 1.0)) == pytest.approx(0.75)

    def test_uncoded_domain(self):
        # the baselines take SystemParams, whose constructor holds the domain:
        # 0 < M < N, N >= K
        for K, N, M in ((4, 4, 0.0), (4, 4, 4.0), (4, 4, -1.0), (4, 3, 1.0)):
            with pytest.raises(InvalidParams):
                sys_params(K, N, M)


class TestLoadBounds:
    def test_worked_pair(self):
        lower, upper = analytics.load_bounds(sys_params(4, 4, 2.0, B=4, delta_b=2))
        assert lower == pytest.approx(0.9375)
        assert upper == pytest.approx(1.875)

    def test_full_delay_upper_meets_lower(self):
        lower, upper = analytics.load_bounds(sys_params(4, 4, 2.0, B=4, delta_b=4))
        assert upper == pytest.approx(lower)

    def test_uncoded_cap(self):
        # With a small cache the uncoded limb of the minimum is the binding one.
        small = sys_params(10, 20, 0.1, B=5, delta_b=1)
        lower, upper = analytics.load_bounds(small)
        assert upper == pytest.approx(analytics.uncoded_load(small))

    def test_lower_never_above_upper(self):
        # at delta_b = B both bounds are the baseline itself; at K = N = 1,
        # M = 3/61 a separately rounded upper bound lands an ulp below it
        assert analytics.load_bounds(sys_params(1, 1, 3 / 61, B=4, delta_b=4)) == (
            (0.9508196721311475, 0.9508196721311475)
        )
        for K in range(1, 30):
            for N in sorted({K, 2 * K, 20, 37} - set(range(K))):
                for i in range(1, 61):
                    for B, delta_b in ((4, 4), (4, 1), (4, 3), (5, 2), (7, 7)):
                        lower, upper = analytics.load_bounds(
                            sys_params(K, N, N * i / 61, B=B, delta_b=delta_b)
                        )
                        assert lower <= upper, (K, N, i, B, delta_b)


# M/N = 5e-8, 5e-11, 5e-14, 5e-17 at N = 20: 1 - M/N keeps ever fewer of
# p's digits, and at 5e-17 it rounds to 1
TINY_M = (1e-6, 1e-9, 1e-12, 1e-15)


def exact_hit(p, n):
    """1 - (1 - p)^n in exact rationals."""
    return 1 - (1 - p) ** n


class TestTinyCacheRatio:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 26])
    @pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    def test_hit_chance_exact_on_dyadic_p(self, p, n):
        # 1 - (1 - p)^n fits a double for these n, and so does every partial sum
        assert analytics.hit_chance(sys_params(1, 4, float(4 * p)), n) == exact_hit(p, n)

    @pytest.mark.parametrize("n", [2.5, "3", None])
    def test_hit_chance_refuses_a_non_integer_count(self, n):
        with pytest.raises(InvalidParams, match=re.escape(f"got {n!r}")):
            analytics.hit_chance(sys_params(1, 4, 2.0), n)

    def test_hit_chance_refuses_a_negative_count(self):
        # -1 >> 1 is -1, so an unchecked count never ends the squaring
        # loop; the subprocess bounds the run
        code = (
            "from fogcoded import analytics, core\n"
            "from fogcoded.errors import InvalidParams\n"
            "p = core.SystemParams(K=1, N=4, M=2.0, F=1, B=2, delta_b=1)\n"
            "try:\n"
            "    analytics.hit_chance(p, -1)\n"
            "except InvalidParams as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "n must be >= 0, got -1\n"

    @pytest.mark.parametrize("M", TINY_M)
    def test_closed_form(self, M):
        c = cfg(K=8, B=4, L=2, delta_b=2, N=20, M=M)
        want = exact_load(c)
        assert analytics.closed_form_load(c) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("M", TINY_M)
    def test_schedule_load(self, M):
        schedule = core.make_random_schedule(10, 6, 11)
        p = Fraction(M) / 20
        for delta_b, Q in enumerate(analytics.brute_force_Q(schedule), 1):
            params = core.SystemParams(K=10, N=20, M=M, F=1, B=6, delta_b=delta_b)
            want = float(sum(
                p ** (s - 1) * (1 - p) ** (10 - s + 1) * q for s, q in enumerate(Q, 1)
            ))
            load = analytics.schedule_load(params, map(len, schedule.slots))[0]
            assert load == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("M", TINY_M)
    def test_sync_load_and_bounds(self, M):
        p = Fraction(M) / 20
        want = float((1 - p) / p * exact_hit(p, 10))
        params = sys_params(10, 20, M, B=5, delta_b=5)
        assert analytics.mn_sync_load(params) == pytest.approx(want, rel=1e-12, abs=0)
        # at delta_b = B one window serves everyone: the bounds meet
        for bound in analytics.load_bounds(params):
            assert bound == pytest.approx(want, rel=1e-12, abs=0)


# M/N = 1 - 1e-6 .. 1 - 1e-15 at N = 20: 1 - M/N would subtract from a
# rounded M/N and keep ever fewer digits of the miss ratio
NEAR_FULL_M = pytest.mark.parametrize(
    "M", [20 * (1 - eps) for eps in (1e-6, 1e-9, 1e-12, 1e-15)],
    ids=["1-1e-06", "1-1e-09", "1-1e-12", "1-1e-15"],
)


class TestNearFullCacheRatio:
    """Every load and bound at K = 8, B = 4, L = 2, delta_b = 2, N = 20
    against its exact rational value, taken at the float M."""

    @staticmethod
    def exact(M):
        p = Fraction(M) / 20
        return p, 1 - p

    @NEAR_FULL_M
    def test_closed_form_and_subfile_fraction(self, M):
        c = cfg(K=8, B=4, L=2, delta_b=2, N=20, M=M)
        p, q = self.exact(M)
        assert analytics.closed_form_load(c) == pytest.approx(exact_load(c), rel=1e-12, abs=0)
        for s in range(1, 9):
            want = float(p ** (s - 1) * q ** (8 - s + 1))
            assert c.subfile_fraction(s) == pytest.approx(want, rel=1e-12, abs=0)

    @NEAR_FULL_M
    def test_schedule_load(self, M):
        schedule = core.make_random_schedule(8, 4, 3)
        params = core.SystemParams(K=8, N=20, M=M, F=1, B=4, delta_b=2)
        p, q = self.exact(M)
        Q = analytics.brute_force_Q(schedule)[1]
        want = float(sum(p ** (s - 1) * q ** (8 - s + 1) * n for s, n in enumerate(Q, 1)))
        load = analytics.schedule_load(params, map(len, schedule.slots))[0]
        assert load == pytest.approx(want, rel=1e-12, abs=0)

    @NEAR_FULL_M
    def test_baselines_and_bounds(self, M):
        c = cfg(K=8, B=4, L=2, delta_b=2, N=20, M=M)
        p, q = self.exact(M)
        sync = q / p * exact_hit(p, 8)
        windows = 2  # ceil(B / delta_b)
        upper = 8 * q * min(windows * exact_hit(p, 8) / (8 * p), 1)
        assert analytics.uncoded_load(c) == pytest.approx(float(8 * q), rel=1e-12, abs=0)
        assert analytics.mn_sync_load(c) == pytest.approx(float(sync), rel=1e-12, abs=0)
        lower_got, upper_got = analytics.load_bounds(c)
        assert lower_got == pytest.approx(float(sync), rel=1e-12, abs=0)
        assert upper_got == pytest.approx(float(upper), rel=1e-12, abs=0)


class TestFixedLConfigValidation:
    def test_shape(self):
        with pytest.raises(InvalidParams):
            FixedLConfig(K=5, N=5, M=1, F=1, B=2, L=2, delta_b=1)

    def test_cache_range(self):
        with pytest.raises(InvalidParams):
            FixedLConfig(K=4, N=4, M=0, F=1, B=4, L=1, delta_b=1)

    def test_l_must_be_an_integer(self):
        # K = B*L holds for L = 1.0, by which no schedule can be sliced
        with pytest.raises(InvalidParams, match="L must be an integer, got 1.0"):
            FixedLConfig(K=4, N=4, M=2, F=1, B=4, L=1.0, delta_b=1)

    def test_delay_range(self):
        with pytest.raises(InvalidParams):
            FixedLConfig(K=4, N=4, M=2, F=1, B=4, L=1, delta_b=5)
