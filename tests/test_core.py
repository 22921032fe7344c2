"""System model tests: library, placement, subfile partition, schedules."""

import ast
import dataclasses
import math
import re
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogcoded import core, delivery
from fogcoded.analytics import FixedLConfig
from fogcoded.errors import InvalidParams, TooLarge
import reference_delivery as reference
from reference_delivery import cell, classes_of


def params(K=4, N=4, M=2.0, F=16, B=4, delta_b=2):
    return core.SystemParams(K=K, N=N, M=M, F=F, B=B, delta_b=delta_b)


def surjections(K, B):
    """The number of maps of K F-APs onto B slots, none empty."""
    return sum((-1) ** i * math.comb(B, i) * (B - i) ** K for i in range(B + 1))


def fixed_l_params(K=4, N=4, M=2.0, F=16, B=4, delta_b=2):
    # L = K // B keeps K = B*L whenever B divides K, so only the named
    # parameter is invalid
    return FixedLConfig(K=K, N=N, M=M, F=F, B=B, L=K // B, delta_b=delta_b)


class TestSystemParams:
    def test_valid(self):
        p = params()
        assert p.cache_ratio == 0.5
        assert p.cached_bits_per_file == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(M=0.0),
            dict(M=4.0),
            dict(M=-1.0),
            dict(N=3),  # N < K
            dict(B=1),
            dict(delta_b=0),
            dict(delta_b=5),
            dict(F=0),
            dict(K=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidParams):
            params(**kwargs)
        with pytest.raises(InvalidParams):
            fixed_l_params(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("K", 2.5), ("N", 20.0), ("F", 1.5), ("B", 2.0), ("delta_b", 1.0), ("K", "4"),
    ])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(InvalidParams, match=f"{name} must be an integer, got {value!r}"):
            params(**{name: value})

    def test_numpy_integer_counts_accepted(self):
        p = params(K=np.int64(4), N=np.int32(4), F=np.uint16(16))
        assert p.cached_bits_per_file == 8

    def test_cache_ratio_floor(self):
        # below the smallest normal double, (1 - p)/p and N/(K*M) overflow
        floor = sys.float_info.min
        assert params(K=1, N=1, M=floor, B=2, delta_b=1).cache_ratio == floor
        with pytest.raises(InvalidParams, match=f"M/N >= {floor}"):
            params(K=1, N=1, M=floor / 2, B=2, delta_b=1)

    @pytest.mark.parametrize("M", [2.0, 19.99999999998, 20 - 2**-48])
    def test_miss_ratio_rounds_once(self, M):
        # (N - M) is exact for M >= N/2, so 1 - p is M's complement rounded once
        p = params(K=4, N=20, M=M)
        assert p.miss_ratio == float((20 - Fraction(M)) / 20)


def test_cache_ratio_complement_written_once():
    # 1 - p is SystemParams.miss_ratio, written (N - M)/N: a `1 - x` anywhere
    # in the package would subtract from a rounded x and lose its digits.
    # Docstrings are strings, so only code counts.
    sites = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Sub)
                and isinstance(node.left, ast.Constant)
                and type(node.left.value) in (int, float)
                and node.left.value == 1
            ):
                sites.append(f"{path.name}:{node.lineno}")
    assert sites == []


class TestGenerateLibrary:
    def test_single_file_reproducible(self):
        p = core.SystemParams(K=1, N=1, M=0.5, F=8, B=2, delta_b=1)
        lib1 = core.generate_library(p, 0, (1,))
        lib2 = core.generate_library(p, 0, (1,))
        assert lib1.bits.shape == (1, 8)
        assert np.array_equal(lib1.bits, lib2.bits)

    def test_shape(self):
        p = core.SystemParams(K=2, N=4, M=1, F=16, B=2, delta_b=1)
        lib = core.generate_library(p, 7, [3, 1])
        assert lib.files == (1, 3) and lib.F == 16
        assert lib.bits.shape == (2, 16) and lib.bits.dtype == np.uint8
        assert set(np.unique(lib.bits)) <= {0, 1}
        assert np.array_equal(lib.file(3), lib.bits[1])

    def test_seed_changes_content(self):
        p = core.SystemParams(K=2, N=4, M=1, F=256, B=2, delta_b=1)
        a = core.generate_library(p, 1, range(1, 5))
        b = core.generate_library(p, 2, range(1, 5))
        assert not np.array_equal(a.bits, b.bits)

    @pytest.mark.parametrize("missing", [1, 3, 5])
    def test_file_refuses_an_undrawn_file(self, missing):
        p = params(N=8)
        lib = core.generate_library(p, 0, [2, 4])
        with pytest.raises(InvalidParams, match=f"file {missing} was not drawn"):
            lib.file(missing)

    @pytest.mark.parametrize("files", [(1, 3, 1), (0, 2), (2, 5), (1.0,)])
    def test_refuses_bad_file_ids(self, files):
        with pytest.raises(InvalidParams, match="file id"):
            core.generate_library(params(), 0, files)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.sets(st.integers(min_value=1, max_value=12), max_size=4),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_file_bits_depend_on_nothing_else(self, n, others, seed):
        # file n's bits are the same whatever else is drawn and whatever N
        def bits_of_n(N, files):
            p = core.SystemParams(K=1, N=N, M=1.0, F=64, B=2, delta_b=1)
            return core.generate_library(p, seed, files).file(n)

        N = max(n, 3)
        alone = bits_of_n(N, [n])
        assert np.array_equal(bits_of_n(max([N, *others]) + 5, {n} | others), alone)
        assert np.array_equal(bits_of_n(N, {n} | {m for m in others if m <= N}), alone)


def cached_at(caches, k, n):
    """(F,) bool: which bits of file n F-AP k caches."""
    return (caches.signature[caches.rows([n])[0]] >> (k - 1)) & 1 == 1


class TestPlaceCaches:
    def test_exact_quota(self):
        p = params()
        caches = core.place_caches(p, 1, range(1, 5))
        for k in range(1, 5):
            for n in range(1, 5):
                assert cached_at(caches, k, n).sum() == 8
        # no bit above K is ever set
        assert not (caches.signature >> 4).any()

    def test_tiny_cache_is_empty(self):
        p = core.SystemParams(K=2, N=100, M=0.001, F=100, B=2, delta_b=1)
        caches = core.place_caches(p, 0, range(1, 101))
        assert not caches.signature.any()

    def test_overlap_concentration(self):
        # Two F-APs each cache exactly half of the file; their overlap is a
        # hypergeometric draw with mean F/4, bounded here by 3 binomial sigma.
        p = core.SystemParams(K=2, N=2, M=1.0, F=100_000, B=2, delta_b=1)
        caches = core.place_caches(p, 42, (1, 2))
        F = p.F
        for n in (1, 2):
            sets = [set(np.flatnonzero(cached_at(caches, k, n))) for k in (1, 2)]
            assert len(sets[0]) == F // 2 and len(sets[1]) == F // 2
            overlap = len(sets[0] & sets[1]) / F
            sigma = math.sqrt(0.25 * 0.75 / F)
            assert abs(overlap - 0.25) <= 3 * sigma

    def test_independent_across_faps(self):
        p = params(F=4096)
        caches = core.place_caches(p, 3, (1,))
        assert not np.array_equal(cached_at(caches, 1, 1), cached_at(caches, 2, 1))

    def test_refuses_large_k_before_drawing(self, monkeypatch):
        # signatures hold at most 16 bits, as many as delivery enumerates
        def fail(*args):
            raise AssertionError("caches drawn before the size check")

        monkeypatch.setattr(np.random, "PCG64", fail)
        p = params(K=17, N=17, F=8, B=17, delta_b=2)
        with pytest.raises(TooLarge):
            core.place_caches(p, 1, range(1, 18))

    @pytest.mark.parametrize("files", [(1, 3, 1), (0, 2), (2, 5), (1.0,)])
    def test_refuses_bad_file_ids_before_drawing(self, monkeypatch, files):
        # a repeat, ids outside 1..N, a non-integer: nothing is drawn
        def fail(*args):
            raise AssertionError("caches drawn before the file check")

        p = params()
        monkeypatch.setattr(np.random, "PCG64", fail)
        with pytest.raises(InvalidParams, match="file id"):
            core.place_caches(p, 1, files)

    def test_places_only_the_given_files(self):
        p = params(N=6)
        caches = core.place_caches(p, 1, [5, 2])
        assert caches.files == (2, 5)
        assert caches.signature.shape == (2, p.F)
        assert caches.rows([5, 2, 5]).tolist() == [1, 0, 1]

    @pytest.mark.parametrize("missing", [1, 3, 5])
    def test_rows_refuse_an_unplaced_file(self, missing):
        # before the first placed id, between two, past the last: a sorted
        # search alone would return a neighbour's row
        p = params(N=8)
        caches = core.place_caches(p, 1, [2, 4])
        with pytest.raises(InvalidParams, match=f"file {missing} was not placed"):
            caches.rows([2, missing, 4])

    @pytest.mark.parametrize("shape", [(1, 16), (3, 16), (16,)])
    def test_layout_refuses_a_signature_of_the_wrong_shape(self, shape):
        # one signature row per placed file, as Library has one bit row
        signature = np.zeros(shape, dtype=np.uint8)
        with pytest.raises(InvalidParams, match=re.escape(f"got shape {shape} for 2 files")):
            core.CacheLayout(4, (1, 2), signature)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=12),
        st.sets(st.integers(min_value=1, max_value=12), max_size=4),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_file_bits_depend_on_nothing_else(self, K, n, others, seed):
        # file n's rows are the same whatever else is placed and whatever N
        F = 64

        def rows_of_n(N, files):
            p = core.SystemParams(K=K, N=N, M=N / 3, F=F, B=2, delta_b=1)
            caches = core.place_caches(p, seed, files)
            return caches.signature[caches.rows([n])[0]]

        N = max(n, K, 3)
        alone = rows_of_n(N, [n])
        wide = max([N, *others]) + 5
        assert np.array_equal(rows_of_n(wide, {n} | others), alone)
        assert np.array_equal(rows_of_n(N, {n} | {m for m in others if m <= N}), alone)


def expected_size(p, s):
    # law-of-large-numbers size in bits of one type-s subfile
    return p.subfile_fraction(s) * p.F


class TestExpectedSubfileSize:
    def test_worked_value(self):
        assert expected_size(params(), 3) == pytest.approx(1.0)

    def test_uniform_at_half_ratio(self):
        p = params()
        for s in range(1, 5):
            assert expected_size(p, s) == pytest.approx(1.0)

    def test_nothing_cached_limit(self):
        p = core.SystemParams(K=4, N=1000, M=1e-9, F=64, B=4, delta_b=2)
        assert expected_size(p, 1) == pytest.approx(64, rel=1e-6)

    def test_type_out_of_range(self):
        with pytest.raises(InvalidParams):
            expected_size(params(), 0)
        with pytest.raises(InvalidParams):
            expected_size(params(), 5)


@pytest.fixture
def no_draw(monkeypatch):
    """Fail every PCG64 bit generator built while the test runs (`core`
    draws only through them), so a refusal is seen to come before the
    first draw."""
    def fail(*args, **kwargs):
        raise AssertionError("a generator was built before the inputs were checked")

    monkeypatch.setattr(core.np.random, "PCG64", fail)


class TestFixedLSchedule:
    def test_canonical_singletons(self):
        sched = core.make_fixed_L_schedule(4, 4, 1)
        assert sched.slots == tuple(frozenset({b}) for b in range(1, 5))
        assert sched.demand == {k: k for k in range(1, 5)}

    def test_canonical_blocks(self):
        sched = core.make_fixed_L_schedule(6, 3, 2)
        assert sched.slots == (frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6}))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParams):
            core.make_fixed_L_schedule(5, 3, 2)

    def test_seeded_partition_is_valid_and_deterministic(self):
        a = core.make_fixed_L_schedule(8, 4, 2, seed=9)
        b = core.make_fixed_L_schedule(8, 4, 2, seed=9)
        assert a.slots == b.slots
        assert all(len(u) == 2 for u in a.slots)
        assert frozenset().union(*a.slots) == frozenset(range(1, 9))

    def test_refuses_a_non_integer_count(self, no_draw):
        with pytest.raises(InvalidParams, match="L must be an integer, got 1.0"):
            core.make_fixed_L_schedule(4, 4, 1.0)

    @pytest.mark.parametrize("K, B, L", [(0, 0, 1), (-2, -1, 2)])
    def test_refuses_no_slots(self, no_draw, K, B, L):
        # K = B*L holds: each built an empty schedule before
        with pytest.raises(InvalidParams, match=f"B must be >= 1, got {B}"):
            core.make_fixed_L_schedule(K, B, L, seed=1)


class TestSeedChecks:
    # numpy's seed sequences end a negative seed in their own ValueError
    @pytest.mark.parametrize("call", [
        lambda: core.generate_library(params(), -1, [1]),
        lambda: core.place_caches(params(), -1, [1]),
        lambda: core.make_fixed_L_schedule(4, 2, 2, seed=-1),
        lambda: core.make_random_schedule(4, 2, -1),
    ], ids=["generate_library", "place_caches", "fixed-L", "random"])
    def test_negative_seed_refused_before_any_draw(self, no_draw, call):
        with pytest.raises(InvalidParams, match="seed must be >= 0, got -1"):
            call()


class TestRandomSchedule:
    @pytest.mark.parametrize("B", [0, -2])
    def test_refuses_no_slots(self, B):
        with pytest.raises(InvalidParams, match=f"got B={B}"):
            core.make_random_schedule(3, B, 1)

    @pytest.mark.parametrize("K, B, seed, message", [
        (2.5, 2, 1, "K must be an integer, got 2.5"),
        (3, 2.0, 1, "B must be an integer, got 2.0"),
        (4, 2, 1.5, "seed must be an integer, got 1.5"),
    ])
    def test_refuses_non_integers(self, no_draw, K, B, seed, message):
        with pytest.raises(InvalidParams, match=re.escape(message)):
            core.make_random_schedule(K, B, seed)

    def test_numpy_integers_accepted(self):
        sched = core.make_random_schedule(np.int64(6), np.int32(3), np.uint8(4))
        assert sched.slots == core.make_random_schedule(6, 3, 4).slots

    def test_equal_k_b_forces_singletons(self):
        sched = core.make_random_schedule(5, 5, seed=0)
        assert all(len(u) == 1 for u in sched.slots)

    def test_surjection(self):
        sched = core.make_random_schedule(8, 5, seed=1)
        sizes = [len(u) for u in sched.slots]
        assert sum(sizes) == 8 and min(sizes) >= 1

    def test_deterministic(self):
        assert (
            core.make_random_schedule(8, 5, seed=3).slots
            == core.make_random_schedule(8, 5, seed=3).slots
        )

    def test_too_few_faps(self):
        with pytest.raises(InvalidParams):
            core.make_random_schedule(4, 5, seed=0)

    # the slot of F-AP k, one hex digit per F-AP; the ids name only the
    # shape and the seed, so that a re-pin keeps them
    PINNED = [
        (3, 2, 0, "221"),
        (6, 3, 1, "111123"),
        (8, 5, 2, "12452443"),
        (10, 4, 3, "3444411223"),
        (9, 8, 6, "521348672"),
        (13, 12, 4, "8c34256ab1179"),
        (16, 5, 7, "3552455135113344"),
        (14, 14, 8, "986145ebc2d73a"),
    ]

    @pytest.mark.parametrize(
        "K, B, seed, slots", PINNED, ids=[f"{k}-{b}-{seed}" for k, b, seed, _ in PINNED]
    )
    def test_seed_to_slots_pinned(self, K, B, seed, slots):
        sched = core.make_random_schedule(K, B, seed)
        assert "".join(format(sched.slot_of(k), "x") for k in range(1, K + 1)) == slots

    @pytest.mark.parametrize("K, B, draws", [
        (5, 3, 3000), (6, 4, 23_400),
        (4, 4, 360),  # K = B: lam = 0, every slot size is 1
        (5, 4, 3600),  # lam -> 0: one slot of 2
    ])
    def test_uniform_over_surjections(self, K, B, draws):
        # chi-square over all B! S(K, B) surjections, 15 or more expected
        # draws each: every one must be drawn, and the z-score of the
        # statistic stays within 4 (exceeded with odds of about 1e-4 by a
        # uniform sampler)
        seen = Counter(
            tuple(core.make_random_schedule(K, B, seed).slots) for seed in range(draws)
        )
        cells = surjections(K, B)
        assert len(seen) == cells
        expected = draws / cells
        chi2 = sum((n - expected) ** 2 / expected for n in seen.values())
        assert abs(chi2 - (cells - 1)) / math.sqrt(2 * (cells - 1)) < 4

    def test_slot_size_law(self):
        # past enumeration (8,400 surjections at K = 12, B = 4): slot 1
        # holds n F-APs with chance C(K, n) Surj(K - n, B - 1) / Surj(K, B).
        # Chi-square over n, the tail pooled until it expects 5 draws, with
        # the z < 4 rule above
        K, B, draws = 12, 4, 4000
        seen = Counter(len(core.make_random_schedule(K, B, seed).slots[0])
                       for seed in range(draws))
        expected = {n: draws * math.comb(K, n) * surjections(K - n, B - 1) / surjections(K, B)
                    for n in range(1, K - B + 2)}
        pooled, tail = [0, 0.0], sorted(expected, reverse=True)
        while pooled[1] < 5:
            n = tail.pop(0)
            pooled = [pooled[0] + seen[n], pooled[1] + expected[n]]
        cells = [pooled] + [[seen[n], expected[n]] for n in tail]
        assert min(e for _, e in cells) >= 5 and len(cells) >= 5
        chi2 = sum((n - e) ** 2 / e for n, e in cells)
        assert abs(chi2 - (len(cells) - 1)) / math.sqrt(2 * (len(cells) - 1)) < 4

    def test_large_draw_holds_no_table(self):
        # O(B) memory: a table of the (B + 1)(K - B + 1) completion chances
        # would take 191 MiB here
        tracemalloc.start()
        try:
            sched = core.make_random_schedule(10_000, 5000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sched.K == 10_000 and sched.B == 5000
        assert peak < 16e6, f"one draw peaked at {peak / 1e6:.1f} MB"

    def test_near_bijection_at_scale_is_fast(self):
        # lam -> 0: redrawing zero sizes would take seconds per draw here
        started = time.perf_counter()
        sched = core.make_random_schedule(10_000, 9999, 2)
        elapsed = time.perf_counter() - started
        assert sorted(map(len, sched.slots)) == [1] * 9998 + [2]
        assert elapsed < 1.0, f"one draw took {elapsed:.2f}s"

    def test_valid_one_slot_short_of_bijection(self):
        for seed in range(3):
            sched = core.make_random_schedule(60, 59, seed)
            assert sched.B == 59 and sched.K == 60
            assert sorted(map(len, sched.slots)) == [1] * 58 + [2]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_always_valid(self, b, extra, seed):
        k = b + extra
        sched = core.make_random_schedule(k, b, seed)
        assert sched.B == b and sched.K == k
        assert all(sched.slots)
        assert frozenset().union(*sched.slots) == frozenset(range(1, k + 1))
        assert len(set(sched.demand.values())) == sched.K


class TestScheduleValidation:
    def test_rejects_no_slots(self):
        with pytest.raises(InvalidParams, match="a schedule needs at least one slot"):
            core.RequestSchedule((), {})

    def test_rejects_empty_slot(self):
        with pytest.raises(InvalidParams):
            core.RequestSchedule((frozenset({1}), frozenset()), {1: 1})

    def test_rejects_repeat(self):
        with pytest.raises(InvalidParams):
            core.RequestSchedule((frozenset({1}), frozenset({1})), {1: 1})

    def test_rejects_gap_in_coverage(self):
        with pytest.raises(InvalidParams):
            core.RequestSchedule((frozenset({1}), frozenset({3})), {1: 1, 3: 3})

    @pytest.mark.parametrize("demand", [{1: 1, 2: 2, 3: 3}, {0: 1, 1: 1, 2: 2}],
                             ids=["surplus", "from-0"])
    def test_rejects_demands_outside_1_to_K(self, demand):
        # refused here, with the record table's wording, before any table
        # builder sees the map
        with pytest.raises(InvalidParams, match=re.escape(
            f"demands must name F-APs 1..2, got {sorted(demand)}"
        )):
            core.RequestSchedule((frozenset({1}), frozenset({2})), demand)

    def test_rejects_missing_demand(self):
        with pytest.raises(InvalidParams, match="no demand recorded for F-AP 2"):
            core.RequestSchedule((frozenset({1}), frozenset({2})), {1: 1})

    def test_deadline_slot(self):
        sched = core.make_fixed_L_schedule(4, 4, 1)
        assert sched.deadline_slot(1, 2) == 2
        assert sched.deadline_slot(4, 2) == 4
        assert sched.deadline_slot(3, 3) == 4  # clipped at B

    @pytest.mark.parametrize("delta_b, message", [
        (0, "delta_b must be in [1, B], got delta_b=0, B=4"),
        (9, "delta_b must be in [1, B], got delta_b=9, B=4"),
        (2.0, "delta_b must be an integer, got 2.0"),
    ], ids=["zero", "past-B", "float"])
    def test_deadline_slot_refuses_delta_b_outside_1_to_B(self, delta_b, message):
        # delta_b = 0 would put F-AP k's deadline before its request
        sched = core.make_fixed_L_schedule(4, 4, 1)
        with pytest.raises(InvalidParams, match=re.escape(message)):
            sched.deadline_slot(1, delta_b)
        with pytest.raises(InvalidParams, match=re.escape(message)):
            delivery.slot_masks(sched, delta_b)

    @pytest.mark.parametrize("call, k", [
        (lambda s: s.slot_of(0), "0"),
        (lambda s: s.slot_of(5), "5"),
        (lambda s: s.slot_of(1.0), "1.0"),
        (lambda s: s.deadline_slot(9, 2), "9"),
    ], ids=["zero", "past-K", "float", "deadline-past-K"])
    def test_slot_of_refuses_k_outside_1_to_K(self, call, k):
        sched = core.make_fixed_L_schedule(4, 4, 1)
        with pytest.raises(InvalidParams, match=re.escape(f"in [1, K=4], got k={k}") + "$"):
            call(sched)


class TestPartitionIntoSubfiles:
    def test_single_fap(self):
        # One F-AP, one slot: the table holds one class with every uncached
        # bit, and the cached bits stay in the locally held class.
        sched = core.RequestSchedule((frozenset({1}),), {1: 1})
        p = core.SystemParams(K=1, N=1, M=0.5, F=16, B=2, delta_b=1)
        lib = core.generate_library(p, 0, (1,))
        caches = core.place_caches(p, 1, (1,))
        table = core.partition_into_subfiles(lib, caches, sched)
        assert list(classes_of(table)) == [(1, 0)]
        assert table.entry_masks().tolist() == [0, 1]
        assert table.length.tolist() == [[0, 8]]
        assert cached_at(caches, 1, 1).sum() == 8

    def test_classes_partition_file(self):
        p = params()
        sched = core.make_fixed_L_schedule(4, 4, 1)
        lib = core.generate_library(p, 0, sched.demand.values())
        caches = core.place_caches(p, 1, sched.demand.values())
        table = core.partition_into_subfiles(lib, caches, sched)
        assert table.length.dtype == np.int32
        classes = classes_of(table)
        for k in range(1, 5):
            held = cached_at(caches, k, sched.demand[k])
            covered = set(np.flatnonzero(held).tolist())
            keys = [key for key in classes if key[0] == k]
            for key in keys:
                pos, contents = classes[key]
                assert not (covered & set(pos.tolist()))
                covered |= set(pos.tolist())
                assert table.entry_masks()[cell(key)[1]] >> (k - 1) & 1
                assert table.length[cell(key)] == len(pos)
                assert np.array_equal(contents, lib.file(sched.demand[k])[pos])
            assert covered == set(range(p.F))
            # the arrays hold exactly the classes that exist
            assert (table.entry_masks() >> (k - 1) & 1).sum() == len(keys)
            assert held.sum() + table.length[k - 1].sum() == p.F

    def test_exclusivity(self):
        # Bits in class (k, E) are cached at exactly the F-APs in E.
        p = params(F=64)
        sched = core.make_fixed_L_schedule(4, 4, 1)
        lib = core.generate_library(p, 5, sched.demand.values())
        caches = core.place_caches(p, 6, sched.demand.values())
        table = core.partition_into_subfiles(lib, caches, sched)
        for (k, mask), (pos, _) in classes_of(table).items():
            n = sched.demand[k]
            for j in range(1, 5):
                held = cached_at(caches, j, n)[pos]
                if j == k:
                    assert not held.any()
                elif mask & (1 << (j - 1)):
                    assert held.all()
                else:
                    assert not held.any()

    def test_size_concentration(self):
        # Every class length within 5 binomial sigma of its expectation.
        p = params(F=100_000)
        sched = core.make_fixed_L_schedule(4, 4, 1)
        lib = core.generate_library(p, 0, sched.demand.values())
        caches = core.place_caches(p, 7, sched.demand.values())
        table = core.partition_into_subfiles(lib, caches, sched)
        for k in range(1, 5):
            for S in range(1 << 4):
                if not S & (1 << (k - 1)):
                    continue
                expect = expected_size(p, S.bit_count())
                prob = expect / p.F
                sigma = math.sqrt(p.F * prob * (1 - prob))
                assert abs(table.length[k - 1, S] - expect) <= 5 * sigma

    @pytest.mark.parametrize("F, dtype", [
        (256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32),
    ])
    def test_positions_take_the_narrowest_dtype(self, F, dtype):
        p = core.SystemParams(K=2, N=2, M=1.0, F=F, B=2, delta_b=1)
        sched = core.make_fixed_L_schedule(2, 2, 1)
        lib = core.generate_library(p, 0, sched.demand.values())
        caches = core.place_caches(p, 1, sched.demand.values())
        table = core.partition_into_subfiles(lib, caches, sched)
        rows = [table.row_positions(k) for k in (1, 2)]
        assert all(row.dtype == dtype for row in rows)
        # requester 1's row: every bit it does not cache, by value
        assert np.array_equal(np.sort(rows[0]), np.flatnonzero(~cached_at(caches, 1, 1)))

    def test_row_positions_with_uint64_keys(self):
        # K + bit_length(F - 1) = 16 + 16 >= 32: the packed keys take uint64.
        # Rows against one flatnonzero per class, by ascending exclusivity
        # mask; then decode a few F-APs
        K, F = 16, 40_000
        p = params(K=K, N=K, M=4.0, F=F, B=8, delta_b=2)
        sched = core.make_fixed_L_schedule(K, 8, 2, 3)
        files = sched.demand.values()
        lib = core.generate_library(p, 3, files)
        caches = core.place_caches(p, 4, files)
        table = core.partition_into_subfiles(lib, caches, sched)
        assert K + (F - 1).bit_length() >= 32
        for k in (1, 9, 16):
            signature = caches.signature[caches.rows([sched.demand[k]])[0]]
            masks = np.unique(signature[signature & (1 << (k - 1)) == 0])
            want = np.concatenate([np.flatnonzero(signature == E) for E in masks])
            got = table.row_positions(k)
            assert got.dtype == np.uint16
            assert np.array_equal(got, want), k
        events = delivery.run_delivery(sched, table, p).events
        for k in (1, 8, 16):
            decoded = delivery.decode_fap(k, events, lib, caches, table)
            assert np.array_equal(decoded, lib.file(sched.demand[k]))

    def test_partition_refuses_lengths_past_int32(self, monkeypatch):
        # K * F = 2^31 would overflow the int32 lengths and starts; zero-stride
        # arrays stand in for the files, and nothing may be counted before
        # the check
        def fail(*args, **kwargs):
            raise AssertionError("signatures counted before the size check")

        monkeypatch.setattr(np, "bincount", fail)
        files, F = (1, 2), 1 << 30
        lib = core.Library(files, np.broadcast_to(np.zeros(1, dtype=np.uint8), (2, F)))
        caches = core.CacheLayout(2, files, np.broadcast_to(np.zeros(1, dtype=np.uint8), (2, F)))
        with pytest.raises(TooLarge, match="K \\* F < 2\\^31"):
            core.partition_into_subfiles(lib, caches, core.make_fixed_L_schedule(2, 2, 1))

    def test_partition_refuses_large_k(self):
        # the table's arrays have 2^K columns, as many as delivery enumerates;
        # place_caches refuses K = 17 too, so the layout is built by hand
        p = params(K=17, N=17, F=8, B=17, delta_b=2)
        files = tuple(range(1, 18))
        lib = core.Library(files, np.zeros((17, 8), dtype=np.uint8))
        caches = core.CacheLayout(17, files, np.zeros((17, 8), dtype=np.uint32))
        with pytest.raises(TooLarge):
            core.partition_into_subfiles(lib, caches, core.make_fixed_L_schedule(17, 17, 1))

    def test_analytic_table_refuses_large_k_before_building(self, monkeypatch):
        def fail(*args):
            raise AssertionError("entries built before the size check")

        monkeypatch.setattr(core, "set_ranks", fail)
        p = params(K=17, N=17, B=17, delta_b=2)
        with pytest.raises(TooLarge):
            core.analytic_subfile_table(p, core.make_fixed_L_schedule(17, 17, 1))

    def test_analytic_table_lengths(self):
        p = params()
        sched = core.make_fixed_L_schedule(4, 4, 1)
        table = core.analytic_subfile_table(p, sched)
        assert table.length.dtype == np.float64
        assert table.length[cell((1, core.mask_of({2, 3})))] == pytest.approx(1.0)
        # every entry (k, E) exists: column S has an entry for each k in S
        assert table.entry_masks().tolist() == list(range(1 << 4))
        # Classes not cached at the requester cover (1 - M/N) of the file.
        assert table.length[0].sum() == pytest.approx(p.F * (1 - p.cache_ratio))


class TestSubfileRecordTable:
    @pytest.mark.parametrize("K, M, F, seed", [
        (4, 2.0, 16, 0),  # F = 16: several columns hold no bits
        (8, 3.0, 64, 1),  # the widest uint8 mask
        (9, 3.0, 200, 2),  # the narrowest uint16
    ])
    def test_bitexact_entry_masks_match_reference_partition(self, K, M, F, seed):
        p = params(K=K, N=K, M=M, F=F, B=K, delta_b=1)
        sched = core.make_fixed_L_schedule(K, K, 1)
        files = sched.demand.values()
        lib = core.generate_library(p, seed, files)
        table = core.partition_into_subfiles(lib, core.place_caches(p, seed + 1, files), sched)
        cube = reference.place_caches(lib, p, seed + 1, files)
        live = reference.partition_into_subfiles(lib, cube, sched).live
        assert not live[:, 1:].all()  # some entries are missing
        got = table.entry_masks()
        assert got.dtype == core.mask_dtype(K)
        assert got.tolist() == ((1 << np.arange(K)) @ live).tolist()

    def test_analytic_entries_exist_where_sizes_underflow(self):
        # at M = 1e-200 only 36 of the 192 expected sizes are nonzero, yet
        # every entry exists and is sent, as in
        # `tables --k 6 --n 6 --m 1e-200 --b 6 --l 1`
        p = params(K=6, N=6, M=1e-200, B=6, delta_b=2)
        table = core.analytic_subfile_table(p, core.make_fixed_L_schedule(6, 6, 1))
        assert (table.length > 0).sum() == 36
        got = table.entry_masks()
        assert got.dtype == np.uint8
        assert got.tolist() == list(range(1 << 6))

    @pytest.mark.parametrize("shape", [(3,), (3, 7), (3, 16), (2, 2, 2), (0, 2)])
    def test_lengths_must_be_K_by_2_to_K(self, shape):
        with pytest.raises(InvalidParams, match=r"shape \(K, 2\^K\)"):
            core.SubfileRecordTable(demand={}, length=np.zeros(shape))

    @staticmethod
    def bitexact_table():
        # K = 2, F = 16: each F-AP caches 8 bits of each file, so each row
        # holds the other 8
        p = params(K=2, N=2, M=1.0, F=16, B=2, delta_b=1)
        sched = core.make_fixed_L_schedule(2, 2, 1)
        lib = core.generate_library(p, 0, sched.demand.values())
        caches = core.place_caches(p, 1, sched.demand.values())
        return core.partition_into_subfiles(lib, caches, sched)

    @pytest.mark.parametrize("F, caches, message", [
        (32, core.CacheLayout(2, (1, 2), np.zeros((2, 16), dtype=np.uint8)),
         r"caches placed for \(K, F\) = \(2, 16\), the table needs \(2, 32\)"),
        (16, core.CacheLayout(2, (1, 2), np.zeros((2, 32), dtype=np.uint8)),
         r"caches placed for \(K, F\) = \(2, 32\), the table needs \(2, 16\)"),
        (16, core.CacheLayout(1, (1, 2), np.zeros((2, 16), dtype=np.uint8)),
         r"caches placed for \(K, F\) = \(1, 16\), the table needs \(2, 16\)"),
        (16, core.CacheLayout(3, (1, 2), np.zeros((2, 16), dtype=np.uint8)),
         r"caches placed for \(K, F\) = \(3, 16\), the table needs \(2, 16\)"),
        (16, core.CacheLayout(2, (2,), np.zeros((1, 16), dtype=np.uint8)),
         r"file 1 was not placed"),
    ], ids=["short", "long", "missing", "extra", "empty"])
    def test_caches_must_match_the_table(self, monkeypatch, F, caches, message):
        # refused before anything is counted, not as a bare numpy broadcast
        # or dict error, and when a table is built with them
        sched = core.make_fixed_L_schedule(2, 2, 1)
        p = params(K=2, N=2, M=1.0, F=F, B=2, delta_b=1)
        lib = core.generate_library(p, 0, (1, 2))
        table = core.partition_into_subfiles(lib, core.place_caches(p, 1, (1, 2)), sched)

        def fail(*args, **kwargs):
            raise AssertionError("signatures counted before the inputs were checked")

        monkeypatch.setattr(np, "bincount", fail)
        with pytest.raises(InvalidParams, match=message):
            core.partition_into_subfiles(lib, caches, sched)
        with pytest.raises(InvalidParams, match=message):
            dataclasses.replace(table, caches=caches)

    @pytest.mark.parametrize("kind", ["analytic", "bitexact"])
    @pytest.mark.parametrize("demand", [{1: 1}, {1: 1, 2: 2, 3: 3}, {0: 1, 1: 1}, {}],
                             ids=["short", "long", "from-0", "empty"])
    def test_demands_name_exactly_1_to_K(self, kind, demand):
        # refused when the table is built, not in run_delivery as KeyError: 2
        sched = core.make_fixed_L_schedule(2, 2, 1)
        table = (core.analytic_subfile_table(params(K=2, N=2, M=1.0, B=2), sched)
                 if kind == "analytic" else self.bitexact_table())
        with pytest.raises(InvalidParams, match=r"demands must name F-APs 1\.\.2"):
            dataclasses.replace(table, demand=demand)


class TestMaskHelpers:
    def test_roundtrip(self):
        ids = {1, 3, 7}
        assert set(core.iter_ids(core.mask_of(ids))) == ids

    def test_iter_ascending(self):
        assert list(core.iter_ids(core.mask_of({5, 2, 9}))) == [2, 5, 9]
