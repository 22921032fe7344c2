"""System model tests: library, placement, subfile partition, schedules."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fogcoded
from fogcoded import core
from fogcoded.analytics import FixedLConfig
from fogcoded.errors import InvalidParams, TooLarge
from reference_delivery import cell, classes_of


def params(K=4, N=4, M=2.0, F=16, B=4, delta_b=2):
    return core.SystemParams(K=K, N=N, M=M, F=F, B=B, delta_b=delta_b)


def fixed_l_params(K=4, N=4, M=2.0, F=16, B=4, delta_b=2):
    # L = K // B keeps K = B*L whenever B divides K, so only the named
    # parameter is invalid
    return FixedLConfig(K=K, N=N, M=M, F=F, B=B, L=K // B, delta_b=delta_b)


def test_all_exports_resolve():
    for name in fogcoded.__all__:
        assert hasattr(fogcoded, name), name


def test_exports_are_unique_and_complete():
    # __all__ names each public name the package imports exactly once
    assert len(set(fogcoded.__all__)) == len(fogcoded.__all__)
    public = {
        name for name, value in vars(fogcoded).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(fogcoded.__all__)


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


class TestGenerateLibrary:
    def test_single_file_reproducible(self):
        p = core.SystemParams(K=1, N=1, M=0.5, F=8, B=2, delta_b=1)
        lib1 = core.generate_library(p, seed=0)
        lib2 = core.generate_library(p, seed=0)
        assert lib1.bits.shape == (1, 8)
        assert np.array_equal(lib1.bits, lib2.bits)

    def test_shape(self):
        p = core.SystemParams(K=2, N=4, M=1, F=16, B=2, delta_b=1)
        lib = core.generate_library(p, seed=7)
        assert lib.N == 4 and lib.F == 16
        assert set(np.unique(lib.bits)) <= {0, 1}

    def test_seed_changes_content(self):
        p = core.SystemParams(K=2, N=4, M=1, F=256, B=2, delta_b=1)
        a = core.generate_library(p, seed=1)
        b = core.generate_library(p, seed=2)
        assert not np.array_equal(a.bits, b.bits)


def cached_at(caches, k, n):
    """(F,) bool: which bits of file n F-AP k caches."""
    return (caches.signature[caches.rows([n])[0]] >> (k - 1)) & 1 == 1


class TestPlaceCaches:
    def test_exact_quota(self):
        p = params()
        lib = core.generate_library(p, seed=0)
        caches = core.place_caches(lib, p, 1, range(1, 5))
        for k in range(1, 5):
            for n in range(1, 5):
                assert cached_at(caches, k, n).sum() == 8
        # no bit above K is ever set
        assert not (caches.signature >> 4).any()

    def test_tiny_cache_is_empty(self):
        p = core.SystemParams(K=2, N=100, M=0.001, F=100, B=2, delta_b=1)
        lib = core.generate_library(p, seed=0)
        caches = core.place_caches(lib, p, 0, range(1, 101))
        assert not caches.signature.any()

    def test_overlap_concentration(self):
        # Two F-APs each cache exactly half of the file; their overlap is a
        # hypergeometric draw with mean F/4, bounded here by 3 binomial sigma.
        p = core.SystemParams(K=2, N=2, M=1.0, F=100_000, B=2, delta_b=1)
        lib = core.generate_library(p, seed=0)
        caches = core.place_caches(lib, p, 42, (1, 2))
        F = p.F
        for n in (1, 2):
            sets = [set(np.flatnonzero(cached_at(caches, k, n))) for k in (1, 2)]
            assert len(sets[0]) == F // 2 and len(sets[1]) == F // 2
            overlap = len(sets[0] & sets[1]) / F
            sigma = math.sqrt(0.25 * 0.75 / F)
            assert abs(overlap - 0.25) <= 3 * sigma

    def test_independent_across_faps(self):
        p = params(F=4096)
        lib = core.generate_library(p, seed=0)
        caches = core.place_caches(lib, p, 3, (1,))
        assert not np.array_equal(cached_at(caches, 1, 1), cached_at(caches, 2, 1))

    def test_refuses_large_k_before_drawing(self, monkeypatch):
        # signatures hold at most 16 bits, as many as delivery enumerates
        def fail(*args):
            raise AssertionError("caches drawn before the size check")

        monkeypatch.setattr(np.random, "PCG64", fail)
        p = params(K=17, N=17, F=8, B=17, delta_b=2)
        with pytest.raises(TooLarge):
            core.place_caches(
                core.Library(np.zeros((17, 8), dtype=np.uint8)), p, 1, range(1, 18)
            )

    @pytest.mark.parametrize("files", [(1, 3, 1), (0, 2), (2, 5), (1.0,)])
    def test_refuses_bad_file_ids_before_drawing(self, monkeypatch, files):
        # a repeat, ids outside 1..N, a non-integer: nothing is drawn
        def fail(*args):
            raise AssertionError("caches drawn before the file check")

        p = params()
        lib = core.generate_library(p, seed=0)
        monkeypatch.setattr(np.random, "PCG64", fail)
        with pytest.raises(InvalidParams, match="file id"):
            core.place_caches(lib, p, 1, files)

    def test_places_only_the_given_files(self):
        p = params(N=6)
        caches = core.place_caches(core.generate_library(p, seed=0), p, 1, [5, 2])
        assert caches.files == (2, 5)
        assert caches.signature.shape == (2, p.F)
        assert caches.rows([5, 2, 5]).tolist() == [1, 0, 1]

    @pytest.mark.parametrize("missing", [1, 3, 5])
    def test_rows_refuse_an_unplaced_file(self, missing):
        # before the first placed id, between two, past the last: a sorted
        # search alone would return a neighbour's row
        p = params(N=8)
        caches = core.place_caches(core.generate_library(p, seed=0), p, 1, [2, 4])
        with pytest.raises(InvalidParams, match=f"file {missing} was not placed"):
            caches.rows([2, missing, 4])

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
            lib = core.Library(np.zeros((N, F), dtype=np.uint8))
            caches = core.place_caches(lib, p, seed, files)
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


class TestFixedLSchedule:
    def test_canonical_singletons(self):
        sched = core.make_fixed_L_schedule(4, 4, 1)
        assert [sched.requesters(b) for b in range(1, 5)] == [
            frozenset({b}) for b in range(1, 5)
        ]
        assert sched.demand == {k: k for k in range(1, 5)}

    def test_canonical_blocks(self):
        sched = core.make_fixed_L_schedule(6, 3, 2)
        assert sched.requesters(1) == {1, 2}
        assert sched.requesters(2) == {3, 4}
        assert sched.requesters(3) == {5, 6}

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParams):
            core.make_fixed_L_schedule(5, 3, 2)

    def test_seeded_partition_is_valid_and_deterministic(self):
        a = core.make_fixed_L_schedule(8, 4, 2, seed=9)
        b = core.make_fixed_L_schedule(8, 4, 2, seed=9)
        assert a.slots == b.slots
        assert all(len(u) == 2 for u in a.slots)
        assert frozenset().union(*a.slots) == frozenset(range(1, 9))


class TestRandomSchedule:
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

    @pytest.mark.parametrize("K, B, seed, slots", [
        # the slot of F-AP k, one hex digit per F-AP
        (3, 2, 0, "221"),
        (6, 3, 1, "223311"),
        (8, 5, 2, "41315235"),
        (10, 4, 3, "2243223313"),
        (9, 8, 6, "725186344"),
        (13, 12, 4, "c9b3162a54887"),
        (16, 5, 7, "5445345212255135"),
        (14, 14, 8, "26d3ea845cb179"),
    ])
    def test_seed_to_slots_pinned(self, K, B, seed, slots):
        sched = core.make_random_schedule(K, B, seed)
        assert "".join(format(sched.slot_of(k), "x") for k in range(1, K + 1)) == slots

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
    def test_rejects_empty_slot(self):
        with pytest.raises(InvalidParams):
            core.RequestSchedule((frozenset({1}), frozenset()), {1: 1})

    def test_rejects_repeat(self):
        with pytest.raises(InvalidParams):
            core.RequestSchedule((frozenset({1}), frozenset({1})), {1: 1})

    def test_rejects_gap_in_coverage(self):
        with pytest.raises(InvalidParams):
            core.RequestSchedule((frozenset({1}), frozenset({3})), {1: 1, 3: 3})

    def test_deadline_slot(self):
        sched = core.make_fixed_L_schedule(4, 4, 1)
        assert sched.deadline_slot(1, 2) == 2
        assert sched.deadline_slot(4, 2) == 4
        assert sched.deadline_slot(3, 3) == 4  # clipped at B


class TestPartitionIntoSubfiles:
    def test_single_fap(self):
        # One F-AP, one slot: the table holds one class with every uncached
        # bit, and the cached bits stay in the locally held class.
        sched = core.RequestSchedule((frozenset({1}),), {1: 1})
        p = core.SystemParams(K=1, N=1, M=0.5, F=16, B=2, delta_b=1)
        lib = core.generate_library(p, seed=0)
        caches = core.place_caches(lib, p, 1, (1,))
        table = core.partition_into_subfiles(lib, caches, sched)
        assert list(classes_of(table)) == [(1, 0)]
        assert table.live.tolist() == [[False, True]]
        assert table.length.tolist() == [[0, 8]]
        assert cached_at(caches, 1, 1).sum() == 8

    def test_classes_partition_file(self):
        p = params()
        lib = core.generate_library(p, seed=0)
        sched = core.make_fixed_L_schedule(4, 4, 1)
        caches = core.place_caches(lib, p, 1, sched.demand.values())
        table = core.partition_into_subfiles(lib, caches, sched)
        assert table.length.dtype == np.int64
        classes = classes_of(table)
        for k in range(1, 5):
            held = cached_at(caches, k, sched.demand[k])
            covered = set(np.flatnonzero(held).tolist())
            keys = [key for key in classes if key[0] == k]
            for key in keys:
                pos, contents = classes[key]
                assert not (covered & set(pos.tolist()))
                covered |= set(pos.tolist())
                assert table.live[cell(key)]
                assert table.length[cell(key)] == len(pos)
                assert np.array_equal(contents, lib.file(sched.demand[k])[pos])
            assert covered == set(range(p.F))
            # the arrays hold exactly the classes that exist
            assert table.live[k - 1].sum() == len(keys)
            assert held.sum() + table.length[k - 1].sum() == p.F

    def test_exclusivity(self):
        # Bits in class (k, E) are cached at exactly the F-APs in E.
        p = params(F=64)
        lib = core.generate_library(p, seed=5)
        sched = core.make_fixed_L_schedule(4, 4, 1)
        caches = core.place_caches(lib, p, 6, sched.demand.values())
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
        lib = core.generate_library(p, seed=0)
        sched = core.make_fixed_L_schedule(4, 4, 1)
        caches = core.place_caches(lib, p, 7, sched.demand.values())
        table = core.partition_into_subfiles(lib, caches, sched)
        for k in range(1, 5):
            for S in range(1 << 4):
                if not S & (1 << (k - 1)):
                    continue
                expect = expected_size(p, S.bit_count())
                prob = expect / p.F
                sigma = math.sqrt(p.F * prob * (1 - prob))
                assert abs(table.length[k - 1, S] - expect) <= 5 * sigma

    def test_partition_refuses_large_k(self):
        # the table's arrays have 2^K columns, as many as delivery enumerates;
        # place_caches refuses K = 17 too, so the layout is built by hand
        p = params(K=17, N=17, F=8, B=17, delta_b=2)
        lib = core.generate_library(p, seed=0)
        files = tuple(range(1, 18))
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
        # every entry (k, E) exists: row k-1 is live exactly where S holds k
        for k in range(1, 5):
            assert table.live[k - 1].tolist() == [
                bool(S & (1 << (k - 1))) for S in range(1 << 4)
            ]
        # Classes not cached at the requester cover (1 - M/N) of the file.
        assert table.length[0].sum() == pytest.approx(p.F * (1 - p.cache_ratio))


class TestMaskHelpers:
    def test_roundtrip(self):
        ids = {1, 3, 7}
        assert set(core.iter_ids(core.mask_of(ids))) == ids

    def test_iter_ascending(self):
        assert list(core.iter_ids(core.mask_of({5, 2, 9}))) == [2, 5, 9]
