"""Encoding set partition tests: the mask count ``partition.eta`` and the
paper's literal partition in ``reference_partition``, its oracle."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_partition as reference
from fogcoded import core, partition
from fogcoded.errors import InvalidParams
from test_analytics import random_schedules


def singleton_schedule(B):
    return core.make_fixed_L_schedule(B, B, 1)


def occupied_slots(members, schedule):
    """Occupied-slot mask of an encoding set: bit b-1 set for slot b."""
    return core.mask_of(schedule.slot_of(k) for k in members)


def mask_eta(members, schedule, delta_b):
    return int(partition.eta(occupied_slots(members, schedule), schedule.B, delta_b))


class TestActiveWindow:
    def test_spanning_window(self):
        w = reference.active_window({1, 3, 4}, singleton_schedule(4))
        assert (w.beta, w.gamma) == (0, 4)
        assert w.active_slot_count == 4

    def test_singleton(self):
        w = reference.active_window({3}, singleton_schedule(4))
        assert (w.beta, w.gamma) == (2, 3)
        assert w.active_slot_count == 1

    def test_interior(self):
        w = reference.active_window({2, 3}, singleton_schedule(4))
        assert (w.beta, w.gamma) == (1, 3)

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidParams):
            reference.active_window(set(), singleton_schedule(4))


class TestPartitionEncodingSet:
    def test_two_window_split(self):
        result = reference.partition_encoding_set({1, 3, 4}, singleton_schedule(4), 2)
        assert result.subsets == (frozenset({1}), frozenset({3, 4}))
        assert result.eta == 2

    def test_full_delay_never_splits(self):
        sched = singleton_schedule(4)
        for s in ({1}, {1, 4}, {1, 2, 3, 4}):
            result = reference.partition_encoding_set(s, sched, 4)
            assert result.subsets == (frozenset(s),)

    def test_unit_delay_splits_per_slot(self):
        result = reference.partition_encoding_set({1, 2, 3, 4}, singleton_schedule(4), 1)
        assert result.subsets == tuple(frozenset({k}) for k in range(1, 5))

    def test_gap_straddling_pair(self):
        assert mask_eta({1, 4}, singleton_schedule(4), 2) == 2

    def test_multi_requester_slots(self):
        sched = core.make_fixed_L_schedule(6, 3, 2)
        result = reference.partition_encoding_set({1, 2, 3, 6}, sched, 1)
        assert result.subsets == (frozenset({1, 2}), frozenset({3}), frozenset({6}))

    def test_bad_delay(self):
        with pytest.raises(InvalidParams):
            reference.partition_encoding_set({1}, singleton_schedule(4), 0)


def random_case():
    return st.tuples(
        st.integers(min_value=2, max_value=5),   # B
        st.integers(min_value=0, max_value=4),   # K - B
        st.integers(min_value=0, max_value=999),  # schedule seed
        st.integers(min_value=1, max_value=2**9 - 1),  # member mask source
    )


def build_case(b, extra, seed, mask_source):
    k = b + extra
    sched = core.make_random_schedule(k, b, seed)
    members = frozenset(i + 1 for i in range(k) if mask_source & (1 << i))
    if not members:
        members = frozenset({1})
    return sched, members


class TestPartitionProperties:
    @settings(max_examples=120, deadline=None)
    @given(random_case(), st.data())
    def test_monotone_in_delay(self, case, data):
        sched, members = build_case(*case)
        b = sched.B
        d1 = data.draw(st.integers(min_value=1, max_value=b))
        d2 = data.draw(st.integers(min_value=1, max_value=d1))
        # a looser deadline never needs more subsets
        assert mask_eta(members, sched, d1) <= mask_eta(members, sched, d2)

    @settings(max_examples=120, deadline=None)
    @given(random_case(), st.data())
    def test_bounds_and_correctness(self, case, data):
        sched, members = build_case(*case)
        b = sched.B
        delta_b = data.draw(st.integers(min_value=1, max_value=b))
        result = reference.partition_encoding_set(members, sched, delta_b)
        window = reference.active_window(members, sched)
        bound = math.ceil(window.active_slot_count / delta_b)
        assert 1 <= result.eta <= bound <= math.ceil(b / delta_b)
        # disjoint, nonempty, union back to the original set
        union = set()
        for subset in result.subsets:
            assert subset
            assert not (union & subset)
            union |= subset
        assert union == members
        # each subset fits inside one delta_b-slot window, in request order
        last_end = 0
        for subset in result.subsets:
            slots = [sched.slot_of(m) for m in subset]
            assert max(slots) - min(slots) + 1 <= delta_b
            assert min(slots) > last_end
            last_end = max(slots)


class TestMaskEta:
    @settings(max_examples=100, deadline=None)
    @given(random_schedules(max_k=12), st.data())
    def test_matches_reference_partition(self, sched, data):
        member_sets = data.draw(st.lists(
            st.sets(st.integers(min_value=1, max_value=sched.K), min_size=1),
            min_size=1, max_size=8,
        ))
        masks = [occupied_slots(m, sched) for m in member_sets]
        for delta_b in range(1, sched.B + 1):
            want = [
                reference.partition_encoding_set(m, sched, delta_b).eta
                for m in member_sets
            ]
            assert partition.eta(masks, sched.B, delta_b).tolist() == want, (
                sched.slots, member_sets, delta_b,
            )

    @pytest.mark.parametrize("delta_b", [0, 5, [[1], [5]]])
    def test_delay_range(self, delta_b):
        with pytest.raises(InvalidParams):
            partition.eta([0b1011], 4, delta_b)

    def test_delay_array_broadcasts(self):
        # one scan under every delay gives each delay's own counts
        B = 6
        masks = np.arange(1 << B)
        delays = np.arange(1, B + 1)[:, None]
        table = partition.eta(masks, B, delays)
        assert table.shape == (B, 1 << B)
        for delta_b in range(1, B + 1):
            assert np.array_equal(table[delta_b - 1], partition.eta(masks, B, delta_b))


class TestMeanSubsetCurve:
    def test_shape_over_delay(self):
        # Averaged over every encoding set of a one-per-slot schedule, the
        # subset count shrinks as the delay loosens and hits 1 at full delay.
        sched = singleton_schedule(5)
        means = []
        for delta_b in range(1, 6):
            etas = [
                mask_eta(c, sched, delta_b)
                for s in range(1, 6)
                for c in combinations(range(1, 6), s)
            ]
            means.append(sum(etas) / len(etas))
        assert all(a >= b for a, b in zip(means, means[1:]))
        assert means[-1] == 1.0
        assert means[0] > means[-1]
