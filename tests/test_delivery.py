"""Delivery state machine tests: skip rule, slot masks, decoding, loads."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogcoded import analytics, core, delivery
from fogcoded.analytics import FixedLConfig
from fogcoded.core import iter_ids, mask_of
from fogcoded.errors import DeadlineViolation, DecodeFailure, FogcodedError, InvalidParams
from reference_delivery import cell, classes_of, entries, rows_of
from test_reference_engine import assert_same_events


def demo_params(delta_b=2, F=16):
    return core.SystemParams(K=4, N=4, M=2.0, F=F, B=4, delta_b=delta_b)


def demo_run(delta_b=2, F=16):
    params = demo_params(delta_b, F)
    schedule = core.make_fixed_L_schedule(4, 4, 1)
    records = core.analytic_subfile_table(params, schedule)
    return delivery.run_delivery(schedule, records, params)


def key(k, ids):
    return (k, mask_of(ids))


class TestGoldenTables:
    # the demo's table at delta_b = 2 is pinned byte for byte by
    # tests/golden/tables.stdout
    def test_no_transmissions_before_accumulation_ends(self):
        result = demo_run(delta_b=3)
        assert (result.events.slot >= 3).all()


def live_masks(live, sets):
    # per set, the mask of the F-APs whose entry for it is marked in the
    # (K, 2^K) bools `live`
    return (1 << np.arange(live.shape[0])) @ live[:, sets]


def coded_record(records, s_mask, active_mask, deadline_mask):
    # The transmission of encoding set S in slot 1, a one-candidate
    # Transmissions: the subfiles of its active members, put together by
    # build_coded_content from the table's library.  Returned with the
    # (due, active) slot masks that give its S1 and collapsed set.
    sets = np.array([s_mask])
    included = records.entry_masks()[sets] & active_mask
    bits, buffer = delivery.build_coded_content(sets, included, records)
    sent = delivery.Transmissions(
        slot=np.array([1]), S=sets, included=included, bits=bits, buffer=buffer,
    )
    return sent, ([0, deadline_mask], [0, active_mask])


class TestShouldTransmit:
    def test_demo_predicates(self):
        params = demo_params()
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        records = core.analytic_subfile_table(params, schedule)
        # F-AP 2's piece for the full set was already delivered at slot 2.
        live = entries(records)
        live[cell(key(2, {1, 3, 4}))] = False
        sets = [mask_of({1, 2, 3, 4}), mask_of({2, 3})]
        assert delivery.should_transmit(
            live_masks(live, sets), mask_of({2})
        ).tolist() == [False, True]

    def test_all_recovered_is_false(self):
        params = demo_params()
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        records = core.analytic_subfile_table(params, schedule)
        live = entries(records)
        live[cell(key(1, {2}))] = False
        assert not delivery.should_transmit(
            live_masks(live, [mask_of({1, 2})]), mask_of({1})
        ).any()


class TestSpans:
    @given(st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 40)), max_size=30,
    ))
    def test_matches_repeat_formula(self, spans):
        # empty input, a single span and zero lengths included
        start = np.array([s for s, _ in spans], dtype=np.int64)
        length = np.array([n for _, n in spans], dtype=np.int64)
        want = np.repeat(start - (np.cumsum(length) - length), length)
        want += np.arange(want.size)
        got = delivery._spans(start, length)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class TestCandidates:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_lexsort_formula(self, data):
        K = data.draw(st.integers(1, 16))
        deadline = data.draw(st.integers(1, (1 << K) - 1))
        ranks = core.set_ranks(K)
        sets, size, rev = ranks
        cand = sets[(sets & deadline) != 0]
        s1 = cand & deadline
        # s descending, chi ascending, then S1 and S2 lexicographic, as
        # four sort keys
        want = cand[np.lexsort((-rev[cand ^ s1], -rev[s1], size[s1], -size[cand]))]
        assert np.array_equal(delivery._candidates(deadline, ranks), want)


class TestBuildCodedContent:
    @staticmethod
    def synthetic_records(lengths):
        # Hand-built bit-exact table with chosen class contents, given in
        # table order, a library that holds each class in its requester's
        # file (F-AP k requests file k), at the first positions that row has
        # not used, and caches whose signatures place them there: so row k's
        # positions are 0, 1, 2, ...  Every other bit is cached at k alone.
        K, F = 4, 16
        length = np.zeros((K, 1 << K), dtype=np.int32)
        files = np.zeros((K, F), dtype=np.uint8)
        signature = np.repeat(1 << np.arange(K, dtype=np.uint8), F).reshape(K, F)
        used = [0] * K
        for (k, E), values in lengths.items():
            span = slice(used[k - 1], used[k - 1] + len(values))
            files[k - 1, span] = values
            signature[k - 1, span] = E
            used[k - 1] += len(values)
            length[cell((k, E))] = len(values)
        ids = tuple(range(1, K + 1))
        return core.SubfileRecordTable(
            demand={k: k for k in ids},
            length=length,
            caches=core.CacheLayout(K, ids, signature),
            library=core.Library(ids, files),
        )

    def test_single_operand_verbatim(self):
        records = self.synthetic_records({key(1, {2}): [1, 0, 1]})
        [rec] = rows_of(*coded_record(records, mask_of({1, 2}), mask_of({1}), mask_of({1})))
        assert rec.payload_bits == 3
        assert rec.payload.tolist() == [1, 0, 1]

    def test_equal_lengths_xor(self):
        records = self.synthetic_records(
            {key(1, {2}): [1, 0, 1], key(2, {1}): [1, 1, 0]}
        )
        [rec] = rows_of(
            *coded_record(records, mask_of({1, 2}), mask_of({1, 2}), mask_of({1}))
        )
        assert rec.payload_bits == 3
        assert rec.payload.tolist() == [0, 1, 1]

    def test_zero_padding_to_longest(self):
        records = self.synthetic_records(
            {key(1, {2}): [1, 1, 1], key(2, {1}): [1, 0, 1, 0, 1]}
        )
        [rec] = rows_of(
            *coded_record(records, mask_of({1, 2}), mask_of({1, 2}), mask_of({1}))
        )
        assert rec.payload_bits == 5
        # short operand acts as if extended with zeros
        assert rec.payload.tolist() == [0, 1, 0, 0, 1]


class TestMeasuredLoad:
    def test_empty(self):
        # Every F-AP caches its one-bit files whole, so no subfile is
        # missing and every candidate is skipped.
        params = core.SystemParams(K=2, N=2, M=1.9, F=1, B=2, delta_b=1)
        schedule = core.make_fixed_L_schedule(2, 2, 1)
        library = core.generate_library(params, 0, schedule.demand.values())
        caches = core.place_caches(params, 1, schedule.demand.values())
        records = core.partition_into_subfiles(library, caches, schedule)
        result = delivery.run_delivery(schedule, records, params)
        assert len(result.events) == 4 and not result.events.included.any()
        report = delivery.measured_load(result.events, params.F)
        assert report == result.report
        assert report.total_bits == 0
        assert report.normalized_load == 0
        assert report.transmission_count == 0

    def test_demo_value(self):
        result = demo_run()
        assert result.report.normalized_load == pytest.approx(23 / 16)
        # the per-slot loads, read from the log
        events = result.events
        sent = events.included != 0
        per_slot = np.bincount(events.slot[sent], weights=events.bits[sent])
        assert per_slot.tolist() == pytest.approx([0, 0, 8, 4, 11])


class TestSlotMasks:
    def test_demo_shape(self):
        # one F-AP per slot, two-slot delay: F-AP b - 1 is due at slot b,
        # F-APs 3 and 4 both at the last, and each leaves the active set
        # after its deadline
        due, active = delivery.slot_masks(core.make_fixed_L_schedule(4, 4, 1), 2)
        assert due == [0, 0, 0b0001, 0b0010, 0b1100]
        assert active == [0, 0b0001, 0b0011, 0b0110, 0b1100]

    @pytest.mark.parametrize("K, B, L", [(4, 4, 1), (12, 6, 2)])
    def test_full_delay(self, K, B, L):
        # delta_b = B: every deadline falls in the last slot, so no F-AP
        # leaves the active set before it
        schedule = core.make_fixed_L_schedule(K, B, L, seed=1)
        due, active = delivery.slot_masks(schedule, B)
        assert due == [0] * B + [(1 << K) - 1]
        assert active == [0] + [
            mask_of(frozenset().union(*schedule.slots[:b])) for b in range(1, B + 1)
        ]


class TestCandidateCount:
    @pytest.mark.parametrize("K, B, L, delta_b, expected", [
        (4, 4, 1, 2, 28),
        (12, 6, 2, 2, 16_128),
    ])
    def test_every_set_meeting_the_deadline_set(self, K, B, L, delta_b, expected):
        # A slot with deadline set D enumerates the 2^K - 2^(K-|D|) sets
        # that meet D: slots delta_b..B-1 have the requesters of slot
        # b - delta_b + 1 due, slot B everyone still active.
        params = core.SystemParams(K=K, N=K, M=K / 4, F=100, B=B, delta_b=delta_b)
        schedule = core.make_fixed_L_schedule(K, B, L, seed=1)
        records = core.analytic_subfile_table(params, schedule)
        result = delivery.run_delivery(schedule, records, params)
        due = [len(schedule.slots[b - delta_b]) for b in range(delta_b, B)]
        due.append(K - sum(due))
        assert sum((1 << K) - (1 << (K - d)) for d in due) == expected
        assert len(result.events) == expected


class TestNoRedundancy:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_every_entry_sent_exactly_once(self, data):
        # the payload pass XORs each table row in whole: every live entry
        # must ride in exactly one candidate
        K = data.draw(st.integers(2, 9))
        B = data.draw(st.integers(2, K))
        seed = data.draw(st.integers(0, 2**16))
        schedule = core.make_random_schedule(K, B, seed)
        base = core.SystemParams(K=K, N=K, M=K / 3, F=64, B=B, delta_b=1)
        library = core.generate_library(base, seed, schedule.demand.values())
        caches = core.place_caches(base, seed + 1, schedule.demand.values())
        for delta_b in range(1, B + 1):
            params = core.SystemParams(K=K, N=K, M=K / 3, F=64, B=B, delta_b=delta_b)
            for records in (
                core.analytic_subfile_table(params, schedule),
                core.partition_into_subfiles(library, caches, schedule),
            ):
                events = delivery.run_delivery(schedule, records, params).events
                sent = np.zeros(1 << K, dtype=np.int64)
                np.add.at(sent, events.S, events.included)
                sets = np.arange(1 << K)
                assert np.array_equal(sent, live_masks(entries(records), sets))

    def test_record_structure(self):
        # included requesters within the collapsed set S & active[slot],
        # payload length equal to the longest included subfile
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        for delta_b in (1, 2, 3, 4):
            params = demo_params(delta_b)
            records = core.analytic_subfile_table(params, schedule)
            e = delivery.run_delivery(schedule, records, params).events
            _, active = delivery.slot_masks(schedule, delta_b)
            collapsed = e.S & np.array(active, dtype=e.S.dtype)[e.slot]
            assert not (e.included & ~collapsed).any()
            for S, included, bits in zip(
                e.S.tolist(), e.included.tolist(), e.bits.tolist()
            ):
                assert bits == max(
                    (records.length[k - 1, S] for k in iter_ids(included)), default=0
                )


class TestClosedFormAgreement:
    def test_full_delay_reduces_to_sync_baseline(self):
        for k, b in ((4, 4), (6, 3), (5, 5)):
            l = k // b
            params = core.SystemParams(K=k, N=k, M=k / 2, F=100, B=b, delta_b=b)
            schedule = core.make_fixed_L_schedule(k, b, l)
            records = core.analytic_subfile_table(params, schedule)
            result = delivery.run_delivery(schedule, records, params)
            assert result.report.normalized_load == pytest.approx(
                analytics.mn_sync_load(params), rel=1e-12
            )


class TestDelayMonotonicity:
    def test_analytic_fixed_schedule(self):
        for seed in range(8):
            schedule = core.make_random_schedule(8, 5, seed)
            loads = []
            for delta_b in range(1, 6):
                params = core.SystemParams(K=8, N=8, M=3.0, F=64, B=5, delta_b=delta_b)
                records = core.analytic_subfile_table(params, schedule)
                loads.append(
                    delivery.run_delivery(schedule, records, params).report.normalized_load
                )
            assert all(x >= y - 1e-12 for x, y in zip(loads, loads[1:]))

    def test_bitexact_fixed_seeds(self):
        for seed in (0, 1, 2, 3):
            schedule = core.make_random_schedule(8, 5, seed)
            base = core.SystemParams(K=8, N=8, M=4.0, F=4000, B=5, delta_b=1)
            library = core.generate_library(base, seed, schedule.demand.values())
            caches = core.place_caches(base, seed + 99, schedule.demand.values())
            loads = []
            for delta_b in range(1, 6):
                params = core.SystemParams(K=8, N=8, M=4.0, F=4000, B=5, delta_b=delta_b)
                records = core.partition_into_subfiles(library, caches, schedule)
                loads.append(
                    delivery.run_delivery(schedule, records, params)
                    .report.normalized_load
                )
            assert all(x >= y - 1e-12 for x, y in zip(loads, loads[1:]))


class TestBitExactDelivery:
    @staticmethod
    def bitexact_run(params, schedule, seed):
        files = set(schedule.demand.values())
        library = core.generate_library(params, seed, files)
        caches = core.place_caches(params, seed + 1, files)
        records = core.partition_into_subfiles(library, caches, schedule)
        result = delivery.run_delivery(schedule, records, params)
        return library, caches, records, result

    @pytest.mark.parametrize("k", [-1, 0, 5, 6, 1.0, np.float64(2), "1", None])
    def test_decode_refuses_k_outside_1_to_K(self, k):
        # a k that is not an integer in 1..K is named before anything else
        # is read: the log, library and caches passed are None
        params = demo_params(2, F=256)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        _, _, records, _ = self.bitexact_run(params, schedule, 17)
        with pytest.raises(InvalidParams, match=rf"in \[1, K=4\], got k={re.escape(repr(k))}$"):
            delivery.decode_fap(k, None, None, None, records)

    @pytest.mark.parametrize("k", [np.int64(1), np.int64(4), np.int16(2), np.int32(3)])
    def test_decode_takes_numpy_integer_k(self, k):
        # any Python or numpy integer names an F-AP, as any names a file
        params = demo_params(2, F=256)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        library, caches, records, result = self.bitexact_run(params, schedule, 17)
        decoded = delivery.decode_fap(k, result.events, library, caches, records)
        assert np.array_equal(decoded, library.file(schedule.demand[int(k)]))

    @pytest.mark.parametrize("case, message", [
        ("caches-of-another-F", r"caches placed for \(K, F\) = \(4, 128\), the table needs"),
        ("library-of-another-F", r"library of F = 128, the table needs F = 256"),
        ("analytic-log", r"needs a bit-exact record table and log"),
        ("log-of-a-larger-K", r"the log's sets name F-APs beyond K=4"),
    ])
    def test_decode_refuses_inputs_that_do_not_match_the_table(self, case, message, monkeypatch):
        params = demo_params(2, F=256)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        library, caches, records, result = self.bitexact_run(params, schedule, 17)
        events, other = result.events, replace(params, F=128)
        if case == "caches-of-another-F":
            caches = core.place_caches(other, 18, caches.files)
        elif case == "library-of-another-F":
            library = core.generate_library(other, 17, library.files)
        elif case == "analytic-log":
            analytic = core.analytic_subfile_table(params, schedule)
            events = delivery.run_delivery(schedule, analytic, params).events
        else:
            wider = core.SystemParams(K=6, N=6, M=3.0, F=256, B=3, delta_b=2)
            events = self.bitexact_run(wider, core.make_fixed_L_schedule(6, 3, 2), 17)[-1].events

        def no_work(*args):
            raise AssertionError("decoding began before the inputs were checked")

        # refused before any work: finding k's carriers is the first
        monkeypatch.setattr(delivery, "_carrying", no_work)
        with pytest.raises(InvalidParams, match=message):
            delivery.decode_fap(1, events, library, caches, records)

    @pytest.mark.parametrize("upto_slot, message", [
        (-1, "upto_slot must be >= 1, got -1"),
        (0, "upto_slot must be >= 1, got 0"),
        (2.5, "upto_slot must be an integer, got 2.5"),
    ], ids=["negative", "zero", "float"])
    def test_decode_refuses_a_bad_upto_slot_before_any_work(self, upto_slot, message, monkeypatch):
        params = demo_params(2, F=64)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        library, caches, records, result = self.bitexact_run(params, schedule, 17)

        def no_work(*args):
            raise AssertionError("decoding began before upto_slot was checked")

        monkeypatch.setattr(delivery, "_carrying", no_work)
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            delivery.decode_fap(1, result.events, library, caches, records, upto_slot=upto_slot)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_decodes_at_the_deadline_and_never_wrongly_before(self, data):
        # the decoder's oracle is the file itself: every F-AP decodes it bit
        # for bit from the log up to its deadline slot, but not once its own
        # cache has lost a bit of it; a slot earlier the decoder may fail,
        # but never returns other bits
        K = data.draw(st.integers(2, 9))
        B = data.draw(st.integers(2, K))
        delta_b = data.draw(st.integers(1, B))
        F = data.draw(st.integers(2, 80))
        N = data.draw(st.integers(K, 2 * K))
        # M is drawn through its quota, so that 0 < round(M * F / N) < F
        quota = data.draw(st.integers(1, F - 1))
        seed = data.draw(st.integers(0, 2**16))
        demand = data.draw(st.lists(st.integers(1, N), min_size=K, max_size=K))
        params = core.SystemParams(K=K, N=N, M=quota * N / F, F=F, B=B, delta_b=delta_b)
        assert params.cached_bits_per_file == quota
        slots = core.make_random_schedule(K, B, seed).slots
        schedule = core.RequestSchedule(slots, dict(enumerate(demand, 1)))
        library, caches, records, result = self.bitexact_run(params, schedule, seed)
        for k in range(1, K + 1):
            file = library.file(demand[k - 1])
            deadline = schedule.deadline_slot(k, delta_b)
            decoded = delivery.decode_fap(
                k, result.events, library, caches, records, upto_slot=deadline
            )
            assert np.array_equal(decoded, file)
            # a receiver that lost a bit of its file it caches cannot decode
            receiver = replace(caches, signature=caches.signature.copy())
            row = caches.rows([demand[k - 1]])[0]
            cached = np.flatnonzero(caches.signature[row] >> (k - 1) & 1).tolist()
            receiver.signature[row, data.draw(st.sampled_from(cached))] ^= 1 << (k - 1)
            with pytest.raises(DecodeFailure):
                delivery.decode_fap(
                    k, result.events, library, receiver, records, upto_slot=deadline
                )
            if deadline == 1:
                continue  # no slot comes before the first
            try:
                early = delivery.decode_fap(
                    k, result.events, library, caches, records, upto_slot=deadline - 1
                )
            except DecodeFailure:
                continue
            assert np.array_equal(early, file)

    def test_truncated_log_fails(self):
        params = demo_params(2, F=2048)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        library, caches, records, result = self.bitexact_run(params, schedule, 29)
        with pytest.raises(DecodeFailure):
            delivery.decode_fap(
                4, result.events, library, caches, records, upto_slot=3
            )

    def test_uncached_operand_fails(self):
        # Drop one bit of an operand F-AP 1 needs from its own cache, not
        # from the server's record of it: decoding the transmission that
        # carries it must fail, not XOR garbage.
        params = demo_params(2, F=2048)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        library, caches, records, result = self.bitexact_run(params, schedule, 17)
        other = key(2, {1})
        positions, _ = classes_of(records)[other]
        receiver = replace(caches, signature=caches.signature.copy())
        row = caches.rows([schedule.demand[2]])[0]
        receiver.signature[row, positions[0]] &= ~np.uint8(1)
        with pytest.raises(DecodeFailure, match=r"operand \(2, 1\) not reconstructible"):
            delivery.decode_fap(1, result.events, library, receiver, records)

    def test_lost_own_bit_fails(self):
        # Drop from F-AP 1's own cache one bit of its file that the server's
        # record says it caches: no transmission carries that bit, so
        # decoding must fail, not return a 0 in its place.
        params = demo_params(2, F=2048)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        library, caches, records, result = self.bitexact_run(params, schedule, 17)
        receiver = replace(caches, signature=caches.signature.copy())
        row = caches.rows([schedule.demand[1]])[0]
        receiver.signature[row, np.flatnonzero(caches.signature[row] & 1)[0]] &= ~np.uint8(1)
        with pytest.raises(DecodeFailure, match=r"F-AP 1 is missing 1 bits after decoding$"):
            delivery.decode_fap(1, result.events, library, receiver, records)

    def test_own_cache_fills_entries_not_yet_sent(self):
        # A receiver that caches all of its own file needs none of its row
        # from the log: a slot before its deadline, when part of the row is
        # still unsent, it decodes the file from the log and its cache.
        params = demo_params(2, F=2048)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        library, caches, records, result = self.bitexact_run(params, schedule, 17)
        early = schedule.deadline_slot(4, 2) - 1
        with pytest.raises(DecodeFailure, match="F-AP 4 is missing"):
            delivery.decode_fap(4, result.events, library, caches, records, upto_slot=early)
        receiver = replace(caches, signature=caches.signature.copy())
        receiver.signature[caches.rows([schedule.demand[4]])[0]] |= np.uint8(1 << 3)
        decoded = delivery.decode_fap(
            4, result.events, library, receiver, records, upto_slot=early
        )
        assert np.array_equal(decoded, library.file(schedule.demand[4]))

    def test_decode_sparse_repeated_demands(self):
        # placed rows are not file ids minus one, and two F-APs share a file.
        # The one deterministic test that compares decoded bits from such a
        # library: reading operand rows as library.bits[demand[j + 1] - 1]
        # fails it, and otherwise only hypothesis properties catch that.
        params = core.SystemParams(K=4, N=10, M=4.0, F=2048, B=4, delta_b=2)
        slots = core.make_fixed_L_schedule(4, 4, 1).slots
        schedule = core.RequestSchedule(slots, {1: 9, 2: 3, 3: 9, 4: 6})
        library = core.generate_library(params, 5, {9, 3, 6})
        caches = core.place_caches(params, 6, {9, 3, 6})
        records = core.partition_into_subfiles(library, caches, schedule)
        result = delivery.run_delivery(schedule, records, params)
        for k in range(1, 5):
            decoded = delivery.decode_fap(
                k, result.events, library, caches, records,
                upto_slot=schedule.deadline_slot(k, 2),
            )
            assert np.array_equal(decoded, library.file(schedule.demand[k]))

    def test_library_with_other_files_decodes_the_same_bits(self):
        # the library holds files the caches never placed, so file 5 sits in
        # another row there; each file is read through its own map
        params = core.SystemParams(K=4, N=7, M=3.0, F=256, B=4, delta_b=2)
        slots = core.make_fixed_L_schedule(4, 4, 1).slots
        schedule = core.RequestSchedule(slots, {1: 5, 2: 2, 3: 5, 4: 6})
        library, caches, records, result = self.bitexact_run(params, schedule, 17)
        wider = core.generate_library(params, 17, range(1, 8))
        assert wider.files != caches.files
        for k in range(1, 5):
            decoded = delivery.decode_fap(k, result.events, wider, caches, records)
            assert np.array_equal(decoded, library.file(schedule.demand[k]))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_first_uncached_operand_is_named(self, data):
        # clear one to three operand bits from k's cache: the failure must
        # name the operand a plain scan of the sent rows meets first, by
        # transmission, then ascending j
        K = data.draw(st.integers(2, 8))
        B = data.draw(st.integers(2, min(K, 4)))
        delta_b = data.draw(st.integers(1, B))
        seed = data.draw(st.integers(0, 2**16))
        N = data.draw(st.integers(K, 3 * K))
        demand = data.draw(st.lists(st.integers(1, N), min_size=K, max_size=K))
        params = core.SystemParams(K=K, N=N, M=N / 2, F=64, B=B, delta_b=delta_b)
        slots = core.make_random_schedule(K, B, seed).slots
        schedule = core.RequestSchedule(slots, dict(enumerate(demand, 1)))
        library, caches, records, result = self.bitexact_run(params, schedule, seed)
        classes = classes_of(records)
        masks = delivery.slot_masks(schedule, delta_b)
        sent = [e.included for e in rows_of(result.events, masks)]
        coded = {j for row in sent if len(row) > 1 for j, _ in row}
        if not coded:
            return
        k = data.draw(st.sampled_from(sorted(coded)))
        operands = [o for row in sent if any(j == k for j, _ in row)
                    for o in row if o[0] != k]
        kb = 1 << (k - 1)
        clear = caches.signature.dtype.type((1 << K) - 1 - kb)
        # k's own cache loses the bits; the server's record keeps them
        receiver = replace(caches, signature=caches.signature.copy())
        for _ in range(data.draw(st.integers(1, 3))):
            j, E = data.draw(st.sampled_from(operands))
            positions, _ = classes[(j, E)]
            row = caches.rows([demand[j - 1]])[0]
            receiver.signature[row, data.draw(st.sampled_from(positions.tolist()))] &= clear

        def cached(operand):
            signature = receiver.signature[caches.rows([demand[operand[0] - 1]])[0]]
            return all(signature[p] & kb for p in classes[operand][0].tolist())

        first = next(o for o in operands if not cached(o))
        with pytest.raises(DecodeFailure, match=re.escape(
            f"operand {first} not reconstructible at F-AP {k}"
        )):
            delivery.decode_fap(k, result.events, library, receiver, records)

    def test_undrawn_file_is_named(self):
        # the caches place files 1..4 and the library lacks file 1: the error
        # points at the library, not at the caches
        params = demo_params(2, F=256)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        library, caches, records, result = self.bitexact_run(params, schedule, 17)
        short = core.generate_library(params, 17, [2, 3, 4])
        with pytest.raises(InvalidParams, match="file 1 was not drawn"):
            core.partition_into_subfiles(short, caches, schedule)
        # F-AP 1 requests file 1; F-AP 2 needs it as an operand
        for k in (1, 2):
            with pytest.raises(InvalidParams, match="file 1 was not drawn"):
                delivery.decode_fap(k, result.events, short, caches, records)

    def test_table_has_positions_exactly_with_a_library(self):
        # a bit-exact table carries the caches its positions are worked out
        # from and the library they index, an analytic one neither; a table
        # with one and not the other is refused when it is built
        params = demo_params(2, F=64)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        library, caches, records, _ = self.bitexact_run(params, schedule, 3)
        assert records.library is library and records.caches is caches
        analytic = core.analytic_subfile_table(params, schedule)
        assert analytic.caches is None and analytic.library is None
        with pytest.raises(InvalidParams, match="both caches and a library, or neither"):
            replace(records, library=None)
        with pytest.raises(InvalidParams, match="both caches and a library, or neither"):
            replace(analytic, library=library)

    @pytest.mark.parametrize("K, B, mask_dtype", [
        (4, 4, np.uint8), (8, 4, np.uint8), (9, 3, np.uint16), (12, 6, np.uint16),
    ])
    def test_decode_with_narrow_masks(self, K, B, mask_dtype):
        # the masks take the signatures' dtype, uint8 up to K = 8, so the
        # decoder clears k's own bit without a negative ~kb
        params = core.SystemParams(K=K, N=K, M=K / 4, F=600, B=B, delta_b=2)
        schedule = core.make_random_schedule(K, B, K)
        library, caches, records, result = self.bitexact_run(params, schedule, K)
        events = result.events
        for mask in (events.S, events.included):
            assert mask.dtype == mask_dtype == caches.signature.dtype
        assert events.slot.dtype == np.uint8
        assert records.length.dtype == events.bits.dtype == np.int32
        for k in range(1, K + 1):
            decoded = delivery.decode_fap(
                k, events, library, caches, records,
                upto_slot=schedule.deadline_slot(k, 2),
            )
            assert np.array_equal(decoded, library.file(schedule.demand[k]))

    @pytest.mark.parametrize("k", [1, 2])
    def test_unplaced_file_is_named(self, k):
        # F-AP 1 requests file 1; F-AP 2 needs it as an operand
        params = demo_params(2, F=2048)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        library, caches, records, result = self.bitexact_run(params, schedule, 17)
        without = core.CacheLayout(4, caches.files[1:], caches.signature[1:])
        with pytest.raises(FogcodedError, match="file 1 was not placed"):
            delivery.decode_fap(k, result.events, library, without, records)

    def test_single_fap_uncoded(self):
        # Degenerate one-F-AP system: the lone class travels uncoded and the
        # decoder merges it with the locally cached half.
        sched = core.RequestSchedule((frozenset({1}),), {1: 1})
        p = core.SystemParams(K=1, N=1, M=0.5, F=64, B=2, delta_b=1)
        library = core.generate_library(p, 3, (1,))
        caches = core.place_caches(p, 4, (1,))
        records = core.partition_into_subfiles(library, caches, sched)
        k = (1, 0)
        sent, masks = coded_record(records, mask_of({1}), mask_of({1}), mask_of({1}))
        assert rows_of(sent, masks)[0].included == (k,)
        decoded = delivery.decode_fap(1, sent, library, caches, records)
        assert np.array_equal(decoded, library.file(1))

    def test_gap_small_at_k8(self):
        params = core.SystemParams(K=8, N=8, M=4.0, F=100_000, B=4, delta_b=2)
        schedule = core.make_fixed_L_schedule(8, 4, 2)
        _, _, _, result = self.bitexact_run(params, schedule, 41)
        expected = analytics.closed_form_load(
            FixedLConfig(K=8, N=8, M=4.0, F=100_000, B=4, L=2, delta_b=2)
        )
        assert result.report.normalized_load == pytest.approx(expected, rel=0.05)

    def test_inverted_skip_rule_breaks_delivery(self, monkeypatch):
        # Mutation sanity: flipping the transmit predicate must surface as a
        # deadline violation or an undecodable F-AP.
        params = demo_params(2, F=512)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        library = core.generate_library(params, 31, schedule.demand.values())
        caches = core.place_caches(params, 32, schedule.demand.values())
        records = core.partition_into_subfiles(library, caches, schedule)
        original = delivery.should_transmit
        monkeypatch.setattr(
            delivery, "should_transmit", lambda *a: ~original(*a)
        )
        with pytest.raises((DeadlineViolation, DecodeFailure)):
            result = delivery.run_delivery(schedule, records, params)
            for k in range(1, 5):
                delivery.decode_fap(k, result.events, library, caches, records)


class TestRepeatability:
    def test_second_run_on_one_table_repeats_the_first(self):
        # run_delivery leaves the table as it found it
        params = demo_params(F=256)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        library = core.generate_library(params, 3, schedule.demand.values())
        caches = core.place_caches(params, 4, schedule.demand.values())
        for records in (
            core.analytic_subfile_table(params, schedule),
            core.partition_into_subfiles(library, caches, schedule),
        ):
            length, masks = records.length.copy(), records.entry_masks()
            first = delivery.run_delivery(schedule, records, params)
            second = delivery.run_delivery(schedule, records, params)
            assert first.report.transmission_count == 23
            slots = delivery.slot_masks(schedule, params.delta_b)
            assert_same_events(second.events, rows_of(first.events, slots), slots)
            assert second.report == first.report
            assert np.array_equal(records.length, length)
            assert np.array_equal(records.entry_masks(), masks)


class TestRunDeliveryValidation:
    def test_schedule_shape_mismatch(self):
        params = demo_params()
        schedule = core.make_fixed_L_schedule(6, 3, 2)
        records = core.analytic_subfile_table(
            core.SystemParams(K=6, N=6, M=2, F=16, B=3, delta_b=2), schedule
        )
        with pytest.raises(InvalidParams):
            delivery.run_delivery(schedule, records, params)

    def test_decode_needs_bitexact(self):
        params = demo_params()
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        records = core.analytic_subfile_table(params, schedule)
        result = delivery.run_delivery(schedule, records, params)
        with pytest.raises(InvalidParams):
            delivery.decode_fap(1, result.events, None, None, records)
