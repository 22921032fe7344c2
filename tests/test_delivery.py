"""Delivery state machine tests: goldens, skip rule, decoding, loads."""

import numpy as np
import pytest

from fogcoded import analytics, core, delivery
from fogcoded.analytics import FixedLConfig
from fogcoded.core import iter_ids, mask_of
from fogcoded.errors import DeadlineViolation, DecodeFailure, FogcodedError, InvalidParams
from reference_delivery import cell, classes_of, rows_of
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


# The expected per-slot enumeration for the four-F-AP demo configuration
# (one request per slot, two-slot delay, worst-case demands).  Skipped
# candidates carry an empty operand list.
GOLDEN_EVENTS = [
    (2, 4, 1, {1}, {2, 3, 4}, [key(1, {2, 3, 4}), key(2, {1, 3, 4})]),
    (2, 3, 1, {1}, {2, 3}, [key(1, {2, 3}), key(2, {1, 3})]),
    (2, 3, 1, {1}, {2, 4}, [key(1, {2, 4}), key(2, {1, 4})]),
    (2, 3, 1, {1}, {3, 4}, [key(1, {3, 4})]),
    (2, 2, 1, {1}, {2}, [key(1, {2}), key(2, {1})]),
    (2, 2, 1, {1}, {3}, [key(1, {3})]),
    (2, 2, 1, {1}, {4}, [key(1, {4})]),
    (2, 1, 1, {1}, set(), [key(1, set())]),
    (3, 4, 1, {2}, {1, 3, 4}, []),
    (3, 3, 1, {2}, {1, 3}, []),
    (3, 3, 1, {2}, {1, 4}, []),
    (3, 3, 1, {2}, {3, 4}, [key(2, {3, 4}), key(3, {2, 4})]),
    (3, 2, 1, {2}, {1}, []),
    (3, 2, 1, {2}, {3}, [key(2, {3}), key(3, {2})]),
    (3, 2, 1, {2}, {4}, [key(2, {4})]),
    (3, 1, 1, {2}, set(), [key(2, set())]),
    (4, 4, 2, {3, 4}, {1, 2}, [key(3, {1, 2, 4}), key(4, {1, 2, 3})]),
    (4, 3, 1, {3}, {1, 2}, [key(3, {1, 2})]),
    (4, 3, 1, {4}, {1, 2}, [key(4, {1, 2})]),
    (4, 3, 2, {3, 4}, {1}, [key(3, {1, 4}), key(4, {1, 3})]),
    (4, 3, 2, {3, 4}, {2}, [key(4, {2, 3})]),
    (4, 2, 1, {3}, {1}, [key(3, {1})]),
    (4, 2, 1, {3}, {2}, []),
    (4, 2, 1, {4}, {1}, [key(4, {1})]),
    (4, 2, 1, {4}, {2}, [key(4, {2})]),
    (4, 2, 2, {3, 4}, set(), [key(3, {4}), key(4, {3})]),
    (4, 1, 1, {3}, set(), [key(3, set())]),
    (4, 1, 1, {4}, set(), [key(4, set())]),
]


class TestGoldenTables:
    def test_event_sequence(self):
        result = demo_run()
        got = [
            (e.slot, e.s, e.chi, set(iter_ids(e.s1_mask)),
             set(iter_ids(e.s2_mask)), list(e.included))
            for e in rows_of(result.events)
        ]
        expected = [
            (slot, s, chi, s1, s2, included)
            for slot, s, chi, s1, s2, included in GOLDEN_EVENTS
        ]
        assert got == expected

    def test_transmission_counts_per_slot(self):
        result = demo_run()
        sent = {}
        for e in rows_of(result.events):
            if e.transmitted:
                sent[e.slot] = sent.get(e.slot, 0) + 1
        assert sent == {2: 8, 3: 4, 4: 11}
        assert result.report.transmission_count == 23

    def test_no_transmissions_before_accumulation_ends(self):
        result = demo_run(delta_b=3)
        assert (result.events.slot >= 3).all()

    def test_skip_examples(self):
        # The deferred candidate at slot 3 and the one-operand row at slot 4.
        result = demo_run()
        by_sig = {
            (e.slot, e.s1_mask, e.s2_mask): e for e in rows_of(result.events)
        }
        deferred = by_sig[(3, mask_of({2}), mask_of({1, 3, 4}))]
        assert not deferred.transmitted
        ride_along = by_sig[(4, mask_of({3, 4}), mask_of({2}))]
        assert ride_along.included == (key(4, {2, 3}),)
        assert ride_along.transmitted


def coded_record(records, s_mask, active_mask, deadline_mask, slot=1):
    # The transmission of encoding set S, a one-candidate Transmissions:
    # the live subfiles of its active members, put together by
    # build_coded_content.
    sets = np.array([s_mask])
    active = np.array([(active_mask >> i) & 1 for i in range(records.K)], dtype=bool)
    included = records.live[:, sets] & active[:, None]
    bits, buffer = delivery.build_coded_content(sets, included, records)
    return delivery.Transmissions(
        slot=np.array([slot]),
        S=sets,
        s1=sets & deadline_mask,
        collapsed=sets & active_mask,
        included=(1 << np.arange(records.K)) @ included,
        bits=bits,
        buffer=buffer,
    )


class TestShouldTransmit:
    def test_demo_predicates(self):
        params = demo_params()
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        records = core.analytic_subfile_table(params, schedule)
        # F-AP 2's piece for the full set was already delivered at slot 2.
        live = records.live.copy()
        live[cell(key(2, {1, 3, 4}))] = False
        sets = [mask_of({1, 2, 3, 4}), mask_of({2, 3})]
        deadline = np.array([False, True, False, False])
        assert delivery.should_transmit(live[:, sets], deadline).tolist() == [
            False, True
        ]

    def test_all_recovered_is_false(self):
        params = demo_params()
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        records = core.analytic_subfile_table(params, schedule)
        live = records.live.copy()
        live[cell(key(1, {2}))] = False
        deadline = np.array([True, False, False, False])
        assert not delivery.should_transmit(
            live[:, [mask_of({1, 2})]], deadline
        ).any()


class TestBuildCodedContent:
    @staticmethod
    def synthetic_records(lengths):
        # Hand-built bit-exact table with chosen class contents, laid out
        # back to back in the order given.
        contents = [np.array(v, dtype=np.uint8) for v in lengths.values()]
        K = 4
        live = np.zeros((K, 1 << K), dtype=bool)
        length = np.zeros((K, 1 << K), dtype=np.int64)
        start = np.zeros((K, 1 << K), dtype=np.int64)
        offset = 0
        for record_key, bits in zip(lengths, contents):
            live[cell(record_key)] = True
            length[cell(record_key)] = len(bits)
            start[cell(record_key)] = offset
            offset += len(bits)
        return core.SubfileRecordTable(
            K=K,
            F=16,
            demand={k: k for k in range(1, K + 1)},
            live=live,
            length=length,
            start=start,
            bit_positions=np.concatenate([np.arange(len(v)) for v in contents]),
            bit_values=np.concatenate(contents),
        )

    def test_single_operand_verbatim(self):
        records = self.synthetic_records({key(1, {2}): [1, 0, 1]})
        [rec] = rows_of(coded_record(records, mask_of({1, 2}), mask_of({1}), mask_of({1})))
        assert rec.payload_bits == 3
        assert rec.payload.tolist() == [1, 0, 1]

    def test_equal_lengths_xor(self):
        records = self.synthetic_records(
            {key(1, {2}): [1, 0, 1], key(2, {1}): [1, 1, 0]}
        )
        [rec] = rows_of(
            coded_record(records, mask_of({1, 2}), mask_of({1, 2}), mask_of({1}))
        )
        assert rec.payload_bits == 3
        assert rec.payload.tolist() == [0, 1, 1]

    def test_zero_padding_to_longest(self):
        records = self.synthetic_records(
            {key(1, {2}): [1, 1, 1], key(2, {1}): [1, 0, 1, 0, 1]}
        )
        [rec] = rows_of(
            coded_record(records, mask_of({1, 2}), mask_of({1, 2}), mask_of({1}))
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
        library = core.generate_library(params, 0)
        caches = core.place_caches(library, params, 1, schedule.demand.values())
        records = core.partition_into_subfiles(library, caches, schedule)
        result = delivery.run_delivery(schedule, records, params)
        assert len(result.events) == 4 and not result.events.included.any()
        report = delivery.measured_load(result.events, params.F)
        assert report == result.report
        assert report.total_bits == 0
        assert report.normalized_load == 0
        assert report.transmission_count == 0
        assert report.per_slot_bits == {}

    def test_demo_value(self):
        result = demo_run()
        assert result.report.normalized_load == pytest.approx(23 / 16)
        assert result.report.per_slot_bits == pytest.approx(
            {2: 8.0, 3: 4.0, 4: 11.0}
        )

    def test_full_delay_value(self):
        result = demo_run(delta_b=4)
        assert result.report.normalized_load == pytest.approx(15 / 16)
        assert (result.events.slot == 4).all()


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
        due = [len(schedule.requesters(b - delta_b + 1)) for b in range(delta_b, B)]
        due.append(K - sum(due))
        assert sum((1 << K) - (1 << (K - d)) for d in due) == expected
        assert len(result.events) == expected


class TestNoRedundancy:
    def test_each_key_sent_at_most_once(self):
        for delta_b in (1, 2, 3, 4):
            result = demo_run(delta_b)
            seen = set()
            for e in rows_of(result.events):
                for k in e.included:
                    assert k not in seen
                    seen.add(k)

    def test_random_schedules(self):
        for seed in range(5):
            schedule = core.make_random_schedule(7, 4, seed)
            for delta_b in (1, 2, 3, 4):
                params = core.SystemParams(K=7, N=7, M=2.0, F=64, B=4, delta_b=delta_b)
                records = core.analytic_subfile_table(params, schedule)
                result = delivery.run_delivery(schedule, records, params)
                seen = set()
                for e in rows_of(result.events):
                    for k in e.included:
                        assert k not in seen
                        seen.add(k)

    def test_record_structure(self):
        # collapsed within S, included requesters within collapsed, payload
        # length equal to the longest included subfile
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        for delta_b in (1, 2, 3, 4):
            params = demo_params(delta_b)
            records = core.analytic_subfile_table(params, schedule)
            e = delivery.run_delivery(schedule, records, params).events
            assert not (e.collapsed & ~e.S).any()
            assert not (e.included & ~e.collapsed).any()
            for S, included, bits in zip(
                e.S.tolist(), e.included.tolist(), e.bits.tolist()
            ):
                assert bits == max(
                    (records.length[k - 1, S] for k in iter_ids(included)), default=0
                )


class TestClosedFormAgreement:
    def test_fixed_l_grid(self):
        for b, l in ((3, 1), (4, 1), (5, 1), (3, 2), (4, 2)):
            k = b * l
            for ratio in (0.25, 0.5, 0.75):
                for delta_b in range(1, b + 1):
                    params = core.SystemParams(
                        K=k, N=k, M=ratio * k, F=100, B=b, delta_b=delta_b
                    )
                    schedule = core.make_fixed_L_schedule(k, b, l, seed=delta_b)
                    records = core.analytic_subfile_table(params, schedule)
                    result = delivery.run_delivery(schedule, records, params)
                    expected = analytics.closed_form_load(
                        FixedLConfig(
                            K=k, N=k, M=ratio * k, F=100, B=b, L=l, delta_b=delta_b
                        )
                    )
                    assert result.report.normalized_load == pytest.approx(
                        expected, rel=1e-9
                    )

    def test_full_delay_reduces_to_sync_baseline(self):
        for k, b in ((4, 4), (6, 3), (5, 5)):
            l = k // b
            params = core.SystemParams(K=k, N=k, M=k / 2, F=100, B=b, delta_b=b)
            schedule = core.make_fixed_L_schedule(k, b, l)
            records = core.analytic_subfile_table(params, schedule)
            result = delivery.run_delivery(schedule, records, params)
            assert result.report.normalized_load == pytest.approx(
                analytics.mn_sync_load(k / 2, k, k), rel=1e-12
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
            library = core.generate_library(base, seed)
            caches = core.place_caches(library, base, seed + 99, schedule.demand.values())
            loads = []
            for delta_b in range(1, 6):
                params = core.SystemParams(K=8, N=8, M=4.0, F=4000, B=5, delta_b=delta_b)
                records = core.partition_into_subfiles(library, caches, schedule)
                loads.append(
                    delivery.run_delivery(schedule, records, params).report.normalized_load
                )
            assert all(x >= y - 1e-12 for x, y in zip(loads, loads[1:]))


class TestBitExactDelivery:
    @staticmethod
    def bitexact_run(params, schedule, seed):
        library = core.generate_library(params, seed)
        caches = core.place_caches(library, params, seed + 1, schedule.demand.values())
        records = core.partition_into_subfiles(library, caches, schedule)
        result = delivery.run_delivery(schedule, records, params)
        return library, caches, records, result

    def test_decode_all_faps(self):
        for delta_b in (1, 2, 3, 4):
            params = demo_params(delta_b, F=2048)
            schedule = core.make_fixed_L_schedule(4, 4, 1)
            library, caches, records, result = self.bitexact_run(params, schedule, 17)
            for k in range(1, 5):
                decoded = delivery.decode_fap(
                    k, result.events, library, caches, records
                )
                assert np.array_equal(decoded, library.file(schedule.demand[k]))

    def test_decode_by_deadline_only(self):
        # F-AP 1's file must already be complete from its deadline slot.
        params = demo_params(2, F=2048)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        library, caches, records, result = self.bitexact_run(params, schedule, 23)
        decoded = delivery.decode_fap(
            1, result.events, library, caches, records, upto_slot=2
        )
        assert np.array_equal(decoded, library.file(1))

    def test_truncated_log_fails(self):
        params = demo_params(2, F=2048)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        library, caches, records, result = self.bitexact_run(params, schedule, 29)
        with pytest.raises(DecodeFailure):
            delivery.decode_fap(
                4, result.events, library, caches, records, upto_slot=3
            )

    def test_uncached_operand_fails(self):
        # Drop one bit of an operand F-AP 1 needs from its cache: decoding
        # the transmission that carries it must fail, not XOR garbage.
        params = demo_params(2, F=2048)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        library, caches, records, result = self.bitexact_run(params, schedule, 17)
        other = key(2, {1})
        positions, _ = classes_of(records)[other]
        row = caches.rows([schedule.demand[2]])[0]
        caches.signature[row, positions[0]] &= ~np.uint8(1)
        with pytest.raises(DecodeFailure, match=r"operand \(2, 1\) not reconstructible"):
            delivery.decode_fap(1, result.events, library, caches, records)

    def test_decode_sparse_repeated_demands(self):
        # placed rows are not file ids minus one, and two F-APs share a file
        params = core.SystemParams(K=4, N=10, M=4.0, F=2048, B=4, delta_b=2)
        slots = core.make_fixed_L_schedule(4, 4, 1).slots
        schedule = core.RequestSchedule(slots, {1: 9, 2: 3, 3: 9, 4: 6})
        library = core.generate_library(params, 5)
        caches = core.place_caches(library, params, 6, {9, 3, 6})
        records = core.partition_into_subfiles(library, caches, schedule)
        result = delivery.run_delivery(schedule, records, params)
        for k in range(1, 5):
            decoded = delivery.decode_fap(
                k, result.events, library, caches, records,
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
        library = core.generate_library(p, seed=3)
        caches = core.place_caches(library, p, 4, (1,))
        records = core.partition_into_subfiles(library, caches, sched)
        k = (1, 0)
        sent = coded_record(records, mask_of({1}), mask_of({1}), mask_of({1}))
        assert rows_of(sent)[0].included == (k,)
        decoded = delivery.decode_fap(1, sent, library, caches, records)
        assert np.array_equal(decoded, library.file(1))

    def test_gap_to_analytic_shrinks(self):
        params = demo_params(2, F=100_000)
        schedule = core.make_fixed_L_schedule(4, 4, 1)
        _, _, _, result = self.bitexact_run(params, schedule, 5)
        assert result.report.normalized_load == pytest.approx(23 / 16, rel=0.05)

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
        library = core.generate_library(params, 31)
        caches = core.place_caches(library, params, 32, schedule.demand.values())
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
        library = core.generate_library(params, 3)
        caches = core.place_caches(library, params, 4, schedule.demand.values())
        for records in (
            core.analytic_subfile_table(params, schedule),
            core.partition_into_subfiles(library, caches, schedule),
        ):
            live = records.live.copy()
            first = delivery.run_delivery(schedule, records, params)
            second = delivery.run_delivery(schedule, records, params)
            assert first.report.transmission_count == 23
            assert_same_events(second.events, rows_of(first.events))
            assert second.report == first.report
            assert np.array_equal(records.live, live)


class TestLogDump:
    def test_transmissions_only(self):
        result = demo_run()
        sent = [e for e in rows_of(result.events) if e.transmitted]
        assert len(sent) == 23
        first = sent[0]
        assert (first.slot, first.s, first.chi) == (2, 4, 1)
        assert set(iter_ids(first.s1_mask)) == {1}
        assert set(iter_ids(first.s2_mask)) == {2, 3, 4}
        assert set(iter_ids(first.collapsed_mask)) == {1, 2}
        assert first.payload_bits == 1.0


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
