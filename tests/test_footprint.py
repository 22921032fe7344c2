"""Memory footprint of one seeded bit-exact trial, traced with tracemalloc.

The partition only counts: its table stores lengths, no positions and no
copy of the file bits.  The delivery engine decides every slot on one
mask per set, then allocates the payload buffer once and XORs the files'
bits into it one requester row at a time, each row's positions worked
out just before they are read, so its int64 indexes and packed sort keys
cover one row's bits, not the run's.  The decoder reads the operands the
same way, one row at a time.  Per-set arrays keep the width their values
need.
"""

import tracemalloc

import pytest

from fogcoded import core, delivery

K, F = 8, 100_000


@pytest.fixture
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


def table_nbytes(table):
    return table.length.nbytes


def trial(K=K, F=F, B=4):
    params = core.SystemParams(K=K, N=K, M=K / 4, F=F, B=B, delta_b=2)
    schedule = core.make_fixed_L_schedule(K, B, K // B, 1)
    files = schedule.demand.values()
    library = core.generate_library(params, 2, files)
    caches = core.place_caches(params, 3, files)
    return params, schedule, library, caches


def test_bitexact_trial_footprint(traced):
    params, schedule, library, caches = trial()

    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    table = core.partition_into_subfiles(library, caches, schedule)
    peak = tracemalloc.get_traced_memory()[1] - base
    # the table's lengths plus the count pass's int64 copy of one
    # signature row, 8 B per file bit; no positions are built.  Measured:
    # 8.08 B per bit over the table (8.25 with the positions' sort pass)
    assert peak <= table_nbytes(table) + 8.2 * F

    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    delivery.run_delivery(schedule, table, params)
    peak = tracemalloc.get_traced_memory()[1] - base
    # every operand bit of the run is sent once: per operand bit, the
    # one-byte payloads take at most 1 B, and one row's packed uint32 sort
    # keys with their position index, 8 B per file bit, about 1.3 B more
    # (K = 8 rows of 3/4 of the file); the candidate columns are narrow.
    # Measured: 2.15 B per operand bit (1.94 with stored positions; 2.44
    # with np.take's intp copy of the worked-out positions).
    operand_bits = int(table.length.sum())
    assert peak <= 2.5 * operand_bits


def test_decode_footprint(traced):
    params, schedule, library, caches = trial()
    table = core.partition_into_subfiles(library, caches, schedule)
    events = delivery.run_delivery(schedule, table, params).events
    for k in range(1, K + 1):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        delivery.decode_fap(k, events, library, caches, table)
        peak = tracemalloc.get_traced_memory()[1] - base
        # per file bit: the output (1 B), the copies of k's payloads (about
        # 1 B) and, at the peak, one row's packed uint32 sort keys with
        # their position index (8 B).  Every entry is found by the
        # encoder's column layout: every row's positions are picked by a
        # mask of their carried columns, k's own row its values before its
        # positions, so one int64 index is alive at a time.  Each row's
        # positions and operand indexes are freed before the next row's
        # are built, and completeness is two counts, not an F-bit mask.
        # Measured: 10.59 B (11.60 with k's positions built before its
        # values; 11.84 with a have-mask and per-row span shifts; 12.8
        # with stored positions); a flat int64 index over every operand
        # bit at once needs 20 B.
        assert peak <= 14 * F


def test_per_set_footprint(traced):
    # K = 12 with F = 256: the (K, 2^K) tables and the 16,128 candidates'
    # columns dominate, not the file bits.  Per candidate, the transmissions
    # hold a uint8 slot, two uint16 masks (S and included) and an int32
    # length, 9 B; the table holds, per column, an int32 length for each of
    # the 12 rows, 12 B per candidate at 3.9 candidates per column.  No
    # offset, no live flag and no mask that the schedule fixes (S1,
    # collapsed) is stored in either.  The rest is one slot's or one row's
    # scratch.  Measured: 33.2 B per candidate; with stored S1 and collapsed
    # masks, 38; with stored live flags too, 41; with stored int32 offsets
    # too, 53; with int64 columns and tables, 142.
    params, schedule, library, caches = trial(K=12, F=256, B=6)
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    table = core.partition_into_subfiles(library, caches, schedule)
    events = delivery.run_delivery(schedule, table, params).events
    peak = tracemalloc.get_traced_memory()[1] - base
    assert len(events) == 16_128
    assert peak <= 36 * len(events)
