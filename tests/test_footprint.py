"""Memory footprint of one seeded bit-exact trial, traced with tracemalloc.

The partition writes its table once, in place, with narrow positions; the
delivery engine decides every slot on one mask per set, then allocates the
payload buffer once and XORs the table into it one requester row at a
time, so its int64 indexes cover one row's bits, not the run's.  The
decoder reads the operands the same way, one row at a time.
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
    return sum(
        a.nbytes for a in (table.live, table.length, table.start, table.bit_positions,
                           table.bit_values)
    )


def trial():
    params = core.SystemParams(K=K, N=K, M=K / 4, F=F, B=4, delta_b=2)
    schedule = core.make_fixed_L_schedule(K, 4, 2, 1)
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
    # the table itself plus per-requester scratch: a few int64 arrays of F
    assert peak <= table_nbytes(table) + 24 * F

    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    delivery.run_delivery(schedule, table, params)
    peak = tracemalloc.get_traced_memory()[1] - base
    # every operand bit of the run is sent once; three bytes per operand bit
    # cover the one-byte payloads, one row's int64 index and the candidate
    # columns
    operand_bits = int(table.length.sum())
    assert peak <= 3 * operand_bits


def test_decode_footprint(traced):
    params, schedule, library, caches = trial()
    table = core.partition_into_subfiles(library, caches, schedule)
    events = delivery.run_delivery(schedule, table, params).events
    for k in range(1, K + 1):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        delivery.decode_fap(k, events, library, caches, table)
        peak = tracemalloc.get_traced_memory()[1] - base
        # per file bit: the output and its have-mask (2 B), the copies of
        # k's payloads (about 1 B) and, at the peak, k's own positions
        # (uint32 at this F) with one int64 index over them: 12 B per bit k
        # does not cache, 3/4 of the file, so 9 B.  Each row's operand
        # indexes (about 2.5 B) are freed before the next row's are built.
        # A flat int64 index over every operand bit at once needs 20 B.
        assert peak <= 14 * F
