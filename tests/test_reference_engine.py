"""The array kernels against the reference engine.

`core.place_caches`, `core.partition_into_subfiles` and
`delivery.run_delivery` must reproduce `reference_delivery` exactly: the
cached bits, the subfile classes, every event field, the payload bits and
the load report bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_delivery as reference
from fogcoded import core, delivery
from fogcoded.errors import DeadlineViolation
from test_analytics import random_schedules

EVENT_FIELDS = (
    "slot", "s", "chi", "s1_mask", "s2_mask", "collapsed_mask", "included",
    "payload_bits",
)


def assert_same_events(got, want):
    """An engine run's Transmissions against a list of reference records."""
    assert len(got) == len(want)
    got = reference.rows_of(got)
    for i, (g, w) in enumerate(zip(got, want)):
        for name in EVENT_FIELDS:
            a, b = getattr(g, name), getattr(w, name)
            # the number type matters too: tables print payload_bits
            assert (a, type(a)) == (b, type(b)), (i, name)
        if w.payload is None:
            assert g.payload is None, i
        else:
            assert g.payload.dtype == w.payload.dtype, i
            assert np.array_equal(g.payload, w.payload), i


def assert_same_report(got, want):
    """Two LoadReports bit for bit, number types included: bit-exact
    per-slot sums are ints, totals are floats."""
    assert got == want
    for name in ("total_bits", "normalized_load", "transmission_count"):
        assert type(getattr(got, name)) is type(getattr(want, name)), name
    assert list(got.per_slot_bits) == list(want.per_slot_bits)
    for slot, bits in got.per_slot_bits.items():
        assert type(bits) is type(want.per_slot_bits[slot]), slot


def assert_same_partition(got, want):
    """A package table against a reference table: every class with its
    dtype, the live and length arrays, and the bits each requester holds."""
    classes = reference.classes_of(got)
    assert list(classes) == list(want.positions)
    for name in ("live", "length"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for key, (positions, contents) in classes.items():
        for a, b in ((positions, want.positions[key]), (contents, want.contents[key])):
            assert a.dtype == b.dtype and np.array_equal(a, b), key
    # what the table leaves out of k's file is what k caches itself
    held = np.ones((got.K, got.F), dtype=bool)
    for (k, _), (positions, _) in classes.items():
        held[k - 1, positions] = False
    for k, want_held in want.locally_held.items():
        assert np.array_equal(np.flatnonzero(held[k - 1]), want_held), k


@pytest.mark.parametrize("K, N, M, F, seed", [
    (1, 1, 0.5, 16, 0),
    (3, 5, 2.0, 100, 1),
    (4, 4, 0.001, 64, 2),  # a zero quota: nothing cached
    (8, 9, 4.5, 300, 3),  # the widest uint8 signature
    (9, 9, 3.0, 200, 4),  # the narrowest uint16
    (16, 16, 4.0, 64, 5),  # the widest K
])
def test_signatures_match_cube(K, N, M, F, seed):
    # signature = sum over k of cube[k] * 2^(k-1), from the same rng calls
    params = core.SystemParams(K=K, N=N, M=M, F=F, B=2, delta_b=1)
    library = core.generate_library(params, seed)
    files = range(1, N + 1)
    got = core.place_caches(library, params, seed + 1, files)
    cube = reference.place_caches(library, params, seed + 1, files).cached
    weights = (1 << np.arange(K, dtype=np.uint64))[:, None, None]
    assert got.K == K and got.files == tuple(files)
    assert got.signature.dtype == (np.uint8 if K <= 8 else np.uint16)
    assert np.array_equal(got.signature, (cube * weights).sum(axis=0))


@settings(max_examples=100, deadline=None)
@given(
    random_schedules(max_k=9),
    # non-dyadic cache ratios: the load's last bits depend on summation order
    st.sampled_from([0.2, 0.3, 0.5, 0.7]),
    st.integers(min_value=0, max_value=10_000),
)
def test_delivery_matches_reference(schedule, ratio, seed):
    K, B = schedule.K, schedule.B
    base = core.SystemParams(K=K, N=K, M=ratio * K, F=200, B=B, delta_b=1)
    library = core.generate_library(base, seed)
    files = schedule.demand.values()
    caches = core.place_caches(library, base, seed + 1, files)
    cube = reference.place_caches(library, base, seed + 1, files)
    for delta_b in range(1, B + 1):
        params = replace(base, delta_b=delta_b)
        pairs = [
            (core.analytic_subfile_table(params, schedule),
             core.analytic_subfile_table(params, schedule)),
            (core.partition_into_subfiles(library, caches, schedule),
             reference.partition_into_subfiles(library, cube, schedule)),
        ]
        for table, ref_table in pairs:
            got = delivery.run_delivery(schedule, table, params)
            want = reference.run_delivery(schedule, ref_table, params)
            assert_same_events(got.events, want.events)
            assert_same_report(got.report, want.report)


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_measured_load_sums_like_the_row_loop(dtype):
    # lengths whose float sums round differently in another order
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(0, 80))
        slot = np.sort(rng.integers(1, 7, size=n))
        bits = (rng.random(n) * 10.0 ** rng.integers(0, 12, size=n)).astype(dtype)
        included = rng.integers(0, 2, size=n)
        zeros = np.zeros(n, dtype=np.int64)
        events = delivery.Transmissions(slot, zeros, zeros, zeros, included, bits)
        assert_same_report(
            delivery.measured_load(events, 1000),
            reference.measured_load(reference.rows_of(events), 1000),
        )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([0.1, 0.5, 0.9]),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=10_000),
)
def test_partition_matches_reference(K, extra_files, ratio, F, seed):
    N = K + extra_files
    params = core.SystemParams(K=K, N=N, M=ratio * N, F=F, B=2, delta_b=1)
    library = core.generate_library(params, seed)
    rng = np.random.default_rng(seed)
    demand = {k: int(rng.integers(1, N + 1)) for k in range(1, K + 1)}
    files = set(demand.values())
    caches = core.place_caches(library, params, seed + 1, files)
    cube = reference.place_caches(library, params, seed + 1, files)
    schedule = core.RequestSchedule((frozenset(range(1, K + 1)),), demand)
    assert_same_partition(
        core.partition_into_subfiles(library, caches, schedule),
        reference.partition_into_subfiles(library, cube, schedule),
    )


@pytest.mark.parametrize("engine", [delivery, reference])
def test_deadline_violation_names_fap_key_and_slot(engine, monkeypatch):
    # With nothing sent, both engines stop at the same first missed subfile.
    params = core.SystemParams(K=4, N=4, M=2.0, F=16, B=4, delta_b=2)
    schedule = core.make_fixed_L_schedule(4, 4, 1)
    records = core.analytic_subfile_table(params, schedule)
    monkeypatch.setattr(engine, "should_transmit", lambda *a: False)
    with pytest.raises(DeadlineViolation) as exc:
        engine.run_delivery(schedule, records, params)
    assert str(exc.value) == "F-AP 1 still misses subfile (1, 0) after slot 2"
