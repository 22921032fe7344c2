"""The array kernels against the per-candidate reference engine.

`delivery.run_delivery` and `core.partition_into_subfiles` must reproduce
`reference_delivery` exactly: every event field, the payload bits, the
load report bit for bit and the subfile classes.
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
    assert len(got) == len(want)
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


def assert_same_partition(got, want):
    assert list(got.positions) == list(want.positions)
    assert list(got.contents) == list(want.contents)
    for name in ("live", "length"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for key in want.positions:
        assert np.array_equal(got.positions[key], want.positions[key]), key
        assert np.array_equal(got.contents[key], want.contents[key]), key
    assert list(got.locally_held) == list(want.locally_held)
    for k in want.locally_held:
        assert np.array_equal(got.locally_held[k], want.locally_held[k]), k


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
    caches = core.place_caches(library, base, seed + 1)
    for delta_b in range(1, B + 1):
        params = replace(base, delta_b=delta_b)
        pairs = [
            (core.analytic_subfile_table(params, schedule),
             core.analytic_subfile_table(params, schedule)),
            (core.partition_into_subfiles(library, caches, schedule),
             reference.partition_into_subfiles(library, caches, schedule)),
        ]
        for table, ref_table in pairs:
            got = delivery.run_delivery(schedule, table, params)
            want = reference.run_delivery(schedule, ref_table, params)
            assert_same_events(got.events, want.events)
            assert got.report == want.report


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
    caches = core.place_caches(library, params, seed + 1)
    rng = np.random.default_rng(seed)
    demand = {k: int(rng.integers(1, N + 1)) for k in range(1, K + 1)}
    schedule = core.RequestSchedule((frozenset(range(1, K + 1)),), demand)
    assert_same_partition(
        core.partition_into_subfiles(library, caches, schedule),
        reference.partition_into_subfiles(library, caches, schedule),
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
