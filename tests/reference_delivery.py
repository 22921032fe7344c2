"""Reference engine: per-candidate delivery and per-class partition.

This is the straightforward form of the delivery phase and of the subfile
partition.  Candidates are checked one at a time in the canonical order,
and the bits of each exclusivity class are found by a full scan of the
file.  The package's array kernels (`delivery.run_delivery`,
`core.partition_into_subfiles`) must reproduce it exactly; the tests
compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from fogcoded.core import (
    CacheLayout,
    Library,
    RequestSchedule,
    SubfileKey,
    SubfileRecordTable,
    SystemParams,
    check_delivery_size,
    iter_ids,
    mask_of,
)
from fogcoded.delivery import DeliveryResult, LoadReport, TransmissionRecord
from fogcoded.errors import DeadlineViolation, InvalidParams


def cell(key: SubfileKey) -> tuple[int, int]:
    """Row and column of entry (k, E) in the table's arrays."""
    k, mask = key
    return k - 1, mask | (1 << (k - 1))


@dataclass
class DeliveryState:
    """Mutable cursor of one delivery run."""

    records: SubfileRecordTable
    active_mask: int = 0
    deadline_mask: int = 0
    slot: int = 0
    events: list[TransmissionRecord] = field(default_factory=list)
    recovered: set[SubfileKey] = field(default_factory=set)


def is_live(state: DeliveryState, key: SubfileKey) -> bool:
    """True while the entry exists and has not been delivered yet."""
    return bool(state.records.live[cell(key)]) and key not in state.recovered


def should_transmit(s1_mask: int, s_mask: int, state: DeliveryState) -> bool:
    """True when some deadline F-AP in S1 still needs its subfile for S."""
    for k in iter_ids(s1_mask):
        if is_live(state, (k, s_mask & ~(1 << (k - 1)))):
            return True
    return False


def build_coded_content(s_mask: int, state: DeliveryState) -> TransmissionRecord:
    """XOR the live subfiles of the active members of S, zero-padded.

    The caller marks the included keys recovered after logging the record.
    """
    records = state.records
    collapsed = s_mask & state.active_mask
    included: list[SubfileKey] = []
    lengths: list[float] = []
    for k in iter_ids(collapsed):
        key = (k, s_mask & ~(1 << (k - 1)))
        if is_live(state, key):
            included.append(key)
            lengths.append(records.length[cell(key)].item())
    payload_bits = max(lengths, default=0)
    payload = None
    if records.contents is not None and included:
        payload = np.zeros(int(payload_bits), dtype=np.uint8)
        for key in included:
            bits = records.contents[key]
            payload[: len(bits)] ^= bits
    s1_mask = s_mask & state.deadline_mask
    return TransmissionRecord(
        slot=state.slot,
        s=s_mask.bit_count(),
        chi=s1_mask.bit_count(),
        s1_mask=s1_mask,
        s2_mask=s_mask & ~state.deadline_mask,
        collapsed_mask=collapsed,
        included=tuple(included),
        payload_bits=payload_bits,
        payload=payload,
    )


def _emit_slot(state: DeliveryState, K: int) -> None:
    """Enumerate all (S1, S2) pairs for the current deadline set.

    Order is fixed for reproducible logs: s descending, chi ascending,
    then S1 and S2 lexicographic.
    """
    deadline_ids = sorted(iter_ids(state.deadline_mask))
    other_ids = sorted(iter_ids(((1 << K) - 1) & ~state.deadline_mask))
    u = len(deadline_ids)
    for s in range(K, 0, -1):
        lo = max(1, s + u - K)
        hi = min(s, u)
        for chi in range(lo, hi + 1):
            for s1 in combinations(deadline_ids, chi):
                m1 = mask_of(s1)
                for s2 in combinations(other_ids, s - chi):
                    m2 = mask_of(s2)
                    s_mask = m1 | m2
                    if should_transmit(m1, s_mask, state):
                        rec = build_coded_content(s_mask, state)
                        state.recovered.update(rec.included)
                    else:
                        rec = TransmissionRecord(
                            slot=state.slot,
                            s=s,
                            chi=chi,
                            s1_mask=m1,
                            s2_mask=m2,
                            collapsed_mask=s_mask & state.active_mask,
                            included=(),
                            payload_bits=0,
                        )
                    state.events.append(rec)


def _assert_deadline_met(state: DeliveryState) -> None:
    K = state.records.K
    for k in iter_ids(state.deadline_mask):
        for s_mask in range(1 << K):
            key = (k, s_mask & ~(1 << (k - 1)))
            if s_mask & (1 << (k - 1)) and is_live(state, key):
                raise DeadlineViolation(
                    f"F-AP {k} still misses subfile {key} after slot {state.slot}"
                )


def run_delivery(
    schedule: RequestSchedule, records: SubfileRecordTable, params: SystemParams
) -> DeliveryResult:
    """Execute the delivery phase over all B slots.

    Leaves `records` unchanged.  Returns every enumerated candidate (sent
    and skipped) plus the load report over actual transmissions.
    """
    if schedule.K != params.K or schedule.B != params.B:
        raise InvalidParams("schedule shape does not match system parameters")
    if records.K != params.K:
        raise InvalidParams("record table does not match system parameters")
    check_delivery_size(params.K)
    B, delta_b = params.B, params.delta_b
    state = DeliveryState(records=records)
    for b in range(1, B + 1):
        state.slot = b
        state.active_mask |= schedule.slot_mask(b)
        if delta_b < B and delta_b <= b < B:
            state.deadline_mask = schedule.slot_mask(b - delta_b + 1)
            _emit_slot(state, params.K)
            _assert_deadline_met(state)
            state.active_mask &= ~state.deadline_mask
        elif b == B:
            state.deadline_mask = state.active_mask
            _emit_slot(state, params.K)
            _assert_deadline_met(state)
            state.active_mask = 0
    report = measured_load(state.events, params.F)
    return DeliveryResult(events=state.events, report=report)


def measured_load(events: list[TransmissionRecord], F: int) -> LoadReport:
    """Sum transmitted payload lengths and normalize by the file size."""
    per_slot: dict[int, float] = {}
    total = 0.0
    count = 0
    for e in events:
        if not e.transmitted:
            continue
        per_slot[e.slot] = per_slot.get(e.slot, 0) + e.payload_bits
        total += e.payload_bits
        count += 1
    return LoadReport(
        total_bits=total,
        normalized_load=total / F,
        per_slot_bits=per_slot,
        transmission_count=count,
    )


def partition_into_subfiles(
    library: Library, caches: CacheLayout, schedule: RequestSchedule
) -> SubfileRecordTable:
    """Split every requested file into exclusivity classes (bit-exact mode).

    For requester k the classes over all exclusivity sets, together with
    the locally held class, partition the F bits of its file.
    """
    K, F = caches.K, library.F
    weights = 1 << np.arange(K, dtype=np.uint64)
    live = np.zeros((K, 1 << K), dtype=bool)
    length = np.zeros((K, 1 << K), dtype=np.int64)
    positions: dict[SubfileKey, np.ndarray] = {}
    contents: dict[SubfileKey, np.ndarray] = {}
    locally_held: dict[int, np.ndarray] = {}
    for k in range(1, K + 1):
        n = schedule.demand[k]
        who = caches.file_matrix(n)
        w = weights.copy()
        w[k - 1] = 0
        signature = (who * w[:, None]).sum(axis=0)
        own = who[k - 1]
        locally_held[k] = np.flatnonzero(own)
        foreign = np.flatnonzero(~own)
        foreign_sig = signature[foreign]
        for sig in np.unique(foreign_sig):
            pos = foreign[foreign_sig == sig]
            key = (k, int(sig))
            positions[key] = pos
            contents[key] = library.file(n)[pos]
            live[cell(key)] = True
            length[cell(key)] = len(pos)
    return SubfileRecordTable(
        K=K,
        F=F,
        demand=dict(schedule.demand),
        live=live,
        length=length,
        positions=positions,
        contents=contents,
        locally_held=locally_held,
    )
