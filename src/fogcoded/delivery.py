"""Delivery phase: per-slot coded multicast construction and decoding.

Each slot's emissions enumerate candidate encoding sets S = S1 | S2 where
S1 is drawn from the F-APs whose deadline expires at the current slot and
S2 from the rest.  A candidate is transmitted only if some deadline F-AP
in S1 still misses its subfile for S; the subfiles of other active F-APs
in S ride along opportunistically and are marked recovered immediately,
so later candidates in the same run see the updated records.  With
delta_b = B nothing is sent before the last slot, where all requests are
served together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .core import (
    FapSet,
    Library,
    CacheLayout,
    RequestSchedule,
    SubfileKey,
    SubfileRecordTable,
    SystemParams,
    check_delivery_size,
    iter_ids,
    mask_of,
    set_of,
)
from .errors import DeadlineViolation, DecodeFailure, InvalidParams


@dataclass(frozen=True)
class TransmissionRecord:
    """One enumerated (S1, S2) candidate, sent or skipped.

    payload_bits is the length of the longest included subfile (operands
    are zero-padded to it); skipped candidates carry no payload.
    """

    slot: int
    s: int
    chi: int
    s1_mask: int
    s2_mask: int
    collapsed_mask: int
    included: tuple[SubfileKey, ...]
    payload_bits: float
    payload: np.ndarray | None = None

    @property
    def encoding_mask(self) -> int:
        return self.s1_mask | self.s2_mask

    @property
    def transmitted(self) -> bool:
        return bool(self.included)

    @property
    def collapsed_set(self) -> FapSet:
        return set_of(self.collapsed_mask)


@dataclass
class LoadReport:
    total_bits: float
    normalized_load: float
    per_slot_bits: dict[int, float]
    transmission_count: int


@dataclass
class DeliveryState:
    """Mutable cursor of one delivery run."""

    records: SubfileRecordTable
    active_mask: int = 0
    deadline_mask: int = 0
    slot: int = 0
    events: list[TransmissionRecord] = field(default_factory=list)


@dataclass
class DeliveryResult:
    events: list[TransmissionRecord]
    report: LoadReport
    records: SubfileRecordTable

    @property
    def log(self) -> list[TransmissionRecord]:
        return [e for e in self.events if e.transmitted]


def should_transmit(s1_mask: int, s_mask: int, state: DeliveryState) -> bool:
    """True when some deadline F-AP in S1 still needs its subfile for S."""
    records = state.records
    for k in iter_ids(s1_mask):
        if records.is_live((k, s_mask & ~(1 << (k - 1)))):
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
        if records.is_live(key):
            included.append(key)
            lengths.append(records.raw_length(key))
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
                        for key in rec.included:
                            state.records.mark_recovered(key)
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
    records = state.records
    for k in iter_ids(state.deadline_mask):
        for key in records.keys_for(k):
            if records.is_live(key):
                raise DeadlineViolation(
                    f"F-AP {k} still misses subfile {key} after slot {state.slot}"
                )


def run_delivery(
    schedule: RequestSchedule, records: SubfileRecordTable, params: SystemParams
) -> DeliveryResult:
    """Execute the delivery phase over all B slots.

    Mutates the recovered flags of `records`.  Returns every enumerated
    candidate (sent and skipped) plus the load report over actual
    transmissions.
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
    return DeliveryResult(events=state.events, report=report, records=records)


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


def decode_fap(
    k: int,
    events: list[TransmissionRecord],
    library: Library,
    caches: CacheLayout,
    records: SubfileRecordTable,
    upto_slot: int | None = None,
) -> np.ndarray:
    """Reassemble F-AP k's requested file from its cache and the log.

    For every transmission whose XOR includes k's subfile, the other
    operands are reconstructed from k's cache (each one is cached at k by
    construction), XORed out, and the recovered class bits are placed at
    their original positions.  Raises DecodeFailure if any class of the
    file is neither cached locally nor recoverable from the log.
    """
    if records.positions is None:
        raise InvalidParams("decoding needs a bit-exact record table")
    n = records.demand[k]
    wanted = library.file(n)
    out = np.zeros(records.F, dtype=np.uint8)
    have = np.zeros(records.F, dtype=bool)
    local = records.locally_held[k]
    out[local] = wanted[local]
    have[local] = True
    kb = 1 << (k - 1)
    for e in events:
        if not e.transmitted or not (e.collapsed_mask & kb):
            continue
        if upto_slot is not None and e.slot > upto_slot:
            continue
        key = (k, e.encoding_mask & ~kb)
        if key not in e.included:
            continue
        acc = e.payload.copy()
        for other in e.included:
            if other == key:
                continue
            j, j_mask = other
            j_pos = records.positions[other]
            # every other operand must live in k's own cache of file d_j
            if not (j_mask & kb) or not caches.cached[k - 1, records.demand[j] - 1, j_pos].all():
                raise DecodeFailure(
                    f"operand {other} not reconstructible at F-AP {k}"
                )
            operand = library.file(records.demand[j])[j_pos]
            acc[: len(operand)] ^= operand
        pos = records.positions[key]
        out[pos] = acc[: len(pos)]
        have[pos] = True
    if not have.all():
        missing = int((~have).sum())
        raise DecodeFailure(f"F-AP {k} is missing {missing} bits after decoding")
    return out
