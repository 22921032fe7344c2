"""Delivery phase: per-slot coded multicast construction and decoding.

Each slot's emissions enumerate candidate encoding sets S = S1 | S2 where
S1 is drawn from the F-APs whose deadline expires at the current slot and
S2 from the rest.  A candidate is transmitted only if some deadline F-AP
in S1 still misses its subfile for S; the subfiles of other active F-APs
in S ride along opportunistically and are marked recovered.  Record key
(k, S minus k) belongs to exactly one encoding set, S itself, so no
candidate's decision or payload depends on another candidate of the same
slot: a slot is one array step over all 2^K sets S.  With delta_b = B
nothing is sent before the last slot, where all requests are served
together.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    set_of,
    set_ranks,
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
class DeliveryResult:
    events: list[TransmissionRecord]
    report: LoadReport

    @property
    def log(self) -> list[TransmissionRecord]:
        return [e for e in self.events if e.transmitted]


def _candidates(deadline: int, ranks) -> np.ndarray:
    """The sets S that meet the deadline set, in the canonical order:
    s descending, chi ascending, then S1 and S2 lexicographic."""
    sets, size, rev = ranks
    cand = sets[(sets & deadline) != 0]
    s1 = cand & deadline
    # among sets of one size, lexicographic order of the sorted members is
    # descending order of the bit-reversed mask
    return cand[np.lexsort((-rev[cand ^ s1], -rev[s1], size[s1], -size[cand]))]


def _members(mask: int, K: int) -> np.ndarray:
    return ((mask >> np.arange(K)) & 1).astype(bool)


def should_transmit(live: np.ndarray, deadline: np.ndarray) -> np.ndarray:
    """Per candidate set, True when some deadline F-AP still needs its
    subfile for that set.

    `live[k-1, j]` says whether F-AP k still misses its subfile for the
    j-th candidate set; `deadline` flags the slot's deadline F-APs.
    """
    return live[deadline].any(axis=0)


def build_coded_content(
    sets: np.ndarray,
    included: np.ndarray,
    length: np.ndarray,
    contents: dict[SubfileKey, np.ndarray] | None,
) -> tuple[list[tuple[SubfileKey, ...]], list, list]:
    """Included keys, payload length and payload of each transmitted set.

    `included[k-1, j]` puts F-AP k's subfile for `sets[j]`, of
    `length[k-1, j]` bits, into that set's transmission.  A payload is as
    long as its longest operand and XORs the operands zero-padded to that
    length; it is None for analytic tables (`contents` None).
    """
    cols, rows = np.nonzero(included.T)  # by set, then by ascending F-AP
    keys = list(zip((rows + 1).tolist(), (sets[cols] & ~(1 << rows)).tolist()))
    cuts = np.cumsum(included.sum(axis=0)).tolist()
    grouped = [tuple(keys[i:j]) for i, j in zip([0, *cuts], cuts)]
    bits = np.where(included, length, 0).max(axis=0)
    if contents is None or not keys:
        return grouped, bits.tolist(), [None] * len(grouped)
    widths = bits.astype(np.int64)
    starts = np.cumsum(widths) - widths  # each payload's offset in one buffer
    sizes = length[rows, cols].astype(np.int64)
    operands = np.concatenate([contents[key] for key in keys])
    # bit i of an operand lands at offset + i of its set's payload
    index = np.repeat(starts[cols] - (np.cumsum(sizes) - sizes), sizes)
    index += np.arange(operands.size)
    buffer = np.zeros(int(widths.sum()), dtype=np.uint8)
    np.bitwise_xor.at(buffer, index, operands)
    ends = np.cumsum(widths).tolist()
    return grouped, bits.tolist(), [buffer[i:j] for i, j in zip(starts.tolist(), ends)]


def _assert_deadline_met(live: np.ndarray, deadline: np.ndarray, slot: int) -> None:
    rows = np.flatnonzero(deadline)
    missed = live[rows]
    if missed.any():
        i, S = np.argwhere(missed)[0].tolist()
        k = int(rows[i]) + 1
        key = (k, S & ~(1 << (k - 1)))
        raise DeadlineViolation(f"F-AP {k} still misses subfile {key} after slot {slot}")


def _emit_slot(
    slot: int,
    deadline: int,
    active: int,
    live: np.ndarray,
    length: np.ndarray,
    contents: dict[SubfileKey, np.ndarray] | None,
    ranks,
) -> list[TransmissionRecord]:
    """Decide, send and log every candidate of one slot, in canonical order.

    Clears the live flags of every subfile sent, then checks that no
    deadline F-AP misses anything.
    """
    K = live.shape[0]
    due = _members(deadline, K)
    sets = _candidates(deadline, ranks)
    cand_live = live[:, sets]
    included = cand_live & should_transmit(cand_live, due) & _members(active, K)[:, None]
    live[:, sets] = cand_live & ~included
    sent = included.any(axis=0)
    keys, bits, payloads = build_coded_content(
        sets[sent], included[:, sent], length[:, sets[sent]], contents
    )
    _, size, _ = ranks
    s1 = sets & deadline
    built = zip(keys, bits, payloads)
    events = []
    for s, chi, m1, m2, collapsed, is_sent in zip(
        size[sets].tolist(), size[s1].tolist(), s1.tolist(), (sets ^ s1).tolist(),
        (sets & active).tolist(), sent.tolist(),
    ):
        included_keys, payload_bits, payload = next(built) if is_sent else ((), 0, None)
        events.append(TransmissionRecord(
            slot, s, chi, m1, m2, collapsed, included_keys, payload_bits, payload
        ))
    _assert_deadline_met(live, due, slot)
    return events


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
    live = records.live.copy()
    ranks = set_ranks(params.K)
    events: list[TransmissionRecord] = []
    active = 0
    for b in range(1, B + 1):
        active |= schedule.slot_mask(b)
        if delta_b < B and delta_b <= b < B:
            deadline = schedule.slot_mask(b - delta_b + 1)
        elif b == B:
            deadline = active
        else:
            continue
        events.extend(_emit_slot(
            b, deadline, active, live, records.length, records.contents, ranks
        ))
        active &= ~deadline
    report = measured_load(events, params.F)
    return DeliveryResult(events=events, report=report)


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
