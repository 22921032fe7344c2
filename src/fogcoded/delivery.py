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

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Library,
    CacheLayout,
    RequestSchedule,
    SubfileRecordTable,
    SystemParams,
    check_delivery_size,
    set_ranks,
)
from .errors import DeadlineViolation, DecodeFailure, InvalidParams


@dataclass
class Transmissions:
    """Every enumerated (S1, S2) candidate of a run, sent or skipped, as
    one array entry per candidate in the canonical order.

    `S`, `s1` (its deadline part) and `collapsed` (its members still
    active) are F-AP masks; s, chi and S2 are `S.bit_count()`,
    `s1.bit_count()` and `S ^ s1`.  `included` masks the members whose
    subfile (k, S minus k) the candidate carries, 0 when it is skipped.
    `bits` is the payload length, the longest included subfile (operands
    are zero-padded to it), in the record table's length dtype; skipped
    candidates hold 0.  Bit-exact runs keep the payloads back to back in
    one uint8 `buffer`, candidate i's at `start[i]`; analytic runs carry
    none.
    """

    slot: np.ndarray
    S: np.ndarray
    s1: np.ndarray
    collapsed: np.ndarray
    included: np.ndarray
    bits: np.ndarray
    buffer: np.ndarray | None = None
    start: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.buffer is not None:
            self.start = np.cumsum(self.bits) - self.bits

    def __len__(self) -> int:
        return len(self.S)


@dataclass
class LoadReport:
    total_bits: float
    normalized_load: float
    per_slot_bits: dict[int, float]
    transmission_count: int


@dataclass
class DeliveryResult:
    events: Transmissions
    report: LoadReport


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


def _spans(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The indices start[i] .. start[i] + length[i] - 1 of every span, the
    spans back to back, as one int64 array: unit steps with a jump at the
    first index of each span, summed in place."""
    keep = length > 0
    start, length = start[keep], length[keep]
    end = length.cumsum()
    index = np.ones(end[-1] if end.size else 0, dtype=np.int64)
    if index.size:
        index[0] = start[0]
        index[end[:-1]] = start[1:] - start[:-1] - length[:-1] + 1
        index.cumsum(out=index)
    return index


def build_coded_content(
    sets: np.ndarray, included: np.ndarray, records: SubfileRecordTable
) -> tuple[np.ndarray, np.ndarray | None]:
    """Payload length of each set's transmission and, for bit-exact tables,
    the payloads back to back in one buffer.

    `included[k-1, j]` puts F-AP k's subfile for `sets[j]` into that set's
    transmission; a set with none has length 0.  A payload is as long as
    its longest operand and XORs the operands zero-padded to that length.
    Analytic tables have no payloads: the buffer is None.
    """
    length = records.length[:, sets]
    bits = np.where(included, length, 0).max(axis=0)
    if records.bit_values is None:
        return bits, None
    buffer = np.zeros(int(bits.sum()), dtype=np.uint8)
    rows, cols = np.nonzero(included)
    sizes = length[rows, cols]
    # the operand bits are gathered before their payload offsets are built,
    # so one per-bit index is alive at a time
    operands = records.bit_values[_spans(records.start[rows, sets[cols]], sizes)]
    # bit i of an operand lands at offset + i of its set's payload
    np.bitwise_xor.at(buffer, _spans((np.cumsum(bits) - bits)[cols], sizes), operands)
    return bits, buffer


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
    records: SubfileRecordTable,
    ranks,
) -> tuple[tuple[np.ndarray, ...], np.ndarray | None]:
    """Decide and send every candidate of one slot, in canonical order:
    the slot's Transmissions columns and payload buffer.

    Clears the live flags of every subfile sent, then checks that no
    deadline F-AP misses anything.
    """
    K = live.shape[0]
    due = _members(deadline, K)
    sets = _candidates(deadline, ranks)
    cand_live = live[:, sets]
    included = cand_live & should_transmit(cand_live, due) & _members(active, K)[:, None]
    live[:, sets] = cand_live & ~included
    bits, buffer = build_coded_content(sets, included, records)
    _assert_deadline_met(live, due, slot)
    columns = (
        np.full(len(sets), slot), sets, sets & deadline, sets & active,
        (1 << np.arange(K)) @ included, bits,
    )
    return columns, buffer


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
    slots = []
    active = 0
    for b in range(1, B + 1):
        active |= schedule.slot_mask(b)
        if delta_b < B and delta_b <= b < B:
            deadline = schedule.slot_mask(b - delta_b + 1)
        elif b == B:
            deadline = active
        else:
            continue
        slots.append(_emit_slot(b, deadline, active, live, records, ranks))
        active &= ~deadline
    columns, buffers = zip(*slots)
    # each per-slot piece is released once its concatenation exists
    del slots
    buffer = None if records.bit_values is None else np.concatenate(buffers)
    del buffers
    events = Transmissions(*map(np.concatenate, zip(*columns)), buffer=buffer)
    del columns
    return DeliveryResult(events=events, report=measured_load(events, params.F))


def measured_load(events: Transmissions, F: int) -> LoadReport:
    """Sum transmitted payload lengths in canonical order and normalize by
    the file size.

    The sent rows come slot by slot, and cumsum adds in order, so each
    slot's sum and the total round as a loop over the rows would.
    """
    sent = events.included != 0
    slots, bits = events.slot[sent], events.bits[sent]
    cuts = np.flatnonzero(np.diff(slots)) + 1
    per_slot = {
        int(in_slot[0]): np.cumsum(block)[-1].item()
        for in_slot, block in zip(np.split(slots, cuts), np.split(bits, cuts))
        if block.size
    }
    total = np.cumsum(bits, dtype=np.float64)[-1].item() if bits.size else 0.0
    return LoadReport(
        total_bits=total,
        normalized_load=total / F,
        per_slot_bits=per_slot,
        transmission_count=int(sent.sum()),
    )


def decode_fap(
    k: int,
    events: Transmissions,
    library: Library,
    caches: CacheLayout,
    records: SubfileRecordTable,
    upto_slot: int | None = None,
) -> np.ndarray:
    """Reassemble F-AP k's requested file from its cache and the log.

    For every transmission whose XOR includes k's subfile, the other
    operands are reconstructed from k's cache (each one is cached at k by
    construction), XORed out, and the recovered class bits are placed at
    their original positions.  All of k's transmissions are handled as
    one array step, the operands back to back in canonical order.  Raises
    DecodeFailure, naming the first operand in that order, if an operand
    holds a bit k does not cache, or if any bit of the file is neither
    cached locally nor recoverable from the log.  Raises InvalidParams,
    naming the file, if `caches` did not place every requested file, and
    if `library` and `caches` do not hold the same files.
    """
    if records.bit_values is None:
        raise InvalidParams("decoding needs a bit-exact record table")
    kb = 1 << (k - 1)
    row = caches.rows([records.demand[i] for i in range(1, records.K + 1)])
    if library.files != caches.files:
        raise InvalidParams(
            f"library files {library.files} differ from placed files {caches.files}"
        )
    have = (caches.signature[row[k - 1]] & kb) != 0
    out = np.where(have, library.bits[row[k - 1]], 0)
    carries = (events.included & kb) != 0
    if upto_slot is not None:
        carries &= events.slot <= upto_slot
    S, bits = events.S[carries], events.bits[carries]
    acc = events.buffer[_spans(events.start[carries], bits)]
    acc_start = np.cumsum(bits) - bits
    # the other operands (j, S minus j), by transmission, then ascending j
    others = ((events.included[carries] & ~kb)[:, None] >> np.arange(records.K)) & 1
    rows, j = np.nonzero(others)
    sizes = records.length[j, S[rows]]
    # each operand bit p of file d_j, as one flat index into the (D, F)
    # signature and library arrays, which hold the same files row by row
    index = np.repeat(row[j] * records.F, sizes)
    index += records.bit_positions[_spans(records.start[j, S[rows]], sizes)]
    # every other operand must live in k's own cache of file d_j
    uncached = (np.take(caches.signature, index) & kb) == 0
    if uncached.any():
        i = np.searchsorted(np.cumsum(sizes), np.argmax(uncached), side="right")
        other = (int(j[i]) + 1, int(S[rows[i]]) & ~(1 << int(j[i])))
        raise DecodeFailure(f"operand {other} not reconstructible at F-AP {k}")
    operands = np.take(library.bits, index)
    del index  # before the payload offsets are built: one per-bit index at a time
    np.bitwise_xor.at(acc, _spans(acc_start[rows], sizes), operands)
    own = records.length[k - 1, S]
    pos = records.bit_positions[_spans(records.start[k - 1, S], own)]
    out[pos] = acc[_spans(acc_start, own)]
    have[pos] = True
    if not have.all():
        missing = int((~have).sum())
        raise DecodeFailure(f"F-AP {k} is missing {missing} bits after decoding")
    return out
