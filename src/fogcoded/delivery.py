"""Delivery phase: per-slot coded multicast construction and decoding.

Each slot's emissions enumerate candidate encoding sets S = S1 | S2 where
S1 is drawn from the F-APs whose deadline expires at the current slot and
S2 from the rest.  A candidate is transmitted only if some deadline F-AP
in S1 still misses its subfile for S; the subfiles of other active F-APs
in S ride along opportunistically and are marked recovered.  Record key
(k, S minus k) belongs to exactly one encoding set, S itself, so no
candidate's decision or payload depends on another candidate of the same
slot.  A run is two passes.  The first decides every slot on one member
mask per set of the F-APs that still miss their subfile for it; the
second lays the payloads out once: every entry has been sent exactly
once, so each requester's table row, its file's bits read from the
library at the row's positions in order, XORs straight into the payloads
of the sets that carried it.  With delta_b = B nothing is
sent before the last slot, where all requests are served together.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    `S` is the F-AP mask of the candidate's set and `included` masks the
    members whose subfile (k, S minus k) it carries, 0 when it is skipped;
    every entry of the record table is carried by exactly one candidate.
    The log stores only what the run decides: S1 (the deadline part of S)
    and the collapsed set (its members still active) are S & due[slot]
    and S & active[slot] from `slot_masks`, and s, chi and S2 are
    `S.bit_count()`, `S1.bit_count()` and `S ^ S1`.  Both masks take the
    smallest unsigned dtype that holds K bits, as cache signatures do,
    and `slot` the smallest that holds B.  `bits` is the payload length,
    the longest included subfile (operands are zero-padded to it), in the
    record table's length dtype; skipped candidates hold 0.  Bit-exact
    runs keep the payloads back to back in one uint8 `buffer`, in
    candidate order, so candidate i's starts where the payloads before it
    end; they total at most the table's K * F bits.  Analytic runs carry
    none.
    """

    slot: np.ndarray
    S: np.ndarray
    included: np.ndarray
    bits: np.ndarray
    buffer: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.S)


@dataclass
class LoadReport:
    total_bits: float
    normalized_load: float
    transmission_count: int


@dataclass
class DeliveryResult:
    events: Transmissions
    report: LoadReport


def _candidates(deadline: int, ranks) -> np.ndarray:
    """The sets S that meet the deadline set, in the canonical order:
    s descending, chi ascending, then S1 and S2 lexicographic."""
    sets, size, rev = ranks
    K, full = len(sets).bit_length() - 1, len(sets) - 1
    cand = sets[(sets & deadline) != 0]
    s1 = cand & deadline
    # among sets of one size, lexicographic order of the sorted members is
    # descending order of the bit-reversed mask; the four fields, K - s and
    # chi in 5 bits each and the two complemented reversals in K bits each,
    # fit one int64 key, unique per set
    key = (K - size[cand]) << (2 * K + 5)
    key |= size[s1] << (2 * K)
    key |= (full - rev[s1]) << K
    key |= full - rev[cand ^ s1]
    # stable although the keys are unique: numpy's default int64 argsort
    # maps another 0.13 MB of library code (peak RSS of `verify`)
    return cand[np.argsort(key, kind="stable")]


def should_transmit(missing: np.ndarray, deadline: int) -> np.ndarray:
    """Per candidate set, True when some deadline F-AP still needs its
    subfile for that set.

    `missing[j]` masks the F-APs that still miss their subfile for the
    j-th candidate set; `deadline` masks the slot's deadline F-APs.
    """
    return (missing & deadline) != 0


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


def _carrying(included: np.ndarray, k: int) -> np.ndarray:
    """The indexes of the masks in `included` that hold bit k, in order;
    tested as bools first, which nonzero scans several times faster."""
    return np.flatnonzero((included & (1 << k)) != 0)


def build_coded_content(
    sets: np.ndarray, included: np.ndarray, records: SubfileRecordTable
) -> tuple[np.ndarray, np.ndarray | None]:
    """Payload length of each set's transmission and, for bit-exact tables,
    the payloads back to back in one buffer.

    `included[j]` masks the F-APs whose subfile for `sets[j]` rides in that
    set's transmission; every entry of the table (`entry_masks`) must be
    included exactly once.  A set with none has length 0.  A payload is as
    long as its longest operand and XORs the operands zero-padded to that
    length.
    Analytic tables have no payloads: the buffer is None.  A bit-exact
    table's operands are read from the library it carries, one row at a
    time: requester k's file at `row_positions(k)`.  Every entry of the
    row is carried, so the whole row is laid out at its carriers' payload
    starts; columns without an entry have length 0 and take no bits.  The
    payloads total at most K * F bits, which the partition keeps below
    2^31, so their int32 starts do not overflow.  Each pass finds a row's
    carriers anew, so one row's index is alive at a time.
    """
    K = records.K
    bits = np.zeros(len(sets), dtype=records.length.dtype)
    for k in range(K):
        # the candidates carrying row k, at most one per column
        at = _carrying(included, k)
        bits[at] = np.maximum(bits[at], records.length[k, sets[at]])
    if records.caches is None:
        return bits, None
    start = np.cumsum(bits, dtype=bits.dtype) - bits
    buffer = np.zeros(int(bits.sum()), dtype=np.uint8)
    offset = np.zeros(1 << K, dtype=np.int64)
    for k, length in enumerate(records.length):
        at = _carrying(included, k)
        if not at.size:
            continue
        # row k in table order: ascending columns, its bits back to back;
        # the targets of one row are disjoint
        offset[sets[at]] = start[at]
        # the operands before the targets: the positions are freed before
        # _spans builds the targets' index
        operands = records.library.file(records.demand[k + 1])[records.row_positions(k + 1)]
        buffer[_spans(offset, length)] ^= operands
    return bits, buffer


def _assert_deadline_met(sets: np.ndarray, missing: np.ndarray, deadline: int, slot: int) -> None:
    """Raise DeadlineViolation, naming the smallest k, then the smallest S,
    if a deadline F-AP still misses a subfile in a candidate set: every
    entry of a deadline F-AP lies in one."""
    missed = missing & deadline
    if missed.any():
        union = int(np.bitwise_or.reduce(missed))
        k = (union & -union).bit_length()
        S = int(sets[(missed >> (k - 1)) & 1 != 0].min())
        key = (k, S & ~(1 << (k - 1)))
        raise DeadlineViolation(f"F-AP {k} still misses subfile {key} after slot {slot}")


def slot_masks(schedule: RequestSchedule, delta_b: int) -> tuple[list[int], list[int]]:
    """Per slot b, at index b (index 0 holds 0): `due`, the mask of the
    F-APs whose deadline falls at b, and `active`, the mask of those that
    have requested by b and whose deadline is not before b."""
    due, active = [0] * (schedule.B + 1), [0]
    for k in range(1, schedule.K + 1):
        due[schedule.deadline_slot(k, delta_b)] |= 1 << (k - 1)
    for b in range(1, schedule.B + 1):
        active.append((active[-1] & ~due[b - 1]) | schedule.slot_mask(b))
    return due, active


def _decide(
    schedule: RequestSchedule, records: SubfileRecordTable, params: SystemParams
) -> tuple[np.ndarray, ...]:
    """The first pass: every slot decided on one member mask per set, as
    the columns slot, S and included of every candidate in the canonical
    order.  The masks take the smallest unsigned dtype that holds K bits
    and the slots the smallest that holds B; the pass's own scratch is
    freed before the payloads are built.  The member masks start as the
    table's `entry_masks` and lose each entry as it is sent; the slots'
    deadline and active masks come from `slot_masks`."""
    unsent = records.entry_masks()
    masks, slot_dtype = unsent.dtype, np.min_scalar_type(params.B)
    ranks = set_ranks(params.K)
    due, active = slot_masks(schedule, params.delta_b)
    columns = []
    for b, (deadline, active_b) in enumerate(zip(due, active)):
        if not deadline:
            continue
        sets = _candidates(deadline, ranks).astype(masks)
        missing = unsent[sets]
        included = np.where(should_transmit(missing, deadline), missing & active_b, 0)
        missing ^= included
        unsent[sets] = missing
        _assert_deadline_met(sets, missing, deadline, b)
        columns.append((np.full(len(sets), b, dtype=slot_dtype), sets, included))
    return tuple(map(np.concatenate, zip(*columns)))


def run_delivery(
    schedule: RequestSchedule, records: SubfileRecordTable, params: SystemParams
) -> DeliveryResult:
    """Execute the delivery phase over all B slots: decide every slot on
    the member masks (`_decide`), then build every payload with
    `build_coded_content`.

    Either kind of table is delivered the same way; a bit-exact one reads
    its operands from the library it carries.  Leaves `records`
    unchanged.  Returns every enumerated candidate (sent and skipped) plus
    the load report over actual transmissions; the log keeps each
    candidate's slot, S, included members and payload, and
    `slot_masks(schedule, params.delta_b)` gives its S1 and collapsed set.
    """
    if schedule.K != params.K or schedule.B != params.B:
        raise InvalidParams("schedule shape does not match system parameters")
    if records.K != params.K:
        raise InvalidParams("record table does not match system parameters")
    check_delivery_size(params.K)
    slot, S, included = _decide(schedule, records, params)
    bits, buffer = build_coded_content(S, included, records)
    events = Transmissions(slot, S, included, bits, buffer)
    return DeliveryResult(events=events, report=measured_load(events, params.F))


def measured_load(events: Transmissions, F: int) -> LoadReport:
    """Sum transmitted payload lengths in canonical order and normalize by
    the file size.

    cumsum adds in order, so the total rounds as a loop over the sent
    rows would.  Per-slot loads are read from the log:
    `np.bincount(events.slot[sent], weights=events.bits[sent])`.
    """
    sent = events.included != 0
    bits = events.bits[sent]
    total = np.cumsum(bits, dtype=np.float64)[-1].item() if bits.size else 0.0
    return LoadReport(
        total_bits=total,
        normalized_load=total / F,
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

    The payloads of the transmissions whose XOR includes k's subfile are
    copied back to back into `acc`.  Each carries one entry of k's row,
    so a column S has at most one such carrier, and `offset[S]` is where
    its copy starts.  Every entry's bits are then found by the one layout
    rule of `build_coded_content`, with only some columns carried: for
    table row j and the bool mask `carried` of the columns whose carrier
    holds an entry of row j, the entries' positions in file d_j are
    `row_positions(j + 1)[np.repeat(carried, length)]` and their bits in
    `acc` are `_spans(offset, np.where(carried, length, 0))`.  The other
    rows' operands are read from k's cache and XORed out, one row at a
    time; then k's own entries are read by the same two lines and placed
    over the bits k's cache holds.  The log stores no offsets: a payload
    starts where the ones before it end.
    Decoding is the receiver's view: operands are checked against the
    `caches` given and files read from the `library` given, which may
    hold other files too, not from the table's.
    Raises DecodeFailure, naming the first operand in canonical order (by
    transmission, then ascending j), if an operand holds a bit k does not
    cache, or if any bit of the file is neither cached locally nor
    recoverable from the log.  Raises InvalidParams: naming k, before
    reading anything else, for a k that is not a Python or numpy integer
    in 1..K; before any work, for an analytic table or log, a log that
    names F-APs beyond K, or caches or a library of another K or F than
    the table's; and naming the file if `caches` did not place or
    `library` did not draw every requested file.
    """
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= records.K):
        raise InvalidParams(f"F-AP k must be an integer in [1, K={records.K}], got k={k!r}")
    if records.caches is None or events.buffer is None:
        raise InvalidParams("decoding needs a bit-exact record table and log")
    K, k, demand = records.K, int(k), records.demand
    if int(np.bitwise_or.reduce(events.S, initial=0)) >> K:
        raise InvalidParams(f"the log's sets name F-APs beyond K={K}")
    records.check_caches(caches)
    if library.F != records.library.F:
        raise InvalidParams(f"library of F = {library.F}, the table needs F = {records.library.F}")
    kb, row = 1 << (k - 1), caches.rows([demand[i] for i in range(1, K + 1)])
    mine = caches.signature[row[k - 1]]  # the receiver's cache of its own file
    out = np.where(mine & kb, library.file(demand[k]), 0)
    carries = _carrying(events.included, k - 1)
    if upto_slot is not None:
        carries = carries[events.slot[carries] <= upto_slot]
    S, bits = events.S[carries], events.bits[carries]
    acc = events.buffer[_spans(np.cumsum(events.bits, dtype=bits.dtype)[carries] - bits, bits)]
    # per column, the entries its carrier holds and where its copy starts
    held = np.zeros(1 << K, dtype=events.included.dtype)
    held[S] = events.included[carries]
    offset = np.zeros(1 << K, dtype=np.int64)
    offset[S] = np.cumsum(bits) - bits
    bad = []
    for j, length in enumerate(records.length):
        # the columns whose carrier holds an entry of row j next to k's;
        # each holds one, so the targets of one row are disjoint
        carried = (held & (1 << j)) != 0
        if j == k - 1 or not carried.any():
            continue
        # the row's positions picked by a mask, before the targets' index
        pos = records.row_positions(j + 1)[np.repeat(carried, length)]
        # every other operand must live in k's own cache of file d_j
        uncached = (caches.signature[row[j], pos] & kb) == 0
        if uncached.any():
            # the columns of the row's uncached operands, named by the
            # first of k's carriers to hold one (a column has at most
            # one); the least over the rows is the first
            column = np.repeat(np.flatnonzero(carried), length[carried])[uncached]
            bad.append((int(np.isin(S, column).argmax()), j))
        else:
            acc[_spans(offset, np.where(carried, length, 0))] ^= library.file(demand[j + 1])[pos]
        del pos, uncached  # one row's per-bit arrays alive at a time
    if bad:
        i, j = min(bad)
        other = (j + 1, int(S[i]) & ~(1 << j))
        raise DecodeFailure(f"operand {other} not reconstructible at F-AP {k}")
    # k's own entries by the same rule, over the columns that carry them;
    # the values are read before the positions are worked out, so one
    # int64 index is alive at a time
    length, carried = records.length[k - 1], (held & kb) != 0
    values = acc[_spans(offset, np.where(carried, length, 0))]
    pos = records.row_positions(k)[np.repeat(carried, length)]
    out[pos] = values
    # complete when every bit the receiver's cache lacks was decoded
    missing = np.count_nonzero((mine & kb) == 0) - np.count_nonzero((mine[pos] & kb) == 0)
    if missing:
        raise DecodeFailure(f"F-AP {k} is missing {missing} bits after decoding")
    return out
