"""Reference engine: cube placement, per-class partition and
per-candidate delivery.

This is the straightforward form of the cache placement, the subfile
partition and the delivery phase.  Placement fills a (K, N, F) bool cube,
the bits of each exclusivity class are found by a full scan of the file,
and candidates are checked one at a time in the canonical order.  The
package's array kernels (`core.place_caches`,
`core.partition_into_subfiles`, `delivery.run_delivery`) must reproduce
it exactly; the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from fogcoded.core import (
    Library,
    RequestSchedule,
    SubfileRecordTable,
    SystemParams,
    check_delivery_size,
    iter_ids,
    mask_of,
)
from fogcoded.delivery import LoadReport, Transmissions
from fogcoded.errors import DeadlineViolation, InvalidParams

SubfileKey = tuple[int, int]  # (requester, exclusivity bitmask)


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
    def transmitted(self) -> bool:
        return bool(self.included)


@dataclass
class ReferenceResult:
    events: list[TransmissionRecord]
    report: LoadReport


def rows_of(events: Transmissions) -> list[TransmissionRecord]:
    """The engine's candidates as one record each, in the same order."""
    rows = []
    for i, (slot, S, s1, collapsed, included) in enumerate(zip(
        events.slot.tolist(), events.S.tolist(), events.s1.tolist(),
        events.collapsed.tolist(), events.included.tolist(),
    )):
        payload = None
        if included and events.buffer is not None:
            payload = events.buffer[events.start[i] : events.start[i] + events.bits[i]]
        rows.append(TransmissionRecord(
            slot=slot,
            s=S.bit_count(),
            chi=s1.bit_count(),
            s1_mask=s1,
            s2_mask=S ^ s1,
            collapsed_mask=collapsed,
            included=tuple((k, S & ~(1 << (k - 1))) for k in iter_ids(included)),
            payload_bits=events.bits[i].item() if included else 0,
            payload=payload,
        ))
    return rows


def classes_of(table: SubfileRecordTable) -> dict[SubfileKey, tuple[np.ndarray, np.ndarray]]:
    """A bit-exact table's entries as {(k, E): (positions, contents)}, by
    ascending k, then ascending E."""
    classes = {}
    for row, S in zip(*np.nonzero(table.live)):
        start, length = table.start[row, S], table.length[row, S]
        span = slice(start, start + length)
        classes[(int(row) + 1, int(S) & ~(1 << int(row)))] = (
            table.bit_positions[span], table.bit_values[span]
        )
    return classes


def cell(key: SubfileKey) -> tuple[int, int]:
    """Row and column of entry (k, E) in the table's arrays."""
    k, mask = key
    return k - 1, mask | (1 << (k - 1))


@dataclass
class ReferenceTable:
    """A record table with its bit-exact classes in dicts: positions and
    contents by (k, E), and the bits each requester caches itself by k."""

    K: int
    F: int
    demand: dict[int, int]
    live: np.ndarray
    length: np.ndarray
    positions: dict[SubfileKey, np.ndarray]
    contents: dict[SubfileKey, np.ndarray]
    locally_held: dict[int, np.ndarray]


@dataclass
class DeliveryState:
    """Mutable cursor of one delivery run."""

    records: SubfileRecordTable | ReferenceTable
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
    # payloads come from a reference table; analytic runs pass the package's
    if isinstance(records, ReferenceTable) and included:
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
    schedule: RequestSchedule,
    records: SubfileRecordTable | ReferenceTable,
    params: SystemParams,
) -> ReferenceResult:
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
    return ReferenceResult(events=state.events, report=report)


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


@dataclass(frozen=True)
class ReferenceCaches:
    """``cached[k-1, i, p]`` is True when F-AP k holds bit p of file
    ``files[i]``; the files ascend."""

    files: tuple[int, ...]
    cached: np.ndarray

    @property
    def K(self) -> int:
        return self.cached.shape[0]

    def file_matrix(self, n: int) -> np.ndarray:
        """(K, F) bool view of who caches each bit of file n."""
        return self.cached[:, self.files.index(n), :]


def place_caches(
    library: Library, params: SystemParams, seed: int, files
) -> ReferenceCaches:
    """Decentralized placement of the given files: every F-AP independently
    caches a uniform random subset of round(M*F/N) bit positions of each,
    file n from its own seed stream with spawn key (n,), F-AP 1 first."""
    quota = params.cached_bits_per_file
    files = tuple(sorted(set(files)))
    cached = np.zeros((params.K, len(files), params.F), dtype=bool)
    for i, n in enumerate(files):
        seq = np.random.SeedSequence(seed, spawn_key=(n,))
        rng = np.random.Generator(np.random.PCG64(seq))
        for k in range(params.K):
            picks = rng.choice(params.F, size=quota, replace=False)
            cached[k, i, picks] = True
    return ReferenceCaches(files, cached)


def partition_into_subfiles(
    library: Library, caches: ReferenceCaches, schedule: RequestSchedule
) -> ReferenceTable:
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
    return ReferenceTable(
        K=K,
        F=F,
        demand=dict(schedule.demand),
        live=live,
        length=length,
        positions=positions,
        contents=contents,
        locally_held=locally_held,
    )
