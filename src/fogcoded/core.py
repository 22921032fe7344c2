"""System model: file library, decentralized cache placement, subfile records.

Fog access points (F-APs) are numbered 1..K.  Sets of F-APs appear in two
forms: ``frozenset[int]`` at API boundaries and integer bitmasks (bit k-1
set for F-AP k) inside the delivery hot path.  A subfile record (k, E)
pairs a requester k with an exclusivity mask E, which names the other
F-APs that cache exactly those bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import InvalidParams, TooLarge

FapSet = frozenset[int]

MAX_DELIVERY_K = 16


def check_delivery_size(K: int) -> None:
    """Raise TooLarge when K F-APs exceed what the engine can enumerate."""
    if K > MAX_DELIVERY_K:
        raise TooLarge(
            f"delivery enumerates 2^K candidate sets per slot; "
            f"K must be <= {MAX_DELIVERY_K}, got {K}"
        )


def mask_of(ids: Iterable[int]) -> int:
    m = 0
    for k in ids:
        m |= 1 << (k - 1)
    return m


def iter_ids(mask: int) -> Iterator[int]:
    """Yield F-AP ids in a mask in ascending order."""
    k = 1
    while mask:
        if mask & 1:
            yield k
        mask >>= 1
        k += 1


def set_ranks(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All 2^K sets as masks, their sizes and their bit-reversed masks."""
    sets = np.arange(1 << K, dtype=np.int64)
    size = np.zeros_like(sets)
    rev = np.zeros_like(sets)
    for i in range(K):
        bit = (sets >> i) & 1
        size += bit
        rev |= bit << (K - 1 - i)
    return sets, size, rev


@dataclass(frozen=True)
class SystemParams:
    """Global system parameters.

    K      number of fog access points
    N      number of library files, N >= K
    M      normalized per-F-AP cache size in file units, 0 < M < N
    F      file size in bits
    B      number of time slots covering the request interval
    delta_b  maximum request delay in slots: a request arriving in slot b
             must be served by the end of slot b + delta_b - 1
    """

    K: int
    N: int
    M: float
    F: int
    B: int
    delta_b: int

    def __post_init__(self) -> None:
        if self.K < 1:
            raise InvalidParams(f"K must be >= 1, got {self.K}")
        if self.N < self.K:
            raise InvalidParams(f"need N >= K, got N={self.N}, K={self.K}")
        if not (0 < self.M < self.N):
            raise InvalidParams(f"need 0 < M < N, got M={self.M}, N={self.N}")
        if self.F < 1:
            raise InvalidParams(f"F must be >= 1, got {self.F}")
        if self.B < 2:
            raise InvalidParams(f"B must be >= 2, got {self.B}")
        if not (1 <= self.delta_b <= self.B):
            raise InvalidParams(
                f"delta_b must be in [1, B], got delta_b={self.delta_b}, B={self.B}"
            )

    @property
    def cache_ratio(self) -> float:
        return self.M / self.N

    @property
    def cached_bits_per_file(self) -> int:
        """Bits of each file held by one cache, rounded half-up."""
        return int(math.floor(self.M * self.F / self.N + 0.5))

    def rounding_error(self) -> float:
        """Relative gap |rounded - exact| / F of the per-file cache quota."""
        return abs(self.cached_bits_per_file - self.M * self.F / self.N) / self.F

    def subfile_fraction(self, s: int) -> float:
        """Expected fraction f(s) of a file's bits in one subfile of type s.

        A type-s subfile is requested by one F-AP and cached at exactly s-1
        others, so each bit lands in it with probability
        (M/N)^(s-1) * (1 - M/N)^(K-(s-1)).
        """
        if not (1 <= s <= self.K):
            raise InvalidParams(f"type s must be in [1, K], got {s}")
        p = self.cache_ratio
        return (p ** (s - 1)) * ((1.0 - p) ** (self.K - (s - 1)))


@dataclass(frozen=True)
class Library:
    """N files of F bits each, stored as a (N, F) uint8 array of 0/1."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        if self.bits.ndim != 2:
            raise InvalidParams("library bits must be a 2-D array")

    @property
    def N(self) -> int:
        return self.bits.shape[0]

    @property
    def F(self) -> int:
        return self.bits.shape[1]

    def file(self, n: int) -> np.ndarray:
        """Bits of file n (1-based)."""
        return self.bits[n - 1]


def generate_library(params: SystemParams, seed: int) -> Library:
    """Draw N uniformly random files of F bits; deterministic given seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = rng.integers(0, 2, size=(params.N, params.F), dtype=np.uint8)
    return Library(bits)


@dataclass(frozen=True)
class CacheLayout:
    """Which F-APs cache each bit of the placed files, one signature per bit.

    ``files`` lists the placed file ids in ascending order, and
    ``signature[i, p]`` describes bit p of file ``files[i]``: bit k-1 is
    set when F-AP k holds it.  The dtype is the smallest unsigned one that
    holds K bits.  ``rows`` maps file ids to signature rows.
    """

    K: int
    files: tuple[int, ...]
    signature: np.ndarray

    def rows(self, files) -> np.ndarray:
        """The signature row of each file id; raises InvalidParams naming
        the first file that was not placed."""
        ids = np.asarray(files, dtype=np.int64)
        row = np.searchsorted(self.files, ids)
        # a miss lands on a neighbour's row or past the end: file 0 never
        # matches, since ids start at 1
        found = np.append(self.files, 0)[row] == ids
        if not found.all():
            raise InvalidParams(f"file {ids[np.argmin(found)]} was not placed")
        return row


def place_caches(
    library: Library, params: SystemParams, seed: int, files: Iterable[int]
) -> CacheLayout:
    """Decentralized placement of the given files: every F-AP independently
    caches a uniform random subset of round(M*F/N) bit positions of each.

    File n draws from its own seed stream, spawned from ``seed`` with key
    (n,), one pick per F-AP in order 1..K; so its bits depend neither on N
    nor on which other files are placed.  Files never requested need no
    placement: delivery and decoding read only the requested ones.
    """
    quota = params.cached_bits_per_file
    if not (0 <= quota <= params.F):
        raise InvalidParams(f"per-file cache quota {quota} outside [0, F]")
    check_delivery_size(params.K)
    ids = list(files)
    for n in ids:
        if not (isinstance(n, (int, np.integer)) and 1 <= n <= params.N):
            raise InvalidParams(f"file id {n} is not an integer in [1, N={params.N}]")
    placed = sorted(set(map(int, ids)))
    if len(placed) != len(ids):
        raise InvalidParams(f"file ids repeat: {ids}")
    dtype = np.min_scalar_type((1 << params.K) - 1)
    signature = np.zeros((len(placed), params.F), dtype=dtype)
    # one F-AP's picks of one file, ORed into the file's signatures whole:
    # faster than a fancy-indexed |=, which reads and writes every pick
    picked = np.zeros(params.F, dtype=dtype)
    for row, n in zip(signature, placed):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(n,)))
        )
        for k in range(params.K):
            picked.fill(0)
            picked[rng.choice(params.F, size=quota, replace=False)] = 1 << k
            row |= picked
    return CacheLayout(params.K, tuple(placed), signature)


@dataclass(frozen=True)
class RequestSchedule:
    """Per-slot requester sets plus the demand map.

    slots[b-1] is the set of F-APs whose request arrives during slot b.
    Every F-AP requests exactly once, every slot is nonempty, and the
    slots are pairwise disjoint and cover {1..K}.
    """

    slots: tuple[FapSet, ...]
    demand: Mapping[int, int]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for b, u in enumerate(self.slots, start=1):
            if not u:
                raise InvalidParams(f"slot {b} has no requesters")
            if seen & u:
                raise InvalidParams(f"slot {b} repeats requesters {sorted(seen & u)}")
            seen |= u
        if seen != set(range(1, len(seen) + 1)):
            raise InvalidParams("slots must cover exactly {1..K}")
        for k in seen:
            if k not in self.demand:
                raise InvalidParams(f"no demand recorded for F-AP {k}")

    @property
    def B(self) -> int:
        return len(self.slots)

    @property
    def K(self) -> int:
        return sum(len(u) for u in self.slots)

    def requesters(self, b: int) -> FapSet:
        return self.slots[b - 1]

    def slot_mask(self, b: int) -> int:
        return mask_of(self.slots[b - 1])

    def slot_of(self, k: int) -> int:
        for b, u in enumerate(self.slots, start=1):
            if k in u:
                return b
        raise KeyError(k)

    def deadline_slot(self, k: int, delta_b: int) -> int:
        return min(self.slot_of(k) + delta_b - 1, self.B)


def _worst_case_demand(K: int) -> dict[int, int]:
    # All-distinct demands maximize the load; file ids simply mirror F-AP ids.
    return {k: k for k in range(1, K + 1)}


def make_fixed_L_schedule(
    K: int, B: int, L: int, seed: int | None = None
) -> RequestSchedule:
    """Schedule with exactly L requesters per slot.

    Without a seed, slot b holds F-APs (b-1)*L+1 .. b*L.  With a seed, the
    membership is a uniformly random partition of {1..K} into B blocks of L.
    """
    if K != B * L:
        raise InvalidParams(f"fixed-L schedule needs K = B*L, got K={K}, B={B}, L={L}")
    ids = list(range(1, K + 1))
    if seed is not None:
        rng = np.random.Generator(np.random.PCG64(seed))
        ids = [int(x) for x in rng.permutation(K) + 1]
    slots = tuple(
        frozenset(ids[(b - 1) * L : b * L]) for b in range(1, B + 1)
    )
    return RequestSchedule(slots, _worst_case_demand(K))


def make_random_schedule(K: int, B: int, seed: int) -> RequestSchedule:
    """Uniformly random surjective assignment of the K F-APs to B slots.

    Sampled by rejection from the uniform assignment distribution, which is
    exactly uniform over surjections.  K = B short-circuits to a random
    permutation (the surjections are then the bijections).
    """
    if K < B:
        raise InvalidParams(f"need K >= B for nonempty slots, got K={K}, B={B}")
    rng = np.random.Generator(np.random.PCG64(seed))
    if K == B:
        perm = rng.permutation(K) + 1
        slots = tuple(frozenset({int(perm[b])}) for b in range(B))
        return RequestSchedule(slots, _worst_case_demand(K))
    while True:
        assign = rng.integers(1, B + 1, size=K)
        if np.bincount(assign, minlength=B + 1)[1:].all():
            break
    slots = tuple(
        frozenset(int(k + 1) for k in np.flatnonzero(assign == b))
        for b in range(1, B + 1)
    )
    return RequestSchedule(slots, _worst_case_demand(K))


@dataclass
class SubfileRecordTable:
    """The cloud's record of subfiles, as (K, 2^K) arrays over encoding sets.

    Row k-1, column S holds entry (k, S minus k): the bits of the file
    requested by F-AP k that are cached at every F-AP in S minus k and at
    none outside it; in particular they are not cached at k itself.  A
    column whose set does not contain k holds no entry.  Bits cached at k
    never enter the table: the decoder reads them from k's cache.

    ``live`` marks the entries that exist and ``length`` holds their
    lengths: bit counts (int64) in bit-exact tables, expected sizes
    (float64) in analytic ones, whose entries all exist even where a size
    underflows to 0.0.  Bit-exact tables also hold every entry's bit
    positions and bit values, the entries back to back in row-major
    order, in ``bit_positions`` and ``bit_values``; entry (k, E) starts at
    ``start[k-1, S]`` and its positions ascend.
    """

    K: int
    F: int
    demand: Mapping[int, int]
    live: np.ndarray
    length: np.ndarray
    start: np.ndarray | None = None
    bit_positions: np.ndarray | None = None
    bit_values: np.ndarray | None = None


def partition_into_subfiles(
    library: Library, caches: CacheLayout, schedule: RequestSchedule
) -> SubfileRecordTable:
    """Split every requested file into exclusivity classes (bit-exact mode).

    For requester k the classes over all exclusivity sets, together with
    the bits k caches itself, partition the F bits of its file.  A bit not
    cached at k has k's signature bit clear, so its signature is the
    exclusivity mask E of its class and E | k its column.  One stable sort
    of k's uncached positions by signature lays the classes out in
    ascending column order with ascending positions.
    """
    K, F = caches.K, library.F
    check_delivery_size(K)
    length = np.zeros((K, 1 << K), dtype=np.int64)
    positions, values = [], []
    rows = caches.rows([schedule.demand[k] for k in range(1, K + 1)])
    for k in range(1, K + 1):
        n = schedule.demand[k]
        signature = caches.signature[rows[k - 1]]
        foreign = np.flatnonzero((signature & (1 << (k - 1))) == 0)
        columns = signature[foreign] | (1 << (k - 1))
        pos = foreign[np.argsort(columns, kind="stable")]
        positions.append(pos)
        values.append(library.file(n)[pos])
        length[k - 1] = np.bincount(columns, minlength=1 << K)
    # columns without k hold no bits, so row-major order is entry order
    flat = length.ravel()
    return SubfileRecordTable(
        K=K,
        F=F,
        demand=dict(schedule.demand),
        live=length > 0,
        length=length,
        start=(np.cumsum(flat) - flat).reshape(K, 1 << K),
        bit_positions=np.concatenate(positions),
        bit_values=np.concatenate(values),
    )


def analytic_subfile_table(
    params: SystemParams, schedule: RequestSchedule
) -> SubfileRecordTable:
    """Record table of all K*2^(K-1) entries at their expected lengths:
    entry (k, S minus k) is a type-|S| subfile of F*f(|S|) bits."""
    K = params.K
    check_delivery_size(K)
    sets, size, _ = set_ranks(K)
    live = (sets & (1 << np.arange(K))[:, None]) != 0
    per_size = np.array(
        [0.0] + [params.subfile_fraction(s) * params.F for s in range(1, K + 1)]
    )
    return SubfileRecordTable(
        K=K,
        F=params.F,
        demand=dict(schedule.demand),
        live=live,
        length=np.where(live, per_size[size], 0.0),
    )
