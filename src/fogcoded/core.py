"""System model: file library, decentralized cache placement, subfile records.

Fog access points (F-APs) are numbered 1..K.  Sets of F-APs appear in two
forms: ``frozenset[int]`` at API boundaries and integer bitmasks (bit k-1
set for F-AP k) inside the delivery hot path.  Subfile record keys are
``(requester, exclusivity_mask)`` pairs, where the mask names the other
F-APs that cache exactly those bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import InvalidParams, TooLarge

FapSet = frozenset[int]

SubfileKey = tuple[int, int]  # (requester, exclusivity bitmask)

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


def set_of(mask: int) -> FapSet:
    return frozenset(iter_ids(mask))


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
    """Which bit positions of which file each F-AP caches.

    ``cached[k-1, n-1, p]`` is True when F-AP k holds bit p of file n.
    """

    cached: np.ndarray

    @property
    def K(self) -> int:
        return self.cached.shape[0]

    def positions(self, k: int, n: int) -> np.ndarray:
        """Sorted cached bit positions of file n at F-AP k."""
        return np.flatnonzero(self.cached[k - 1, n - 1])

    def file_matrix(self, n: int) -> np.ndarray:
        """(K, F) bool view of who caches each bit of file n."""
        return self.cached[:, n - 1, :]


def place_caches(library: Library, params: SystemParams, seed: int) -> CacheLayout:
    """Decentralized placement: every F-AP independently caches a uniform
    random subset of round(M*F/N) bit positions of every file."""
    quota = params.cached_bits_per_file
    if not (0 <= quota <= params.F):
        raise InvalidParams(f"per-file cache quota {quota} outside [0, F]")
    rng = np.random.Generator(np.random.PCG64(seed))
    cached = np.zeros((params.K, params.N, params.F), dtype=bool)
    for k in range(params.K):
        for n in range(params.N):
            picks = rng.choice(params.F, size=quota, replace=False)
            cached[k, n, picks] = True
    return CacheLayout(cached)


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
        if len(np.unique(assign)) == B:
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
    never enter the table: they are tracked per requester as the locally
    held class, which only the decoder consumes.

    ``live`` marks the entries that exist and ``length`` holds their
    lengths: bit counts (int64) in bit-exact tables, expected sizes
    (float64) in analytic ones, whose entries all exist even where a size
    underflows to 0.0.  Bit-exact tables also carry the entries' positions
    and contents by (k, E) and the locally held classes by k.
    """

    K: int
    F: int
    demand: Mapping[int, int]
    live: np.ndarray
    length: np.ndarray
    positions: dict[SubfileKey, np.ndarray] | None = None
    contents: dict[SubfileKey, np.ndarray] | None = None
    locally_held: dict[int, np.ndarray] | None = None


def partition_into_subfiles(
    library: Library, caches: CacheLayout, schedule: RequestSchedule
) -> SubfileRecordTable:
    """Split every requested file into exclusivity classes (bit-exact mode).

    For requester k the classes over all exclusivity sets, together with
    the locally held class, partition the F bits of its file.  One sort of
    k's uncached positions by exclusivity mask cuts them into the classes,
    which come in ascending mask order with ascending positions.
    """
    K, F = caches.K, library.F
    check_delivery_size(K)
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
        # a stable sort keeps each class's positions ascending
        order = np.argsort(signature[foreign], kind="stable")
        pos = foreign[order]
        sig = signature[pos].astype(np.int64)
        first = np.ones(len(pos), dtype=bool)
        first[1:] = sig[1:] != sig[:-1]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(pos))
        columns = sig[starts] | (1 << (k - 1))
        live[k - 1, columns] = True
        length[k - 1, columns] = ends - starts
        bits = library.file(n)[pos]
        for mask, i, j in zip(sig[starts].tolist(), starts.tolist(), ends.tolist()):
            positions[(k, mask)] = pos[i:j]
            contents[(k, mask)] = bits[i:j]
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
