"""System model: file library, decentralized cache placement, subfile records.

Fog access points (F-APs) are numbered 1..K.  Sets of F-APs appear in two
forms: ``frozenset[int]`` at API boundaries and integer bitmasks (bit k-1
set for F-AP k) inside the delivery hot path.  A subfile record (k, E)
pairs a requester k with an exclusivity mask E, which names the other
F-APs that cache exactly those bits.
"""

from __future__ import annotations

import math
import sys
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


def check_integer(name: str, value, least: int | None = None) -> None:
    """Raise InvalidParams naming `value` unless it is a Python or numpy
    integer, and at least `least` when that is given."""
    if not isinstance(value, (int, np.integer)):
        raise InvalidParams(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidParams(f"{name} must be >= {least}, got {value}")


def check_seed(seed: int) -> None:
    """Raise InvalidParams unless `seed` is an integer >= 0: numpy's seed
    sequences take no negative entropy."""
    check_integer("seed", seed, 0)


def mask_of(ids: Iterable[int]) -> int:
    m = 0
    for k in ids:
        m |= 1 << (k - 1)
    return m


def mask_dtype(K: int) -> np.dtype:
    """The smallest unsigned dtype that holds a mask of K F-APs."""
    return np.min_scalar_type((1 << K) - 1)


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
    M      normalized per-F-AP cache size in file units, 0 < M < N, M/N normal
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
        for name in ("K", "N", "F", "B", "delta_b"):
            check_integer(name, getattr(self, name))
        if self.K < 1:
            raise InvalidParams(f"K must be >= 1, got {self.K}")
        if self.N < self.K:
            raise InvalidParams(f"need N >= K, got N={self.N}, K={self.K}")
        if not (0 < self.M < self.N):
            raise InvalidParams(f"need 0 < M < N, got M={self.M}, N={self.N}")
        if self.M / self.N < sys.float_info.min:  # else (1 - p)/p overflows
            raise InvalidParams(f"need M/N >= {sys.float_info.min}, got {self.M / self.N}")
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
    def miss_ratio(self) -> float:
        """The one copy of 1 - p: N - M is exact for M >= N/2, where
        1 - M/N would lose digits to the rounding of M/N."""
        return (self.N - self.M) / self.N

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
        return (self.cache_ratio ** (s - 1)) * (self.miss_ratio ** (self.K - (s - 1)))


def _file_ids(params: SystemParams, files: Iterable[int]) -> tuple[int, ...]:
    """The file ids in ascending order; raises InvalidParams on an id
    outside 1..N, a non-integer or a repeat."""
    ids = list(files)
    for n in ids:
        if not (isinstance(n, (int, np.integer)) and 1 <= n <= params.N):
            raise InvalidParams(f"file id {n} is not an integer in [1, N={params.N}]")
    placed = tuple(sorted(set(map(int, ids))))
    if len(placed) != len(ids):
        raise InvalidParams(f"file ids repeat: {ids}")
    return placed


def _row(placed: tuple[int, ...], n: int, verb: str) -> int:
    """The row of file id n among the ids `placed`; raises InvalidParams
    "file n was not <verb>" if it is not there."""
    if n not in placed:
        raise InvalidParams(f"file {n} was not {verb}")
    return placed.index(n)


def _file_stream(seed: int, n: int) -> np.random.Generator:
    """File n's own random stream, spawned from ``seed`` with key (n,)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(n,))))


@dataclass(frozen=True)
class Library:
    """The drawn files, F bits each: ``bits[i]`` holds file ``files[i]``
    as uint8 0/1, the ids ascending."""

    files: tuple[int, ...]
    bits: np.ndarray

    def __post_init__(self) -> None:
        if self.bits.ndim != 2 or self.bits.shape[0] != len(self.files):
            raise InvalidParams("library bits must be a 2-D array, one row per file")

    @property
    def F(self) -> int:
        return self.bits.shape[1]

    def file(self, n: int) -> np.ndarray:
        """Bits of file n; raises InvalidParams if it was not drawn."""
        return self.bits[_row(self.files, n, "drawn")]


def generate_library(params: SystemParams, seed: int, files: Iterable[int]) -> Library:
    """Draw the given files as uniformly random F-bit strings.

    File n draws from its own seed stream, spawned from ``seed`` with key
    (n,), so its bits depend neither on N nor on which other files are
    drawn.  A trial needs only the files it demands.
    """
    check_seed(seed)
    placed = _file_ids(params, files)
    bits = np.empty((len(placed), params.F), dtype=np.uint8)
    for row, n in zip(bits, placed):
        row[:] = _file_stream(seed, n).integers(0, 2, size=params.F, dtype=np.uint8)
    return Library(placed, bits)


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

    def __post_init__(self) -> None:
        if self.signature.ndim != 2 or self.signature.shape[0] != len(self.files):
            raise InvalidParams(f"cache signatures must be a 2-D array, one row per file; "
                                f"got shape {self.signature.shape} for {len(self.files)} files")

    def rows(self, files) -> np.ndarray:
        """The signature row of each file id; raises InvalidParams naming
        the first file that was not placed."""
        return np.array([_row(self.files, n, "placed") for n in files], dtype=np.int64)


def place_caches(params: SystemParams, seed: int, files: Iterable[int]) -> CacheLayout:
    """Decentralized placement of the given files: every F-AP independently
    caches a uniform random subset of round(M*F/N) bit positions of each.

    File n draws from its own seed stream, spawned from ``seed`` with key
    (n,), one pick per F-AP in order 1..K; so its bits depend neither on N
    nor on which other files are placed.  Files never requested need no
    placement: delivery and decoding read only the requested ones.
    """
    check_seed(seed)
    quota = params.cached_bits_per_file
    check_delivery_size(params.K)
    placed = _file_ids(params, files)
    dtype = mask_dtype(params.K)
    signature = np.zeros((len(placed), params.F), dtype=dtype)
    # one F-AP's picks of one file, ORed into the file's signatures whole:
    # faster than a fancy-indexed |=, which reads and writes every pick
    picked = np.zeros(params.F, dtype=dtype)
    for row, n in zip(signature, placed):
        rng = _file_stream(seed, n)
        for k in range(params.K):
            picked.fill(0)
            picked[rng.choice(params.F, size=quota, replace=False)] = 1 << k
            row |= picked
    return CacheLayout(params.K, placed, signature)


@dataclass(frozen=True)
class RequestSchedule:
    """Per-slot requester sets plus the demand map.

    slots[b-1] is the set of F-APs whose request arrives during slot b.
    Every F-AP requests exactly once, every slot is nonempty, and the
    slots are pairwise disjoint and cover {1..K}.  The demand map names
    exactly F-APs 1..K.
    """

    slots: tuple[FapSet, ...]
    demand: Mapping[int, int]

    def __post_init__(self) -> None:
        if not self.slots:
            raise InvalidParams("a schedule needs at least one slot")
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
        if len(self.demand) != len(seen):
            K, got = len(seen), sorted(self.demand)
            raise InvalidParams(f"demands must name F-APs 1..{K}, got {got}")

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


def _cut(ids: list[int], sizes: list[int] | np.ndarray) -> RequestSchedule:
    """Slot b holds the b-th piece of ids, cut at the cumulative sizes.
    All-distinct demands maximize the load; file ids simply mirror F-AP ids."""
    ends = np.cumsum(sizes).tolist()
    slots = tuple(frozenset(ids[a:b]) for a, b in zip([0] + ends, ends))
    return RequestSchedule(slots, {k: k for k in range(1, len(ids) + 1)})


def make_fixed_L_schedule(
    K: int, B: int, L: int, seed: int | None = None
) -> RequestSchedule:
    """Schedule with exactly L requesters per slot.

    Without a seed, slot b holds F-APs (b-1)*L+1 .. b*L.  With a seed, the
    membership is a uniformly random partition of {1..K} into B blocks of L.
    K, B and L must be integers, B and L at least 1, and a seed >= 0.
    """
    check_integer("K", K)
    check_integer("B", B, 1)
    check_integer("L", L, 1)
    if seed is not None:
        check_seed(seed)
    if K != B * L:
        raise InvalidParams(f"fixed-L schedule needs K = B*L, got K={K}, B={B}, L={L}")
    ids = list(range(1, K + 1))
    if seed is not None:
        ids = (np.random.Generator(np.random.PCG64(seed)).permutation(K) + 1).tolist()
    return _cut(ids, [L] * B)


def make_random_schedule(K: int, B: int, seed: int) -> RequestSchedule:
    """Uniformly random surjective assignment of the K F-APs to B slots.

    The slot sizes of a uniform surjection are B i.i.d. zero-truncated
    Poisson(lam) counts conditioned on summing to K (Arratia and Tavare,
    1994): P(sizes = n) is proportional to prod 1/n_b!.  Tries of B sizes
    are drawn 16 at a time until one sums to K.  A uniform permutation of
    1..K, cut at the cumulative sizes, then gives slot b the b-th piece:
    each of the K!/prod n_b! surjections with sizes n is cut from equally
    many permutations.  K and B must be integers, 1 <= B <= K, and the
    seed >= 0.
    """
    check_integer("K", K)
    check_integer("B", B)
    check_seed(seed)
    if B < 1:
        raise InvalidParams(f"need B >= 1, got B={B}")
    if K < B:
        raise InvalidParams(f"need K >= B for nonempty slots, got K={K}, B={B}")
    rng = np.random.Generator(np.random.PCG64(seed))
    # every lam > 0 gives the same law; lam only sets the number of tries,
    # fewest where the truncated mean lam / (1 - e^-lam) is K / B (lam = 0
    # at K = B)
    mean, lam, hi = K / B, 0.0, K / B
    for _ in range(64):
        mid = (lam + hi) / 2
        if mid < -mean * math.expm1(-mid):
            lam = mid
        else:
            hi = mid
    while True:
        # 1 + Poisson(lam - t), t the first arrival in [0, lam] of a rate-1
        # Poisson process given that one arrives: exactly zero-truncated
        # Poisson(lam), with no redraw as lam -> 0; lam - t is clipped at 0
        # against rounding.  16 tries a batch: a draw at small K needs 4 to
        # 10, and a batch per try took 2 to 3 times as long
        first = -np.log1p(rng.random((16, B)) * math.expm1(-lam))
        sizes = 1 + rng.poisson(np.maximum(lam - first, 0.0))
        hits = np.flatnonzero(sizes.sum(axis=1) == K)
        if hits.size:
            break
    return _cut((rng.permutation(K) + 1).tolist(), sizes[hits[0]])


@dataclass
class SubfileRecordTable:
    """The cloud's record of subfiles, as (K, 2^K) arrays over encoding sets.

    Row k-1, column S holds entry (k, S minus k): the bits of the file
    requested by F-AP k that are cached at every F-AP in S minus k and at
    none outside it; in particular they are not cached at k itself.  A
    column whose set does not contain k holds no entry.  Bits cached at k
    never enter the table: the decoder reads them from k's cache.

    ``length`` holds the entries' lengths, 0 where there is none: bit
    counts (int32) in bit-exact tables, expected sizes (float64) in
    analytic ones.  Its shape gives K, and ``demand`` maps exactly the
    F-APs 1..K to their files.  Which entries exist is worked out, not
    stored (`entry_masks`), and so are a bit-exact entry's bits: such a
    table carries the server's ``caches`` and the ``library`` they place,
    and entry (k, E) holds the bits of ``library.file(demand[k])`` whose
    signature is E, at the positions `row_positions` works out.  A table
    has caches exactly when it has a library; analytic tables have
    neither.  A table that breaks any of these shapes is refused when it
    is built.
    """

    demand: Mapping[int, int]
    length: np.ndarray
    caches: CacheLayout | None = None
    library: Library | None = None

    def __post_init__(self) -> None:
        if self.length.ndim != 2 or self.length.shape[1] != 1 << len(self.length):
            raise InvalidParams(f"record lengths must have shape (K, 2^K), got {self.length.shape}")
        if sorted(self.demand) != list(range(1, self.K + 1)):
            raise InvalidParams(f"demands must name F-APs 1..{self.K}, got {sorted(self.demand)}")
        if (self.caches is None) != (self.library is None):
            raise InvalidParams("a record table needs both caches and a library, or neither")
        if self.caches is None:
            return
        self.check_caches(self.caches)
        for n in self.demand.values():  # delivery and decoding read these files' bits
            _row(self.library.files, n, "drawn")
        self.caches.rows(self.demand.values())

    @property
    def K(self) -> int:
        return len(self.length)

    def check_caches(self, caches: CacheLayout) -> None:
        """Raise InvalidParams unless `caches` are placed for this
        bit-exact table's K F-APs and files of ``library.F`` bits."""
        placed, want = (caches.K, caches.signature.shape[1]), (self.K, self.library.F)
        if placed != want:
            raise InvalidParams(f"caches placed for (K, F) = {placed}, the table needs {want}")

    def entry_masks(self) -> np.ndarray:
        """Per column S, the mask of the F-APs k that have an entry (k, S
        minus k), as a new array in `mask_dtype(K)`: the one rule for which
        entries exist.  A bit-exact entry exists when it has bits.  Every
        analytic entry exists, even where its size underflows to 0.0, so
        column S's mask is S itself."""
        K, masks = self.K, mask_dtype(self.K)
        if self.caches is None:
            return np.arange(1 << K, dtype=masks)
        entries = np.zeros(1 << K, dtype=masks)
        for k, length in enumerate(self.length):
            entries |= np.left_shift(length > 0, k, dtype=masks)
        return entries

    def row_positions(self, k: int) -> np.ndarray:
        """Row k's positions in file ``demand[k]`` (bit-exact tables): the
        bits k does not cache, entries back to back by ascending column,
        positions ascending.  One unique key per bit packs a flag (k caches
        the bit), its column and its position, uint32 while K +
        bit_length(F - 1) < 32, else uint64; one sort puts the row first,
        returned in the smallest unsigned dtype that holds F - 1."""
        K, F, kb = self.K, self.library.F, 1 << (k - 1)
        signature = self.caches.signature[self.caches.rows([self.demand[k]])[0]]
        shift = (F - 1).bit_length()
        keys = np.empty(F, dtype=np.uint32 if K + shift < 32 else np.uint64)
        # the flag above the column, from k's own signature bit, all in place
        np.bitwise_and(signature, kb, out=keys)
        keys <<= K - k + 1
        keys |= signature
        keys |= kb
        keys <<= shift
        keys |= np.arange(F, dtype=keys.dtype)
        keys.sort()
        positions = np.empty(self.length[k - 1].sum(), dtype=np.min_scalar_type(F - 1))
        np.bitwise_and(keys[: positions.size], (1 << shift) - 1, out=positions, casting="unsafe")
        return positions


def partition_into_subfiles(
    library: Library, caches: CacheLayout, schedule: RequestSchedule
) -> SubfileRecordTable:
    """Split every requested file into exclusivity classes (bit-exact mode).

    For requester k the classes over all exclusivity sets, together with
    the bits k caches itself, partition the F bits of its file.  A bit not
    cached at k has k's signature bit clear, so its signature is the
    exclusivity mask E of its class and E | k its column: one count of
    each row's signatures gives every length.  The table, built first so
    that inputs which do not match are refused before anything is
    counted, carries `caches` and `library`; its `row_positions` say where
    each entry's bits lie.
    """
    K, F = schedule.K, library.F
    check_delivery_size(K)
    # a length, and an entry's offset within its row, is at most F; but
    # the payload lengths (`Transmissions.bits`, int32 like the lengths)
    # and the payload starts worked out from them total at most K * F,
    # which int32 holds: at most 16 * 2 * 10^6 under MAX_DELIVERY_K and
    # the CLI's BITEXACT_MAX_F
    if K * F >= 1 << 31:
        raise TooLarge(f"a bit-exact table needs K * F < 2^31, got K={K}, F={F}")
    table = SubfileRecordTable(dict(schedule.demand), np.empty((K, 1 << K), dtype=np.int32),
                               caches, library)
    rows = caches.rows(schedule.demand[k] for k in range(1, K + 1))
    sets = np.arange(1 << K)
    for k in range(1, K + 1):
        kb = 1 << (k - 1)
        # column S of row k holds the bits whose signature is S minus k
        count = np.bincount(caches.signature[rows[k - 1]], minlength=1 << K)
        table.length[k - 1] = np.where(sets & kb, count[sets ^ kb], 0)
    return table


def analytic_subfile_table(
    params: SystemParams, schedule: RequestSchedule
) -> SubfileRecordTable:
    """Record table of all K*2^(K-1) entries at their expected lengths:
    entry (k, S minus k) is a type-|S| subfile of F*f(|S|) bits."""
    K = params.K
    check_delivery_size(K)
    sets, size, _ = set_ranks(K)
    holds = (sets & (1 << np.arange(K))[:, None]) != 0
    per_size = np.array(
        [0.0] + [params.subfile_fraction(s) * params.F for s in range(1, K + 1)]
    )
    return SubfileRecordTable(
        demand=dict(schedule.demand), length=np.where(holds, per_size[size], 0.0)
    )
