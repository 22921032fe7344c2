"""Closed-form fronthaul loads, counting machinery, and load bounds.

The closed-form load for schedules with a fixed number L of requests per
slot is built from q(s, Y, delta_b): the number of type-s encoding sets
that split into exactly Y delay-feasible subsets.  The counting views the
timeline as Y disjoint windows placed in chronological order, each
starting at a slot that contributes at least one member; windows have
delta_b slots except possibly the last, which may be truncated by the end
of the timeline.  q1 counts placements whose last window is truncated to
delta_b' < delta_b slots (it then ends exactly at slot B); q2 counts
placements of Y full windows.  Every binomial with out-of-range arguments
is taken as 0, which silently prunes infeasible placements.

All counts are exact integers; loads are floats normalized by F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import RequestSchedule, SystemParams
from .errors import InvalidParams, OutOfRange, TooLarge
from .partition import eta as partition_eta

BRUTE_FORCE_MAX_K = 20


@dataclass(frozen=True)
class FixedLConfig(SystemParams):
    """System parameters of the fixed-requests-per-slot case.

    L      number of requesters in every slot, so K = B*L
    """

    L: int

    def __post_init__(self) -> None:
        if self.K != self.B * self.L:
            raise InvalidParams(
                f"fixed-L schedules need K = B*L, got K={self.K}, B={self.B}, L={self.L}"
            )
        super().__post_init__()


def _comb0(n: int, k: int) -> int:
    """Binomial coefficient with the all-out-of-range-is-zero convention."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


@lru_cache(maxsize=None)
def b_count(Y: int, alpha: int, L: int) -> int:
    """Ways to pick alpha F-APs from Y slots of L requesters, >= 1 per slot."""
    if Y < 1 or L < 1:
        raise OutOfRange(f"need Y >= 1 and L >= 1, got Y={Y}, L={L}")
    if alpha < Y or alpha > Y * L:
        raise OutOfRange(f"alpha={alpha} outside [Y, Y*L] = [{Y}, {Y * L}]")
    if Y == 1:
        return math.comb(L, alpha)
    # recursive split on how many come from the first slot; branches whose
    # remainder exceeds the remaining capacity contribute nothing
    return sum(
        math.comb(L, v) * _b0(Y - 1, alpha - v, L)
        for v in range(1, min(L, alpha - (Y - 1)) + 1)
    )


def _b0(Y: int, alpha: int, L: int) -> int:
    if alpha < Y or alpha > Y * L:
        return 0
    return b_count(Y, alpha, L)


def q1_count(s: int, Y: int, delta_b_prime: int, delta_b: int, L: int, B: int) -> int:
    """Type-s sets with Y windows whose last window is truncated to
    delta_b' < delta_b slots, ending exactly at slot B."""
    if not (1 <= delta_b_prime < delta_b):
        return 0
    d1 = _comb0(B - delta_b_prime - (Y - 1) * (delta_b - 1), Y - 1)
    if d1 == 0:
        return 0
    spare_slots = (Y - 1) * delta_b + delta_b_prime - Y
    p1 = sum(
        _b0(Y, alpha, L) * _comb0(spare_slots * L, s - alpha)
        for alpha in range(max(Y, s - spare_slots * L), min(s, Y * L) + 1)
    )
    return d1 * p1


def q2_count(s: int, Y: int, delta_b: int, L: int, B: int) -> int:
    """Type-s sets with Y full delta_b-slot windows."""
    d2 = _comb0(B - Y * (delta_b - 1), Y)
    if d2 == 0:
        return 0
    spare_slots = Y * (delta_b - 1)
    p2 = sum(
        _b0(Y, alpha, L) * _comb0(spare_slots * L, s - alpha)
        for alpha in range(max(Y, s - spare_slots * L), min(s, Y * L) + 1)
    )
    return d2 * p2


def q_count(s: int, Y: int, config: FixedLConfig) -> int:
    """Number of type-s encoding sets that split into exactly Y subsets."""
    return _q_count(s, Y, config.B, config.L, config.delta_b)


@lru_cache(maxsize=None)
def _q_count(s: int, Y: int, B: int, L: int, delta_b: int) -> int:
    # cached per shape: the counting oracle asks for every q twice, and
    # closed forms at several cache ratios share their counts
    total = q2_count(s, Y, delta_b, L, B)
    for dbp in range(1, delta_b):
        total += q1_count(s, Y, dbp, delta_b, L, B)
    return total


def y_range(s: int, config: FixedLConfig) -> range:
    lo = -(-s // (config.delta_b * config.L))
    hi = min(-(-config.B // config.delta_b), s)
    return range(lo, hi + 1)


def Q_count(s: int, config: FixedLConfig) -> int:
    """Total number of subsets all type-s encoding sets split into."""
    return sum(q_count(s, Y, config) * Y for Y in y_range(s, config))


def brute_force_b(Y: int, L: int) -> np.ndarray:
    """Oracle for b_count: counts[alpha] for alpha = 0..Y*L, the subsets of
    Y*L items, in Y groups of L, that pick alpha items and >= 1 from each
    group, found by enumerating all 2^(Y*L) subsets."""
    K = Y * L
    if K > BRUTE_FORCE_MAX_K:
        raise TooLarge(f"refusing 2^{K} enumeration; Y*L must be <= {BRUTE_FORCE_MAX_K}")
    subsets = np.arange(1 << K, dtype=np.int32)
    sizes = np.zeros_like(subsets)
    for item in range(K):
        sizes += (subsets >> item) & 1
    every_group = np.ones(subsets.shape, dtype=bool)
    for g in range(Y):
        every_group &= (subsets >> (g * L)) & ((1 << L) - 1) != 0
    return np.bincount(sizes[every_group], minlength=K + 1)


def brute_force_eta_histogram(schedule: RequestSchedule) -> np.ndarray:
    """Exhaustive counts[delta_b - 1, s, Y] for delta_b = 1..B: how many of
    the 2^K - 1 encoding sets have s members and split into Y subsets.

    Adding F-AP k to every set built so far doubles the arrays of set sizes
    and occupied-slot masks, so index i holds the set whose bitmask is i.
    eta depends on a set only through its slot mask, so the sets are first
    counted per (slot mask, size) pair and eta is taken once per pair for
    every delay.
    """
    K, B = schedule.K, schedule.B
    if K > BRUTE_FORCE_MAX_K:
        raise TooLarge(f"refusing 2^{K} enumeration; K must be <= {BRUTE_FORCE_MAX_K}")
    sizes = np.zeros(1, dtype=np.int64)
    slot_masks = np.zeros(1, dtype=np.int64)
    for k in range(1, K + 1):
        sizes = np.concatenate([sizes, sizes + 1])
        slot_masks = np.concatenate(
            [slot_masks, slot_masks | (1 << (schedule.slot_of(k) - 1))]
        )
    # one count per distinct (slot mask, size) pair of the nonempty sets
    keys = np.sort(slot_masks[1:] * (K + 1) + sizes[1:])
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    masks, sizes = np.divmod(keys[starts], K + 1)
    sets = np.diff(starts, append=keys.size)
    counts = np.zeros((B, K + 1, K + 1), dtype=np.int64)
    # eta's scan holds a few (delays, masks) arrays: take the delays in
    # groups that keep them within the largest enumeration allowed
    group = max(1, (1 << BRUTE_FORCE_MAX_K) // masks.size)
    for low in range(1, B + 1, group):
        delays = np.arange(low, min(low + group, B + 1))[:, None]
        np.add.at(counts, (delays - 1, sizes, partition_eta(masks, B, delays)), sets)
    return counts


def brute_force_Q(schedule: RequestSchedule) -> list[list[int]]:
    """Oracle for Q_count and schedule_Q: Q[delta_b - 1][s - 1] for every
    delta_b = 1..B and s = 1..K, the eta of every type-s encoding set summed
    by exhaustive enumeration."""
    counts = brute_force_eta_histogram(schedule)
    return (counts @ np.arange(schedule.K + 1))[:, 1:].tolist()


def schedule_Q(schedule: RequestSchedule, delta_b: int) -> list[int]:
    """Exact Q(s) for s = 1..K under any schedule, by one scan over the slots.

    eta(S) is the number of delta_b-slot windows that the greedy partition
    lays over the slots S occupies, each window starting at the first
    occupied slot not yet covered.  The scan's state r is the number of
    slots, from the current one on, that the open window still covers; for
    each r it keeps, per set size, the number of partial sets and their eta
    sum.
    """
    if not (1 <= delta_b <= schedule.B):
        raise InvalidParams(f"delta_b must be in [1, B], got {delta_b}")
    K = schedule.K
    sets = [[0] * (K + 1) for _ in range(delta_b)]
    etas = [[0] * (K + 1) for _ in range(delta_b)]
    sets[0][0] = 1
    for slot in schedule.slots:
        ways = [math.comb(len(slot), j) for j in range(len(slot) + 1)]
        new_sets = [[0] * (K + 1) for _ in range(delta_b)]
        new_etas = [[0] * (K + 1) for _ in range(delta_b)]
        for r in range(delta_b):
            # an open window moves on to r - 1 whatever the slot adds; with
            # none open (r = 0), taking no member stays at 0 and taking any
            # opens a window
            kept_sets, kept_etas = new_sets[max(r - 1, 0)], new_etas[max(r - 1, 0)]
            opened_sets, opened_etas = new_sets[-1], new_etas[-1]
            for size, count in enumerate(sets[r]):
                if not count:
                    continue
                eta_sum = etas[r][size]
                for to, w in enumerate(ways if r else ways[:1], size):
                    kept_sets[to] += count * w
                    kept_etas[to] += eta_sum * w
                if not r:
                    for to, w in enumerate(ways[1:], size + 1):
                        opened_sets[to] += count * w
                        opened_etas[to] += (eta_sum + count) * w
        sets, etas = new_sets, new_etas
    return [sum(column) for column in zip(*etas)][1:]


def load_of(params: SystemParams, Q: list[int]) -> float:
    """Normalized fronthaul load sum_s f(s) * Q(s): each of the Q(s) subsets
    carved out of the type-s encoding sets costs one coded content of the
    type-s subfile size."""
    return sum(params.subfile_fraction(s) * Q[s - 1] for s in range(1, params.K + 1))


def closed_form_load(config: FixedLConfig) -> float:
    """Normalized fronthaul load of the scheme under fixed-L schedules."""
    return load_of(config, [Q_count(s, config) for s in range(1, config.K + 1)])


def mn_sync_load(M: float, N: int, K: int) -> float:
    """Normalized load of the Maddah-Ali--Niesen decentralized synchronous
    coded caching baseline (all requests served together)."""
    if N < K:
        raise InvalidParams(f"need N >= K, got N={N}, K={K}")
    if not (0 < M < N):
        raise InvalidParams(f"need 0 < M < N, got M={M}, N={N}")
    p = M / N
    return K * (1.0 - p) * (N / (K * M)) * (1.0 - (1.0 - p) ** K)


def uncoded_load(M: float, N: int, K: int) -> float:
    """Normalized load when every missing bit is unicast separately."""
    if not (0 < M < N):
        raise InvalidParams(f"need 0 < M < N, got M={M}, N={N}")
    return K * (1.0 - M / N)


def load_bounds(
    M: float, N: int, K: int, B: int, delta_b: int
) -> tuple[float, float]:
    """(lower, upper) normalized-load bounds for arbitrary request schedules.

    The lower bound is the synchronous baseline; the upper bound caps it by
    both ceil(B/delta_b) times the baseline and the uncoded load.
    """
    lower = mn_sync_load(M, N, K)
    windows = -(-B // delta_b)
    p = M / N
    upper = K * (1.0 - p) * min(
        windows * (N / (K * M)) * (1.0 - (1.0 - p) ** K), 1.0
    )
    return lower, upper
