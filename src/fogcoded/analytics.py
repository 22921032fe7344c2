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
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .core import RequestSchedule, SystemParams, make_fixed_L_schedule
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
    B, L, delta_b = config.B, config.L, config.delta_b
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


def brute_force_b(Y: int, alpha: int, L: int) -> int:
    """Oracle for b_count: choose alpha of Y*L items, >= 1 from each group of L."""
    groups = [set(range(g * L, (g + 1) * L)) for g in range(Y)]
    return sum(
        1
        for picked in combinations(range(Y * L), alpha)
        if all(not g.isdisjoint(picked) for g in groups)
    )


def brute_force_eta_histogram(
    schedule: RequestSchedule, delta_b: int
) -> dict[tuple[int, int], int]:
    """Exhaustive (s, eta) -> count over all 2^K - 1 encoding sets."""
    K = schedule.K
    if K > BRUTE_FORCE_MAX_K:
        raise TooLarge(f"refusing 2^{K} enumeration; K must be <= {BRUTE_FORCE_MAX_K}")
    hist: dict[tuple[int, int], int] = {}
    ids = range(1, K + 1)
    for s in range(1, K + 1):
        for members in combinations(ids, s):
            e = partition_eta(members, schedule, delta_b)
            hist[(s, e)] = hist.get((s, e), 0) + 1
    return hist


def brute_force_q(s: int, Y: int, config: FixedLConfig) -> int:
    schedule = make_fixed_L_schedule(config.K, config.B, config.L)
    hist = brute_force_eta_histogram(schedule, config.delta_b)
    return hist.get((s, Y), 0)


def brute_force_Q(
    s: int,
    config: FixedLConfig | None = None,
    schedule: RequestSchedule | None = None,
    delta_b: int | None = None,
) -> int:
    """Oracle for Q_count: enumerate every type-s set and sum its eta.

    Accepts either a fixed-L config (a canonical schedule is built) or an
    explicit schedule plus delta_b.
    """
    if schedule is None:
        if config is None:
            raise InvalidParams("need a config or an explicit schedule")
        schedule = make_fixed_L_schedule(config.K, config.B, config.L)
        delta_b = config.delta_b
    elif delta_b is None:
        raise InvalidParams("an explicit schedule needs delta_b")
    K = schedule.K
    if K > BRUTE_FORCE_MAX_K:
        raise TooLarge(f"refusing 2^{K} enumeration; K must be <= {BRUTE_FORCE_MAX_K}")
    total = 0
    for members in combinations(range(1, K + 1), s):
        total += partition_eta(members, schedule, delta_b)
    return total


def schedule_Q(schedule: RequestSchedule, delta_b: int) -> list[int]:
    """Exact Q(s) for s = 1..K under any schedule, by one scan over the slots.

    eta(S) is the number of delta_b-slot windows that the greedy partition
    lays over the slots S occupies, each window starting at the first
    occupied slot not yet covered.  The scan's state r is the number of
    slots, from the current one on, that the open window still covers; for
    each (r, size) it keeps the number of partial sets and their eta sum.
    """
    if not (1 <= delta_b <= schedule.B):
        raise InvalidParams(f"delta_b must be in [1, B], got {delta_b}")
    sets, etas = Counter({(0, 0): 1}), Counter()
    for slot in schedule.slots:
        n = len(slot)
        new_sets, new_etas = Counter(), Counter()
        for (r, size), count in sets.items():
            eta_sum = etas[r, size]
            for j in range(n + 1):
                # taking members while no window is open opens one
                opens = j > 0 and r == 0
                r_next = delta_b - 1 if opens else max(r - 1, 0)
                ways = math.comb(n, j)
                new_sets[r_next, size + j] += count * ways
                new_etas[r_next, size + j] += (eta_sum + opens * count) * ways
        sets, etas = new_sets, new_etas
    Q = [0] * (schedule.K + 1)
    for (_, size), eta_sum in etas.items():
        Q[size] += eta_sum
    return Q[1:]


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
