"""Closed-form fronthaul loads, counting machinery, and load bounds.

The closed-form load for schedules with a fixed number L of requests per
slot is built from q(s, Y, delta_b): the number of type-s encoding sets
that split into exactly Y delay-feasible subsets.  The counting views the
timeline as Y disjoint windows placed in chronological order, each
starting at a slot that contributes at least one member; windows have
delta_b slots except possibly the last, which may be truncated by the end
of the timeline (it then ends exactly at slot B).  q is a polynomial
coefficient: the window starts pick members by G_Y = ((1+x)^L - 1)^Y and
the other window slots by a binomial, so one product per Y gives every s.
Every binomial with out-of-range arguments is 0, which prunes infeasible
placements.  The q table is the paper's counting formula, checked against
brute force; no load is read from it.  The load and transmission count of
any schedule, the fixed-L closed form included, come from one window chain
over its slot sizes (schedule_load).  Each load rule is written once: f(s)
in SystemParams.subfile_fraction, 1 - (1 - p)^n in hit_chance, and 1 - p
in SystemParams.miss_ratio.

All counts are exact integers; loads are floats normalized by F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .core import RequestSchedule, SystemParams, check_integer
from .errors import InvalidParams, TooLarge
from .partition import eta as partition_eta

BRUTE_FORCE_MAX_K = 20


@dataclass(frozen=True)
class FixedLConfig(SystemParams):
    """System parameters of the fixed-requests-per-slot case.

    L      number of requesters in every slot, so K = B*L
    """

    L: int

    def __post_init__(self) -> None:
        check_integer("L", self.L)
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


def _binomials(n: int, top: int) -> list[int]:
    """C(n, t) for t = 0..top: the coefficients of (1+x)^n up to x^top."""
    row = [1]
    for t in range(top):
        row.append(row[-1] * (n - t) // (t + 1))
    return row


def _product(a, b, n: int) -> list[int]:
    """The first n coefficients of the product of two polynomials."""
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[:n - i]):
                out[i + j] += ai * bj
    return out


@lru_cache(maxsize=None)
def _g_poly(Y: int, L: int) -> tuple[int, ...]:
    """Coefficients of G_Y = ((1+x)^L - 1)^Y: [x^alpha] G_Y = b(Y, alpha, L),
    by Y short products in a loop."""
    g, step = [1], [0, *_binomials(L, L)[1:]]
    for y in range(1, Y + 1):
        g = _product(g, step, y * L + 1)
    return tuple(g)


def b_count(Y: int, alpha: int, L: int) -> int:
    """Ways to pick alpha F-APs from Y slots of L requesters, >= 1 per slot."""
    for name, value in (("Y", Y), ("alpha", alpha), ("L", L)):
        check_integer(name, value)
    if Y < 1 or L < 1:
        raise InvalidParams(f"need Y >= 1 and L >= 1, got Y={Y}, L={L}")
    if alpha < Y or alpha > Y * L:
        raise InvalidParams(f"alpha={alpha} outside [Y, Y*L] = [{Y}, {Y * L}]")
    return _g_poly(Y, L)[alpha]


def _windows(Y: int, delta_b: int, L: int, B: int) -> list[tuple[int, int]]:
    """(d, n) for each length delta_b' = 1..delta_b of the last window: d
    placements of the Y windows and n requesters in their non-start slots.
    delta_b' = delta_b is the paper's q2 term, the others are its q1 terms."""
    base = (Y - 1) * (delta_b - 1)
    truncated = [(_comb0(B - j - base, Y - 1), (base + j - 1) * L) for j in range(1, delta_b)]
    return truncated + [(_comb0(B - Y * (delta_b - 1), Y), Y * (delta_b - 1) * L)]


@lru_cache(maxsize=None)
def _q_table(B: int, L: int, delta_b: int) -> tuple[tuple[int, ...], ...]:
    """q[Y][s] = q(s, Y, delta_b) for Y = 0..ceil(B/delta_b) and s = 0..K:
    [x^s] G_Y * H_Y, where H_Y sums d * (1+x)^n over _windows, so one product
    gives a row's q1 and q2 terms.  Cached per shape, without the cache
    ratio, on which no count depends."""
    K = B * L
    table = [(0,) * (K + 1)]
    for Y in range(1, -(-B // delta_b) + 1):
        top = min(K, Y * (delta_b - 1) * L)  # the largest n of _windows
        terms = [[d * c for c in _binomials(n, top)] for d, n in _windows(Y, delta_b, L, B) if d]
        tail = [sum(column) for column in zip(*terms)]
        table.append(tuple(_product(_g_poly(Y, L), tail, K + 1)))
    return tuple(table)


def _table_for(s: int, config: FixedLConfig) -> tuple[tuple[int, ...], ...]:
    check_integer("s", s)
    if not (1 <= s <= config.K):
        raise InvalidParams(f"type s must be in [1, K], got s={s}, K={config.K}")
    return _q_table(config.B, config.L, config.delta_b)


def q_count(s: int, Y: int, config: FixedLConfig) -> int:
    """Number of type-s encoding sets that split into exactly Y subsets."""
    table = _table_for(s, config)
    check_integer("Y", Y)
    return table[Y][s] if 0 <= Y < len(table) else 0


def Q_count(s: int, config: FixedLConfig) -> int:
    """Total number of subsets all type-s encoding sets split into."""
    return sum(Y * row[s] for Y, row in enumerate(_table_for(s, config)))


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
    keys, sets = np.unique(slot_masks[1:] * (K + 1) + sizes[1:], return_counts=True)
    masks, sizes = np.divmod(keys, K + 1)
    counts = np.zeros((B, K + 1, K + 1), dtype=np.int64)
    # eta's scan holds a few (delays, masks) arrays: take the delays in
    # groups that keep them within the largest enumeration allowed
    group = max(1, (1 << BRUTE_FORCE_MAX_K) // masks.size)
    for low in range(1, B + 1, group):
        delays = np.arange(low, min(low + group, B + 1))[:, None]
        np.add.at(counts, (delays - 1, sizes, partition_eta(masks, B, delays)), sets)
    return counts


def brute_force_Q(schedule: RequestSchedule) -> list[list[int]]:
    """Oracle for Q_count and schedule_load: Q[delta_b - 1][s - 1] for every
    delta_b = 1..B and s = 1..K, the eta of every type-s encoding set summed
    by exhaustive enumeration."""
    counts = brute_force_eta_histogram(schedule)
    return (counts @ np.arange(schedule.K + 1))[:, 1:].tolist()


def hit_chance(params: SystemParams, n: int) -> float:
    """1 - (1 - p)^n, the chance that a set holding each F-AP with probability
    p meets n given F-APs, by squaring on hit(a + b) = hit(a) + (1 - p)^a *
    hit(b): a sum of positive terms, so nothing is subtracted from a rounded
    1 - p and no digit is lost as p -> 0; exact wherever 1 - (1 - p)^n is."""
    check_integer("n", n, 0)
    hit, miss, step_hit, step_miss = 0.0, 1.0, params.cache_ratio, params.miss_ratio
    while n:
        if n & 1:
            hit, miss = hit + miss * step_hit, miss * step_miss
        step_hit, step_miss = step_hit + step_miss * step_hit, step_miss * step_miss
        n >>= 1
    return hit


def _window_scan(delta_b: int, sizes: list[int], whole, split):
    """Sum of the weights that open a window, over the slots in order: the
    ring at turns one place per slot, and at[(now + r) % delta_b] weighs the
    sets whose open window still covers r more slots.  A slot of n F-APs
    splits the weight w of the sets with none open into split(w, n) =
    (missing it, opening a window there)."""
    at, eta, now = [whole] + [0] * (delta_b - 1), 0, 0
    for n in sizes:
        stays, opened = split(at[now], n)
        eta += opened
        at[now] = opened
        now = (now + 1) % delta_b
        at[now] += stays
    return eta


def _chain_load(params: SystemParams, sizes: list[int]) -> float:
    """The window chain's normalized load ((1 - p)/p) * E[eta(S)], S holding
    each F-AP with probability p, capped by the uncoded load, which it
    tends to as p -> 0 and could pass by rounding."""
    p, q = params.cache_ratio, params.miss_ratio
    share = {n: (q ** n, hit_chance(params, n)) for n in set(sizes)}
    eta = _window_scan(params.delta_b, sizes, 1.0,
                       lambda w, n: (w * share[n][0], w * share[n][1]))
    return min(q / p * eta, uncoded_load(params))


def schedule_load(params: SystemParams, sizes: Iterable[int]) -> tuple[float, int]:
    """(normalized load, transmission count) of a schedule whose B slots hold
    the given numbers of F-APs, by one window chain over them:
    ((1 - p)/p) * E[eta(S)], p = M/N, for S holding each F-AP with
    probability p, and sum_S eta(S) = sum_s Q(s).  A slot of n F-APs splits
    the weight w of the sets with no window open into those missing it and
    those opening a window there: (w * (1 - p)^n, w * hit_chance(params, n))
    for the load, taken once per distinct n and capped by the uncoded load
    (_chain_load), and (w >> n, w - (w >> n)) for the count, which starts
    from all 2^K sets, so every split is exact."""
    sizes = list(sizes)
    for n in sizes:
        check_integer("slot size", n)
    sizes = [int(n) for n in sizes]  # a numpy int would overflow in w >> n
    if len(sizes) != params.B:
        raise InvalidParams(f"need B={params.B} slot sizes, got {len(sizes)}")
    if sum(sizes) != params.K:
        raise InvalidParams(f"slot sizes must sum to K={params.K}, got {sum(sizes)}")
    if min(sizes) < 1:
        raise InvalidParams(f"every slot needs an F-AP, got a size of {min(sizes)}")
    count = _window_scan(params.delta_b, sizes, 1 << params.K,
                         lambda w, n: (w >> n, w - (w >> n)))
    return _chain_load(params, sizes), count


def load_of(params: SystemParams, Q: list[int]) -> float:
    """Normalized fronthaul load sum_s f(s) * Q(s): each of the Q(s) subsets
    carved out of the type-s encoding sets costs one coded content of the
    type-s subfile size f(s) (`subfile_fraction`)."""
    return sum(params.subfile_fraction(s) * q for s, q in enumerate(Q, 1))


def closed_form_load(config: FixedLConfig) -> float:
    """Normalized fronthaul load of the scheme under fixed-L schedules: the
    window chain over B slots of L F-APs each, without the count scan."""
    return _chain_load(config, [config.L] * config.B)


def uncoded_load(params: SystemParams) -> float:
    """Normalized load when every missing bit is unicast separately."""
    return params.K * params.miss_ratio


def mn_sync_load(params: SystemParams) -> float:
    """Normalized load of the Maddah-Ali--Niesen decentralized synchronous
    coded caching baseline (all requests served together), capped by the
    uncoded load, which it tends to as p -> 0 and could pass by rounding."""
    K, N, M = params.K, params.N, params.M
    sync = K * params.miss_ratio * (N / (K * M)) * hit_chance(params, K)
    return min(sync, uncoded_load(params))


def load_bounds(params: SystemParams) -> tuple[float, float]:
    """(lower, upper) normalized-load bounds for arbitrary request schedules.

    The lower bound is the synchronous baseline; the upper bound is the
    least of ceil(B/delta_b) times the baseline and the uncoded load, so
    lower <= upper holds by construction.
    """
    lower = mn_sync_load(params)
    return lower, min(-(-params.B // params.delta_b) * lower, uncoded_load(params))
