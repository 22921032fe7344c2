"""Reference counting: the first, plainest versions of the counting
routines in ``fogcoded.analytics``, kept as oracles for the faster ones.

``brute_force_b`` walks ``itertools.combinations`` one alpha at a time;
``schedule_Q`` runs the slot scan over ``Counter``s keyed by (r, size);
``q1_count``, ``q2_count`` and ``_q_count`` sum the paper's q pieces over
alpha, one (s, Y, delta_b') at a time, on the recursive ``b_count``.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import combinations

from fogcoded.core import RequestSchedule
from fogcoded.errors import InvalidParams


def brute_force_b(Y: int, alpha: int, L: int) -> int:
    """Choose alpha of Y*L items, >= 1 from each group of L."""
    groups = [set(range(g * L, (g + 1) * L)) for g in range(Y)]
    return sum(
        1
        for picked in combinations(range(Y * L), alpha)
        if all(not g.isdisjoint(picked) for g in groups)
    )


def schedule_Q(schedule: RequestSchedule, delta_b: int) -> list[int]:
    """Exact Q(s) for s = 1..K by one scan over the slots; the state r is
    the number of slots, from the current one on, that the open window
    still covers."""
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


def _comb0(n: int, k: int) -> int:
    """Binomial coefficient with the all-out-of-range-is-zero convention."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


@lru_cache(maxsize=None)
def b_count(Y: int, alpha: int, L: int) -> int:
    """Ways to pick alpha F-APs from Y slots of L requesters, >= 1 per slot."""
    if Y < 1 or L < 1:
        raise InvalidParams(f"need Y >= 1 and L >= 1, got Y={Y}, L={L}")
    if alpha < Y or alpha > Y * L:
        raise InvalidParams(f"alpha={alpha} outside [Y, Y*L] = [{Y}, {Y * L}]")
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


@lru_cache(maxsize=None)
def _q_count(s: int, Y: int, B: int, L: int, delta_b: int) -> int:
    total = q2_count(s, Y, delta_b, L, B)
    for dbp in range(1, delta_b):
        total += q1_count(s, Y, dbp, delta_b, L, B)
    return total
