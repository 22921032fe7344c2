"""Reference counting: the first, plainest versions of two counting
routines in ``fogcoded.analytics``, kept as oracles for the faster ones.

``brute_force_b`` walks ``itertools.combinations`` one alpha at a time;
``schedule_Q`` runs the slot scan over ``Counter``s keyed by (r, size).
"""

from __future__ import annotations

import math
from collections import Counter
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
