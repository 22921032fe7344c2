"""Reference partition: the encoding set partition method as the paper
states it, on explicit F-AP sets.

An encoding set is a nonempty set of F-APs that one coded multicast could
serve simultaneously if all their requests were known.  A set whose
members request too far apart must be split into several subsets, each
servable within one delta_b-slot window.  ``fogcoded.partition.eta``
counts these subsets from the occupied-slot mask alone; the tests check
it against this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from fogcoded.core import FapSet, RequestSchedule
from fogcoded.errors import InvalidParams


@dataclass(frozen=True)
class ActiveWindow:
    """Slot interval (beta, gamma] spanned by an encoding set's requests."""

    beta: int
    gamma: int

    @property
    def active_slot_count(self) -> int:
        return self.gamma - self.beta


@dataclass(frozen=True)
class PartitionResult:
    """Chronological split of an encoding set into delay-feasible subsets."""

    subsets: tuple[FapSet, ...]

    @property
    def eta(self) -> int:
        return len(self.subsets)


def active_window(members: Iterable[int], schedule: RequestSchedule) -> ActiveWindow:
    """Tightest slot interval (beta, gamma] containing all member requests."""
    s = frozenset(members)
    if not s:
        raise InvalidParams("encoding set must be nonempty")
    request_slots = [schedule.slot_of(k) for k in s]
    return ActiveWindow(beta=min(request_slots) - 1, gamma=max(request_slots))


def partition_encoding_set(
    members: Iterable[int], schedule: RequestSchedule, delta_b: int
) -> PartitionResult:
    """Greedy chronological partition into subsets each spanning <= delta_b slots.

    Starting from the first request slot, a full delta_b-slot window is cut
    whenever at least delta_b slots remain before gamma; otherwise the rest
    of the set forms the final subset.  gamma is fixed up front and never
    recomputed as subsets are removed.
    """
    s = frozenset(members)
    if not (1 <= delta_b <= schedule.B):
        raise InvalidParams(f"delta_b must be in [1, B], got {delta_b}")
    window = active_window(s, schedule)
    beta, gamma = window.beta, window.gamma
    remaining = set(s)
    subsets: list[FapSet] = []
    while remaining:
        while not (schedule.requesters(beta + 1) & remaining):
            beta += 1
        if gamma - beta >= delta_b:
            span = range(beta + 1, beta + delta_b + 1)
            beta += delta_b
        else:
            span = range(beta + 1, gamma + 1)
        part = frozenset().union(*(schedule.requesters(b) & remaining for b in span))
        subsets.append(part)
        remaining -= part
    return PartitionResult(tuple(subsets))
