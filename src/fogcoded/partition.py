"""Number of deadline-feasible subsets an encoding set splits into.

The encoding set partition method cuts an encoding set S into greedy
delta_b-slot windows, in request order: each window starts at the first
slot of S not yet covered.  The count eta(S) therefore depends only on
which slots S occupies, given as a mask with bit b-1 set for slot b.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams


def eta(slot_masks, B: int, delta_b) -> np.ndarray:
    """Greedy delta_b-slot window count of each occupied-slot mask.

    delta_b may be an array that broadcasts against the masks, to count
    under several delays in one scan.  One scan over the B slots: r is the
    number of slots, from the current one on, that the open window still
    covers; an occupied slot with no open window opens one.
    """
    delays = np.asarray(delta_b)
    if not np.all((1 <= delays) & (delays <= B)):
        raise InvalidParams(f"delta_b must be in [1, B], got {delta_b}")
    masks = np.asarray(slot_masks, dtype=np.int64)
    shape = np.broadcast_shapes(masks.shape, delays.shape)
    r = np.zeros(shape, dtype=np.int64)
    count = np.zeros(shape, dtype=np.int64)
    for b in range(B):
        opens = ((masks >> b) & 1).astype(bool) & (r == 0)
        count += opens
        r = np.where(opens, delays - 1, np.maximum(r - 1, 0))
    return count
