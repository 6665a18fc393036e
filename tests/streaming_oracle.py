"""Bool-array oracles for the streaming decoder's running state.

:class:`GatherOracle` keeps one numpy bool per bit for every RSU and
ORs each streamed array in, so a test can check the decoder's newly set
counts step by step and batch-decode the same arrays for comparison.
:func:`tiled_joint_zeros` is the brute-force unfold + OR + count every
pair's ``U_c`` must equal.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

Pair = Tuple[int, int]


class GatherOracle:
    """Running bool arrays, one per RSU."""

    def __init__(self) -> None:
        self.arrays: Dict[int, np.ndarray] = {}

    def start(self, rsu_id: int, size: int) -> None:
        """(Re)start *rsu_id* with an all-zero array of *size* bits."""
        self.arrays[rsu_id] = np.zeros(size, dtype=bool)

    def merge(self, rsu_id: int, bits: np.ndarray) -> int:
        """OR bool *bits* into the RSU's array; returns the number of
        bits newly set."""
        own = self.arrays[rsu_id]
        newly = int(np.count_nonzero(np.asarray(bits, dtype=bool) & ~own))
        own |= np.asarray(bits, dtype=bool)
        return newly


def tiled_joint_zeros(arrays: Dict[int, np.ndarray]) -> Dict[Pair, int]:
    """Every pair's joint zeros by unfold + OR + count."""
    ids = sorted(arrays)
    out = {}
    for i, x in enumerate(ids):
        for y in ids[i + 1 :]:
            target = max(arrays[x].size, arrays[y].size)
            tiled_x = np.tile(arrays[x], target // arrays[x].size)
            tiled_y = np.tile(arrays[y], target // arrays[y].size)
            out[(x, y)] = int(np.count_nonzero(~(tiled_x | tiled_y)))
    return out
