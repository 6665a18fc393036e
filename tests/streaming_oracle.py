"""The per-bit gather the streaming decoder used to seal a period.

Before the word-level seal, ``StreamingDecoder.observe_report`` and
``ingest_partial`` diffed the incoming array against the running one
and, for every newly set bit and every peer, gathered the peer's bits
at the joint positions that bit covers.  That update is kept here,
unoptimized, as the differential oracle the word-level recount must
match after every step.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

Pair = Tuple[int, int]


def pair_key(a: int, b: int) -> Pair:
    return (a, b) if a < b else (b, a)


class GatherOracle:
    """Running bool arrays plus per-pair joint-zero counts, each count
    at the pair's common size ``max(m_x, m_y)``."""

    def __init__(self) -> None:
        self.arrays: Dict[int, np.ndarray] = {}
        self.pairs: Dict[Pair, int] = {}

    def start(self, rsu_id: int, size: int) -> None:
        """(Re)start *rsu_id* with an all-zero array of *size* bits."""
        self.arrays.pop(rsu_id, None)
        for key in [key for key in self.pairs if rsu_id in key]:
            del self.pairs[key]
        for other_id, other in self.arrays.items():
            target = max(size, other.size)
            zeros = target - int(other.sum()) * (target // other.size)
            self.pairs[pair_key(rsu_id, other_id)] = zeros
        self.arrays[rsu_id] = np.zeros(size, dtype=bool)

    def merge(self, rsu_id: int, bits: np.ndarray) -> int:
        """OR bool *bits* into the RSU's array, killing joint zeros one
        newly set bit at a time; returns the number of new bits."""
        own = self.arrays[rsu_id]
        newly = np.flatnonzero(np.asarray(bits, dtype=bool) & ~own)
        for other_id, other in self.arrays.items():
            if other_id == rsu_id:
                continue
            target = max(own.size, other.size)
            offsets = np.arange(target // own.size, dtype=np.int64) * own.size
            positions = (newly[None, :] + offsets[:, None]).ravel()
            killed = positions.size - int(other[positions % other.size].sum())
            self.pairs[pair_key(rsu_id, other_id)] -= killed
        own[newly] = True
        return int(newly.size)


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
