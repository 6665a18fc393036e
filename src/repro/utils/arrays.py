"""Array helpers for the numpy hot paths."""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_unique", "triu_position"]


def sorted_unique(values) -> np.ndarray:
    """The sorted distinct elements of *values*, like ``np.unique``.

    One ``np.sort`` plus an adjacent-difference mask.  The output
    (values, dtype, order) equals what ``np.unique`` returns for integer
    input, but numpy 2.x's hash-based ``np.unique`` is tens of times
    slower on the id and bit-index arrays this library dedupes.
    """
    ordered = np.sort(np.asarray(values).ravel())
    if ordered.size < 2:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def triu_position(i, j, k: int):
    """Position of the pair of ranks ``i < j`` in
    ``np.triu_indices(k, 1)`` order (scalars or arrays)."""
    return i * k - i * (i + 1) // 2 + j - i - 1
