"""Origin-destination trip tables.

A :class:`TripTable` records how many vehicles travel from each origin
node to each destination node per measurement period (the "known
vehicle trip tables" of paper Section VII-A).  It supports the
operations the workload pipeline needs: totals, scaling, and
iteration in a deterministic order.

Demand is stored as three parallel ``int64`` columns — origin,
destination, trips — sorted by ``(origin, destination)``, one row per
OD pair with nonzero demand.  Row ``k`` is the ``k``-th pair of
:meth:`TripTable.pairs`; routes and incidences index OD pairs by it.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import NetworkDataError
from repro.utils.arrays import sorted_unique

__all__ = ["TripTable"]

OdPair = Tuple[int, int]


def _frozen(values) -> np.ndarray:
    column = np.array(values, dtype=np.int64)
    column.flags.writeable = False
    return column


class TripTable:
    """Integer vehicle demand between ordered node pairs.

    Parameters
    ----------
    demand:
        ``(origin, destination) -> trips`` mapping; zero entries may be
        omitted.  Origin == destination entries are rejected (a trip
        must move between two distinct points).
    """

    def __init__(self, demand: Mapping[OdPair, int]) -> None:
        rows = []
        for (origin, destination), trips in demand.items():
            if origin == destination:
                raise NetworkDataError(
                    f"trip table has intra-node demand at node {origin}"
                )
            trips = int(trips)
            if trips < 0:
                raise NetworkDataError(
                    f"negative demand {trips} for OD pair {(origin, destination)}"
                )
            if trips:
                rows.append((int(origin), int(destination), trips))
        rows.sort()
        columns = list(zip(*rows)) or [(), (), ()]
        self._origins, self._destinations, self._trips = map(_frozen, columns)

    @classmethod
    def from_columns(
        cls, origins: np.ndarray, destinations: np.ndarray, trips: np.ndarray
    ) -> "TripTable":
        """A table from parallel columns already sorted by ``(origin,
        destination)`` with no pair twice; rows with zero trips are
        dropped.  Raises :class:`NetworkDataError` on intra-node or
        negative demand, or on unsorted or repeated pairs."""
        origins, destinations, trips = (
            np.asarray(c, dtype=np.int64) for c in (origins, destinations, trips)
        )
        if (origins == destinations).any():
            raise NetworkDataError("trip table has intra-node demand")
        if (trips < 0).any():
            raise NetworkDataError("trip table has negative demand")
        later = origins[1:] > origins[:-1]
        later |= (origins[1:] == origins[:-1]) & (destinations[1:] > destinations[:-1])
        if not later.all():
            raise NetworkDataError("trip table columns are not sorted unique pairs")
        keep = trips != 0
        table = cls.__new__(cls)
        table._origins = _frozen(origins[keep])
        table._destinations = _frozen(destinations[keep])
        table._trips = _frozen(trips[keep])
        return table

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(origins, destinations, trips)``, one read-only row per OD
        pair in :meth:`pairs` order."""
        return self._origins, self._destinations, self._trips

    def row(self, origin: int, destination: int) -> Optional[int]:
        """The row of one OD pair, or ``None`` if it has no demand."""
        lo = int(np.searchsorted(self._origins, origin, side="left"))
        hi = int(np.searchsorted(self._origins, origin, side="right"))
        k = lo + int(np.searchsorted(self._destinations[lo:hi], destination))
        if k < hi and self._destinations[k] == destination:
            return k
        return None

    def trips(self, origin: int, destination: int) -> int:
        """Demand for one OD pair (0 if absent)."""
        k = self.row(origin, destination)
        return 0 if k is None else int(self._trips[k])

    def pairs(self) -> Iterator[Tuple[OdPair, int]]:
        """All nonzero entries in deterministic (sorted) order."""
        keys = zip(self._origins.tolist(), self._destinations.tolist())
        return zip(keys, self._trips.tolist())

    @property
    def total_trips(self) -> int:
        """Total vehicles per period."""
        return int(self._trips.sum())

    def origins(self) -> List[int]:
        """All origin nodes with nonzero demand, sorted."""
        return sorted_unique(self._origins).tolist()

    def nodes(self) -> List[int]:
        """All nodes appearing as origin or destination, sorted."""
        return sorted_unique(np.concatenate([self._origins, self._destinations])).tolist()

    def production(self, node: int) -> int:
        """Total trips originating at *node*."""
        return int(self._trips[self._origins == node].sum())

    def attraction(self, node: int) -> int:
        """Total trips ending at *node*."""
        return int(self._trips[self._destinations == node].sum())

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "TripTable":
        """A new table with every demand multiplied by *factor* and
        rounded to the nearest integer (halves to even, as ``round``)."""
        if factor <= 0:
            raise NetworkDataError(f"scale factor must be positive, got {factor}")
        trips = np.rint(self._trips * factor).astype(np.int64)
        return TripTable.from_columns(self._origins, self._destinations, trips)

    def to_matrix(self, nodes: List[int] = None) -> np.ndarray:
        """Dense demand matrix over *nodes* (default: all table nodes)."""
        if nodes is None:
            nodes = self.nodes()
        index = {node: i for i, node in enumerate(nodes)}
        matrix = np.zeros((len(nodes), len(nodes)), dtype=np.int64)
        for (o, d), t in self.pairs():
            if o in index and d in index:
                matrix[index[o], index[d]] = t
        return matrix

    def __len__(self) -> int:
        return int(self._trips.size)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"TripTable(pairs={len(self)}, total={self.total_trips})"
