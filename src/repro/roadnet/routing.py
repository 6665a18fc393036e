"""Route assignment: turning OD trips into node sequences.

The paper "generates traffic according to the known vehicle trip
table" — each trip becomes a vehicle driving a route through the
network, passing the RSU at every node en route.  We assign each OD
pair its free-flow shortest path (all-or-nothing assignment), the
standard baseline assignment for uncongested studies; congestion-aware
assignment would only change *which* nodes a vehicle passes, not how
the measurement scheme behaves.

Every route out of one origin is read off that origin's Dijkstra tree
(:meth:`RoadNetwork.shortest_path_tree`), one tree per origin.  A plan
answers "which OD pairs pass this node?" from its
:class:`RouteIncidence`, built once on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import NetworkDataError
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.trips import TripTable

__all__ = ["RouteIncidence", "RoutePlan", "assign_routes"]

OdPair = Tuple[int, int]


@dataclass(frozen=True, eq=False)
class RouteIncidence:
    """The OD × node incidence of a plan, in compressed-column form.

    OD pairs are indexed in trip-table order (``trips.pairs()``).
    Columns are the nodes some route visits, in order of first
    appearance along those routes; column ``c`` is node ``nodes[c]``
    and the OD pairs whose route passes it are
    ``ods[offsets[c]:offsets[c + 1]]``, ascending.

    Attributes
    ----------
    nodes:
        Node id per column.
    offsets:
        Column start offsets into *ods* (``len(nodes) + 1`` entries).
    ods:
        OD indices, column by column.
    trips:
        Trips per OD pair.
    """

    nodes: np.ndarray
    offsets: np.ndarray
    ods: np.ndarray
    trips: np.ndarray

    @classmethod
    def build(cls, plan: "RoutePlan") -> "RouteIncidence":
        """Index *plan*'s routes in one pass; raises
        :class:`NetworkDataError` if a route visits a node twice."""
        pairs = list(plan.trips.pairs())
        columns: Dict[int, List[int]] = {}
        for k, (pair, _) in enumerate(pairs):
            for node in plan.routes[pair]:
                ods = columns.get(node)
                if ods is None:
                    columns[node] = [k]
                elif ods[-1] == k:
                    raise NetworkDataError(
                        f"route for OD pair {pair} revisits node {node}"
                    )
                else:
                    ods.append(k)
        n = len(columns)
        sizes = np.fromiter(map(len, columns.values()), dtype=np.int64, count=n)
        total = int(sizes.sum())
        index = np.int32 if total < 2**31 else np.int64
        offsets = np.zeros(n + 1, dtype=index)
        np.cumsum(sizes, out=offsets[1:])
        ods = chain.from_iterable(columns.values())
        return cls(
            nodes=np.fromiter(columns, dtype=np.int64, count=n),
            offsets=offsets,
            ods=np.fromiter(ods, dtype=index, count=total),
            trips=np.fromiter((t for _, t in pairs), dtype=np.int64, count=len(pairs)),
        )

    @cached_property
    def _columns(self) -> Dict[int, int]:
        return {node: c for c, node in enumerate(self.nodes.tolist())}

    def ods_at(self, node: int) -> np.ndarray:
        """Ascending indices of the OD pairs whose route passes *node*."""
        c = self._columns.get(node)
        if c is None:
            return self.ods[:0]
        return self.ods[self.offsets[c] : self.offsets[c + 1]]


@dataclass(frozen=True)
class RoutePlan:
    """Shortest-path routes for every OD pair of a trip table.

    Routes must be simple paths (no node twice).

    Attributes
    ----------
    routes:
        ``(origin, destination) -> node sequence`` (inclusive of both
        endpoints).
    trips:
        The trip table the plan was built for.
    """

    routes: Dict[OdPair, List[int]]
    trips: TripTable

    def route(self, origin: int, destination: int) -> List[int]:
        """The assigned route for one OD pair."""
        try:
            return list(self.routes[(origin, destination)])
        except KeyError:
            raise NetworkDataError(
                f"no route assigned for OD pair {(origin, destination)}"
            ) from None

    @cached_property
    def incidence(self) -> RouteIncidence:
        """The plan's :class:`RouteIncidence` (built on first use)."""
        return RouteIncidence.build(self)

    def vehicles_through(self, node: int) -> int:
        """Total vehicles whose route passes *node* (transit volume)."""
        incidence = self.incidence
        return int(incidence.trips[incidence.ods_at(node)].sum())

    def __len__(self) -> int:
        return len(self.routes)


def assign_routes(network: RoadNetwork, trips: TripTable) -> RoutePlan:
    """All-or-nothing shortest-path assignment of *trips* on *network*.

    Every OD pair with nonzero demand gets the minimum free-flow-time
    path from its origin's Dijkstra tree; raises
    :class:`NetworkDataError` for disconnected pairs.
    """
    routes: Dict[OdPair, List[int]] = {
        pair: network.shortest_path(*pair) for pair, _ in trips.pairs()
    }
    return RoutePlan(routes=routes, trips=trips)
