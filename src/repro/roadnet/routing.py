"""Route assignment: turning OD trips into node sequences.

The paper "generates traffic according to the known vehicle trip
table" — each trip becomes a vehicle driving a route through the
network, passing the RSU at every node en route.  We assign each OD
pair its free-flow shortest path (all-or-nothing assignment), the
standard baseline assignment for uncongested studies; congestion-aware
assignment would only change *which* nodes a vehicle passes, not how
the measurement scheme behaves.

Every route out of one origin is read off that origin's Dijkstra tree
(:meth:`RoadNetwork.shortest_path_tree`), one tree per origin, and a
plan stores its routes flat: one node array plus per-OD offsets, in
trip-table order.  A plan answers "which OD pairs pass this node?"
from its :class:`RouteIncidence`, built once on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import NetworkDataError
from repro.obs import trace
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.trips import TripTable
from repro.utils.arrays import sorted_unique

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
        """Index *plan*'s flat routes with one stable sort; raises
        :class:`NetworkDataError` if a route visits a node twice."""
        stops = plan.nodes
        total = int(stops.size)
        index = np.int32 if total < 2**31 else np.int64
        od = np.repeat(np.arange(len(plan), dtype=index), np.diff(plan.offsets))
        distinct = sorted_unique(stops)
        rank = np.searchsorted(distinct, stops)
        # Route positions grouped by node, ascending within each group
        # (numpy's stable sort is a radix sort on 16-bit keys).
        key = rank.astype(np.uint16) if distinct.size <= 1 << 16 else rank
        by_node = np.argsort(key, kind="stable")
        sizes = np.bincount(rank, minlength=distinct.size)
        starts = np.cumsum(sizes) - sizes
        grouped = od[by_node]
        # One OD pair twice in a row inside a node's group: a revisit.
        again = grouped[1:] == grouped[:-1]
        again[starts[1:] - 1] = False
        if again.any():
            at = int(by_node[1:][again].min())
            origins, destinations, _ = plan.trips.columns()
            pair = (int(origins[od[at]]), int(destinations[od[at]]))
            raise NetworkDataError(
                f"route for OD pair {pair} revisits node {int(stops[at])}"
            )
        # Columns in order of first appearance: each group's first
        # position, sorted.
        columns = np.argsort(by_node[starts])
        widths = sizes[columns]
        offsets = np.zeros(distinct.size + 1, dtype=index)
        np.cumsum(widths, out=offsets[1:])
        gather = np.repeat(starts[columns] - offsets[:-1], widths) + np.arange(total)
        return cls(
            nodes=distinct[columns],
            offsets=offsets,
            ods=grouped[gather],
            trips=plan.trips.columns()[2],
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


class _RouteView(Mapping):
    """Read-only ``(origin, destination) -> route`` view of a plan, in
    trip-table order; each lookup slices the plan's flat routes."""

    def __init__(self, plan: "RoutePlan") -> None:
        self._plan = plan

    def __getitem__(self, pair: OdPair) -> List[int]:
        k = self._plan.trips.row(*pair)
        if k is None:
            raise KeyError(pair)
        return self._plan.route_at(k)

    def __iter__(self) -> Iterator[OdPair]:
        return (pair for pair, _ in self._plan.trips.pairs())

    def __len__(self) -> int:
        return len(self._plan)


@dataclass(frozen=True, eq=False)
class RoutePlan:
    """Routes for every OD pair of a trip table, stored flat.

    Routes must be simple paths (no node twice).

    Attributes
    ----------
    trips:
        The trip table the plan was built for.
    nodes:
        Every route's node sequence (inclusive of both endpoints),
        concatenated in trip-table order.
    offsets:
        Route ``k`` — the ``k``-th pair of ``trips.pairs()`` — is
        ``nodes[offsets[k]:offsets[k + 1]]`` (``len(trips) + 1``
        entries).
    """

    trips: TripTable
    nodes: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_routes(
        cls, routes: Mapping[OdPair, Sequence[int]], trips: TripTable
    ) -> "RoutePlan":
        """The plan taking ``routes[pair]`` for every pair of *trips*;
        routes for pairs without demand are ignored."""
        chosen = []
        for pair, _ in trips.pairs():
            route = routes.get(pair)
            if route is None:
                raise NetworkDataError(f"no route assigned for OD pair {pair}")
            chosen.append(route)
        lengths = np.fromiter(map(len, chosen), dtype=np.int64, count=len(chosen))
        offsets = np.zeros(len(chosen) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        nodes = np.fromiter(
            chain.from_iterable(chosen), dtype=np.int64, count=int(offsets[-1])
        )
        return cls(trips=trips, nodes=nodes, offsets=offsets)

    def __post_init__(self) -> None:
        self.nodes.flags.writeable = False
        self.offsets.flags.writeable = False

    @cached_property
    def routes(self) -> Mapping[OdPair, List[int]]:
        """``(origin, destination) -> node sequence``, a read-only view
        in trip-table order."""
        return _RouteView(self)

    def route_at(self, k: int) -> List[int]:
        """The route of the ``k``-th OD pair of ``trips.pairs()``."""
        return self.nodes[self.offsets[k] : self.offsets[k + 1]].tolist()

    def route(self, origin: int, destination: int) -> List[int]:
        """The assigned route for one OD pair."""
        k = self.trips.row(origin, destination)
        if k is None:
            raise NetworkDataError(
                f"no route assigned for OD pair {(origin, destination)}"
            )
        return self.route_at(k)

    @cached_property
    def incidence(self) -> RouteIncidence:
        """The plan's :class:`RouteIncidence`, built on first use in a
        ``routing.incidence`` span (:data:`repro.obs.trace`)."""
        with trace.span("routing.incidence"):
            return RouteIncidence.build(self)

    def vehicles_through(self, node: int) -> int:
        """Total vehicles whose route passes *node* (transit volume)."""
        incidence = self.incidence
        return int(incidence.trips[incidence.ods_at(node)].sum())

    def __len__(self) -> int:
        return len(self.trips)


def assign_routes(network: RoadNetwork, trips: TripTable) -> RoutePlan:
    """All-or-nothing shortest-path assignment of *trips* on *network*.

    Every OD pair with nonzero demand gets the minimum free-flow-time
    path from its origin's Dijkstra tree; raises
    :class:`NetworkDataError` for disconnected pairs.
    """
    origins, destinations, _ = trips.columns()
    nodes, offsets = network.shortest_paths(origins, destinations)
    return RoutePlan(trips=trips, nodes=nodes, offsets=offsets)
