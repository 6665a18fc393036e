"""Per-pair reference implementations of the workload layer.

The straightforward loops ``repro.roadnet`` used before it read routes
off one Dijkstra tree per origin and ground truth off an OD × node
incidence.  They are kept here, unoptimized, as the differential
oracle the vectorized code must match exactly:

* the network as a networkx digraph built from ``arcs()``, and strong
  connectivity through it;
* shortest-path trees: networkx's own Dijkstra, which
  ``repro.roadnet.graph.shortest_path_sweep`` replicates;
* routing: one networkx bidirectional Dijkstra search per OD pair;
* passes: scan every OD span and keep it if ``node in route``;
* ground truth: nested loops over each route's nodes and node pairs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import networkx as nx
import numpy as np

from repro.roadnet.graph import RoadNetwork
from repro.roadnet.routing import RoutePlan
from repro.roadnet.trips import TripTable
from repro.roadnet.volumes import TrafficAssignment

OdPair = Tuple[int, int]


def digraph(network: RoadNetwork) -> nx.DiGraph:
    """*network*'s arcs, in ``arcs()`` order, as a networkx digraph with
    ``free_flow_time`` and ``capacity`` arc attributes."""
    graph = nx.DiGraph()
    for arc in network.arcs():
        graph.add_edge(
            arc.tail,
            arc.head,
            free_flow_time=arc.free_flow_time,
            capacity=arc.capacity,
        )
    return graph


def strongly_connected(network: RoadNetwork) -> bool:
    """Whether every node of *network* can reach every other node."""
    return nx.is_strongly_connected(digraph(network))


def dijkstra_tree(
    graph: nx.DiGraph, origin: int, weight: str
) -> Tuple[Dict[int, int], Dict[int, float]]:
    """``(first predecessor, distance)`` per node networkx's Dijkstra
    from *origin* reaches (the origin has no predecessor)."""
    pred, _ = nx.dijkstra_predecessor_and_distance(graph, origin, weight=weight)
    dist = nx.single_source_dijkstra_path_length(graph, origin, weight=weight)
    return {node: preds[0] for node, preds in pred.items() if preds}, dist


def gravity_demand(
    network: RoadNetwork, total_trips: int, gamma: float, weights: Dict[int, float]
) -> Dict[OdPair, int]:
    """The gravity table as one dict loop over networkx's all-pairs
    distances (zero entries included)."""
    times = dict(
        nx.all_pairs_dijkstra_path_length(digraph(network), weight="free_flow_time")
    )
    raw = {
        (o, d): weights[o] * weights[d] / max(times[o][d], 1e-9) ** gamma
        for o in network.nodes
        for d in network.nodes
        if o != d
    }
    scale = total_trips / sum(raw.values())
    return {pair: int(round(value * scale)) for pair, value in raw.items()}


def bidirectional_routes(
    network: RoadNetwork, trips: TripTable
) -> Dict[OdPair, List[int]]:
    """The free-flow shortest path networkx's per-pair search picks, for
    every OD pair of *trips*."""
    graph = digraph(network)
    return {
        pair: nx.shortest_path(graph, *pair, weight="free_flow_time")
        for pair, _ in trips.pairs()
    }


def passes_at(
    assignment: TrafficAssignment, node: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(ids, keys)`` at *node*: every OD span whose route contains it."""
    id_chunks: List[np.ndarray] = []
    key_chunks: List[np.ndarray] = []
    for pair, (start, stop) in assignment.spans.items():
        if node in assignment.plan.routes[pair]:
            id_chunks.append(assignment.fleet.ids[start:stop])
            key_chunks.append(assignment.fleet.keys[start:stop])
    if not id_chunks:
        empty = np.empty(0, dtype=np.uint64)
        return empty, empty.copy()
    return np.concatenate(id_chunks), np.concatenate(key_chunks)


def node_volumes(plan: RoutePlan) -> Dict[int, int]:
    volumes: Dict[int, int] = {}
    for pair, trips in plan.trips.pairs():
        for node in plan.routes[pair]:
            volumes[node] = volumes.get(node, 0) + trips
    return volumes


def pair_common_volumes(plan: RoutePlan) -> Dict[OdPair, int]:
    common: Dict[OdPair, int] = {}
    for pair, trips in plan.trips.pairs():
        route = plan.routes[pair]
        for i, a in enumerate(route):
            for b in route[i + 1 :]:
                key = (a, b) if a < b else (b, a)
                common[key] = common.get(key, 0) + trips
    return common


def vehicles_through(plan: RoutePlan, node: int) -> int:
    return sum(
        trips for pair, trips in plan.trips.pairs() if node in plan.routes[pair]
    )
