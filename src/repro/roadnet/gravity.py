"""Gravity-model trip synthesis.

We do not have the verbatim LeBlanc (1975) trip table file (DESIGN.md
substitution #1), so the full-network Sioux Falls workload synthesizes
demand with the classic doubly-informed gravity model:

    ``T_od ∝ P_o * P_d / t_od**gamma``

where ``P`` are node weights (productions) and ``t_od`` the free-flow
shortest-path travel time.  The weights default to a profile that
makes the central nodes (10, 16, 17) the heavy-traffic intersections,
as in the paper (node 10 carries the largest volume), and the table is
scaled so total daily demand matches a target.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.errors import CalibrationError, NetworkDataError
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.trips import TripTable
from repro.utils.arrays import sorted_unique

__all__ = ["gravity_trip_table", "DEFAULT_NODE_WEIGHTS"]

#: Relative trip-end weights for the Sioux Falls nodes: a center-heavy
#: profile (the CBD nodes around 10 attract the most travel).
DEFAULT_NODE_WEIGHTS: Dict[int, float] = {
    1: 2.0, 2: 2.0, 3: 2.0, 4: 4.0, 5: 4.0, 6: 3.0,
    7: 4.0, 8: 5.0, 9: 6.0, 10: 16.0, 11: 6.0, 12: 4.0,
    13: 4.0, 14: 4.0, 15: 6.0, 16: 5.0, 17: 5.0, 18: 4.0,
    19: 5.0, 20: 5.0, 21: 3.0, 22: 5.0, 23: 3.0, 24: 3.0,
}


def gravity_trip_table(
    network: RoadNetwork,
    *,
    total_trips: int = 360_600,
    gamma: float = 1.0,
    weights: Optional[Mapping[int, float]] = None,
) -> TripTable:
    """Synthesize a gravity-model trip table on *network*.

    Parameters
    ----------
    total_trips:
        Target total daily demand (the classic Sioux Falls table totals
        360,600 trips/day).
    gamma:
        Travel-time friction exponent.
    weights:
        Node trip-end weights; defaults to
        :data:`DEFAULT_NODE_WEIGHTS` restricted to the network's nodes.
    """
    if total_trips <= 0:
        raise CalibrationError(f"total_trips must be positive, got {total_trips}")
    if gamma < 0:
        raise CalibrationError(f"gamma must be >= 0, got {gamma}")
    nodes = network.nodes
    if weights is None:
        weights = {node: DEFAULT_NODE_WEIGHTS.get(node, 1.0) for node in nodes}
    else:
        missing = [node for node in nodes if node not in weights]
        if missing:
            raise NetworkDataError(f"weights missing for nodes {missing}")

    ids = np.asarray(nodes, dtype=np.int64)
    n = ids.size
    off = ~np.eye(n, dtype=bool)
    origins, destinations = np.nonzero(off)
    # Pairs in (origin, destination) order; one Dijkstra row per origin.
    times = np.stack([network.shortest_path_tree(node).dist for node in nodes])[off]
    lost = np.flatnonzero(np.isinf(times))
    if lost.size:
        k = lost[0]
        raise NetworkDataError(
            f"nodes {nodes[origins[k]]} and {nodes[destinations[k]]} are disconnected"
        )
    # Python's float ``**`` over the distinct times, then gathered:
    # ``np.power`` rounds differently on some inputs.
    distinct = sorted_unique(times)
    friction = np.array([max(t, 1e-9) ** gamma for t in distinct.tolist()])
    mass = np.array([float(weights[node]) for node in nodes])
    raw = mass[origins] * mass[destinations] / friction[np.searchsorted(distinct, times)]
    # A Python ``sum`` in pair order, as the scale factor always had.
    scale = total_trips / sum(raw.tolist())
    demand = np.rint(raw * scale).astype(np.int64)
    table = TripTable.from_columns(ids[origins], ids[destinations], demand)
    if table.total_trips == 0:
        raise CalibrationError(
            "gravity table rounded to zero everywhere; raise total_trips"
        )
    return table
