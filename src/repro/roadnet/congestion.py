"""Congestion-aware traffic assignment (substrate extension).

The paper's Sioux Falls experiments only need *routes*; its source
network (LeBlanc et al. 1975) is however the canonical benchmark for
*equilibrium* assignment, where link travel times grow with flow.  This
module implements the classic pipeline so the workload generator can
produce congestion-consistent routes instead of free-flow shortest
paths:

* the **BPR latency function**
  ``t(v) = t0 * (1 + alpha (v / c)**beta)`` (Bureau of Public Roads);
* **iterative assignment by the method of successive averages (MSA)**:
  repeatedly assign all-or-nothing on current travel times and average
  the link flows with step ``1/k``, which converges to the user
  equilibrium for BPR-type latencies.

The measurement scheme is agnostic to how routes are chosen; what this
changes is which node pairs share traffic — exercised by
``tests/test_congestion.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import CalibrationError, NetworkDataError
from repro.roadnet.graph import (
    RoadNetwork,
    adjacency,
    shortest_path_sweep,
    sweep_paths,
)
from repro.roadnet.routing import RoutePlan
from repro.roadnet.trips import TripTable
from repro.utils.arrays import sorted_unique

__all__ = ["bpr_travel_time", "EquilibriumAssignment", "assign_equilibrium"]

ArcKey = Tuple[int, int]


def bpr_travel_time(
    free_flow_time: float,
    flow: float,
    capacity: float,
    *,
    alpha: float = 0.15,
    beta: float = 4.0,
) -> float:
    """The BPR volume-delay function ``t0 (1 + alpha (v/c)^beta)``."""
    if free_flow_time <= 0 or capacity <= 0:
        raise NetworkDataError("free_flow_time and capacity must be positive")
    if flow < 0:
        raise NetworkDataError(f"flow must be >= 0, got {flow}")
    return free_flow_time * (1.0 + alpha * (flow / capacity) ** beta)


@dataclass(frozen=True)
class EquilibriumAssignment:
    """Result of an MSA equilibrium run.

    Attributes
    ----------
    plan:
        Routes at the final travel times (all-or-nothing on the
        converged times), usable anywhere a
        :class:`~repro.roadnet.routing.RoutePlan` is.
    link_flows:
        Converged flow per directed arc.
    link_times:
        Converged BPR travel time per directed arc.
    iterations:
        MSA iterations executed.
    relative_gap:
        Final relative change of total system travel time.
    """

    plan: RoutePlan
    link_flows: Dict[ArcKey, float]
    link_times: Dict[ArcKey, float]
    iterations: int
    relative_gap: float

    def total_travel_time(self) -> float:
        """System-wide vehicle-time at equilibrium."""
        return sum(
            self.link_flows[arc] * self.link_times[arc] for arc in self.link_flows
        )


def _all_or_nothing(
    network: RoadNetwork, times: List[float], trips: TripTable
) -> Tuple[Dict[ArcKey, float], RoutePlan]:
    """One shortest-path assignment; returns link flows and routes.

    Routes come from one :func:`shortest_path_sweep` per origin, arc
    ``network.arcs()[k]`` taking ``times[k]``, with the tie-break
    :meth:`RoadNetwork.shortest_path` uses.
    """
    ids = network.nodes
    nodes = np.asarray(ids, dtype=np.int64)
    succ = adjacency(network.arcs(), ids, times)
    origins, destinations, demand = trips.columns()
    positions, offsets = sweep_paths(
        lambda origin: shortest_path_sweep(succ, origin),
        nodes,
        network.positions(origins),
        network.positions(destinations),
    )
    # Demand on every arc the routes take, an arc coded tail * n + head
    # (a route's last node opens no arc).
    n = nodes.size
    opens = np.ones(positions.size, dtype=bool)
    opens[offsets[1:] - 1] = False
    tails = np.flatnonzero(opens)
    codes = positions[tails].astype(np.int64) * n + positions[tails + 1]
    used = sorted_unique(codes)
    volume = np.bincount(
        np.searchsorted(used, codes),
        weights=np.repeat(demand, np.diff(offsets) - 1),
        minlength=used.size,
    )
    flows = {
        (ids[code // n], ids[code % n]): flow
        for code, flow in zip(used.tolist(), volume.tolist())
    }
    plan = RoutePlan(trips=trips, nodes=nodes[positions], offsets=offsets)
    return flows, plan


def assign_equilibrium(
    network: RoadNetwork,
    trips: TripTable,
    *,
    alpha: float = 0.15,
    beta: float = 4.0,
    max_iterations: int = 50,
    tolerance: float = 1e-3,
) -> EquilibriumAssignment:
    """MSA user-equilibrium assignment of *trips* on *network*.

    Stops when the relative change of total system travel time between
    iterations falls below *tolerance*, or after *max_iterations*.
    """
    if max_iterations < 1:
        raise CalibrationError(f"max_iterations must be >= 1, got {max_iterations}")
    arcs = network.arcs()
    # Congested time per arc, aligned with arcs.
    times = [arc.free_flow_time for arc in arcs]

    flows: Dict[ArcKey, float] = {(arc.tail, arc.head): 0.0 for arc in arcs}
    previous_cost = None
    gap = float("inf")
    iterations = 0
    for k in range(1, max_iterations + 1):
        iterations = k
        aon_flows, _ = _all_or_nothing(network, times, trips)
        step = 1.0 / k
        for arc in flows:
            target = aon_flows.get(arc, 0.0)
            flows[arc] = (1.0 - step) * flows[arc] + step * target
        total_cost = 0.0
        for i, (arc, flow) in enumerate(zip(arcs, flows.values())):
            times[i] = bpr_travel_time(
                arc.free_flow_time, flow, arc.capacity, alpha=alpha, beta=beta
            )
            total_cost += flow * times[i]
        if previous_cost is not None and previous_cost > 0:
            gap = abs(total_cost - previous_cost) / previous_cost
            if gap < tolerance:
                previous_cost = total_cost
                break
        previous_cost = total_cost

    _, plan = _all_or_nothing(network, times, trips)
    link_times = dict(zip(flows, times))
    return EquilibriumAssignment(
        plan=plan,
        link_flows=dict(flows),
        link_times=link_times,
        iterations=iterations,
        relative_gap=gap,
    )
