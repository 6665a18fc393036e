"""Trajectory replay: per-vehicle multi-hop paths, heterogeneous fleet.

Every other built-in scenario routes demand all-or-nothing along
free-flow shortest paths.  Real probe-vehicle datasets are messier:
different vehicle classes take different multi-hop paths between the
same endpoints, and demand swings with the calendar.
:class:`TrajectoryReplayScenario` replays such a dataset
deterministically on the Sioux Falls network:

* **Vehicle classes.**  Each OD pair is deterministically assigned to
  one class — *cars* (~70%) drive the shortest path, *trucks* (~20%)
  are banned from the CBD (node 10) and route around it, *buses*
  (~10%) detour via the transit hub (node 16).  The class partition is
  a pure function of the OD pair, so replay is bit-identical
  everywhere.
* **Time-varying demand.**  A weekday/weekend profile scales each
  period's trips (five weekdays at 1.0, then 0.6 and 0.5), on top of
  whatever demand drift the deployment applies.
* **RSU outages.**  Weekend maintenance windows mark RSUs down as
  advisory metadata (``rsu_outages``) for the chaos drills; the
  measurement pipeline keeps every RSU live so determinism invariants
  hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.roadnet.graph import RoadNetwork
from repro.roadnet.gravity import gravity_trip_table
from repro.roadnet.routing import RoutePlan
from repro.roadnet.sioux_falls import sioux_falls_network
from repro.roadnet.trips import TripTable
from repro.roadnet.volumes import TrafficAssignment
from repro.scenarios.base import DemandProfile, Scenario
from repro.traffic.network_workload import NetworkWorkload
from repro.utils.rng import SeedLike

__all__ = ["TrajectoryReplayScenario"]

OdPair = Tuple[int, int]

#: Sioux Falls central business district — closed to through trucks.
CBD_NODE = 10
#: Sioux Falls transit hub — every bus route calls here.
TRANSIT_HUB = 16

#: Knuth's multiplicative hash constant; spreads OD-pair indices
#: uniformly over residues so class shares land near their targets.
_HASH = 2654435761

#: Weekend maintenance windows: period -> RSUs scheduled down.
_OUTAGES: Dict[int, FrozenSet[int]] = {
    5: frozenset({3}),
    6: frozenset({13, 20}),
}


def _dedup(path: List[int]) -> List[int]:
    """Drop revisited nodes, keeping first-visit order (a vehicle
    passes each RSU's radio range once per trip for volume purposes)."""
    return list(dict.fromkeys(path))


@dataclass(frozen=True)
class TrajectoryReplayScenario(Scenario):
    """Replay a heterogeneous-fleet trajectory dataset on Sioux Falls.

    See the module docstring for the replay semantics.  ``gamma``
    shapes the underlying gravity demand exactly as in
    :class:`~repro.scenarios.builtin.SiouxFallsScenario`; only the
    *routes* differ (per-class trajectories instead of pure shortest
    paths), which is the point of the scenario.
    """

    gamma: float = 1.0

    name = "trajectory-replay"
    description = (
        "Sioux Falls trajectory replay: cars on shortest paths, trucks "
        "routed around the CBD, buses via the transit hub; "
        "weekday/weekend demand curve with weekend RSU maintenance"
    )
    demand_profile = DemandProfile(
        name="weekday-weekend",
        factors=(1.0, 1.0, 1.0, 1.0, 1.0, 0.6, 0.5),
    )
    vehicle_classes = {"car": 0.7, "truck": 0.2, "bus": 0.1}

    def build_network(self) -> RoadNetwork:
        return sioux_falls_network()

    def trip_table(self, total_trips: int, *, period: int = 0) -> TripTable:
        return gravity_trip_table(
            self.network(),
            total_trips=self.demand_profile.scale(total_trips, period),
            gamma=self.gamma,
        )

    def rsu_outages(self, period: int) -> FrozenSet[int]:
        cycle = int(period) % len(self.demand_profile.factors)
        return _OUTAGES.get(cycle, frozenset())

    # ------------------------------------------------------------------
    # Per-class trajectories
    # ------------------------------------------------------------------
    def class_of(self, origin: int, destination: int) -> str:
        """The vehicle class replayed on one OD pair.

        A pure function of the pair: a multiplicative hash of the
        coordinates picks a residue 0-9 — residues 0-6 are cars, 7-8
        trucks, 9 buses, matching the 70/20/10 mix.  Hashing the
        coordinates directly (rather than an enumeration index) keeps
        the partition independent of which pairs happen to have demand.
        """
        residue = ((origin * 31 + destination) * _HASH >> 7) % 10
        if residue < 7:
            return "car"
        if residue < 9:
            return "truck"
        return "bus"

    def _truck_network(self) -> RoadNetwork:
        """The network with the CBD excised (trucks may not enter)."""
        cached = self.__dict__.get("_truck_net")
        if cached is None:
            network = self.network()
            cached = RoadNetwork(
                f"{network.name}-no-cbd",
                [
                    arc
                    for arc in network.arcs()
                    if CBD_NODE not in (arc.tail, arc.head)
                ],
            )
            object.__setattr__(self, "_truck_net", cached)
        return cached

    def route_for(self, origin: int, destination: int) -> List[int]:
        """The replayed multi-hop trajectory for one OD pair."""
        network = self.network()
        cls = self.class_of(origin, destination)
        if cls == "truck" and CBD_NODE not in (origin, destination):
            return self._truck_network().shortest_path(origin, destination)
        if cls == "bus" and TRANSIT_HUB not in (origin, destination):
            inbound = network.shortest_path(origin, TRANSIT_HUB)
            outbound = network.shortest_path(TRANSIT_HUB, destination)
            return _dedup(inbound[:-1] + outbound)
        return network.shortest_path(origin, destination)

    def route_plan(self, trips: TripTable) -> RoutePlan:
        """Replay trajectories for every OD pair with demand."""
        routes: Dict[OdPair, List[int]] = {}
        for (origin, destination), _ in trips.pairs():
            if (origin, destination) not in routes:
                routes[(origin, destination)] = self.route_for(
                    origin, destination
                )
        return RoutePlan.from_routes(routes, trips)

    # ------------------------------------------------------------------
    # Workload assembly (overridden: routes are replayed, not assigned)
    # ------------------------------------------------------------------
    def workload(
        self,
        *,
        total_trips: int,
        seed: SeedLike = None,
        period: int = 0,
    ) -> NetworkWorkload:
        trips = self.trip_table(int(total_trips), period=int(period))
        plan = self.route_plan(trips)
        assignment = TrafficAssignment.materialize(plan, seed=seed)
        return NetworkWorkload(
            network=self.network(), plan=plan, assignment=assignment
        )

    def class_mix(self, trips: TripTable) -> Dict[str, int]:
        """Trips per vehicle class in one period's table (diagnostics
        for ``repro scenarios describe``)."""
        mix: Dict[str, int] = {name: 0 for name in self.vehicle_classes}
        for (origin, destination), count in trips.pairs():
            mix[self.class_of(origin, destination)] += count
        return mix
