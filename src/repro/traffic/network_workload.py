"""Network-driven workloads: from a road network to encoder inputs.

Glues the roadnet substrate to the schemes: synthesize (or accept) a
trip table, route it, materialize vehicles, and expose per-RSU pass
arrays plus the ground-truth volumes the experiments compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.roadnet.graph import RoadNetwork
from repro.roadnet.routing import RoutePlan, assign_routes
from repro.roadnet.trips import TripTable
from repro.roadnet.volumes import (
    PairVolumes,
    TrafficAssignment,
    node_volumes,
    pair_common_volumes,
)
from repro.utils.rng import SeedLike

__all__ = ["NetworkWorkload"]


@dataclass(frozen=True)
class NetworkWorkload:
    """A fully materialized network traffic workload.

    Bundles the route plan, the concrete vehicles, and the ground
    truth; ready to drive either scheme's ``encode`` and to check its
    estimates.
    """

    network: RoadNetwork
    plan: RoutePlan
    assignment: TrafficAssignment

    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        trips: TripTable,
        *,
        seed: SeedLike = None,
    ) -> "NetworkWorkload":
        """Route *trips* on *network* and materialize the fleet."""
        plan = assign_routes(network, trips)
        assignment = TrafficAssignment.materialize(plan, seed=seed)
        return cls(network=network, plan=plan, assignment=assignment)

    def volumes(self) -> Dict[int, int]:
        """Ground-truth point volume per node."""
        return node_volumes(self.plan)

    def common_volumes(self) -> PairVolumes:
        """Ground-truth point-to-point volume per unordered node pair,
        as a :class:`~repro.roadnet.volumes.PairVolumes` column."""
        return pair_common_volumes(self.plan)

    def passes(
        self, nodes: Optional[List[int]] = None
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Per-node encoder inputs (default: every network node)."""
        if nodes is None:
            nodes = self.network.nodes
        return self.assignment.passes(nodes)

