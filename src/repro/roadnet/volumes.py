"""Node transit volumes and vehicle materialization from routed trips.

Given a :class:`~repro.roadnet.routing.RoutePlan`, this module answers
the two questions the measurement experiments need:

* ground truth — how many vehicles pass each node (*point* volume) and
  each node pair (*point-to-point* volume ``n_c``);
* materialization — concrete vehicle identities per node, so the
  encoders can be driven by network traffic
  (:class:`TrafficAssignment`).

It also provides :func:`calibrate_to_node_volumes`, the scaling helper
that matches synthesized traffic to the paper's Table I node volumes.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import CalibrationError
from repro.roadnet.routing import RoutePlan
from repro.traffic.population import VehicleFleet
from repro.utils.arrays import triu_position
from repro.utils.rng import SeedLike

__all__ = [
    "node_volumes",
    "pair_common_volumes",
    "PairVolumes",
    "TrafficAssignment",
    "calibrate_to_node_volumes",
]

OdPair = Tuple[int, int]


def node_volumes(plan: RoutePlan) -> Dict[int, int]:
    """Transit volume per node: vehicles whose route passes it.

    Keys run in order of first appearance along the plan's routes (in
    trip-table order).
    """
    incidence = plan.incidence
    if incidence.nodes.size == 0:
        return {}
    per_column = np.add.reduceat(incidence.trips[incidence.ods], incidence.offsets[:-1])
    return dict(zip(incidence.nodes.tolist(), per_column.tolist()))


#: OD pairs per chunk of :func:`pair_common_volumes`; keeps its
#: scratch arrays small whatever the plan's size.
_ROUTE_CHUNK = 512


class PairVolumes(Mapping):
    """Point-to-point ground truth of a plan, stored as one column.

    What :func:`pair_common_volumes` returns, laid out like a
    :class:`~repro.core.estimator.PairMatrix` over the same RSUs, so a
    decode is scored against it by position.

    Attributes
    ----------
    nodes:
        The nodes some route visits, sorted (``int64``).
    volume:
        Per-pair ``n_c`` (``int64``) in ``np.triu_indices(len(nodes),
        1)`` order: zero for a pair no vehicle passes both of.

    The arrays are read-only.  As a read-only :class:`Mapping` it reads
    like the ``{(a, b): n_c}`` dict of every pair ``a < b`` with
    ``n_c > 0``, keys ascending.  A zero-volume, reversed or unknown
    key raises :class:`KeyError`.
    """

    __slots__ = ("nodes", "volume", "_rank", "_len")

    def __init__(self, nodes: np.ndarray, volume: np.ndarray) -> None:
        self.nodes = np.array(nodes, dtype=np.int64)
        self.volume = np.array(volume, dtype=np.int64)
        k = self.nodes.size
        if self.volume.shape != (k * (k - 1) // 2,):
            raise ValueError(
                f"volume has shape {self.volume.shape}, expected "
                f"({k * (k - 1) // 2},) for {k} nodes"
            )
        self.nodes.flags.writeable = False
        self.volume.flags.writeable = False
        self._rank = {node: i for i, node in enumerate(self.nodes.tolist())}
        self._len = int(np.count_nonzero(self.volume))

    def at_least(self, floor: int) -> np.ndarray:
        """Ascending positions of the keys with ``n_c >= floor`` (a
        zero volume is never a key, whatever *floor*)."""
        return np.flatnonzero(self.volume >= max(floor, 1))

    def pair_ids(self) -> Tuple[np.ndarray, np.ndarray]:
        """Both nodes of every position as two ``int64`` columns
        ``(a, b)``, zero-volume pairs included."""
        rows, cols = np.triu_indices(self.nodes.size, 1)
        return self.nodes[rows], self.nodes[cols]

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[OdPair]:
        a, b = self.pair_ids()
        seen = self.volume != 0
        return zip(a[seen].tolist(), b[seen].tolist())

    def __getitem__(self, key: OdPair) -> int:
        if not (isinstance(key, tuple) and len(key) == 2):
            raise KeyError(key)
        i, j = self._rank.get(key[0]), self._rank.get(key[1])
        if i is None or j is None or i >= j:
            raise KeyError(key)
        volume = int(self.volume[triu_position(i, j, self.nodes.size)])
        if not volume:
            raise KeyError(key)
        return volume

    def __repr__(self) -> str:
        return f"PairVolumes({self.nodes.size} nodes, {len(self)} pairs)"


def pair_common_volumes(plan: RoutePlan) -> PairVolumes:
    """Point-to-point ground truth for every unordered node pair.

    ``result[(a, b)]`` (with ``a < b``) counts vehicles whose route
    passes both ``a`` and ``b`` — the quantity ``n_c`` the schemes
    estimate.  Every within-route pair ``(route[i], route[j])``, ``i <
    j``, is summed into a dense node × node table by rank, a chunk of
    routes at a time; the table's two triangles are then added into
    the :class:`PairVolumes` column.
    """
    incidence = plan.incidence
    nodes = np.sort(incidence.nodes)
    n = nodes.size
    total = np.zeros(n * n, dtype=np.int64)
    ranks = np.searchsorted(nodes, plan.nodes)
    bounds = plan.offsets
    for lo in range(0, len(plan), _ROUTE_CHUNK):
        hi = min(lo + _ROUTE_CHUNK, len(plan))
        lengths = np.diff(bounds[lo : hi + 1])
        rank = ranks[bounds[lo] : bounds[hi]]
        # Pairs each route position opens with the positions after it.
        later = np.repeat(bounds[lo + 1 : hi + 1] - bounds[lo], lengths)
        later -= np.arange(rank.size) + 1
        a = np.repeat(np.arange(rank.size), later)
        b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(later) - later, later)
        weight = np.repeat(incidence.trips[lo:hi], lengths)
        np.add.at(total, rank[a] * n + rank[b], weight[a])
    upper, lower = np.triu_indices(n, 1)
    return PairVolumes(nodes, total[upper * n + lower] + total[lower * n + upper])


@dataclass(frozen=True)
class TrafficAssignment:
    """Concrete vehicles realizing a route plan.

    Vehicles are materialized once (one fleet for the whole period) and
    partitioned contiguously by OD pair; per-node pass lists are then
    gathers of the slices whose route touches the node.
    """

    plan: RoutePlan
    fleet: VehicleFleet

    @classmethod
    def materialize(cls, plan: RoutePlan, *, seed: SeedLike = None) -> "TrafficAssignment":
        """Create one vehicle per trip, in deterministic OD order."""
        fleet = VehicleFleet.random(plan.trips.total_trips, seed=seed)
        return cls(plan=plan, fleet=fleet)

    @cached_property
    def spans(self) -> Dict[OdPair, Tuple[int, int]]:
        """``(origin, destination) -> (start, stop)``: the fleet slots
        of each OD pair's vehicles."""
        bounds = self._bounds.tolist()
        return {
            pair: (bounds[k], bounds[k + 1])
            for k, (pair, _) in enumerate(self.plan.trips.pairs())
        }

    @cached_property
    def _bounds(self) -> np.ndarray:
        """Vehicle offsets per OD pair: pair ``k`` owns fleet slots
        ``bounds[k]:bounds[k + 1]``."""
        trips = self.plan.trips.columns()[2]
        bounds = np.zeros(trips.size + 1, dtype=np.int64)
        np.cumsum(trips, out=bounds[1:])
        return bounds

    def passes_at(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, keys)`` of every vehicle passing *node*, in OD order.

        The node's OD pairs come from the plan's incidence; each run of
        consecutive pairs owns one contiguous fleet slice.  The slices
        are gathered in one pass, into outputs allocated before the
        gather index so the index's memory is reused, not stranded
        under them.
        """
        ods = self.plan.incidence.ods_at(node)
        if ods.size == 0:
            empty = np.empty(0, dtype=np.uint64)
            return empty, empty.copy()
        breaks = np.flatnonzero(np.diff(ods) != 1) + 1
        starts = self._bounds[ods[np.r_[0, breaks]]]
        lengths = self._bounds[ods[np.r_[breaks - 1, ods.size - 1]] + 1] - starts
        ids, keys = self.fleet.ids, self.fleet.keys
        size = int(lengths.sum())
        out_ids, out_keys = np.empty(size, ids.dtype), np.empty(size, keys.dtype)
        # Gather index as a running sum: +1 inside a slice, a jump
        # from one slice's end to the next slice's start between them.
        index = np.ones(size, dtype=np.int64)
        index[0] = starts[0]
        index[np.cumsum(lengths[:-1])] = starts[1:] - starts[:-1] - lengths[:-1] + 1
        np.cumsum(index, out=index)
        np.take(ids, index, out=out_ids)
        np.take(keys, index, out=out_keys)
        return out_ids, out_keys

    def passes(self, nodes: List[int]) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Per-node pass arrays for ``Scheme.encode``."""
        return {node: self.passes_at(node) for node in nodes}

    def routes_by_vehicle(self) -> Dict[int, List[int]]:
        """``vehicle_id -> route`` for the agent-level simulation.

        Intended for *small* assignments (the agent simulation is
        per-message); experiment-scale traffic uses the vectorized
        per-node arrays instead.
        """
        routes: Dict[int, List[int]] = {}
        bounds = self._bounds.tolist()
        for k in range(len(self.plan)):
            route = self.plan.route_at(k)
            for vid in self.fleet.ids[bounds[k] : bounds[k + 1]].tolist():
                routes[vid] = list(route)
        return routes


def calibrate_to_node_volumes(
    plan: RoutePlan, targets: Dict[int, int], *, anchor: int
) -> RoutePlan:
    """Scale a plan's trip table so node *anchor* hits its target volume.

    Returns a new plan over the scaled table, keeping the routes of the
    OD pairs whose scaled demand is still nonzero.  Used
    to pin the synthesized Sioux Falls workload to the paper's
    ``n_y = 451,000`` at node 10; the remaining targets are then
    reported (not forced) so EXPERIMENTS.md can show how close the
    gravity profile lands.
    """
    volumes = node_volumes(plan)
    if anchor not in volumes or volumes[anchor] == 0:
        raise CalibrationError(f"anchor node {anchor} carries no traffic")
    if anchor not in targets:
        raise CalibrationError(f"no target volume for anchor node {anchor}")
    factor = targets[anchor] / volumes[anchor]
    scaled = plan.trips.scaled(factor)
    if scaled.total_trips == 0:
        raise CalibrationError("calibration scaled the trip table to zero")
    return RoutePlan.from_routes(plan.routes, scaled)
