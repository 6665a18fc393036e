"""Tests for node volumes, pair volumes, and traffic materialization."""

import numpy as np
import pytest

from repro.errors import CalibrationError, NetworkDataError
from repro.roadnet.generators import grid_network
from repro.roadnet.graph import Arc, RoadNetwork
from repro.roadnet.routing import assign_routes
from repro.roadnet.trips import TripTable
from repro.roadnet.volumes import (
    TrafficAssignment,
    calibrate_to_node_volumes,
    node_volumes,
    pair_common_volumes,
)


@pytest.fixture
def plan():
    """Line 1-2-3-4 with three OD flows."""
    arcs = []
    for a, b in [(1, 2), (2, 3), (3, 4)]:
        arcs.append(Arc(a, b))
        arcs.append(Arc(b, a))
    network = RoadNetwork("line", arcs)
    trips = TripTable({(1, 4): 10, (2, 4): 20, (1, 2): 5})
    return assign_routes(network, trips)


class TestGroundTruth:
    def test_node_volumes(self, plan):
        volumes = node_volumes(plan)
        assert volumes == {1: 15, 2: 35, 3: 30, 4: 30}

    def test_pair_common_volumes(self, plan):
        common = pair_common_volumes(plan)
        assert common[(1, 4)] == 10
        assert common[(2, 4)] == 30   # both OD flows pass 2 and 4
        assert common[(1, 2)] == 15
        assert common[(3, 4)] == 30
        assert common[(1, 3)] == 10

    def test_keys_are_ordered(self, plan):
        assert all(a < b for a, b in pair_common_volumes(plan))


class TestTrafficAssignment:
    def test_materialize_counts(self, plan):
        assignment = TrafficAssignment.materialize(plan, seed=1)
        assert len(assignment.fleet) == 35

    def test_passes_at_matches_ground_truth(self, plan):
        assignment = TrafficAssignment.materialize(plan, seed=1)
        volumes = node_volumes(plan)
        for node, volume in volumes.items():
            ids, keys = assignment.passes_at(node)
            assert ids.size == volume
            assert keys.size == volume

    def test_passes_at_empty_node(self, plan):
        assignment = TrafficAssignment.materialize(plan, seed=1)
        # make a node with no traffic by dropping all flows through it:
        ids, keys = assignment.passes_at(99)
        assert ids.size == 0

    def test_common_vehicles_consistent(self, plan):
        """Vehicles listed at both nodes == pairwise ground truth."""
        assignment = TrafficAssignment.materialize(plan, seed=1)
        common = pair_common_volumes(plan)
        ids_2, _ = assignment.passes_at(2)
        ids_4, _ = assignment.passes_at(4)
        overlap = np.intersect1d(ids_2, ids_4).size
        assert overlap == common[(2, 4)]

    def test_routes_by_vehicle(self, plan):
        assignment = TrafficAssignment.materialize(plan, seed=1)
        routes = assignment.routes_by_vehicle()
        assert len(routes) == 35
        lengths = sorted(len(r) for r in routes.values())
        assert lengths[0] == 2 and lengths[-1] == 4

    def test_passes_bulk(self, plan):
        assignment = TrafficAssignment.materialize(plan, seed=1)
        passes = assignment.passes([1, 2])
        assert set(passes) == {1, 2}


class TestCalibration:
    def test_anchor_scaled_to_target(self, plan):
        scaled = calibrate_to_node_volumes(plan, {2: 350}, anchor=2)
        assert node_volumes(scaled)[2] == pytest.approx(350, rel=0.05)

    def test_missing_anchor_target(self, plan):
        with pytest.raises(CalibrationError):
            calibrate_to_node_volumes(plan, {3: 10}, anchor=2)

    def test_anchor_without_traffic(self, plan):
        with pytest.raises(CalibrationError):
            calibrate_to_node_volumes(plan, {99: 10}, anchor=99)

    def test_pairs_scaled_to_zero_lose_their_routes(self):
        plan = assign_routes(
            grid_network(3, 3), TripTable({(1, 9): 100, (2, 8): 1, (3, 7): 1})
        )
        scaled = calibrate_to_node_volumes(plan, {1: 40}, anchor=1)
        assert len(scaled.trips) == 1
        assert len(scaled) == len(scaled.trips)
        assert list(scaled.routes) == [(1, 9)]
        assert scaled.route(1, 9) == plan.route(1, 9)
        with pytest.raises(NetworkDataError):
            scaled.route(2, 8)
