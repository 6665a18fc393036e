"""The vectorized workload layer against its per-pair oracle.

Routes come from one Dijkstra tree per origin; passes, point volumes,
pair volumes and transit volumes come from one OD × node incidence per
plan.  ``tests/roadnet_oracle.py`` keeps the per-pair loops these
replaced; everything here must equal it exactly, key order included,
except that pair volumes run in ascending key order where the oracle
keeps first appearance.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import NetworkDataError
from repro.roadnet import congestion
from repro.roadnet import volumes as volumes_module
from repro.roadnet.graph import Arc, RoadNetwork
from repro.roadnet.generators import grid_network, ring_radial_network
from repro.roadnet.routing import RoutePlan, assign_routes
from repro.roadnet.trips import TripTable
from repro.roadnet.volumes import (
    TrafficAssignment,
    node_volumes,
    pair_common_volumes,
)
from repro.scenarios import get_scenario
from tests import roadnet_oracle as oracle

SLOW_OK = [HealthCheck.too_slow]

#: The Sioux Falls OD pairs whose tied shortest paths the per-origin
#: trees break differently from a per-pair bidirectional search.
SIOUX_FALLS_RETIED = {
    (4, 22), (6, 23), (8, 11), (11, 20), (11, 22),
    (14, 22), (20, 11), (23, 9), (23, 10),
}


def _all_pairs(network: RoadNetwork) -> TripTable:
    nodes = network.nodes
    return TripTable({(o, d): 1 for o in nodes for d in nodes if o != d})


def _reweighted(network: RoadNetwork, times) -> RoadNetwork:
    """*network* with integral free-flow times drawn from *times* (kept
    integral so tied paths tie exactly under any summation order)."""
    arcs = network.arcs()
    return RoadNetwork(
        network.name,
        [
            Arc(arc.tail, arc.head, free_flow_time=float(t), capacity=arc.capacity)
            for arc, t in zip(arcs, times)
        ],
    )


@st.composite
def workloads(draw):
    """A random grid or ring, maybe reweighted, with a random trip table."""
    if draw(st.booleans()):
        network = grid_network(draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    else:
        network = ring_radial_network(draw(st.integers(1, 3)), draw(st.integers(3, 6)))
    if draw(st.booleans()):
        arcs = network.num_arcs
        times = draw(st.lists(st.integers(1, 3), min_size=arcs, max_size=arcs))
        network = _reweighted(network, times)
    nodes = network.nodes
    od = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
        lambda p: p[0] != p[1]
    )
    demand = draw(st.dictionaries(od, st.integers(1, 40), min_size=1, max_size=40))
    return network, TripTable(demand)


def _assert_pair_volumes_match(plan: RoutePlan) -> None:
    """Equal to the oracle as a mapping, keys ascending."""
    truth = pair_common_volumes(plan)
    assert truth == oracle.pair_common_volumes(plan)
    assert list(truth) == sorted(truth)


def _assert_ground_truth_matches(
    plan: RoutePlan, network: RoadNetwork, seed: int
) -> None:
    assert list(node_volumes(plan).items()) == list(oracle.node_volumes(plan).items())
    _assert_pair_volumes_match(plan)
    assignment = TrafficAssignment.materialize(plan, seed=seed)
    absent = max(network.nodes) + 1
    for node in [*network.nodes, absent]:
        ids, keys = assignment.passes_at(node)
        want_ids, want_keys = oracle.passes_at(assignment, node)
        assert ids.dtype == want_ids.dtype and keys.dtype == want_keys.dtype
        assert ids.tobytes() == want_ids.tobytes()
        assert keys.tobytes() == want_keys.tobytes()
        assert plan.vehicles_through(node) == oracle.vehicles_through(plan, node)


class TestDifferentialBattery:
    @settings(max_examples=60, deadline=None, suppress_health_check=SLOW_OK)
    @given(workloads(), st.integers(0, 2**16))
    def test_tree_routes_match_the_oracle(self, workload, seed):
        network, trips = workload
        plan = assign_routes(network, trips)
        expected = oracle.bidirectional_routes(network, trips)
        assert list(plan.routes) == list(expected)
        for pair, route in plan.routes.items():
            assert (route[0], route[-1]) == pair
            assert network.path_time(route) == network.path_time(expected[pair])
        _assert_ground_truth_matches(plan, network, seed)

    @settings(max_examples=30, deadline=None, suppress_health_check=SLOW_OK)
    @given(workloads(), st.integers(0, 2**16))
    def test_ground_truth_on_oracle_routes(self, workload, seed):
        """The incidence is exact for any simple routes, not only for
        the ones the trees pick."""
        network, trips = workload
        routes = oracle.bidirectional_routes(network, trips)
        plan = RoutePlan.from_routes(routes, trips)
        _assert_ground_truth_matches(plan, network, seed)


@pytest.mark.parametrize("chunk", [7, volumes_module._ROUTE_CHUNK])
def test_pair_volumes_across_route_chunks(monkeypatch, chunk):
    """Pair volumes are summed a chunk of routes at a time; the sums
    must not depend on where the chunks split."""
    monkeypatch.setattr(volumes_module, "_ROUTE_CHUNK", chunk)
    network = get_scenario("grid-8x8").network()
    rng = np.random.default_rng(chunk)
    trips = TripTable(
        {pair: int(rng.integers(1, 30)) for pair, _ in _all_pairs(network).pairs()}
    )
    plan = assign_routes(network, trips)
    _assert_pair_volumes_match(plan)


class TestPinnedRoutes:
    @pytest.mark.parametrize("spec", ["grid-8x8", "ring-4x8", "tntp-mini"])
    def test_tree_routes_equal_bidirectional_routes(self, spec):
        network = get_scenario(spec).network()
        trips = _all_pairs(network)
        assert assign_routes(network, trips).routes == oracle.bidirectional_routes(
            network, trips
        )

    @pytest.mark.slow
    def test_grid_12x12_routes_equal_bidirectional_routes(self):
        network = get_scenario("grid-12x12").network()
        trips = _all_pairs(network)
        assert assign_routes(network, trips).routes == oracle.bidirectional_routes(
            network, trips
        )

    def test_sioux_falls_differs_in_exactly_the_retied_pairs(self):
        network = get_scenario("sioux-falls").network()
        trips = _all_pairs(network)
        routes = assign_routes(network, trips).routes
        expected = oracle.bidirectional_routes(network, trips)
        differing = {pair for pair in routes if routes[pair] != expected[pair]}
        assert differing == SIOUX_FALLS_RETIED
        for pair in differing:
            assert network.path_time(routes[pair]) == network.path_time(expected[pair])


class TestTieBreak:
    @staticmethod
    def _diamond(first_branch: int) -> RoadNetwork:
        """1 -> {2, 3} -> 4 with equal times; *first_branch* is added
        (and therefore explored) first."""
        other = 5 - first_branch
        return RoadNetwork(
            "diamond",
            [Arc(1, first_branch), Arc(1, other), Arc(first_branch, 4), Arc(other, 4)],
        )

    @pytest.mark.parametrize("first_branch", [2, 3])
    def test_first_predecessor_to_reach_the_distance_wins(self, first_branch):
        assert self._diamond(first_branch).shortest_path(1, 4) == [1, first_branch, 4]

    def test_one_tree_per_origin(self):
        network = grid_network(3, 3)
        tree = network.shortest_path_tree(1)
        assert network.shortest_path_tree(1) is tree
        assign_routes(network, _all_pairs(network))
        assert network.shortest_path_tree(1) is tree

    def test_unreachable_and_unknown_nodes(self):
        network = RoadNetwork("disc", [Arc(1, 2), Arc(3, 4)])
        with pytest.raises(NetworkDataError, match="no path"):
            network.shortest_path(1, 4)
        with pytest.raises(NetworkDataError, match="unknown node"):
            network.shortest_path(9, 1)
        assert network.shortest_path(1, 1) == [1]

    def test_congestion_builds_one_tree_per_origin_per_iteration(self, monkeypatch):
        network = grid_network(3, 3)
        trips = _all_pairs(network)
        calls = []
        real = congestion.shortest_path_sweep

        def counted(adjacency, origin):
            calls.append(origin)
            return real(adjacency, origin)

        monkeypatch.setattr(congestion, "shortest_path_sweep", counted)
        result = congestion.assign_equilibrium(network, trips, max_iterations=3)
        assert len(calls) == (result.iterations + 1) * len(trips.origins())


class TestIncidence:
    def test_columns_follow_first_appearance(self):
        network = grid_network(3, 3)
        trips = TripTable({(9, 1): 2, (1, 3): 1, (5, 6): 4})
        plan = assign_routes(network, trips)
        incidence = plan.incidence
        assert incidence.nodes.tolist() == list(oracle.node_volumes(plan))
        assert incidence.offsets[0] == 0
        assert incidence.offsets[-1] == incidence.ods.size
        for c in range(incidence.nodes.size):
            column = incidence.ods[incidence.offsets[c] : incidence.offsets[c + 1]]
            assert column.tolist() == sorted(set(column.tolist()))
        assert plan.incidence is incidence

    def test_revisiting_route_rejected(self):
        trips = TripTable({(1, 3): 1})
        plan = RoutePlan.from_routes({(1, 3): [1, 2, 1, 3]}, trips)
        with pytest.raises(NetworkDataError, match="revisits node 1"):
            plan.incidence

    def test_routes_without_demand_are_ignored(self):
        network = grid_network(2, 3)
        trips = TripTable({(1, 6): 3})
        routes = {pair: network.shortest_path(*pair) for pair in [(1, 6), (4, 3)]}
        plan = RoutePlan.from_routes(routes, trips)
        assert node_volumes(plan) == oracle.node_volumes(plan)
        assert pair_common_volumes(plan) == oracle.pair_common_volumes(plan)

    def test_empty_plan(self):
        plan = RoutePlan.from_routes({}, TripTable({}))
        assert node_volumes(plan) == {}
        assert pair_common_volumes(plan) == {}
        assert plan.vehicles_through(1) == 0
        ids, keys = TrafficAssignment.materialize(plan, seed=1).passes_at(1)
        assert ids.size == keys.size == 0


@pytest.mark.parametrize("blocked", ["scipy", "networkx"])
def test_batch_matrix_never_imports(blocked):
    """scipy and networkx are test-only dependencies: with either one
    blocked, every ``repro`` module imports, and routing and ground
    truth stay numpy, so a small batch OD matrix must not pull it in."""
    code = (
        "import importlib, pkgutil, sys\n"
        "class Blocked:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        f"        if name.split('.')[0] == {blocked!r}:\n"
        "            raise ImportError(name + ' is blocked')\n"
        "sys.meta_path.insert(0, Blocked())\n"
        "import repro\n"
        "def fail(name):\n"
        "    raise ImportError(name)\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.', fail):\n"
        "    importlib.import_module(info.name)\n"
        "from repro.experiments.sioux_falls_matrix import run_od_matrix\n"
        "run_od_matrix(scenario='grid-4x4', total_trips=3000, min_truth=20, seed=3)\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {blocked!r}))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src), "REPRO_WORKERS": "1"},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_incidence_build_is_one_routing_incidence_span():
    """The lazy incidence build is timed as its own span, once per plan,
    and not again by the queries it serves."""
    from repro.obs import MetricsRegistry, use_registry

    network = grid_network(3, 3)
    with use_registry(MetricsRegistry()) as registry:
        plan = assign_routes(network, _all_pairs(network))
        span = registry.histogram("routing.incidence.seconds")
        assert span.count == 0
        node_volumes(plan)
        plan.vehicles_through(network.nodes[0])
        assert span.count == 1
        assert span.sum > 0
