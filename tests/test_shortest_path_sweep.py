"""The per-origin Dijkstra sweep against networkx, its oracle.

``repro.roadnet.graph.shortest_path_sweep`` replicates networkx's
Dijkstra (heap keys ``(dist, push counter, node)``, predecessor set on
each strict improvement), so on any digraph it must give the same
first predecessor and the same distance for every node, unreachable
nodes included.  Tied integer weights are where a replica would drift;
float weights check that distances are summed in the same order.
"""

from __future__ import annotations

import math
import pathlib
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkDataError
from repro.roadnet.generators import grid_network, ring_radial_network
from repro.roadnet.graph import Arc, RoadNetwork, adjacency, shortest_path_sweep
from repro.roadnet.gravity import gravity_trip_table
from tests import roadnet_oracle as oracle

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


@st.composite
def networks(draw, times=st.integers(1, 3)):
    """A random digraph over scattered node ids, arcs in random
    insertion order; often not strongly connected."""
    ids = draw(st.lists(st.integers(1, 60), min_size=2, max_size=10, unique=True))
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
        lambda p: p[0] != p[1]
    )
    links = draw(st.lists(pairs, min_size=1, max_size=30, unique=True))
    return RoadNetwork(
        "random",
        [Arc(u, v, free_flow_time=float(draw(times))) for u, v in links],
    )


def assert_sweep_matches(network: RoadNetwork) -> None:
    nodes = network.nodes
    graph = oracle.digraph(network)
    for origin in nodes:
        tree = network.shortest_path_tree(origin)
        pred, dist = oracle.dijkstra_tree(graph, origin, "free_flow_time")
        for i, node in enumerate(nodes):
            if node in dist:
                assert tree.dist[i] == dist[node]
                want = nodes.index(pred[node]) if node in pred else -1
                assert tree.pred[i] == want
            else:
                assert math.isinf(tree.dist[i]) and tree.pred[i] == -1


class TestAgainstNetworkx:
    @settings(max_examples=150, deadline=None)
    @given(networks())
    def test_tied_integer_weights(self, network):
        assert_sweep_matches(network)

    @settings(max_examples=60, deadline=None)
    @given(networks(times=st.sampled_from([0.1, 0.2, 0.3, 0.7])))
    def test_float_weights(self, network):
        assert_sweep_matches(network)

    @settings(max_examples=60, deadline=None)
    @given(networks(), st.data())
    def test_paths_read_off_the_trees(self, network, data):
        nodes = network.nodes
        origin = data.draw(st.sampled_from(nodes))
        graph = oracle.digraph(network)
        pred, _ = oracle.dijkstra_tree(graph, origin, "free_flow_time")
        for destination in nodes:
            if destination != origin and destination not in pred:
                with pytest.raises(NetworkDataError, match="no path"):
                    network.shortest_path(origin, destination)
                continue
            path = [destination]
            while path[-1] != origin:
                path.append(pred[path[-1]])
            assert network.shortest_path(origin, destination) == path[::-1]

    def test_any_weight_attribute(self):
        costs = {(1, 2): 2.0, (2, 3): 2.0, (1, 3): 4.0, (3, 1): 1.0}
        arcs = [Arc(u, v) for u, v in costs]
        tree = shortest_path_sweep(adjacency(arcs, [1, 2, 3], costs.values()), 0)
        graph = nx.DiGraph()
        graph.add_weighted_edges_from(
            (u, v, cost) for (u, v), cost in costs.items()
        )
        pred, dist = oracle.dijkstra_tree(graph, 1, "weight")
        assert tree.dist.tolist() == [dist[1], dist[2], dist[3]]
        assert tree.pred.tolist() == [-1, 0, 0] and pred == {2: 1, 3: 1}


class TestGravity:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(3, 6),
        st.sampled_from([0.0, 0.5, 1.0, 1.3, 2]),
        st.integers(1, 10**6),
        st.data(),
    )
    def test_table_matches_the_dict_loop(self, rings, spokes, gamma, total, data):
        network = ring_radial_network(rings, spokes)
        weights = {
            node: data.draw(st.sampled_from([1.0, 2.0, 0.5, 3.7]))
            for node in network.nodes
        }
        expected = oracle.gravity_demand(network, total, gamma, weights)
        if not any(expected.values()):
            return
        table = gravity_trip_table(
            network, total_trips=total, gamma=gamma, weights=weights
        )
        assert list(table.pairs()) == sorted(
            (pair, t) for pair, t in expected.items() if t
        )

    def test_grid_uniform_weights(self):
        network = grid_network(5, 4)
        weights = {node: 1.0 for node in network.nodes}
        table = gravity_trip_table(
            network, total_trips=12_345, gamma=0.5, weights=weights
        )
        expected = oracle.gravity_demand(network, 12_345, 0.5, weights)
        assert list(table.pairs()) == sorted(
            (pair, t) for pair, t in expected.items() if t
        )


_ROUTINE = r"\w*(?:dijkstra|shortest_path|bellman_ford|astar|floyd|johnson)\w*"
#: A networkx shortest-path routine, called or imported.
_NX_SHORTEST = re.compile(
    rf"\b(?:nx|networkx)\.(?:\w+\.)*{_ROUTINE}\s*\("
    rf"|from networkx\S* import .*{_ROUTINE}"
)


def test_no_networkx_shortest_paths_in_the_library():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if _NX_SHORTEST.search(path.read_text())
    ]
    assert offenders == []
