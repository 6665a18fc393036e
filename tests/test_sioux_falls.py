"""Tests for the Sioux Falls network data (paper Fig. 3)."""

from repro.roadnet.sioux_falls import (
    NUM_NODES,
    SIOUX_FALLS_STREETS,
    sioux_falls_network,
)
from tests import roadnet_oracle as oracle


class TestTopology:
    def test_paper_dimensions(self):
        """Paper: 'the Sioux Falls network contains 24 nodes (RSUs)
        with 76 arcs (road segments)'."""
        network = sioux_falls_network()
        assert network.num_nodes == 24
        assert network.num_arcs == 76

    def test_street_list_consistent(self):
        assert len(SIOUX_FALLS_STREETS) == 38  # 38 two-way streets
        assert NUM_NODES == 24
        nodes = {a for a, _, _ in SIOUX_FALLS_STREETS} | {
            b for _, b, _ in SIOUX_FALLS_STREETS
        }
        assert nodes == set(range(1, 25))

    def test_no_duplicate_streets(self):
        keys = {(min(a, b), max(a, b)) for a, b, _ in SIOUX_FALLS_STREETS}
        assert len(keys) == 38

    def test_strongly_connected(self):
        assert oracle.strongly_connected(sioux_falls_network())

    def test_symmetric_times(self):
        times = {
            (arc.tail, arc.head): arc.free_flow_time
            for arc in sioux_falls_network().arcs()
        }
        for a, b, t in SIOUX_FALLS_STREETS:
            assert times[a, b] == t
            assert times[b, a] == t

    def test_custom_capacity(self):
        network = sioux_falls_network(capacity=999.0)
        assert all(arc.capacity == 999.0 for arc in network.arcs())

    def test_known_shortest_path(self):
        # 9 -> 10 are adjacent; shortest path is the direct arc.
        network = sioux_falls_network()
        assert network.shortest_path(9, 10) == [9, 10]

    def test_degree_bounds(self):
        """Every intersection connects 2-5 streets in the classic
        network."""
        network = sioux_falls_network()
        for node in network.nodes:
            degree = len(network.successors(node))
            assert 2 <= degree <= 5
