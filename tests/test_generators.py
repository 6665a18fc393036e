"""Tests for synthetic road network generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkDataError
from repro.roadnet.generators import (
    expected_nodes_grid,
    expected_nodes_ring_radial,
    grid_network,
    ring_radial_network,
)
from repro.roadnet.gravity import gravity_trip_table
from repro.roadnet.routing import assign_routes
from repro.roadnet.volumes import node_volumes
from tests import roadnet_oracle as oracle


class TestGridNetwork:
    def test_dimensions(self):
        network = grid_network(4, 5)
        assert network.num_nodes == expected_nodes_grid(4, 5) == 20
        # streets: 4*(5-1) horizontal + 5*(4-1) vertical = 31 -> 62 arcs
        assert network.num_arcs == 62

    def test_strongly_connected(self):
        assert oracle.strongly_connected(grid_network(3, 3))

    def test_manhattan_shortest_paths(self):
        network = grid_network(4, 4)
        # corner (node 1) to opposite corner (node 16): 6 blocks.
        path = network.shortest_path(1, 16)
        assert network.path_time(path) == pytest.approx(6.0)

    def test_minimum_size(self):
        with pytest.raises(NetworkDataError):
            grid_network(1, 5)

    def test_custom_attributes(self):
        network = grid_network(2, 2, block_time=2.5, capacity=123.0)
        arc = network.arcs()[0]
        assert arc.free_flow_time == 2.5
        assert arc.capacity == 123.0


class TestRingRadialNetwork:
    def test_dimensions(self):
        network = ring_radial_network(3, 6)
        assert network.num_nodes == expected_nodes_ring_radial(3, 6) == 19

    def test_strongly_connected(self):
        assert oracle.strongly_connected(ring_radial_network(2, 5))

    def test_minimum_size(self):
        with pytest.raises(NetworkDataError):
            ring_radial_network(0, 6)
        with pytest.raises(NetworkDataError):
            ring_radial_network(1, 2)

    def test_centre_is_the_hub(self):
        """Uniform gravity demand routes through the centre: node 1
        carries the largest transit volume — the hub/collector skew
        that motivates variable-length arrays."""
        network = ring_radial_network(3, 8)
        weights = {node: 1.0 for node in network.nodes}
        trips = gravity_trip_table(
            network, total_trips=50_000, gamma=0.5, weights=weights
        )
        volumes = node_volumes(assign_routes(network, trips))
        assert max(volumes, key=volumes.get) == 1
        # The skew is substantial: centre sees several times the median.
        ordered = sorted(volumes.values())
        median = ordered[len(ordered) // 2]
        assert volumes[1] > 2 * median

    def test_cross_city_goes_through_centre(self):
        network = ring_radial_network(2, 8)
        # Opposite outer-ring nodes: spoke 0 and spoke 4 on ring 2.
        a = 1 + 1 * 8 + 0 + 1
        b = 1 + 1 * 8 + 4 + 1
        path = network.shortest_path(a, b)
        assert 1 in path


class TestTopologyProperties:
    """Hypothesis invariants over the whole parametric families."""

    @given(rows=st.integers(2, 8), cols=st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_grid_invariants(self, rows, cols):
        network = grid_network(rows, cols)
        assert network.num_nodes == expected_nodes_grid(rows, cols)
        # Two directed arcs per interior street segment.
        streets = rows * (cols - 1) + cols * (rows - 1)
        assert network.num_arcs == 2 * streets
        assert set(network.nodes) == set(range(1, rows * cols + 1))
        assert oracle.strongly_connected(network)

    @given(rings=st.integers(1, 5), spokes=st.integers(3, 10))
    @settings(max_examples=25, deadline=None)
    def test_ring_radial_invariants(self, rings, spokes):
        network = ring_radial_network(rings, spokes)
        assert network.num_nodes == expected_nodes_ring_radial(rings, spokes)
        assert set(network.nodes) == set(range(1, 1 + rings * spokes + 1))
        assert oracle.strongly_connected(network)

    @given(rows=st.integers(2, 6), cols=st.integers(2, 6))
    @settings(max_examples=15, deadline=None)
    def test_generation_is_deterministic(self, rows, cols):
        """The generators take no seed: two builds must be identical
        arc for arc (the scenario zoo's bit-identity contract needs
        this)."""
        a, b = grid_network(rows, cols), grid_network(rows, cols)
        assert [
            (arc.tail, arc.head, arc.free_flow_time, arc.capacity)
            for arc in a.arcs()
        ] == [
            (arc.tail, arc.head, arc.free_flow_time, arc.capacity)
            for arc in b.arcs()
        ]
