"""Tests for the road network graph wrapper."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkDataError
from repro.roadnet.graph import Arc, RoadNetwork


@pytest.fixture
def triangle():
    """1 <-> 2 <-> 3, plus a direct slow 1 -> 3."""
    arcs = [
        Arc(1, 2, free_flow_time=1.0),
        Arc(2, 1, free_flow_time=1.0),
        Arc(2, 3, free_flow_time=1.0),
        Arc(3, 2, free_flow_time=1.0),
        Arc(1, 3, free_flow_time=5.0),
        Arc(3, 1, free_flow_time=5.0),
    ]
    return RoadNetwork("triangle", arcs)


class TestArc:
    def test_self_loop_rejected(self):
        with pytest.raises(NetworkDataError):
            Arc(1, 1)

    def test_invalid_attributes(self):
        with pytest.raises(NetworkDataError):
            Arc(1, 2, free_flow_time=0)
        with pytest.raises(NetworkDataError):
            Arc(1, 2, capacity=0)


class TestRoadNetwork:
    def test_counts(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_arcs == 6
        assert triangle.nodes == [1, 2, 3]

    def test_duplicate_arc_rejected(self):
        with pytest.raises(NetworkDataError, match="duplicate"):
            RoadNetwork("bad", [Arc(1, 2), Arc(1, 2)])

    def test_empty_rejected(self):
        with pytest.raises(NetworkDataError):
            RoadNetwork("empty", [])

    def test_arcs_round_trip(self, triangle):
        arcs = triangle.arcs()
        assert len(arcs) == 6
        assert all(isinstance(a, Arc) for a in arcs)

    def test_successors(self, triangle):
        assert triangle.successors(1) == [2, 3]
        with pytest.raises(NetworkDataError):
            triangle.successors(9)


@st.composite
def arc_lists(draw):
    """Arcs over scattered node ids in shuffled input order, each with
    its own free-flow time; some streets get both directions, so the
    two directions of a street interleave with other arcs."""
    ids = draw(st.lists(st.integers(1, 10**6), min_size=2, max_size=12, unique=True))
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
        lambda p: p[0] != p[1]
    )
    streets = draw(st.lists(pairs, min_size=1, max_size=30, unique=True))
    links = list(streets)
    links += [(v, u) for u, v in streets if draw(st.booleans())]
    links = draw(st.permutations(list(dict.fromkeys(links))))
    return [Arc(u, v, free_flow_time=float(k + 1)) for k, (u, v) in enumerate(links)]


class TestArcOrder:
    """``arcs()`` keeps the edge order networkx gave the same input:
    tails by first appearance, each tail's arcs in input order."""

    @settings(max_examples=150, deadline=None)
    @given(arc_lists())
    def test_matches_networkx(self, arcs):
        network = RoadNetwork("random", arcs)
        graph = nx.DiGraph()
        for arc in arcs:
            graph.add_edge(arc.tail, arc.head, free_flow_time=arc.free_flow_time)
        got = [(a.tail, a.head, a.free_flow_time) for a in network.arcs()]
        assert got == list(graph.edges(data="free_flow_time"))
        assert network.nodes == sorted(graph.nodes)
        assert network.num_nodes == graph.number_of_nodes()
        assert network.num_arcs == graph.number_of_edges()
        for node in graph.nodes:
            assert network.successors(node) == sorted(graph.successors(node))

    @settings(max_examples=60, deadline=None)
    @given(arc_lists(), st.data())
    def test_duplicates_refused(self, arcs, data):
        first = data.draw(st.integers(0, len(arcs) - 1))
        at = data.draw(st.integers(first + 1, len(arcs)))
        twin = arcs[first]
        arcs.insert(at, Arc(twin.tail, twin.head, free_flow_time=9.0))
        with pytest.raises(
            NetworkDataError, match=f"duplicate arc {twin.tail}->{twin.head} "
        ):
            RoadNetwork("random", arcs)


class TestShortestPath:
    def test_prefers_fast_two_hop(self, triangle):
        # 1 -> 2 -> 3 costs 2 < direct arc's 5.
        assert triangle.shortest_path(1, 3) == [1, 2, 3]

    def test_path_time(self, triangle):
        assert triangle.path_time([1, 2, 3]) == pytest.approx(2.0)
        assert triangle.path_time([1, 3]) == pytest.approx(5.0)

    def test_path_time_missing_arc(self, triangle):
        with pytest.raises(NetworkDataError):
            triangle.path_time([2, 2])

    def test_unknown_endpoint(self, triangle):
        with pytest.raises(NetworkDataError):
            triangle.shortest_path(1, 99)

    def test_no_path(self):
        net = RoadNetwork("disc", [Arc(1, 2), Arc(3, 4)])
        with pytest.raises(NetworkDataError, match="no path"):
            net.shortest_path(1, 4)
