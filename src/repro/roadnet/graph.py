"""Directed road networks.

A :class:`RoadNetwork` is a thin domain wrapper over a
:class:`networkx.DiGraph`: nodes are intersections (where RSUs are
installed), arcs are one-way road segments with free-flow travel time
and capacity attributes.  The wrapper owns validation and the
adjacency queries the rest of the library needs, while exposing the
underlying graph for algorithms (shortest paths, connectivity).

Shortest paths come from one Dijkstra tree per origin
(:func:`shortest_path_tree`), so every route out of an origin agrees
with every other on how ties are broken: each node keeps the first
predecessor that reaches its final distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

import networkx as nx

from repro.errors import NetworkDataError

__all__ = ["Arc", "RoadNetwork", "shortest_path_tree", "tree_path"]

#: ``node -> predecessor`` on every shortest path out of one origin.
Tree = Dict[int, int]


def shortest_path_tree(graph: nx.DiGraph, origin: int, weight: str) -> Tree:
    """The Dijkstra shortest-path tree of *origin* under arc attribute
    *weight*, as ``node -> predecessor`` for every reachable node.

    Among tied predecessors a node keeps the first one that reached its
    final distance — the same choice
    :func:`networkx.single_source_dijkstra_path` makes.
    """
    pred, _ = nx.dijkstra_predecessor_and_distance(graph, origin, weight=weight)
    return {node: preds[0] for node, preds in pred.items() if preds}


def tree_path(tree: Tree, origin: int, destination: int) -> List[int]:
    """The *origin* -> *destination* path of *origin*'s *tree*.

    Raises :class:`NetworkDataError` if *destination* is unreachable.
    """
    if destination != origin and destination not in tree:
        raise NetworkDataError(f"no path from {origin} to {destination}")
    path = [destination]
    while path[-1] != origin:
        path.append(tree[path[-1]])
    path.reverse()
    return path


@dataclass(frozen=True)
class Arc:
    """A one-way road segment.

    Attributes
    ----------
    tail, head:
        End nodes (direction tail -> head).
    free_flow_time:
        Uncongested traversal time (minutes in the Sioux Falls data).
    capacity:
        Practical capacity (vehicles/day).
    """

    tail: int
    head: int
    free_flow_time: float = 1.0
    capacity: float = 10_000.0

    def __post_init__(self) -> None:
        if self.tail == self.head:
            raise NetworkDataError(f"self-loop arc at node {self.tail}")
        if self.free_flow_time <= 0 or self.capacity <= 0:
            raise NetworkDataError(
                f"arc {self.tail}->{self.head} needs positive time/capacity"
            )


class RoadNetwork:
    """A directed road network with validated structure.

    Parameters
    ----------
    name:
        Human-readable network name.
    arcs:
        The one-way segments; both directions of a two-way street are
        two arcs.
    """

    def __init__(self, name: str, arcs: Iterable[Arc]) -> None:
        self.name = name
        self._graph = nx.DiGraph()
        for arc in arcs:
            if self._graph.has_edge(arc.tail, arc.head):
                raise NetworkDataError(
                    f"duplicate arc {arc.tail}->{arc.head} in {name!r}"
                )
            self._graph.add_edge(
                arc.tail,
                arc.head,
                free_flow_time=arc.free_flow_time,
                capacity=arc.capacity,
            )
        if self._graph.number_of_nodes() == 0:
            raise NetworkDataError(f"network {name!r} has no arcs")
        self._trees: Dict[int, Tree] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.DiGraph:
        """The underlying directed graph (shared, do not mutate)."""
        return self._graph

    @property
    def nodes(self) -> List[int]:
        """All node ids, sorted."""
        return sorted(self._graph.nodes)

    @property
    def num_nodes(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def num_arcs(self) -> int:
        return self._graph.number_of_edges()

    def has_node(self, node: int) -> bool:
        return self._graph.has_node(node)

    def arcs(self) -> List[Arc]:
        """All arcs with attributes."""
        return [
            Arc(
                tail=u,
                head=v,
                free_flow_time=data["free_flow_time"],
                capacity=data["capacity"],
            )
            for u, v, data in self._graph.edges(data=True)
        ]

    def successors(self, node: int) -> List[int]:
        """Downstream neighbours of *node*."""
        self._require(node)
        return sorted(self._graph.successors(node))

    def _require(self, node: int) -> None:
        if not self._graph.has_node(node):
            raise NetworkDataError(f"unknown node {node} in network {self.name!r}")

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def is_strongly_connected(self) -> bool:
        """Whether every node can reach every other node."""
        return nx.is_strongly_connected(self._graph)

    def shortest_path_tree(self, origin: int) -> Tree:
        """*origin*'s free-flow-time :func:`shortest_path_tree`, built on
        first use and cached (shared, do not mutate)."""
        tree = self._trees.get(origin)
        if tree is None:
            self._require(origin)
            tree = shortest_path_tree(self._graph, origin, "free_flow_time")
            self._trees[origin] = tree
        return tree

    def shortest_path(self, origin: int, destination: int) -> List[int]:
        """Minimum free-flow-time path as a node sequence: the path in
        *origin*'s cached :meth:`shortest_path_tree`.

        Raises :class:`NetworkDataError` if no path exists.
        """
        self._require(destination)
        return tree_path(self.shortest_path_tree(origin), origin, destination)

    def path_time(self, path: List[int]) -> float:
        """Total free-flow time along a node sequence."""
        total = 0.0
        for u, v in zip(path, path[1:]):
            if not self._graph.has_edge(u, v):
                raise NetworkDataError(f"path uses missing arc {u}->{v}")
            total += self._graph.edges[u, v]["free_flow_time"]
        return total

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RoadNetwork({self.name!r}, nodes={self.num_nodes}, "
            f"arcs={self.num_arcs})"
        )
