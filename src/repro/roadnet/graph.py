"""Directed road networks.

A :class:`RoadNetwork` holds its arcs once, in a ``(tail, head) ->
Arc`` dict: nodes are intersections (where RSUs are installed), arcs
are one-way road segments with free-flow travel time and capacity
attributes.  The network owns validation and the adjacency queries
the rest of the library needs.

Shortest paths come from one Dijkstra sweep per origin
(:func:`shortest_path_sweep`) over positional adjacency lists, so every
route out of an origin agrees with every other on how ties are broken:
each node keeps the first predecessor that reaches its final distance.
A node's *position* is its index in the sorted node list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import NetworkDataError
from repro.utils.arrays import sorted_unique

__all__ = [
    "Arc",
    "RoadNetwork",
    "ShortestPathTree",
    "adjacency",
    "shortest_path_sweep",
    "sweep_paths",
]

#: ``adjacency[i]`` lists ``(j, weight)`` for every arc from position
#: ``i`` to position ``j``.
Adjacency = List[List[Tuple[int, float]]]


class ShortestPathTree(NamedTuple):
    """One origin's shortest-path tree over node positions.

    Attributes
    ----------
    dist:
        ``float64`` distance per position (``inf`` if unreachable).
    pred:
        ``int32`` predecessor position on the tree; ``-1`` at the
        origin and at unreachable positions.
    """

    dist: np.ndarray
    pred: np.ndarray


def adjacency(
    arcs: Sequence[Arc], nodes: Sequence[int], weights: Iterable[float]
) -> Adjacency:
    """*arcs* as positional successor lists over *nodes*, arc ``k``
    weighing ``weights[k]``; each list keeps the arcs' order (from
    :meth:`RoadNetwork.arcs`, the order networkx's Dijkstra explores)."""
    position = {node: i for i, node in enumerate(nodes)}
    succ: Adjacency = [[] for _ in position]
    for arc, weight in zip(arcs, weights):
        succ[position[arc.tail]].append((position[arc.head], weight))
    return succ


def shortest_path_sweep(adjacency: Adjacency, origin: int) -> ShortestPathTree:
    """The Dijkstra shortest-path tree of position *origin*.

    A replica of networkx's ``_dijkstra_multisource`` for positive
    weights: heap keys are ``(dist, push counter, node)`` and a node's
    predecessor is set on each strict improvement, so among tied
    predecessors a node keeps the first one that reached its final
    distance — the tree, and every distance, that
    :func:`networkx.dijkstra_predecessor_and_distance` gives.
    """
    n = len(adjacency)
    dist = [math.inf] * n
    pred = [-1] * n
    dist[origin] = 0.0
    fringe = [(0.0, 0, origin)]
    pushes = 0
    while fringe:
        d, _, v = heappop(fringe)
        if d > dist[v]:
            continue  # superseded by a later, shorter push
        for u, cost in adjacency[v]:
            du = d + cost
            if du < dist[u]:
                dist[u] = du
                pred[u] = v
                pushes += 1
                heappush(fringe, (du, pushes, u))
    return ShortestPathTree(np.array(dist), np.array(pred, dtype=np.int32))


def _hops(pred: np.ndarray) -> np.ndarray:
    """Arcs from each position back to its tree's root, for stacked
    ``pred`` rows (pointer doubling; 0 at roots and unreachable
    positions)."""
    rows, n = pred.shape
    base = np.arange(rows, dtype=np.int64)[:, None] * n
    up = (np.where(pred < 0, np.arange(n), pred) + base).ravel()
    hops = (pred >= 0).astype(np.int64).ravel()
    while True:
        upup = up[up]
        if np.array_equal(upup, up):
            return hops
        hops += hops[up]
        up = upup


def sweep_paths(
    tree: Callable[[int], ShortestPathTree],
    nodes: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``sources[k] -> targets[k]`` shortest path, read off
    ``tree(source)`` (called once per distinct source position).

    Returns ``(positions, offsets)``: path ``k`` is
    ``positions[offsets[k]:offsets[k + 1]]``, source first.  The paths
    are walked back from their targets all at once, one predecessor
    gather per hop.  *nodes* maps positions to node ids for the error
    raised when a target is unreachable.
    """
    if sources.size == 0:
        return np.empty(0, dtype=np.int32), np.zeros(1, dtype=np.int64)
    starts = sorted_unique(sources)
    rows = np.searchsorted(starts, sources)
    pred = np.stack([tree(p).pred for p in starts.tolist()])
    n = nodes.size
    lengths = _hops(pred)[rows * n + targets] + 1
    # One node but two ends: the target is unreachable.
    lost = np.flatnonzero((lengths == 1) & (sources != targets))
    if lost.size:
        k = lost[0]
        raise NetworkDataError(
            f"no path from {nodes[sources[k]]} to {nodes[targets[k]]}"
        )
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    positions = np.empty(int(offsets[-1]), dtype=np.int32)
    ends = offsets[1:] - 1
    base = rows * n
    pred = pred.ravel()
    live = np.arange(lengths.size)
    here = np.asarray(targets, dtype=np.int64)
    for hop in range(int(lengths.max(initial=0))):
        positions[ends[live] - hop] = here
        more = lengths[live] > hop + 1
        live = live[more]
        here = pred[base[live] + here[more]]
    return positions, offsets


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
        # Arcs by tail, tails in order of each node's first appearance
        # in the input (tail before head): networkx's edge order.
        by_tail: Dict[int, Dict[int, Arc]] = {}
        for arc in arcs:
            out = by_tail.setdefault(arc.tail, {})
            if arc.head in out:
                raise NetworkDataError(
                    f"duplicate arc {arc.tail}->{arc.head} in {name!r}"
                )
            out[arc.head] = arc
            by_tail.setdefault(arc.head, {})
        if not by_tail:
            raise NetworkDataError(f"network {name!r} has no arcs")
        self._arcs = {
            (a.tail, a.head): a for out in by_tail.values() for a in out.values()
        }
        #: Node ids by position, and back.
        self._ids = np.array(sorted(by_tail), dtype=np.int64)
        self._position = {node: i for i, node in enumerate(self._ids.tolist())}
        arcs = self.arcs()
        self._free_flow = adjacency(arcs, self.nodes, [a.free_flow_time for a in arcs])
        self._trees: Dict[int, ShortestPathTree] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[int]:
        """All node ids, sorted (node ``nodes[i]`` is at position ``i``)."""
        return self._ids.tolist()

    @property
    def num_nodes(self) -> int:
        return self._ids.size

    @property
    def num_arcs(self) -> int:
        return len(self._arcs)

    def has_node(self, node: int) -> bool:
        return node in self._position

    def arcs(self) -> List[Arc]:
        """All arcs, tails in order of each node's first appearance in
        the input and each tail's arcs in input order."""
        return list(self._arcs.values())

    def successors(self, node: int) -> List[int]:
        """Downstream neighbours of *node*."""
        self._require(node)
        heads = [head for head, _ in self._free_flow[self._position[node]]]
        return self._ids[sorted(heads)].tolist()

    def _require(self, node: int) -> None:
        if node not in self._position:
            raise NetworkDataError(f"unknown node {node} in network {self.name!r}")

    # ------------------------------------------------------------------
    # Shortest paths
    # ------------------------------------------------------------------
    def positions(self, nodes: Sequence[int]) -> np.ndarray:
        """The position of every node in *nodes*; raises
        :class:`NetworkDataError` for the first unknown one."""
        nodes = np.asarray(nodes, dtype=np.int64)
        at = np.searchsorted(self._ids, nodes)
        known = self._ids[np.minimum(at, self._ids.size - 1)] == nodes
        if not known.all():
            self._require(int(nodes[np.argmin(known)]))
        return at

    def _tree_at(self, position: int) -> ShortestPathTree:
        tree = self._trees.get(position)
        if tree is None:
            tree = shortest_path_sweep(self._free_flow, position)
            self._trees[position] = tree
        return tree

    def shortest_path_tree(self, origin: int) -> ShortestPathTree:
        """*origin*'s free-flow-time :func:`shortest_path_sweep` tree,
        built on first use and cached (shared, do not mutate)."""
        self._require(origin)
        return self._tree_at(self._position[origin])

    def shortest_paths(
        self, origins: Sequence[int], destinations: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The minimum free-flow-time path of every
        ``origins[k] -> destinations[k]`` pair, read off the origins'
        cached trees.

        Returns ``(nodes, offsets)``: path ``k`` is the node-id run
        ``nodes[offsets[k]:offsets[k + 1]]``, both endpoints included.
        Raises :class:`NetworkDataError` for an unknown node or a
        disconnected pair.
        """
        sources = self.positions(origins)
        targets = self.positions(destinations)
        positions, offsets = sweep_paths(self._tree_at, self._ids, sources, targets)
        return self._ids[positions], offsets

    def shortest_path(self, origin: int, destination: int) -> List[int]:
        """Minimum free-flow-time path as a node sequence: the path in
        *origin*'s cached :meth:`shortest_path_tree`.

        Raises :class:`NetworkDataError` if no path exists.
        """
        self._require(origin)
        self._require(destination)
        start, end = self._position[origin], self._position[destination]
        pred = self._tree_at(start).pred
        if end != start and pred[end] < 0:
            raise NetworkDataError(f"no path from {origin} to {destination}")
        path = [end]
        while path[-1] != start:
            path.append(int(pred[path[-1]]))
        return self._ids[path[::-1]].tolist()

    def path_time(self, path: List[int]) -> float:
        """Total free-flow time along a node sequence."""
        total = 0.0
        for u, v in zip(path, path[1:]):
            arc = self._arcs.get((u, v))
            if arc is None:
                raise NetworkDataError(f"path uses missing arc {u}->{v}")
            total += arc.free_flow_time
        return total

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RoadNetwork({self.name!r}, nodes={self.num_nodes}, "
            f"arcs={self.num_arcs})"
        )
