"""ASCII maps of road networks (paper Fig. 3).

The paper's Fig. 3 is the Sioux Falls network map.  This module draws
any :class:`~repro.roadnet.graph.RoadNetwork` as a character grid:
node ids at their positions and ``-`` / ``|`` / ``\\`` / ``/`` strokes
along the streets.  Sioux Falls uses the dataset's conventional
planar coordinates; other networks take ``coordinates=`` or fall back
to a deterministic spring layout, which needs networkx.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, NetworkDataError
from repro.roadnet.graph import RoadNetwork

__all__ = ["ascii_map", "SIOUX_FALLS_COORDINATES"]

#: Conventional planar coordinates of the Sioux Falls nodes
#: (grid units, x growing east, y growing north), following the usual
#: published drawing of the network (paper Fig. 3).
SIOUX_FALLS_COORDINATES: Dict[int, Tuple[float, float]] = {
    1: (0.0, 10.0), 2: (4.0, 10.0), 3: (0.0, 8.5), 4: (1.5, 8.5),
    5: (3.0, 8.5), 6: (4.0, 8.5), 7: (6.0, 7.0), 8: (4.0, 7.0),
    9: (3.0, 7.0), 10: (3.0, 6.0), 11: (1.5, 6.0), 12: (0.0, 6.0),
    13: (0.0, 2.0), 14: (1.5, 4.5), 15: (3.0, 4.5), 16: (4.0, 6.0),
    17: (4.0, 4.5), 18: (6.0, 6.0), 19: (4.0, 3.5), 20: (4.0, 2.0),
    21: (3.0, 2.0), 22: (3.0, 3.5), 23: (1.5, 2.0), 24: (1.5, 0.5),
}


def _positions(
    network: RoadNetwork,
    coordinates: Optional[Dict[int, Tuple[float, float]]],
) -> Dict[int, Tuple[float, float]]:
    if coordinates is not None:
        missing = [n for n in network.nodes if n not in coordinates]
        if missing:
            raise NetworkDataError(f"coordinates missing for nodes {missing}")
        return {n: coordinates[n] for n in network.nodes}
    if network.name == "sioux-falls":
        return {n: SIOUX_FALLS_COORDINATES[n] for n in network.nodes}
    try:
        import networkx as nx
    except ImportError:
        raise ConfigurationError(
            f"the spring layout of {network.name!r} needs networkx; "
            "install it or pass coordinates="
        ) from None
    arcs = network.arcs()
    graph = nx.Graph()
    # Tails first, in arc order: the node order the layout is seeded in.
    graph.add_nodes_from(arc.tail for arc in arcs)
    graph.add_edges_from((arc.tail, arc.head) for arc in arcs)
    raw = nx.spring_layout(graph, seed=7)
    return {n: (float(x), float(y)) for n, (x, y) in raw.items()}


def ascii_map(
    network: RoadNetwork,
    *,
    width: int = 66,
    height: int = 30,
    coordinates: Optional[Dict[int, Tuple[float, float]]] = None,
) -> str:
    """Render *network* as an ASCII map.

    Streets are drawn with Bresenham strokes; node labels overwrite
    street characters so every intersection is identifiable.
    """
    if width < 20 or height < 10:
        raise NetworkDataError("map must be at least 20x10 characters")
    positions = _positions(network, coordinates)
    xs = [p[0] for p in positions.values()]
    ys = [p[1] for p in positions.values()]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)

    def cell(node: int) -> Tuple[int, int]:
        x, y = positions[node]
        col = int((x - x_lo) / max(x_hi - x_lo, 1e-9) * (width - 4)) + 1
        row = int((y_hi - y) / max(y_hi - y_lo, 1e-9) * (height - 3)) + 1
        return row, col

    grid: List[List[str]] = [[" "] * width for _ in range(height)]

    def stroke(dr: int, dc: int) -> str:
        if dr == 0:
            return "-"
        if dc == 0:
            return "|"
        return "\\" if (dr > 0) == (dc > 0) else "/"

    drawn = set()
    for arc in network.arcs():
        key = (min(arc.tail, arc.head), max(arc.tail, arc.head))
        if key in drawn:
            continue
        drawn.add(key)
        r0, c0 = cell(arc.tail)
        r1, c1 = cell(arc.head)
        steps = max(abs(r1 - r0), abs(c1 - c0), 1)
        for step in range(steps + 1):
            r = round(r0 + (r1 - r0) * step / steps)
            c = round(c0 + (c1 - c0) * step / steps)
            if grid[r][c] == " ":
                grid[r][c] = stroke(r1 - r0, c1 - c0)
    for node in network.nodes:
        r, c = cell(node)
        label = str(node)
        for i, ch in enumerate(label):
            if 0 <= c + i < width:
                grid[r][c + i] = ch

    lines = [f"{network.name} — {network.num_nodes} nodes, "
             f"{network.num_arcs} arcs"]
    lines.extend("".join(row).rstrip() for row in grid)
    return "\n".join(line for line in lines)
