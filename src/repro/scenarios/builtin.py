"""Built-in scenarios: Sioux Falls, synthetic generators, TNTP files.

* :class:`SiouxFallsScenario` — the paper's 24-node network with the
  center-heavy gravity demand; **bit-identical** to the historical
  hardcoded workload (same network constructor, same gravity
  synthesis, same routing and fleet materialization order).
* :class:`GridScenario` / :class:`RingRadialScenario` — parametric
  synthetic cities over :mod:`repro.roadnet.generators` with uniform
  gravity demand, resolvable as ``grid-NxM`` / ``ring-R`` /
  ``ring-RxS`` (the scaling sweeps use these to reach hundreds of
  RSUs).
* :class:`TntpScenario` — any TransportationNetworks ``*_net.tntp``
  file (Anaheim / Chicago-sketch scale), optionally with its
  ``*_trips.tntp`` demand, resolvable as ``tntp:<net>[:<trips>]``;
  ``tntp-mini`` is a small checked-in fixture exercising the loader
  end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.errors import ConfigurationError
from repro.roadnet.generators import grid_network, ring_radial_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.gravity import gravity_trip_table
from repro.roadnet.sioux_falls import sioux_falls_network
from repro.roadnet.trips import TripTable
from repro.scenarios.base import Scenario

__all__ = [
    "SiouxFallsScenario",
    "GridScenario",
    "RingRadialScenario",
    "TntpScenario",
    "mini_tntp_paths",
]

#: Directory holding the checked-in TNTP fixture files.
DATA_DIR = Path(__file__).resolve().parent / "data"


def mini_tntp_paths() -> "tuple[Path, Path]":
    """``(network, trips)`` paths of the checked-in mini-TNTP fixture."""
    return DATA_DIR / "mini_net.tntp", DATA_DIR / "mini_trips.tntp"


@dataclass(frozen=True)
class SiouxFallsScenario(Scenario):
    """The classic 24-node Sioux Falls evaluation network.

    ``workload()`` reproduces the historical hardcoded Sioux Falls
    workload byte for byte: ``NetworkWorkload.build`` over the same :func:`~repro.roadnet.sioux_falls.sioux_falls_network`,
    the same center-heavy gravity table at ``gamma``, the same
    shortest-path assignment and fleet order.
    """

    gamma: float = 1.0

    name = "sioux-falls"
    description = (
        "the paper's 24-node / 76-arc network with center-heavy "
        "gravity demand (node 10 is the CBD hub)"
    )

    def build_network(self) -> RoadNetwork:
        return sioux_falls_network()

    def trip_table(self, total_trips: int, *, period: int = 0) -> TripTable:
        return gravity_trip_table(
            self.network(),
            total_trips=self.demand_profile.scale(total_trips, period),
            gamma=self.gamma,
        )


@dataclass(frozen=True)
class GridScenario(Scenario):
    """An ``rows x cols`` Manhattan grid with uniform gravity demand.

    Resolvable through the registry as ``grid-<rows>x<cols>`` —
    ``grid-6x6`` is 36 RSUs, ``grid-16x16`` is 256.  Demand is
    uniform-weight gravity at ``gamma = 0.5`` (mild distance decay
    keeps long crosstown pairs measurable).
    """

    rows: int = 6
    cols: int = 6
    gamma: float = 0.5

    description = (
        "synthetic Manhattan grid, uniform gravity demand "
        "(two-way streets, RSU at every intersection)"
    )

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise ConfigurationError(
                f"grid scenario needs rows, cols >= 2, got "
                f"{self.rows}x{self.cols}"
            )
        object.__setattr__(self, "name", f"grid-{self.rows}x{self.cols}")

    def build_network(self) -> RoadNetwork:
        return grid_network(self.rows, self.cols)

    def trip_table(self, total_trips: int, *, period: int = 0) -> TripTable:
        network = self.network()
        return gravity_trip_table(
            network,
            total_trips=self.demand_profile.scale(total_trips, period),
            gamma=self.gamma,
            weights={node: 1.0 for node in network.nodes},
        )


@dataclass(frozen=True)
class RingRadialScenario(Scenario):
    """A ring-and-radial city whose centre is the heavy-traffic hub.

    Resolvable as ``ring-<rings>`` (8 spokes) or
    ``ring-<rings>x<spokes>``.  Uniform gravity demand routes
    cross-city trips through the centre, reproducing the hub/collector
    volume skew the VLM scheme is designed for.
    """

    rings: int = 3
    spokes: int = 8
    gamma: float = 0.5

    description = (
        "synthetic ring-and-radial city, uniform gravity demand "
        "(centre node is the transit hub)"
    )

    def __post_init__(self) -> None:
        if self.rings < 1 or self.spokes < 3:
            raise ConfigurationError(
                f"ring scenario needs >= 1 ring and >= 3 spokes, got "
                f"{self.rings}x{self.spokes}"
            )
        object.__setattr__(self, "name", f"ring-{self.rings}x{self.spokes}")

    def build_network(self) -> RoadNetwork:
        return ring_radial_network(self.rings, self.spokes)

    def trip_table(self, total_trips: int, *, period: int = 0) -> TripTable:
        network = self.network()
        return gravity_trip_table(
            network,
            total_trips=self.demand_profile.scale(total_trips, period),
            gamma=self.gamma,
            weights={node: 1.0 for node in network.nodes},
        )


@dataclass(frozen=True)
class TntpScenario(Scenario):
    """A network loaded from a TransportationNetworks ``.tntp`` file.

    With a trips file, each period's demand is the dataset's own OD
    table rescaled so its total matches the requested trip count (the
    dataset's *shape* at the deployment's *scale*); without one,
    uniform gravity demand is synthesized on the loaded network.
    Anaheim / Chicago-sketch scale files work by path:
    ``--scenario tntp:Anaheim_net.tntp:Anaheim_trips.tntp``.
    """

    net_path: str = ""
    trips_path: Optional[str] = None
    label: Optional[str] = None
    gamma: float = 1.0

    description = "network (and optionally demand) from TNTP files"

    def __post_init__(self) -> None:
        if not self.net_path:
            raise ConfigurationError("TntpScenario needs a network file path")
        name = self.label or f"tntp:{Path(self.net_path).stem}"
        object.__setattr__(self, "name", name)

    def build_network(self) -> RoadNetwork:
        from repro.roadnet.tntp import load_network

        return load_network(self.net_path, name=self.name)

    def base_trips(self) -> Optional[TripTable]:
        """The dataset's own trip table, if a trips file was given
        (parsed once, then cached)."""
        if self.trips_path is None:
            return None
        cached = self.__dict__.get("_base_trips")
        if cached is None:
            from repro.roadnet.tntp import load_trips

            cached = load_trips(self.trips_path)
            object.__setattr__(self, "_base_trips", cached)
        return cached

    def trip_table(self, total_trips: int, *, period: int = 0) -> TripTable:
        scaled_total = self.demand_profile.scale(total_trips, period)
        base = self.base_trips()
        if base is None:
            network = self.network()
            return gravity_trip_table(
                network,
                total_trips=scaled_total,
                gamma=self.gamma,
                weights={node: 1.0 for node in network.nodes},
            )
        return base.scaled(scaled_total / base.total_trips)


def mini_tntp_scenario() -> TntpScenario:
    """The checked-in 8-node TNTP fixture as a named scenario."""
    net, trips = mini_tntp_paths()
    return TntpScenario(
        net_path=str(net), trips_path=str(trips), label="tntp-mini"
    )
