"""The :class:`Scenario` contract of the scenario zoo.

A scenario bundles everything a workload-driven layer needs to stand
up a deployment on *some* road network — the network itself, an OD
demand synthesizer, a per-period demand curve, the vehicle-class mix,
and an optional RSU outage schedule — behind one small, picklable
object.  Every layer that used to hardcode Sioux Falls
(:class:`~repro.service.runtime.DeploymentSpec`, the experiment
runners, the CLI) now resolves a scenario through
:func:`repro.scenarios.get_scenario` instead and calls
:meth:`Scenario.workload`.

Determinism is part of the contract: ``workload(total_trips=t,
seed=s, period=p)`` must be a pure function of its arguments (and the
scenario's own frozen configuration), so any scenario replays
bit-identically across worker counts and executors.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.trips import TripTable
from repro.traffic.network_workload import NetworkWorkload
from repro.utils.rng import SeedLike

__all__ = [
    "DemandProfile",
    "FLAT_DEMAND",
    "Scenario",
    "ScenarioInfo",
]


@dataclass(frozen=True)
class DemandProfile:
    """A named per-period demand curve.

    ``factors[p % len(factors)]`` multiplies period *p*'s trip count,
    so a profile expresses recurring structure (weekday/weekend,
    rush-hour windows) independent of the deployment's own demand
    drift.  The default flat profile multiplies by exactly 1.0, which
    keeps single-network scenarios bit-identical to the pre-zoo code.
    """

    name: str = "flat"
    factors: Tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if not self.factors:
            raise ConfigurationError("demand profile needs >= 1 factor")
        if any(f <= 0 for f in self.factors):
            raise ConfigurationError(
                f"demand factors must be positive, got {self.factors}"
            )

    def factor(self, period: int) -> float:
        """The multiplicative demand factor for *period*."""
        return self.factors[int(period) % len(self.factors)]

    def scale(self, total_trips: int, period: int) -> int:
        """*total_trips* scaled by this profile's factor for *period*
        (at least 1 trip; an exact identity for the flat profile)."""
        factor = self.factor(period)
        if factor == 1.0:
            return int(total_trips)
        return max(1, round(total_trips * factor))


FLAT_DEMAND = DemandProfile()


@dataclass(frozen=True)
class ScenarioInfo:
    """Registry-facing description of one scenario (``repro scenarios
    list`` / ``describe`` render these)."""

    name: str
    description: str
    nodes: int
    arcs: int
    rsus: int
    demand_profile: str
    demand_factors: Tuple[float, ...]
    vehicle_classes: Dict[str, float]
    outage_periods: Tuple[int, ...] = ()

    def classes_summary(self) -> str:
        return ", ".join(
            f"{name} {share:.0%}"
            for name, share in sorted(self.vehicle_classes.items())
        )


class Scenario(abc.ABC):
    """A deployable network + demand scenario.

    Subclasses provide :meth:`build_network` and :meth:`trip_table`;
    everything else (workload assembly, the demand curve, metadata)
    has shared default behaviour.  Instances must be cheap to build
    and picklable — parallel runtime tasks resolve scenarios by name
    inside worker processes.
    """

    #: Registry key (also what ``--scenario`` accepts).
    name: str = "scenario"
    #: One-line human description for the registry listing.
    description: str = ""
    #: Per-period demand curve (flat unless the scenario overrides).
    demand_profile: DemandProfile = FLAT_DEMAND
    #: Vehicle-class mix as ``class -> share`` (shares sum to 1).
    vehicle_classes: Mapping[str, float] = {"car": 1.0}

    # ------------------------------------------------------------------
    # Subclass surface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def build_network(self) -> RoadNetwork:
        """Construct the scenario's road network (uncached)."""

    @abc.abstractmethod
    def trip_table(self, total_trips: int, *, period: int = 0) -> TripTable:
        """The OD demand for one period at *total_trips* base demand.

        Implementations apply :attr:`demand_profile` themselves (via
        :meth:`DemandProfile.scale`) so callers can pass the same base
        figure for every period.
        """

    def rsu_outages(self, period: int) -> FrozenSet[int]:
        """RSU ids scheduled to be down during *period* (default none).

        Outages are advisory metadata for the chaos/federation drills
        and the registry listing; the measurement pipeline itself
        keeps every RSU live so bit-identity invariants are unaffected
        unless a drill opts in.
        """
        return frozenset()

    # ------------------------------------------------------------------
    # Shared behaviour
    # ------------------------------------------------------------------
    def network(self) -> RoadNetwork:
        """The road network (built once, then cached)."""
        cached = self.__dict__.get("_network")
        if cached is None:
            cached = self.build_network()
            # Frozen dataclass subclasses cannot assign normally.
            object.__setattr__(self, "_network", cached)
        return cached

    def workload(
        self,
        *,
        total_trips: int,
        seed: SeedLike = None,
        period: int = 0,
    ) -> NetworkWorkload:
        """Route one period's demand and materialize the fleet.

        A pure function of ``(total_trips, seed, period)`` given the
        scenario's frozen configuration — the determinism contract the
        whole plane relies on.
        """
        return NetworkWorkload.build(
            self.network(),
            self.trip_table(int(total_trips), period=int(period)),
            seed=seed,
        )

    def active_rsus(self, period: int = 0) -> List[int]:
        """Network nodes minus the period's scheduled outages."""
        down = self.rsu_outages(period)
        return [node for node in self.network().nodes if node not in down]

    def info(self) -> ScenarioInfo:
        """Structural metadata for the registry listing."""
        network = self.network()
        outages = tuple(
            p
            for p in range(len(self.demand_profile.factors) or 1)
            if self.rsu_outages(p)
        )
        return ScenarioInfo(
            name=self.name,
            description=self.description,
            nodes=network.num_nodes,
            arcs=network.num_arcs,
            rsus=network.num_nodes,
            demand_profile=self.demand_profile.name,
            demand_factors=self.demand_profile.factors,
            vehicle_classes=dict(self.vehicle_classes),
            outage_periods=outages,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}({self.name!r})"
