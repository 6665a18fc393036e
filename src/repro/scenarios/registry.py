"""String-keyed scenario registry.

Every layer that accepts ``--scenario`` resolves the name here, so a
scenario spec can travel through CLI arguments, deployment specs, wire
frames, and pickled runtime tasks as a plain string and be rebuilt
identically inside any worker process.

Three kinds of spec resolve:

* **Exact names** registered up front (``sioux-falls``,
  ``trajectory-replay``, ``tntp-mini``) or via :func:`register`.
* **Parametric families**: ``grid-<rows>x<cols>`` (``grid-6x6``),
  ``ring-<rings>`` (8 spokes) or ``ring-<rings>x<spokes>``.
* **TNTP paths**: ``tntp:<net.tntp>[:<trips.tntp>]``, or a bare path
  ending in ``.tntp``.

Unknown specs raise :class:`~repro.errors.ConfigurationError` listing
what *is* available.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List

from repro.errors import ConfigurationError
from repro.scenarios.base import Scenario, ScenarioInfo
from repro.scenarios.builtin import (
    GridScenario,
    RingRadialScenario,
    SiouxFallsScenario,
    TntpScenario,
    mini_tntp_paths,
)
from repro.scenarios.trajectory import TrajectoryReplayScenario

__all__ = [
    "get_scenario",
    "register",
    "scenario_names",
    "scenario_infos",
    "render_scenario_list",
    "render_scenario_detail",
]

_GRID_RE = re.compile(r"^grid-(\d+)x(\d+)$")
_RING_RE = re.compile(r"^ring-(\d+)(?:x(\d+))?$")


def _mini_tntp() -> Scenario:
    net, trips = mini_tntp_paths()
    return TntpScenario(
        net_path=str(net), trips_path=str(trips), label="tntp-mini"
    )


#: name -> zero-argument factory.  Factories (not instances) so the
#: registry import stays cheap and each resolution returns a fresh,
#: unshared instance (network caches are per-instance).
_REGISTRY: Dict[str, Callable[[], Scenario]] = {}


def register(name: str, factory: Callable[[], Scenario]) -> None:
    """Register (or replace) a named scenario factory."""
    _REGISTRY[str(name)] = factory


register("sioux-falls", SiouxFallsScenario)
register("trajectory-replay", TrajectoryReplayScenario)
register("tntp-mini", _mini_tntp)


def get_scenario(spec: str) -> Scenario:
    """Resolve a scenario spec string to a fresh :class:`Scenario`.

    Accepts registered names, ``grid-NxM`` / ``ring-R[xS]`` parametric
    specs, ``tntp:<net>[:<trips>]``, and bare ``*.tntp`` paths; raises
    :class:`~repro.errors.ConfigurationError` on anything else.
    """
    spec = str(spec).strip()
    factory = _REGISTRY.get(spec)
    if factory is not None:
        return factory()

    match = _GRID_RE.match(spec)
    if match:
        return GridScenario(rows=int(match.group(1)), cols=int(match.group(2)))

    match = _RING_RE.match(spec)
    if match:
        spokes = int(match.group(2)) if match.group(2) else 8
        return RingRadialScenario(rings=int(match.group(1)), spokes=spokes)

    if spec.startswith("tntp:"):
        parts = spec.split(":", 2)[1:]
        net_path = parts[0]
        trips_path = parts[1] if len(parts) > 1 and parts[1] else None
        return TntpScenario(net_path=net_path, trips_path=trips_path)

    if spec.endswith(".tntp"):
        return TntpScenario(net_path=spec)

    raise ConfigurationError(
        f"unknown scenario {spec!r}; known names: "
        f"{', '.join(scenario_names())}; parametric specs: grid-NxM, "
        f"ring-R[xS], tntp:<net.tntp>[:<trips.tntp>]"
    )


def scenario_names() -> List[str]:
    """Registered exact names plus one representative of each
    parametric family, sorted."""
    names = set(_REGISTRY)
    names.update({"grid-6x6", "ring-3x8"})
    return sorted(names)


def scenario_infos() -> List[ScenarioInfo]:
    """Structural metadata for every listable scenario."""
    return [get_scenario(name).info() for name in scenario_names()]


# ----------------------------------------------------------------------
# Rendering (the `repro scenarios` CLI subcommands)
# ----------------------------------------------------------------------
def render_scenario_list() -> str:
    """The ``repro scenarios list`` table."""
    infos = scenario_infos()
    rows = [("name", "nodes", "arcs", "rsus", "demand", "classes")]
    for info in infos:
        rows.append(
            (
                info.name,
                str(info.nodes),
                str(info.arcs),
                str(info.rsus),
                info.demand_profile,
                info.classes_summary(),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["Scenario zoo (parametric: grid-NxM, ring-R[xS], tntp:<path>)"]
    lines.append(
        "  ".join(title.ljust(widths[i]) for i, title in enumerate(rows[0]))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in rows[1:]:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def render_scenario_detail(spec: str) -> str:
    """The ``repro scenarios describe <name>`` report."""
    scenario = get_scenario(spec)
    info = scenario.info()
    factors = ", ".join(f"{f:g}" for f in info.demand_factors)
    lines = [
        f"scenario       : {info.name}",
        f"description    : {info.description}",
        f"nodes / arcs   : {info.nodes} / {info.arcs}",
        f"RSUs           : {info.rsus}",
        f"demand profile : {info.demand_profile} ({factors})",
        f"vehicle classes: {info.classes_summary()}",
    ]
    if info.outage_periods:
        outages = "; ".join(
            f"period {p}: RSUs "
            + ", ".join(str(r) for r in sorted(scenario.rsu_outages(p)))
            for p in info.outage_periods
        )
        lines.append(f"RSU outages    : {outages}")
    else:
        lines.append("RSU outages    : none scheduled")
    return "\n".join(lines)
