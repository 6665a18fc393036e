"""The scenario zoo: pluggable network + demand workload scenarios.

The VLM measurement plane is network-agnostic; only the workload layer
ever knew about Sioux Falls.  This package makes that layer pluggable:
a :class:`Scenario` bundles a road network, an OD demand synthesizer,
a per-period demand curve, a vehicle-class mix, and an optional RSU
outage schedule, and :func:`get_scenario` resolves string specs
(``sioux-falls``, ``grid-8x8``, ``ring-4``, ``tntp:Anaheim_net.tntp``,
``trajectory-replay``) anywhere a workload is needed — deployment
specs, experiment runners, the CLI, and pickled parallel-runtime
tasks.

Determinism contract: ``scenario.workload(total_trips=t, seed=s,
period=p)`` is a pure function of its arguments, so every scenario
replays bit-identically across worker counts, executors, and engine
backends.  ``sioux-falls`` specifically reproduces the historical
hardcoded Sioux Falls workload byte for byte.
"""

from repro.scenarios.base import (
    FLAT_DEMAND,
    DemandProfile,
    Scenario,
    ScenarioInfo,
)
from repro.scenarios.builtin import (
    GridScenario,
    RingRadialScenario,
    SiouxFallsScenario,
    TntpScenario,
    mini_tntp_paths,
)
from repro.scenarios.registry import (
    get_scenario,
    register,
    render_scenario_detail,
    render_scenario_list,
    scenario_infos,
    scenario_names,
)
from repro.scenarios.trajectory import TrajectoryReplayScenario

__all__ = [
    "DemandProfile",
    "FLAT_DEMAND",
    "Scenario",
    "ScenarioInfo",
    "SiouxFallsScenario",
    "GridScenario",
    "RingRadialScenario",
    "TntpScenario",
    "TrajectoryReplayScenario",
    "mini_tntp_paths",
    "get_scenario",
    "register",
    "scenario_names",
    "scenario_infos",
    "render_scenario_list",
    "render_scenario_detail",
]
