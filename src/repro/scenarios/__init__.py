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
replays bit-identically across worker counts and executors.
``sioux-falls`` specifically reproduces the historical
hardcoded Sioux Falls workload byte for byte.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "DemandProfile": ".base",
        "FLAT_DEMAND": ".base",
        "Scenario": ".base",
        "ScenarioInfo": ".base",
        "SiouxFallsScenario": ".builtin",
        "GridScenario": ".builtin",
        "RingRadialScenario": ".builtin",
        "TntpScenario": ".builtin",
        "mini_tntp_paths": ".builtin",
        "TrajectoryReplayScenario": ".trajectory",
        "get_scenario": ".registry",
        "register": ".registry",
        "scenario_names": ".registry",
        "scenario_infos": ".registry",
        "render_scenario_list": ".registry",
        "render_scenario_detail": ".registry",
    },
)
