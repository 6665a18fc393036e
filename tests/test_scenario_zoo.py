"""Tests for the pluggable scenario zoo (repro.scenarios)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    DemandProfile,
    GridScenario,
    RingRadialScenario,
    Scenario,
    SiouxFallsScenario,
    TrajectoryReplayScenario,
    get_scenario,
    mini_tntp_paths,
    register,
    render_scenario_detail,
    render_scenario_list,
    scenario_names,
)
from repro.roadnet.gravity import gravity_trip_table
from repro.roadnet.sioux_falls import sioux_falls_network
from repro.traffic.network_workload import NetworkWorkload


def _hardcoded_sioux_falls(total_trips, *, seed, gamma=1.0):
    """The Sioux Falls workload as built before the scenario zoo:
    gravity trips on the paper's network, routed and materialized."""
    network = sioux_falls_network()
    trips = gravity_trip_table(network, total_trips=total_trips, gamma=gamma)
    return NetworkWorkload.build(network, trips, seed=seed)


def _same_workload(w1, w2) -> bool:
    """Bit-level equality of two materialized workloads."""
    if w1.volumes() != w2.volumes():
        return False
    if w1.common_volumes() != w2.common_volumes():
        return False
    p1, p2 = w1.passes(), w2.passes()
    if set(p1) != set(p2):
        return False
    return all(
        np.array_equal(p1[n][0], p2[n][0])
        and np.array_equal(p1[n][1], p2[n][1])
        for n in p1
    )


class TestDemandProfile:
    def test_flat_is_exact_identity(self):
        profile = DemandProfile()
        assert profile.scale(12_345, 0) == 12_345
        assert profile.scale(12_345, 99) == 12_345

    def test_factors_cycle(self):
        profile = DemandProfile(name="wk", factors=(1.0, 0.5))
        assert profile.factor(0) == 1.0
        assert profile.factor(1) == 0.5
        assert profile.factor(2) == 1.0
        assert profile.scale(1_000, 1) == 500

    def test_scale_floors_at_one_trip(self):
        profile = DemandProfile(name="tiny", factors=(0.001,))
        assert profile.scale(10, 0) == 1

    def test_invalid_factors_rejected(self):
        with pytest.raises(ConfigurationError):
            DemandProfile(factors=())
        with pytest.raises(ConfigurationError):
            DemandProfile(factors=(1.0, -0.5))


class TestRegistry:
    def test_known_names_resolve(self):
        for name in scenario_names():
            scenario = get_scenario(name)
            assert isinstance(scenario, Scenario)
            assert scenario.network().num_nodes >= 2

    def test_parametric_grid(self):
        scenario = get_scenario("grid-3x7")
        assert isinstance(scenario, GridScenario)
        assert scenario.network().num_nodes == 21
        assert scenario.name == "grid-3x7"

    def test_parametric_ring_default_spokes(self):
        scenario = get_scenario("ring-2")
        assert isinstance(scenario, RingRadialScenario)
        assert scenario.spokes == 8
        assert scenario.network().num_nodes == 17

    def test_parametric_ring_explicit_spokes(self):
        scenario = get_scenario("ring-2x6")
        assert scenario.network().num_nodes == 13

    def test_tntp_path_spec(self):
        net, trips = mini_tntp_paths()
        scenario = get_scenario(f"tntp:{net}:{trips}")
        assert scenario.network().num_nodes == 8
        bare = get_scenario(str(net))
        assert bare.network().num_arcs == 20

    def test_unknown_spec_rejected_with_catalog(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_scenario("atlantis")
        assert "sioux-falls" in str(excinfo.value)

    def test_register_custom(self):
        register("test-custom-grid", lambda: GridScenario(rows=2, cols=3))
        try:
            assert get_scenario("test-custom-grid").network().num_nodes == 6
        finally:
            from repro.scenarios import registry

            registry._REGISTRY.pop("test-custom-grid", None)

    def test_fresh_instance_per_resolution(self):
        assert get_scenario("sioux-falls") is not get_scenario("sioux-falls")

    def test_render_list_and_detail(self):
        listing = render_scenario_list()
        for name in scenario_names():
            assert name in listing
        detail = render_scenario_detail("trajectory-replay")
        assert "weekday-weekend" in detail
        assert "truck" in detail


class TestSiouxFallsBitIdentity:
    def test_matches_legacy_workload_exactly(self):
        legacy = _hardcoded_sioux_falls(8_000, seed=21)
        scenario = get_scenario("sioux-falls").workload(
            total_trips=8_000, seed=21
        )
        assert _same_workload(legacy, scenario)

    def test_gamma_matches_legacy_workload(self):
        steep = _hardcoded_sioux_falls(8_000, seed=21, gamma=2.0)
        direct = SiouxFallsScenario(gamma=2.0).workload(
            total_trips=8_000, seed=21
        )
        assert _same_workload(steep, direct)
        assert not _same_workload(steep, _hardcoded_sioux_falls(8_000, seed=21))


class TestScenarioDeterminism:
    @pytest.mark.parametrize(
        "spec", ["grid-4x4", "ring-2x6", "tntp-mini", "trajectory-replay"]
    )
    def test_same_args_same_workload(self, spec):
        a = get_scenario(spec).workload(total_trips=2_000, seed=5, period=1)
        b = get_scenario(spec).workload(total_trips=2_000, seed=5, period=1)
        assert _same_workload(a, b)

    def test_seed_changes_fleet_not_truth(self):
        s1 = get_scenario("grid-4x4").workload(total_trips=2_000, seed=1)
        s2 = get_scenario("grid-4x4").workload(total_trips=2_000, seed=2)
        assert s1.volumes() == s2.volumes()
        ids1 = np.concatenate([s1.passes()[n][0] for n in sorted(s1.passes())])
        ids2 = np.concatenate([s2.passes()[n][0] for n in sorted(s2.passes())])
        assert not np.array_equal(ids1, ids2)


class TestTntpScenario:
    def test_demand_rescaled_to_requested_total(self):
        scenario = get_scenario("tntp-mini")
        workload = scenario.workload(total_trips=2_480, seed=3)
        total = workload.plan.trips.total_trips
        # Rescaling rounds per pair; stay within a vehicle per pair.
        assert abs(total - 2_480) <= len(workload.plan.trips)

    def test_network_only_spec_uses_gravity(self):
        net, _ = mini_tntp_paths()
        scenario = get_scenario(str(net))
        workload = scenario.workload(total_trips=1_000, seed=3)
        assert workload.plan.trips.total_trips > 0


class TestTrajectoryReplay:
    @pytest.fixture(scope="class")
    def scenario(self):
        return TrajectoryReplayScenario()

    def test_class_partition_matches_mix(self, scenario):
        trips = scenario.trip_table(30_000)
        mix = scenario.class_mix(trips)
        total = sum(mix.values())
        assert mix["car"] / total == pytest.approx(0.7, abs=0.15)
        assert mix["truck"] / total == pytest.approx(0.2, abs=0.1)
        assert mix["bus"] / total == pytest.approx(0.1, abs=0.08)

    def test_trucks_avoid_the_cbd(self, scenario):
        from repro.scenarios.trajectory import CBD_NODE

        trips = scenario.trip_table(30_000)
        checked = 0
        for (o, d), _ in trips.pairs():
            if scenario.class_of(o, d) != "truck":
                continue
            if CBD_NODE in (o, d):
                continue
            assert CBD_NODE not in scenario.route_for(o, d)
            checked += 1
        assert checked > 0

    def test_buses_call_at_the_transit_hub(self, scenario):
        from repro.scenarios.trajectory import TRANSIT_HUB

        trips = scenario.trip_table(30_000)
        checked = 0
        for (o, d), _ in trips.pairs():
            if scenario.class_of(o, d) != "bus":
                continue
            route = scenario.route_for(o, d)
            assert TRANSIT_HUB in route
            # Replayed trajectories never revisit an RSU.
            assert len(route) == len(set(route))
            checked += 1
        assert checked > 0

    def test_weekend_demand_scales_down(self, scenario):
        weekday = scenario.workload(total_trips=10_000, seed=3, period=0)
        weekend = scenario.workload(total_trips=10_000, seed=3, period=6)
        assert (
            weekend.plan.trips.total_trips
            < 0.6 * weekday.plan.trips.total_trips
        )

    def test_outage_schedule_is_metadata_only(self, scenario):
        assert scenario.rsu_outages(0) == frozenset()
        assert scenario.rsu_outages(6)
        assert len(scenario.active_rsus(6)) == 24 - len(
            scenario.rsu_outages(6)
        )
        # The measurement plane still covers every RSU.
        workload = scenario.workload(total_trips=2_000, seed=1, period=6)
        assert set(workload.passes()) == set(scenario.network().nodes)

    def test_routes_differ_from_pure_shortest_paths(self, scenario):
        base = get_scenario("sioux-falls").workload(total_trips=10_000, seed=3)
        replay = scenario.workload(total_trips=10_000, seed=3)
        assert base.volumes() != replay.volumes()


class TestDeploymentSpecScenario:
    def test_default_spec_unchanged(self):
        from repro.service.runtime import DeploymentSpec

        spec = DeploymentSpec(total_trips=2_000, seed=3)
        legacy = _hardcoded_sioux_falls(2_000, seed=3)
        assert spec.scenario == "sioux-falls"
        assert _same_workload(spec.workload, legacy)

    def test_grid_spec_threads_through(self):
        from repro.service.runtime import DeploymentSpec

        spec = DeploymentSpec(total_trips=2_000, seed=3, scenario="grid-4x4")
        assert spec.scenario_obj.name == "grid-4x4"
        assert set(spec.scheme.rsu_ids) == set(range(1, 17))

    def test_profile_applies_per_period(self):
        from repro.service.runtime import DeploymentSpec

        spec = DeploymentSpec(
            total_trips=4_000,
            seed=3,
            periods=7,
            scenario="trajectory-replay",
        )
        weekday = spec.workload_for(0).plan.trips.total_trips
        weekend = spec.workload_for(6).plan.trips.total_trips
        assert weekend < 0.6 * weekday

    def test_unknown_scenario_rejected(self):
        from repro.service.runtime import DeploymentSpec

        with pytest.raises(ConfigurationError):
            DeploymentSpec(total_trips=2_000, scenario="nope")


class TestExperimentsScenario:
    def test_od_matrix_on_grid(self):
        from repro.experiments.sioux_falls_matrix import run_od_matrix

        result = run_od_matrix(
            scenario="grid-4x4", total_trips=30_000, min_truth=100
        )
        assert result.scenario == "grid-4x4"
        assert result.outcomes
        assert "grid-4x4" in result.render()

    def test_scaling_scenario_sweep(self):
        from repro.experiments.scaling import run_scaling

        result = run_scaling(
            scenarios=("grid-3x3", "grid-4x4"),
            trips_per_rsu=800,
            min_truth=50,
            seed=41,
        )
        assert [p.rsus for p in result.points] == [9, 16]
        assert [p.scenario for p in result.points] == [
            "grid-3x3",
            "grid-4x4",
        ]

    def test_scaling_legacy_city_sizes_unchanged(self):
        from repro.experiments.scaling import run_scaling

        result = run_scaling(
            city_sizes=((2, 6),), trips_per_rsu=800, min_truth=50, seed=41
        )
        assert result.points[0].rsus == 13


class TestScenarioCli:
    def test_scenarios_list(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "sioux-falls" in out
        assert "trajectory-replay" in out

    def test_scenarios_describe(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "describe", "grid-5x5"]) == 0
        out = capsys.readouterr().out
        assert "25" in out

    def test_scenarios_describe_unknown(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "describe", "atlantis"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenarios_describe_missing_spec(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "describe"]) == 2

    def test_matrix_accepts_scenario_flag(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "matrix",
                    "--quick",
                    "--scenario",
                    "grid-3x3",
                ]
            )
            == 0
        )
        assert "grid-3x3" in capsys.readouterr().out


@pytest.mark.slow
class TestLargeGridParallelIdentity:
    def test_matrix_200_rsus_bit_identical_across_workers(self):
        """A 15x15 grid (225 RSUs) through `repro matrix`'s runner:
        workers 1 and 4 must produce identical matrices."""
        from repro.experiments.sioux_falls_matrix import run_od_matrix

        kwargs = dict(
            scenario="grid-15x15",
            total_trips=120_000,
            min_truth=50,
            seed=13,
        )
        serial = run_od_matrix(workers=1, **kwargs)
        parallel = run_od_matrix(workers=4, executor="process", **kwargs)
        assert serial.scenario == "grid-15x15"
        assert len(serial.outcomes) == len(parallel.outcomes)
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert a == b
