"""Whole-system integration scenarios spanning many subsystems."""

import pytest

from repro.core.estimator import ZeroFractionPolicy
from repro.core.scheme import VlmScheme
from repro.roadnet.generators import grid_network
from repro.roadnet.gravity import gravity_trip_table
from repro.traffic.network_workload import NetworkWorkload


@pytest.fixture(scope="module")
def city():
    network = grid_network(3, 3)
    weights = {node: 1.0 for node in network.nodes}
    trips = gravity_trip_table(
        network, total_trips=27_000, gamma=0.5, weights=weights
    )
    return NetworkWorkload.build(network, trips, seed=8)


class TestCrossEstimatorConsistency:
    def test_scheme_estimates_track_network_truth(self, city):
        volumes = city.volumes()
        scheme = VlmScheme(
            volumes, s=2, load_factor=10.0, hash_seed=6,
            policy=ZeroFractionPolicy.CLAMP,
        )
        scheme.run_period(city.passes())
        truth = city.common_volumes()
        heavy = sorted(truth, key=truth.get, reverse=True)[:5]
        for pair in heavy:
            estimate = scheme.decoder.pair_estimate(*pair)
            assert estimate.error_ratio(truth[pair]) < 0.20


class TestFleetScaleSmoke:
    def test_half_million_vehicle_period(self):
        """Paper-scale smoke: one 550k-vehicle pair encodes and decodes
        in-process without drama."""
        from repro.traffic.random_workload import make_pair_population

        pop = make_pair_population(50_000, 500_000, 10_000, seed=9)
        scheme = VlmScheme(
            pop.volumes(), s=2, load_factor=13.0, hash_seed=9,
            policy=ZeroFractionPolicy.CLAMP,
        )
        reports = scheme.run_period(pop.passes())
        assert reports[pop.rsu_y].counter == 500_000
        estimate = scheme.decoder.pair_estimate(pop.rsu_x, pop.rsu_y)
        assert estimate.error_ratio(10_000) < 0.20
