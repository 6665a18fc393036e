"""Integration tests: road network -> workload -> scheme -> estimate."""


from repro.core.estimator import ZeroFractionPolicy
from repro.core.scheme import VlmScheme
from repro.scenarios import get_scenario
from repro.traffic.network_workload import NetworkWorkload
from repro.roadnet.graph import Arc, RoadNetwork
from repro.roadnet.trips import TripTable


class TestNetworkWorkload:
    def test_build_small(self):
        arcs = [Arc(1, 2), Arc(2, 1), Arc(2, 3), Arc(3, 2)]
        network = RoadNetwork("line", arcs)
        trips = TripTable({(1, 3): 100, (3, 1): 50, (1, 2): 30})
        workload = NetworkWorkload.build(network, trips, seed=1)
        assert workload.volumes() == {1: 180, 2: 180, 3: 150}
        assert workload.common_volumes()[(1, 3)] == 150
        passes = workload.passes()
        assert {node: ids.size for node, (ids, _) in passes.items()} == (
            workload.volumes()
        )

    def test_sioux_falls_default(self):
        workload = get_scenario("sioux-falls").workload(total_trips=20_000, seed=2)
        assert workload.network.num_nodes == 24
        volumes = workload.volumes()
        assert max(volumes, key=volumes.get) == 10
        assert sum(workload.plan.trips.pairs().__next__()[1:]) >= 0  # iterable

    def test_end_to_end_measurement_accuracy(self):
        """Full pipeline: gravity trips -> routes -> encode -> decode;
        heavy pairs measured within ~15%."""
        workload = get_scenario("sioux-falls").workload(total_trips=40_000, seed=3)
        volumes = workload.volumes()
        scheme = VlmScheme(
            volumes,
            s=2,
            load_factor=8.0,
            hash_seed=7,
            policy=ZeroFractionPolicy.CLAMP,
        )
        scheme.run_period(workload.passes())
        truth = workload.common_volumes()
        heavy = sorted(truth, key=truth.get, reverse=True)[:5]
        for a, b in heavy:
            estimate = scheme.decoder.pair_estimate(a, b)
            assert estimate.error_ratio(truth[(a, b)]) < 0.15
