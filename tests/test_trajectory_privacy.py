"""Tests for trajectory-level privacy."""

import pytest

from repro.errors import ConfigurationError, NetworkDataError
from repro.privacy.trajectory import route_privacy

VOLUMES = {1: 20_000.0, 2: 200_000.0, 3: 50_000.0, 4: 20_000.0}
COMMON = {(1, 2): 2_000.0, (2, 3): 5_000.0, (3, 4): 1_500.0}


class TestRoutePrivacy:
    def test_per_trace_values(self):
        result = route_privacy([1, 2, 3, 4], VOLUMES, COMMON, s=2, load_factor=3.0)
        assert len(result.trace_privacy) == 3
        assert all(0.0 <= p <= 1.0 for p in result.trace_privacy)

    def test_full_trajectory_stronger_than_any_trace(self):
        """Reconstructing the whole trajectory requires every hop, so
        trajectory privacy >= each trace privacy."""
        result = route_privacy([1, 2, 3, 4], VOLUMES, COMMON)
        for p in result.trace_privacy:
            assert result.full_trajectory_privacy >= p - 1e-12

    def test_longer_routes_harder_to_reconstruct(self):
        short = route_privacy([1, 2], VOLUMES, COMMON)
        long = route_privacy([1, 2, 3, 4], VOLUMES, COMMON)
        assert (
            long.full_trajectory_privacy >= short.full_trajectory_privacy
        )

    def test_weakest_trace(self):
        result = route_privacy([1, 2, 3], VOLUMES, COMMON)
        assert result.weakest_trace == min(result.trace_privacy)

    def test_exact_variant_close_to_paper(self):
        paper = route_privacy([1, 2, 3], VOLUMES, COMMON, exact=False)
        exact = route_privacy([1, 2, 3], VOLUMES, COMMON, exact=True)
        for a, b in zip(paper.trace_privacy, exact.trace_privacy):
            assert a == pytest.approx(b, abs=0.08)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            route_privacy([1], VOLUMES, COMMON)
        with pytest.raises(ConfigurationError):
            route_privacy([1, 1], VOLUMES, COMMON)
        with pytest.raises(NetworkDataError):
            route_privacy([1, 9], VOLUMES, COMMON)
        with pytest.raises(NetworkDataError):
            route_privacy([1, 3], VOLUMES, COMMON)  # pair (1,3) unknown

    def test_on_real_network_routes(self):
        """Trajectory privacy along actual Sioux Falls shortest paths."""
        from repro.roadnet.volumes import node_volumes, pair_common_volumes
        from repro.scenarios import get_scenario

        workload = get_scenario("sioux-falls").workload(
            total_trips=60_000, seed=3
        )
        volumes = node_volumes(workload.plan)
        common = pair_common_volumes(workload.plan)
        route = workload.plan.route(1, 20)
        result = route_privacy(route, volumes, common, s=2, load_factor=3.0)
        assert len(result.trace_privacy) == len(route) - 1
        # Adjacent corridor pairs share most of their traffic (n_c is a
        # large fraction of n_min), so single traces are exposed —
        # privacy protects against coincidences, and on a corridor most
        # coincidences are real.  Chaining restores protection.
        assert result.weakest_trace < 0.35
        assert result.full_trajectory_privacy > 0.4
        assert result.full_trajectory_privacy > max(result.trace_privacy)

    def test_render(self):
        text = route_privacy([1, 2, 3], VOLUMES, COMMON).render()
        assert "trajectory 1 -> 2 -> 3" in text
        assert "weakest trace" in text
