"""Tests for the city-scale scaling study."""

import math

import pytest

from repro.experiments.scaling import run_scaling


@pytest.fixture(scope="module")
def result():
    return run_scaling(
        city_sizes=((2, 6), (3, 8)), trips_per_rsu=2_000, seed=41
    )


class TestRunScaling:
    def test_point_per_city(self, result):
        assert len(result.points) == 2
        assert result.points[0].rsus == 13
        assert result.points[1].rsus == 25

    def test_pairs_are_complete(self, result):
        for p in result.points:
            assert p.pairs_measured == p.rsus * (p.rsus - 1) // 2

    def test_costs_grow_with_city(self, result):
        small, large = result.points
        assert large.matrix_seconds >= small.matrix_seconds * 0.5
        assert large.total_memory_mib > small.total_memory_mib

    def test_accuracy_stays_usable(self, result):
        for p in result.points:
            assert math.isfinite(p.median_error)
            assert p.median_error < 0.25

    def test_render(self, result):
        text = result.render()
        assert "scaling" in text
        assert "median |err| %" in text


def test_nodes_on_no_route_do_not_report():
    # At 8 trips per RSU some Sioux Falls nodes carry no traffic: they
    # have no array, and the period encodes only the sized RSUs.
    result = run_scaling(scenarios=["sioux-falls"], trips_per_rsu=8, min_truth=1)
    (point,) = result.points
    assert point.pairs_measured < point.rsus * (point.rsus - 1) // 2
