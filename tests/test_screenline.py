"""Tests for screenline analysis."""

import pytest

from repro.apps.link_flows import LinkFlowStudy
from repro.apps.screenline import measure_screenline
from repro.errors import EstimationError, NetworkDataError


@pytest.fixture
def flows():
    return LinkFlowStudy(
        flows={(1, 2): 1_000.0, (3, 4): 2_000.0, (5, 6): 500.0}
    )


class TestMeasureScreenline:
    def test_totals(self, flows):
        study = measure_screenline(flows, [(1, 2), (3, 4)], name="river")
        assert study.measured_total() == pytest.approx(3_000.0)
        assert set(study.crossings) == {(1, 2), (3, 4)}

    def test_key_normalization(self, flows):
        study = measure_screenline(flows, [(2, 1)])
        assert (1, 2) in study.crossings

    def test_error_vs_truth(self, flows):
        study = measure_screenline(
            flows, [(1, 2), (3, 4)], truth={(1, 2): 1_100, (3, 4): 2_100}
        )
        assert study.truth_total == 3_200
        assert study.error() == pytest.approx(200 / 3_200)

    def test_error_requires_truth(self, flows):
        study = measure_screenline(flows, [(1, 2)])
        with pytest.raises(EstimationError):
            study.error()

    def test_unmeasured_street(self, flows):
        with pytest.raises(NetworkDataError):
            measure_screenline(flows, [(7, 8)])

    def test_empty_screenline(self, flows):
        with pytest.raises(NetworkDataError):
            measure_screenline(flows, [])

    def test_missing_truth_street(self, flows):
        with pytest.raises(NetworkDataError):
            measure_screenline(flows, [(1, 2)], truth={(3, 4): 1})

    def test_render(self, flows):
        text = measure_screenline(
            flows, [(1, 2)], name="cordon", truth={(1, 2): 900}
        ).render()
        assert "Screenline 'cordon'" in text
        assert "error" in text

    def test_end_to_end_on_network(self):
        """Measured screenline error stays small on a real pipeline."""
        from repro.apps.link_flows import measure_link_flows
        from repro.core.estimator import ZeroFractionPolicy
        from repro.core.scheme import VlmScheme
        from repro.roadnet.volumes import pair_common_volumes
        from repro.scenarios import get_scenario

        workload = get_scenario("sioux-falls").workload(
            total_trips=40_000, seed=19
        )
        scheme = VlmScheme(
            workload.volumes(), s=2, load_factor=10.0, hash_seed=4,
            policy=ZeroFractionPolicy.CLAMP,
        )
        scheme.run_period(workload.passes())
        truth = pair_common_volumes(workload.plan)
        flows = measure_link_flows(scheme.decoder, workload.network)
        # A north-south cut through the middle of Sioux Falls.
        cut = [(10, 15), (11, 14), (10, 17), (12, 13)]
        study = measure_screenline(flows, cut, name="midtown", truth=truth)
        assert study.error() < 0.10
