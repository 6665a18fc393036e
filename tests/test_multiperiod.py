"""Tests for multi-period aggregation."""


import pytest

from repro.core.estimator import PairEstimate
from repro.core.multiperiod import aggregate_estimates
from repro.core.scheme import VlmScheme
from repro.errors import EstimationError
from repro.experiments.multiperiod import run_multiperiod
from repro.traffic.random_workload import make_pair_population


def fake_estimate(value, n_x=2_000, n_y=8_000, m_x=8_192, m_y=32_768, s=2):
    return PairEstimate(
        value=value, v_c=0.5, v_x=0.7, v_y=0.8,
        m_x=m_x, m_y=m_y, n_x=n_x, n_y=n_y, s=s,
    )


class TestAggregateEstimates:
    def test_empty_rejected(self):
        with pytest.raises(EstimationError):
            aggregate_estimates([])

    def test_unknown_weighting_rejected(self):
        with pytest.raises(EstimationError):
            aggregate_estimates([fake_estimate(10)], weights="magic")

    def test_single_estimate_uses_closed_form_stderr(self):
        agg = aggregate_estimates([fake_estimate(500)])
        assert agg.value == 500
        assert agg.periods == 1
        assert agg.stderr > 0

    def test_mean_method(self):
        agg = aggregate_estimates(
            [fake_estimate(400), fake_estimate(600)], weights="mean"
        )
        assert agg.value == pytest.approx(500)
        assert agg.method == "mean"
        # sample stderr of [400, 600]: std=141.4, /sqrt(2) = 100
        assert agg.stderr == pytest.approx(100, rel=0.02)

    def test_inverse_variance_equal_configs_is_mean(self):
        agg = aggregate_estimates([fake_estimate(400), fake_estimate(600)])
        assert agg.value == pytest.approx(500)
        assert agg.method == "inverse-variance"

    def test_inverse_variance_prefers_precise_period(self):
        """A period with 8x larger arrays (lower variance) should pull
        the combined estimate towards its value."""
        precise = fake_estimate(400, m_x=65_536, m_y=262_144)
        noisy = fake_estimate(600, m_x=8_192, m_y=32_768)
        agg = aggregate_estimates([precise, noisy])
        assert agg.value < 500

    def test_stderr_shrinks_with_periods(self):
        one = aggregate_estimates([fake_estimate(500)])
        four = aggregate_estimates([fake_estimate(500)] * 4)
        assert four.stderr == pytest.approx(one.stderr / 2, rel=0.01)

    def test_confidence_interval(self):
        agg = aggregate_estimates([fake_estimate(500)] * 4)
        low, high = agg.ci(0.95)
        assert low < 500 < high
        assert high - low == pytest.approx(2 * 1.959964 * agg.stderr)


class TestEndToEnd:
    def test_aggregation_beats_single_period(self):
        """Four real periods combined land closer to the truth, on
        average, than one period."""
        pop = make_pair_population(4_000, 16_000, 800, seed=1)
        single_errors, multi_errors = [], []
        for trial in range(6):
            estimates = []
            for period in range(4):
                scheme = VlmScheme(
                    pop.volumes(), s=2, load_factor=6.0,
                    hash_seed=1000 * trial + period,
                )
                reports = scheme.encode(pop.passes(), period=period)
                estimates.append(
                    scheme.measure(reports[pop.rsu_x], reports[pop.rsu_y])
                )
            single_errors.append(abs(estimates[0].value - 800))
            agg = aggregate_estimates(estimates)
            multi_errors.append(abs(agg.value - 800))
        assert sum(multi_errors) < sum(single_errors)


class TestRunMultiperiod:
    def test_error_decays_roughly_sqrt(self):
        result = run_multiperiod(
            n_x=4_000, n_y=16_000, n_c=800,
            period_counts=(1, 4), trials=14, seed=2,
        )
        one = result.mean_abs_error[1]
        four = result.mean_abs_error[4]
        assert four < one
        # predicted stderr follows 1/sqrt(P) exactly
        assert result.predicted_stderr[4] == pytest.approx(
            result.predicted_stderr[1] / 2, rel=0.05
        )

    def test_render(self):
        result = run_multiperiod(
            n_x=2_000, n_y=4_000, n_c=400,
            period_counts=(1, 2), trials=2, seed=3,
        )
        text = result.render()
        assert "Multi-period aggregation" in text
        assert "1/sqrt(P)" in text
