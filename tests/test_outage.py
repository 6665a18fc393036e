"""The rsu-outage chaos drill: scheduled silence against live services.

End-to-end path under test: the scenario's outage schedule
(:meth:`repro.scenarios.Scenario.rsu_outages`) drives the gateway's
admission-time drop switch mid-period, and the resulting live decode
must equal a degraded in-process golden **bit for bit** while pairs
away from the downed RSUs stay identical to the full-day golden.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, trace, use_registry
from repro.scenarios import get_scenario
from repro.core.estimator import PairMatrix
from repro.service.drills import (
    OutageReport,
    _surviving_indices,
    _compare_outage,
    first_outage_period,
    rsu_outage_scenario,
    shard_kill_scenario,
)
from repro.service.loadgen import plan_phases
from repro.service.runtime import DeploymentSpec


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture(scope="module")
def spec():
    return DeploymentSpec(
        total_trips=1_500, scenario="trajectory-replay", periods=6, seed=13
    )


class TestOutageSchedule:
    def test_trajectory_replay_schedules_day_five(self):
        scenario = get_scenario("trajectory-replay")
        assert first_outage_period(scenario) == 5
        # The weekly schedule repeats: day 12 is the next saturday.
        assert scenario.rsu_outages(12) == scenario.rsu_outages(5)

    def test_sioux_falls_schedules_nothing(self):
        scenario = get_scenario("sioux-falls")
        assert first_outage_period(scenario) is None
        assert scenario.rsu_outages(5) == frozenset()


class TestSurvivingIndices:
    def test_middle_slices_are_dropped(self, spec):
        full = spec.response_indices(3, period=5)
        surviving = _surviving_indices(
            spec, 3, period=5, windows=6, outage_lo=2, outage_hi=4
        )
        parts = np.array_split(full, 6)
        expected = np.concatenate(
            [parts[0], parts[1], parts[4], parts[5]]
        )
        assert np.array_equal(surviving, expected)
        assert surviving.size < full.size

    def test_total_outage_drops_everything(self, spec):
        surviving = _surviving_indices(
            spec, 3, period=5, windows=3, outage_lo=0, outage_hi=3
        )
        assert surviving.size == 0


class TestDayWindowBatches:
    def test_period_parameter_selects_the_day(self, spec):
        from repro.service import wire

        def flatten(plan):
            return b"".join(
                wire.encode_frame(batch)
                for batches, _close in plan[0]
                for batch in batches
            )

        def day(period):
            return plan_phases(spec, windows=3, period=period)

        day0 = day(0)
        day5 = day(5)
        # Three window phases, then the period close.
        assert len(day0[0]) == len(day5[0]) == 4
        # Different demand days produce different wire bytes.
        assert flatten(day0) != flatten(day5)
        # The same day is deterministic.
        assert flatten(day(5)) == flatten(day5)


class TestGuards:
    def test_too_few_windows(self, spec):
        with pytest.raises(ConfigurationError, match="3 delivery windows"):
            run(rsu_outage_scenario(spec, windows=2))

    def test_scenario_without_outages(self):
        quiet = DeploymentSpec(total_trips=300, scenario="sioux-falls")
        with pytest.raises(ConfigurationError, match="no RSU outages"):
            run(rsu_outage_scenario(quiet))

    def test_spec_too_short_for_the_schedule(self):
        short = DeploymentSpec(
            total_trips=300, scenario="trajectory-replay", periods=2
        )
        with pytest.raises(ConfigurationError, match="periods >= 6"):
            run(rsu_outage_scenario(short))

    def test_outage_that_drops_nothing_is_refused(self):
        """At 500 trips the downed RSU records nothing in the outage
        windows, so no drop could be checked: refused before bring-up."""
        thin = DeploymentSpec(
            total_trips=500, scenario="trajectory-replay", periods=6, seed=13
        )
        with pytest.raises(ConfigurationError, match="could drop nothing"):
            run(rsu_outage_scenario(thin))

    def test_unknown_down_rsu_rejected(self, spec, monkeypatch):
        monkeypatch.setattr(
            type(spec.scenario_obj),
            "rsu_outages",
            lambda self, period: frozenset({9999}),
        )
        with pytest.raises(ConfigurationError, match="9999"):
            run(rsu_outage_scenario(spec))


class TestOutageDrill:
    @pytest.fixture(scope="class")
    def report(self):
        drill_spec = DeploymentSpec(
            total_trips=1_500,
            scenario="trajectory-replay",
            periods=6,
            seed=13,
        )
        return run(rsu_outage_scenario(drill_spec, windows=6))

    def test_drill_passes(self, report):
        assert isinstance(report, OutageReport)
        assert report.passed
        assert report.period == 5
        assert report.down == (3,)

    def test_drop_accounting_is_exact(self, report):
        assert report.responses_dropped == report.expected_dropped
        assert 0 < report.responses_dropped < report.responses_sent

    def test_bit_identity_checks(self, report):
        assert report.degraded_identical
        assert report.unaffected_identical
        assert report.pairs_affected > 0
        assert report.pairs_affected < report.pairs_compared

    def test_accuracy_delta_reported(self, report):
        assert report.delta_max >= report.delta_mean >= 0.0

    def test_render_carries_the_verdict(self, report):
        text = report.render()
        assert "PASS" in text
        assert f"day {report.period}" in text
        assert "bit-identical" in text


def _per_pair_comparison(live, golden, down):
    """The drill's comparison as it was, one ``PairEstimate`` per pair."""
    affected = [pair for pair in golden if pair[0] in down or pair[1] in down]
    identical = all(
        live.get(pair) == golden[pair] for pair in golden.keys() - set(affected)
    )
    deltas = [
        abs(live[pair].value - golden[pair].value)
        / max(abs(golden[pair].value), 1.0)
        for pair in affected
        if pair in live
    ]
    return len(affected), identical, deltas


def _matrix(ids, seed):
    rng = np.random.default_rng(seed)
    k = len(ids)
    return PairMatrix(
        ids,
        rng.choice([64, 128], k),
        rng.integers(1, 100, k),
        rng.uniform(0.2, 0.9, k),
        rng.normal(50.0, 30.0, k * (k - 1) // 2),
        rng.uniform(0.1, 0.9, k * (k - 1) // 2),
        2,
    )


def _replaced(matrix, **columns):
    fields = ("rsu_ids", "sizes", "counters", "fractions", "value", "v_c")
    args = [columns.get(name, getattr(matrix, name)) for name in fields]
    return PairMatrix(*args, matrix.s)


class TestOutageComparison:
    """``_compare_outage`` against the per-pair loop it replaced."""

    IDS = [2, 3, 5, 8, 13, 21]

    def _check(self, live, golden, down):
        affected, identical, deltas = _compare_outage(live, golden, down)
        expected = _per_pair_comparison(live, golden, down)
        assert (int(affected.sum()), identical, deltas.tolist()) == expected
        return identical

    def test_equal_matrices_are_identical_away_from_the_outage(self):
        golden = _matrix(self.IDS, 1)
        assert self._check(golden, golden, (5,))

    def test_damage_confined_to_downed_rsus_passes(self):
        golden = _matrix(self.IDS, 2)
        value = golden.value.copy()
        x, y = golden.pair_ids()
        value[(x == 5) | (y == 5)] += 7.5
        counters = golden.counters.copy()
        counters[self.IDS.index(5)] -= 1
        live = _replaced(golden, value=value, counters=counters)
        assert self._check(live, golden, (5,))

    @pytest.mark.parametrize("column", ["value", "v_c", "fractions", "counters"])
    def test_damage_away_from_the_outage_fails(self, column):
        golden = _matrix(self.IDS, 3)
        damaged = getattr(golden, column).copy()
        damaged[-1] += 1
        live = _replaced(golden, **{column: damaged})
        assert not self._check(live, golden, (5,))

    def test_a_missing_rsu_fails_unless_it_is_down(self):
        golden = _matrix(self.IDS, 4)
        keep = [i for i, rsu in enumerate(self.IDS) if rsu != 8]
        x, y = golden.pair_ids()
        pairs = (x != 8) & (y != 8)
        live = PairMatrix(
            golden.rsu_ids[keep],
            golden.sizes[keep],
            golden.counters[keep],
            golden.fractions[keep],
            golden.value[pairs],
            golden.v_c[pairs],
            golden.s,
        )
        assert not self._check(live, golden, (5,))
        assert self._check(live, golden, (8,))

    def test_nan_estimates_never_compare_equal(self):
        golden = _matrix(self.IDS, 5)
        value = golden.value.copy()
        value[0] = np.nan
        golden = _replaced(golden, value=value)
        assert not self._check(golden, golden, (21,))


class TestDrillSpan:
    @pytest.mark.parametrize("profile", ["rsu-outage", "shard-kill"])
    def test_each_drill_is_timed_in_one_span(self, spec, tmp_path, profile):
        """Both drills run through one driver, whose ``chaos.drill``
        span stays open across the drill's awaits and closes after."""
        drill = (
            rsu_outage_scenario(spec)
            if profile == "rsu-outage"
            else shard_kill_scenario(spec, wal_path=tmp_path / "collector.wal")
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            report = run(drill)
        assert report.passed
        assert trace.current is None
        histogram = registry.histogram("chaos.drill.seconds", profile=profile)
        assert histogram.snapshot()["count"] == 1
        assert histogram.snapshot()["sum"] == report.elapsed_seconds > 0
