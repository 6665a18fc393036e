"""End-to-end tests for the adaptive array-sizing control loop.

Covers every layer the loop threads through: the wire frames, the WAL
record, the server's deterministic planner, in-place RSU resizing, the
agent simulation's between-period hook, the federated collector's
streaming feed, the multi-period deployment spec, the live loadgen
announcement handshake, and the adaptive shard-kill chaos variant.
"""

import asyncio

import numpy as np
import pytest

from repro.core.sizing import AdaptiveSizing, PrivacyOptimalSizing, StaticSizing
from repro.errors import ConfigurationError, ProtocolError, WireError
from repro.federation.wal import WriteAheadLog, replay_wal
from repro.service import wire
from repro.service.collector import CollectorService
from repro.service.drills import shard_kill_scenario
from repro.service.loadgen import run_loadgen
from repro.service.runtime import DeploymentSpec, start_federation
from repro.vcps.ids import random_mac
from repro.vcps.pki import CertificateAuthority
from repro.vcps.rsu import RoadsideUnit
from repro.vcps.simulation import VcpsSimulation


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture(scope="module")
def spec():
    """Small adaptive deployment whose demand halves every day — the
    drift is steep enough that the controller provably resizes."""
    return DeploymentSpec(
        total_trips=1_500, seed=13, periods=3, drift=-0.5, adaptive=True
    )


class TestWireSizeFrames:
    def roundtrip(self, message):
        frame = wire.encode_frame(message)
        decoded, consumed = wire.decode_frame(frame)
        assert consumed == len(frame)
        return decoded

    def test_size_query(self):
        assert self.roundtrip(wire.SizeQuery(period=7)) == wire.SizeQuery(
            period=7
        )

    def test_size_ack(self):
        msg = wire.SizeAnnounceAck(period=3, applied=12)
        assert self.roundtrip(msg) == msg

    def test_size_announce(self):
        msg = wire.SizeAnnounce.from_sizes(2, {5: 64, 1: 128, 9: 2})
        back = self.roundtrip(msg)
        assert back == msg
        assert back.to_sizes() == {1: 128, 5: 64, 9: 2}

    def test_announce_bytes_are_canonical(self):
        a = wire.SizeAnnounce.from_sizes(1, {3: 8, 1: 4})
        b = wire.SizeAnnounce.from_sizes(1, {1: 4, 3: 8})
        assert wire.encode_frame(a) == wire.encode_frame(b)

    def test_announce_rejects_non_power_of_two(self):
        with pytest.raises(WireError):
            wire.SizeAnnounce.from_sizes(0, {1: 48})

    def test_announce_rejects_size_below_minimum(self):
        with pytest.raises(WireError):
            wire.SizeAnnounce.from_sizes(0, {1: 1})

    def test_announce_rejects_unsorted_ids(self):
        with pytest.raises(WireError):
            wire.SizeAnnounce(
                period=0,
                rsu_ids=np.array([2, 1], dtype=">u4"),
                sizes=np.array([4, 4], dtype=">u4"),
            )


class TestWalSizeRecords:
    def test_announce_roundtrips_through_the_journal(self, tmp_path):
        path = tmp_path / "collector.wal"
        announce = wire.SizeAnnounce.from_sizes(4, {1: 16, 2: 64})
        wal = WriteAheadLog(path)
        wal.append(announce)
        wal.close()
        records = list(replay_wal(path))
        assert records == [announce]


class TestServerPlanSizes:
    def test_static_policy_holds_initial_sizes(self):
        static = DeploymentSpec(total_trips=1_500, seed=13)
        server = static.build_central_server()
        assert server.plan_sizes(0) == server.initial_sizes
        assert server.plan_sizes(7) == server.initial_sizes

    def test_adaptive_plan_matches_the_spec_golden(self, spec):
        """A server fed the real per-period reports must re-derive
        exactly the trajectory the spec computes in process."""
        server = spec.build_central_server()
        for period in range(spec.periods - 1):
            for report in spec.reference_reports(period=period).values():
                server.streaming.observe_report(report)
            assert server.plan_sizes(period + 1) == spec.sizes_for(
                period + 1
            )

    def test_plans_are_cached_and_identical(self, spec):
        server = spec.build_central_server()
        for report in spec.reference_reports(period=0).values():
            server.streaming.observe_report(report)
        assert server.plan_sizes(1) == server.plan_sizes(1)

    def test_adopted_plan_wins_over_rederivation(self, spec):
        server = spec.build_central_server()
        forced = {rsu_id: 4 for rsu_id in server.initial_sizes}
        server.adopt_size_plan(1, forced)
        assert server.plan_sizes(1) == forced

    def test_negative_period_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            spec.build_central_server().plan_sizes(-1)


class TestRsuResize:
    def make_rsu(self, size=64):
        return RoadsideUnit(1, size, CertificateAuthority(seed=7).issue(1))

    def test_resize_preserves_the_period_number(self):
        rsu = self.make_rsu()
        rsu.end_period()
        assert rsu.period == 1
        assert rsu.resize(32)
        assert rsu.period == 1
        assert rsu.array_size == 32
        assert rsu.counter == 0

    def test_same_size_is_a_noop(self):
        rsu = self.make_rsu()
        assert rsu.resize(64) is False

    def test_mid_period_resize_refused(self):
        rsu = self.make_rsu()
        recorded = rsu.handle_wire_batch(
            np.array([random_mac(np.random.default_rng(3))], dtype=np.uint64),
            np.array([5], dtype=np.int64),
        )
        assert recorded == 1
        with pytest.raises(ProtocolError):
            rsu.resize(32)


class TestSimulationAdaptive:
    def test_apply_resizing_follows_the_controller(self):
        sim = VcpsSimulation(
            {1: 40.0, 2: 40.0},
            seed=11,
            sizing=AdaptiveSizing(target=StaticSizing(3.0)),
        )
        # Far less traffic than the seed history promised: the
        # controller must shrink (one octave, the default rate limit).
        for vehicle_id in range(4):
            sim.drive(vehicle_id, [1, 2])
        sim.close_period()
        before = {rsu_id: rsu.array_size for rsu_id, rsu in sim.rsus.items()}
        sizes = sim.apply_resizing()
        for rsu_id, rsu in sim.rsus.items():
            assert rsu.array_size == sizes[rsu_id]
            assert rsu.array_size == before[rsu_id] // 2
            assert rsu.period == 1  # resizing must not reset periods
        assert sizes == sim.server.plan_sizes(1)

    def test_static_simulation_keeps_history_rule(self):
        sim = VcpsSimulation({1: 40.0, 2: 40.0}, seed=11)
        for vehicle_id in range(4):
            sim.drive(vehicle_id, [1, 2])
        sim.close_period()
        assert sim.apply_resizing() == {
            rsu_id: min(size, sim.params.m_o)
            for rsu_id, size in sim.server.next_period_sizes().items()
        }


class TestFederatedStreamingFeed:
    def test_shard_merges_reach_the_streaming_tier(self, spec):
        """The adaptive planner reads per-period volumes from the
        streaming tier, so shard OR-merges must land there too."""
        collector = CollectorService(spec.build_central_server())
        report = next(iter(spec.reference_reports().values()))
        packed = report.bits.to_bytes()
        for shard, counter in ((0, 3), (1, 4)):
            snap = wire.ShardSnapshot(
                shard_id=shard,
                rsu_id=report.rsu_id,
                period=0,
                counter=counter,
                array_size=report.array_size,
                packed_bits=packed,
                seq=1,
            )
            assert isinstance(collector._handle(snap), wire.SnapshotAck)
        assert collector.server.streaming.counter(report.rsu_id, 0) == 7


class TestDeploymentSpecMultiPeriod:
    def test_trips_decay_geometrically(self, spec):
        assert spec.trips_for(0) == 1_500
        assert spec.trips_for(1) == 750
        assert spec.trips_for(2) == 375

    def test_period_bounds_enforced(self, spec):
        with pytest.raises(ConfigurationError):
            spec.sizes_for(spec.periods)
        with pytest.raises(ConfigurationError):
            spec.trips_for(-1)

    def test_invalid_multi_period_knobs(self):
        with pytest.raises(ConfigurationError):
            DeploymentSpec(total_trips=100, periods=0)
        with pytest.raises(ConfigurationError):
            DeploymentSpec(total_trips=100, periods=2, drift=-1.0)

    def test_static_trajectory_is_constant(self):
        static = DeploymentSpec(
            total_trips=1_500, seed=13, periods=3, drift=-0.5
        )
        trajectory = static.size_trajectory()
        assert trajectory[1] == trajectory[0]
        assert trajectory[2] == trajectory[0]

    def test_adaptive_trajectory_shrinks(self, spec):
        trajectory = spec.size_trajectory()
        assert len(trajectory) == 3
        assert sum(trajectory[2].values()) < sum(trajectory[0].values())
        for plan in trajectory:
            for size in plan.values():
                assert size >= 2 and size & (size - 1) == 0

    def test_observed_volumes_count_passes(self, spec):
        volumes = spec.observed_volumes(0)
        for rsu_id, volume in volumes.items():
            ids, _ = spec.workload.assignment.passes_at(rsu_id)
            assert volume == float(ids.size)

    def test_explicit_adaptive_policy_is_kept(self):
        policy = AdaptiveSizing(
            target=PrivacyOptimalSizing(2), hysteresis=2, max_step=3
        )
        made = DeploymentSpec(
            total_trips=1_000, seed=13, periods=2, drift=-0.4, sizing=policy
        )
        assert made.adaptive
        assert made.sizing is policy


@pytest.mark.parametrize("shards", [0, 2])
class TestLiveMultiPeriodLoadgen:
    def test_announced_sizes_match_the_golden_trajectory(self, spec, shards):
        # The sharded run also hands two RSUs over in period 0, so
        # later periods announce to and stream through the new owner.
        rebalance = shards

        async def body():
            plane = await start_federation(spec, shards=shards)
            try:
                return await run_loadgen(
                    spec,
                    shards=shards,
                    rebalance=rebalance,
                    shard_ports=list(plane.shard_ports().values()),
                    collector_port=plane.collector.port,
                )
            finally:
                await plane.stop()

        result = run(body())
        assert result.periods == spec.periods
        assert result.trajectory_mismatches == []
        assert result.size_trajectory == spec.size_trajectory()
        assert result.counter_mismatches == []
        assert result.pair_mismatches == []
        assert result.bit_identical
        assert result.handoffs == rebalance
        assert sum(result.per_shard.values()) == (
            result.responses_sent if shards else 0
        )


class TestGoldenTrajectoryFile:
    def test_ci_golden_matches_the_spec(self):
        """The checked-in golden CI diffs `loadgen --trajectory-out`
        against must equal the spec's in-process trajectory, rendered
        exactly the way the CLI writes it."""
        import json
        from pathlib import Path

        golden_path = (
            Path(__file__).parent / "data" / "adaptive_trajectory_golden.json"
        )
        ci_spec = DeploymentSpec(
            total_trips=5_000, seed=13, periods=3, drift=-0.5, adaptive=True
        )
        payload = {
            "periods": ci_spec.periods,
            "adaptive": True,
            "trajectory": [
                {str(rsu_id): plan[rsu_id] for rsu_id in sorted(plan)}
                for plan in ci_spec.size_trajectory()
            ],
        }
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert golden_path.read_text(encoding="utf-8") == rendered


class TestExperimentSmoke:
    def test_adaptive_sizing_experiment(self):
        from repro.experiments.adaptive_sizing import run_adaptive_sizing

        result = run_adaptive_sizing(
            total_trips=2_000, periods=3, attacker_trials=1
        )
        assert len(result.outcomes) == 3
        assert result.adaptive_always_in_band
        assert result.bit_identical
        assert "Adaptive vs static sizing" in result.render()


class TestChaosAdaptiveVariant:
    def test_recovered_collector_replays_the_size_plan(self, tmp_path):
        adaptive = DeploymentSpec(
            total_trips=1_000, seed=13, periods=2, drift=-0.5, adaptive=True
        )
        report = run(
            shard_kill_scenario(
                adaptive, shards=2, wal_path=tmp_path / "collector.wal"
            )
        )
        assert report.sizes_identical is True
        assert report.passed

    def test_static_spec_skips_the_size_check(self, tmp_path):
        static = DeploymentSpec(total_trips=1_000, seed=13)
        report = run(
            shard_kill_scenario(
                static, shards=2, wal_path=tmp_path / "collector.wal"
            )
        )
        assert report.sizes_identical is None
        assert report.passed
