"""Federation integration: sharded ingest, handoffs, OR-merge, kill.

The headline properties, per the issue's acceptance criteria:

* a day partitioned across N shards decodes bit-identically to the
  unsharded in-process run — including when RSUs are handed between
  shards mid-period, so their responses land on two shards;
* killing a shard mid-period, restarting it, resending, then killing
  the collector and replaying its write-ahead log reproduces the
  unsharded golden matrix exactly.
"""

import asyncio
import inspect

import pytest

from repro.errors import ConfigurationError
from repro.federation.router import ShardRouter
from repro.federation import runtime as federation_runtime
from repro.federation.runtime import shard_port_plan, start_federation
from repro.service import wire
from repro.service.collector import CollectorService
from repro.service.drills import shard_kill_scenario
from repro.service.gateway import RsuGateway
from repro.service.loadgen import run_loadgen, send_phases
from repro.service.runtime import DeploymentSpec


@pytest.fixture(scope="module")
def spec():
    # Small but non-trivial: every node carries traffic, all 276 pairs
    # are queryable.
    return DeploymentSpec(total_trips=1_500, seed=13)


def run(coroutine):
    return asyncio.run(coroutine)


async def _ask(port, message):
    """The gateway's answer to one frame, over a fresh connection."""
    client = await wire.FrameClient.open("127.0.0.1", port, 5.0)
    try:
        return await client.request(message)
    finally:
        client.close()


class TestShardRouter:
    def test_home_assignment_is_modulo(self):
        router = ShardRouter(3)
        assert [router.shard_for(r) for r in range(6)] == [
            0, 1, 2, 0, 1, 2,
        ]

    def test_partition_covers_every_shard(self):
        router = ShardRouter(4)
        groups = router.partition([0, 1, 2])
        assert set(groups) == {0, 1, 2, 3}
        assert groups[3] == []

    def test_reassign_overrides_and_counts(self):
        router = ShardRouter(2)
        router.reassign(4, 1)
        assert router.shard_for(4) == 1
        assert router.rebalances == 1
        assert router.overrides == {4: 1}

    def test_reassign_rejects_unknown_shard(self):
        with pytest.raises(ConfigurationError):
            ShardRouter(2).reassign(0, 5)

    def test_shard_count_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ShardRouter(0)

    def test_restored_assignment_is_not_a_new_rebalance(self):
        router = ShardRouter(2, assignment={3: 0})
        assert router.shard_for(3) == 0
        assert router.rebalances == 0


class TestShardPortPlan:
    def test_consecutive_from_base(self):
        assert shard_port_plan(8701, 3, 8710) == [8701, 8702, 8703]

    def test_skips_the_collector_port(self):
        assert shard_port_plan(8701, 3, 8702) == [8701, 8703, 8704]


class TestLoadgenShapes:
    """``run_loadgen`` refuses a plane shape it cannot drive before it
    opens a socket."""

    @pytest.mark.parametrize(
        "shape, match",
        [
            pytest.param(
                {"shards": -1}, "shards must be >= 0", id="negative-shards"
            ),
            pytest.param(
                {"shards": 3, "rebalance": -1},
                r"rebalance must be in \[0, 24\]",
                id="negative-rebalance",
            ),
            pytest.param(
                {"shards": 3, "rebalance": 25},
                r"rebalance must be in \[0, 24\]",
                id="rebalance-over-fleet",
            ),
            pytest.param(
                {"rebalance": 2},
                "rebalance needs shards",
                id="rebalance-without-shards",
            ),
        ],
    )
    def test_invalid_shape_is_refused_before_any_socket(
        self, spec, monkeypatch, shape, match
    ):
        async def no_socket(*args, **kwargs):
            raise AssertionError("loadgen opened a socket")

        monkeypatch.setattr(asyncio.BaseEventLoop, "create_connection", no_socket)
        with pytest.raises(ConfigurationError, match=match):
            run(run_loadgen(spec, **shape))

    def test_federated_name_is_the_one_loadgen(self, spec):
        """``benchmarks/perf/child.py`` drives the sharded replay under
        its pre-merge name with these keyword arguments."""
        loadgen = federation_runtime.run_federated_loadgen
        assert loadgen is run_loadgen
        inspect.signature(loadgen).bind(
            spec,
            shards=2,
            shard_ports=[8701, 8702],
            collector_port=8710,
            rebalance=2,
            max_queries=0,
            registry=None,
        )


class TestFederatedMerge:
    def test_sharded_day_is_bit_identical(self, spec):
        async def body():
            plane = await start_federation(spec, shards=3)
            try:
                ports = plane.shard_ports()
                return await run_loadgen(
                    spec,
                    shards=3,
                    shard_ports=[ports[i] for i in range(3)],
                    collector_port=plane.collector.port,
                    max_queries=40,
                )
            finally:
                await plane.stop()

        result = run(body())
        assert result.bit_identical
        assert result.handoffs == 0
        assert result.snapshots_acked == len(spec.scheme.rsu_ids)
        # Every shard carried part of the fleet.
        assert all(count > 0 for count in result.per_shard.values())

    def test_midperiod_handoff_is_bit_identical(self, spec):
        """The tentpole property: an RSU's responses split across two
        shards OR-merge into exactly the unsharded result."""

        async def body():
            plane = await start_federation(spec, shards=3)
            try:
                ports = plane.shard_ports()
                result = await run_loadgen(
                    spec,
                    shards=3,
                    shard_ports=[ports[i] for i in range(3)],
                    collector_port=plane.collector.port,
                    rebalance=3,
                    max_queries=40,
                )
                merged = plane.collector.snapshots_merged
                return result, merged
            finally:
                await plane.stop()

        result, merged = run(body())
        assert result.bit_identical
        assert result.handoffs == 3
        # The moved RSUs upload one partial from each side of the
        # handoff, so there are more partials than RSUs.
        assert merged == len(spec.scheme.rsu_ids) + 3
        assert result.snapshots_acked == len(spec.scheme.rsu_ids) + 3

    def test_partial_retransmission_is_deduped_not_resummed(self, spec):
        """Re-uploading a merged partial must re-ack without touching
        the counter (summing it twice would corrupt n_x)."""
        collector = CollectorService(spec.build_central_server())
        report = next(iter(spec.reference_reports().values()))
        snap = wire.ShardSnapshot.from_report(report, shard_id=0, seq=7)
        assert isinstance(collector._handle(snap), wire.SnapshotAck)
        before = collector.server.point_volume(report.rsu_id, 0)
        # A gateway that missed the ack retransmits the identical
        # (shard, seq) partial.
        retransmit = collector._handle(snap)
        assert isinstance(retransmit, wire.SnapshotAck)
        assert collector.server.point_volume(report.rsu_id, 0) == before
        assert collector.snapshots_deduped == 1

    def test_mixing_plain_and_shard_snapshots_is_refused(self, spec):
        async def body():
            collector = CollectorService(spec.build_central_server())
            report = next(iter(spec.reference_reports().values()))
            shard_snap = wire.ShardSnapshot.from_report(
                report, shard_id=0, seq=1
            )
            plain = wire.Snapshot.from_report(report, seq=99)
            first = collector._handle(shard_snap)
            second = collector._handle(plain)
            return first, second

        first, second = run(body())
        assert isinstance(first, wire.SnapshotAck)
        assert isinstance(second, wire.ErrorMsg)
        assert second.code == wire.E_DUPLICATE

    def test_array_size_mismatch_is_nacked(self, spec):
        async def body():
            collector = CollectorService(spec.build_central_server())
            report = next(iter(spec.reference_reports().values()))
            good = wire.ShardSnapshot.from_report(
                report, shard_id=0, seq=1
            )
            bad = wire.ShardSnapshot(
                shard_id=1,
                rsu_id=report.rsu_id,
                period=report.period,
                counter=3,
                array_size=8,
                packed_bits=b"\xff",
                seq=2,
            )
            collector._handle(good)
            return collector._handle(bad)

        reply = run(body())
        assert isinstance(reply, wire.ErrorMsg)
        assert reply.code == wire.E_MALFORMED


class TestShardGatewayHandoff:
    def test_handoff_provisions_and_acks(self, spec):
        async def body():
            plane = await start_federation(spec, shards=2)
            try:
                rsu_id = next(
                    r for r in sorted(spec.scheme.rsu_ids)
                    if plane.router.shard_for(r) == 0
                )
                target = plane.shards[1]
                assert rsu_id not in target.rsus
                handoff = wire.Handoff(
                    rsu_id=rsu_id, from_shard=0, to_shard=1, period=0
                )
                # The second send is a retransmission: it acks again
                # without zeroing state.
                await send_phases(
                    [([], handoff), ([], handoff)], port=target.port
                )
                return rsu_id in target.rsus, target.handoffs_accepted
            finally:
                await plane.stop()

        provisioned, accepted = run(body())
        assert provisioned
        assert accepted == 1

    def test_misaddressed_handoff_is_refused(self, spec):
        async def body():
            plane = await start_federation(spec, shards=2)
            try:
                gateway = plane.shards[0]
                return await _ask(
                    gateway.port,
                    wire.Handoff(rsu_id=1, from_shard=0, to_shard=1, period=0),
                )
            finally:
                await plane.stop()

        reply = run(body())
        assert isinstance(reply, wire.ErrorMsg)
        assert reply.code == wire.E_MALFORMED

    def test_plain_gateway_still_nacks_handoff(self, spec):
        """An unsharded gateway (shard_id=None) refuses federation
        frames instead of crashing the connection handler."""
        from repro.service.runtime import start_services

        async def body():
            gateway, collector = await start_services(
                spec, gateway_port=0, collector_port=0
            )
            try:
                return await _ask(
                    gateway.port,
                    wire.Handoff(rsu_id=1, from_shard=0, to_shard=0, period=0),
                )
            finally:
                await gateway.stop()
                await collector.stop()

        reply = run(body())
        assert isinstance(reply, wire.ErrorMsg)
        assert reply.code == wire.E_MALFORMED


class TestShardKillRecovery:
    def test_kill_restart_replay_is_bit_identical(self, spec, tmp_path):
        report = run(
            shard_kill_scenario(
                spec, shards=3, wal_path=tmp_path / "collector.wal"
            )
        )
        assert report.passed
        assert report.live_identical
        assert report.recovered_identical
        assert report.responses_resent > 0
        assert report.wal_records == report.wal_replayed
        assert report.pairs_compared == 276

    @pytest.mark.parametrize("shards, kill_shard", [(3, 7), (3, -1), (0, None)])
    def test_victim_outside_the_fleet_is_refused_before_bring_up(
        self, spec, tmp_path, monkeypatch, shards, kill_shard
    ):
        import repro.service.drills as drills

        async def no_plane(*args, **kwargs):
            raise AssertionError("the drill started a federation")

        monkeypatch.setattr(drills, "start_federation", no_plane)
        wal = tmp_path / "collector.wal"
        with pytest.raises(ConfigurationError, match="shard"):
            run(
                shard_kill_scenario(
                    spec, shards=shards, kill_shard=kill_shard, wal_path=wal
                )
            )
        assert not wal.exists()

    def test_existing_wal_is_refused_and_left_alone(self, spec, tmp_path):
        """A second drill on the same journal would replay the first
        run's records into its comparison; it is refused instead."""
        wal = tmp_path / "collector.wal"
        assert run(shard_kill_scenario(spec, wal_path=wal)).passed
        journal = wal.read_bytes()
        with pytest.raises(ConfigurationError, match="already exists"):
            run(shard_kill_scenario(spec, wal_path=wal))
        assert wal.read_bytes() == journal

    def test_restart_requires_kill_first(self, spec):
        async def body():
            plane = await start_federation(spec, shards=2)
            try:
                with pytest.raises(ConfigurationError):
                    await plane.restart_shard(0)
            finally:
                await plane.stop()

        run(body())


class TestRetentionWindow:
    def test_merge_dedup_keys_are_evicted(self, spec):
        async def body():
            collector = CollectorService(
                spec.build_central_server(), retention_periods=1
            )
            report = next(iter(spec.reference_reports().values()))
            for period in range(3):
                snap = wire.ShardSnapshot(
                    shard_id=0,
                    rsu_id=report.rsu_id,
                    period=period,
                    counter=report.counter,
                    array_size=report.array_size,
                    packed_bits=report.bits.to_bytes(),
                    seq=period + 1,
                )
                assert isinstance(
                    collector._handle(snap), wire.SnapshotAck
                )
            return collector

        collector = run(body())
        # retention_periods=1 keeps only periods newer than max-1,
        # i.e. just period 2's key survives.
        assert collector.dedup_keys_retained == 1
        assert collector.registry.counter(
            "collector.dedup_keys_evicted_total"
        ).value == 2


class TestSpecProvisioner:
    def test_provisioned_rsu_matches_the_fleet(self, spec):
        fleet = spec.build_rsus()
        rsu_id = sorted(fleet)[0]
        fresh = spec.build_rsus([rsu_id])[rsu_id]
        assert fresh.array_size == fleet[rsu_id].array_size
        assert fresh.counter == 0

    def test_shard_gateway_requires_provisioner_for_unknown_rsu(
        self, spec
    ):
        async def body():
            gateway = RsuGateway({}, shard_id=0, provisioner=None)
            await gateway.start("127.0.0.1", 0)
            try:
                return await _ask(
                    gateway.port,
                    wire.Handoff(rsu_id=7, from_shard=1, to_shard=0, period=0),
                )
            finally:
                await gateway.stop()

        reply = run(body())
        assert isinstance(reply, wire.ErrorMsg)
        assert reply.code == wire.E_UNKNOWN_RSU
