"""Chaos suite: the live plane under deterministic injected faults.

The headline property is the issue's acceptance criterion — a Sioux
Falls day replayed through :class:`~repro.service.faults.FaultProxy`
relays injecting ≥10% frame drops, corruption, resets, and blackholes
must still decode to *exactly* the estimates the in-process
:class:`~repro.core.decoder.CentralDecoder` produces, with the loadgen
report showing the retries and dedups that made it so.

Every fault decision is seeded (see :mod:`repro.service.faults`), so a
failure here reproduces under the same profile seed.
"""

import asyncio

import pytest

from repro.service import wire
from repro.service.collector import CollectorService
from repro.service.faults import (
    _CORRUPT,
    _DROP,
    PROFILES,
    SEGMENT,
    FaultProfile,
    FaultProxy,
    _Lane,
    FaultStats,
)
from repro.service.gateway import RsuGateway
from repro.service.loadgen import run_loadgen
from repro.service.retry import RetryPolicy
from repro.service.runtime import DeploymentSpec, start_services
from repro.vcps.ids import random_mac
from repro.vcps.pki import CertificateAuthority
from repro.vcps.rsu import RoadsideUnit

import numpy as np


def run(coroutine):
    return asyncio.run(coroutine)


#: Fast backoff so chaos runs stay quick while still exercising retry.
FAST_POLICY = RetryPolicy(
    max_attempts=8, base_delay=0.02, multiplier=2.0, max_delay=0.2, jitter=0.1
)


@pytest.fixture(scope="module")
def spec():
    # Small but non-trivial: every node carries traffic, faults get
    # thousands of byte windows to hit.
    return DeploymentSpec(total_trips=800, seed=17)


# ----------------------------------------------------------------------
# Lane-level determinism: the scheme the whole suite rests on
# ----------------------------------------------------------------------
class TestLaneDeterminism:
    PROFILE = FaultProfile(seed=3, drop_rate=0.15, corrupt_rate=0.10)

    @staticmethod
    def _run_lane(profile, payload, chunks):
        lane = _Lane(profile, seed=99, stats=FaultStats())
        out = bytearray()
        pos = 0
        for size in chunks:
            piece, reset = lane.process(payload[pos : pos + size])
            out += piece
            pos += size
            if reset:
                break
        return bytes(out), lane.stats

    def test_chunking_does_not_change_the_outcome(self):
        payload = bytes(range(256)) * 64  # 16 KiB, 32 windows
        whole = self._run_lane(self.PROFILE, payload, [len(payload)])
        bytewise = self._run_lane(self.PROFILE, payload, [1] * len(payload))
        ragged = self._run_lane(
            self.PROFILE, payload, [7, 500, 513, 1, 1024, 15000]
        )
        assert whole == bytewise == ragged

    def test_reset_fires_at_the_same_byte_regardless_of_chunking(self):
        profile = FaultProfile(seed=3, reset_rate=0.10)
        payload = bytes(range(256)) * 64
        whole, whole_stats = self._run_lane(profile, payload, [len(payload)])
        bytewise, byte_stats = self._run_lane(
            profile, payload, [1] * len(payload)
        )
        assert whole_stats.resets == byte_stats.resets == 1
        # Both deliveries forward the identical pre-reset prefix.
        assert whole == bytewise

    def test_different_seeds_draw_different_fates(self):
        payload = bytes(64) * 512  # plenty of windows
        a = _Lane(self.PROFILE, seed=1, stats=FaultStats())
        b = _Lane(self.PROFILE, seed=2, stats=FaultStats())
        out_a, _ = a.process(payload)
        out_b, _ = b.process(payload)
        assert out_a != out_b or a.stats != b.stats

    def test_clean_profile_is_a_passthrough(self):
        payload = bytes(range(256)) * 16
        lane = _Lane(PROFILES["clean"], seed=0, stats=FaultStats())
        out, reset = lane.process(payload)
        assert out == payload
        assert reset is False
        assert lane.stats.faults_injected == 0


# ----------------------------------------------------------------------
# Clean proxy: frames relay untouched
# ----------------------------------------------------------------------
class TestCleanProxy:
    def test_roundtrip_through_clean_proxy(self, spec):
        async def body():
            gateway, collector = await start_services(
                spec, gateway_port=0, collector_port=0
            )
            proxy = FaultProxy(
                "127.0.0.1", gateway.port, PROFILES["clean"], name="clean"
            )
            await proxy.start()
            try:
                client = await wire.FrameClient.open(
                    "127.0.0.1", proxy.port, 5.0
                )
                rsu_id = spec.scheme.rsu_ids[0]
                batch = wire.ResponseBatch(
                    rsu_id=rsu_id,
                    macs=np.array([random_mac(1)], dtype=np.uint64),
                    bit_indices=np.array([0], dtype=np.uint32),
                    seq=1,
                )
                ack = await client.request(batch)
                client.close()
                return ack, proxy.stats
            finally:
                await proxy.stop()
                await gateway.stop()
                await collector.stop()

        ack, stats = run(body())
        assert isinstance(ack, wire.BatchAck)
        assert ack.seq == 1
        assert not ack.duplicate
        assert stats.faults_injected == 0
        assert stats.bytes_forwarded == stats.bytes_in


# ----------------------------------------------------------------------
# Full replay through fault proxies: the bit-identical guarantee
# ----------------------------------------------------------------------
async def _loadgen_under_faults(
    spec,
    ingress_profile,
    upload_profile,
    *,
    wire_batch=256,
    max_queries=60,
    ack_timeout=0.75,
    close_timeout=3.0,
):
    """Run the full loadgen with every path routed through a proxy.

    Ingress (loadgen→gateway), upload (gateway→collector), and the
    query path (loadgen→collector, reusing the upload proxy) all see
    injected faults.
    """
    gateway, collector = await start_services(
        spec,
        gateway_port=0,
        collector_port=0,
        upload_retry_policy=FAST_POLICY,
        upload_timeout=1.0,
    )
    ingress = FaultProxy(
        "127.0.0.1", gateway.port, ingress_profile, name="ingress"
    )
    upload = FaultProxy(
        "127.0.0.1", collector.port, upload_profile, name="upload"
    )
    await ingress.start()
    await upload.start()
    # Route the gateway's snapshot uploads through the fault proxy.
    gateway.collector_port = upload.port
    try:
        result = await run_loadgen(
            spec,
            gateway_port=ingress.port,
            collector_port=upload.port,
            wire_batch=wire_batch,
            max_queries=max_queries,
            ack_timeout=ack_timeout,
            close_timeout=close_timeout,
            retry_policy=FAST_POLICY,
        )
    finally:
        await ingress.stop()
        await upload.stop()
        await gateway.stop()
        await collector.stop()
    return result, gateway, collector, ingress, upload


@pytest.mark.slow
class TestChaosBitIdentical:
    def test_lossy_profile(self, spec):
        """≥10% window drops plus corruption on every path."""
        profile = PROFILES["lossy"]
        assert profile.drop_rate >= 0.10  # the acceptance floor
        result, gateway, collector, ingress, upload = run(
            _loadgen_under_faults(spec, profile, profile)
        )
        # Exactness first: every surviving answer matches in-process.
        assert result.bit_identical
        assert result.snapshots_acked == len(spec.scheme.rsu_ids)
        assert result.counter_mismatches == []
        assert result.pair_mismatches == []
        assert result.estimates_checked > 0
        # The run was not secretly clean.
        assert ingress.stats.windows_dropped > 0
        assert ingress.stats.faults_injected > 0
        # And survival took actual retries/dedup, visible in the report.
        assert result.reconnects > 0
        assert result.batches_resent + result.dedup_acks + result.nacks > 0
        rendered = result.render()
        assert "reconnects" in rendered

    def test_flaky_profile_disconnects(self, spec):
        """Hard resets and blackholes mid-stream."""
        profile = FaultProfile(
            seed=11, drop_rate=0.05, reset_rate=0.03, blackhole_rate=0.01
        )
        result, gateway, collector, ingress, upload = run(
            _loadgen_under_faults(spec, profile, profile)
        )
        assert result.bit_identical
        assert result.snapshots_acked == len(spec.scheme.rsu_ids)
        assert ingress.stats.resets + ingress.stats.blackholes > 0
        assert result.reconnects > 0

    def test_slow_profile_stays_correct_and_complete(self, spec):
        """Latency, bandwidth cap, fragmented writes — no loss."""
        profile = FaultProfile(
            seed=5,
            latency=0.005,
            latency_jitter=0.003,
            bandwidth=2_000_000.0,
            max_chunk=512,
        )
        result, gateway, collector, ingress, upload = run(
            _loadgen_under_faults(
                spec, profile, profile, max_queries=20, ack_timeout=3.0
            )
        )
        assert result.bit_identical
        assert result.snapshots_acked == len(spec.scheme.rsu_ids)
        # Nothing was lost, so nothing needed resending.
        assert ingress.stats.windows_dropped == 0
        assert result.nacks == 0


# ----------------------------------------------------------------------
# Duplicate delivery: the regression the collector used to get wrong
# ----------------------------------------------------------------------
class TestDuplicateDelivery:
    def test_collector_dedups_reuploaded_snapshot(self, spec):
        """Re-uploading the same (rsu_id, period, seq) snapshot must be
        acked idempotently — the collector used to silently overwrite
        its state (double-observing the history)."""

        async def body():
            collector = CollectorService(spec.build_central_server())
            await collector.start(port=0)
            try:
                client = await wire.FrameClient.open(
                    "127.0.0.1", collector.port, 5.0
                )
                reports = spec.reference_reports()
                rsu_id = spec.scheme.rsu_ids[0]
                snapshot = wire.Snapshot.from_report(
                    reports[rsu_id], seq=41
                )
                first = await client.request(snapshot)
                volume_before = collector.server.point_volume(rsu_id)
                # The retransmission a gateway sends after a lost ack.
                second = await client.request(snapshot)
                volume_after = collector.server.point_volume(rsu_id)
                # A *different* upload for the same key is refused.
                conflicting = wire.Snapshot.from_report(
                    reports[rsu_id], seq=42
                )
                refused = await client.request(conflicting)
                client.close()
                return (
                    first,
                    second,
                    refused,
                    volume_before,
                    volume_after,
                    collector,
                )
            finally:
                await collector.stop()

        first, second, refused, before, after, collector = run(body())
        assert isinstance(first, wire.SnapshotAck)
        assert first.seq == 41
        assert isinstance(second, wire.SnapshotAck)
        assert second.seq == 41
        assert before == after  # state untouched by the duplicate
        assert collector.snapshots_received == 1
        assert collector.snapshots_deduped == 1
        assert isinstance(refused, wire.ErrorMsg)
        assert refused.code == wire.E_DUPLICATE
        assert collector.snapshots_conflicted == 1

    def test_gateway_dedups_resent_batches(self):
        async def body():
            authority = CertificateAuthority(seed=5)
            rsus = {3: RoadsideUnit(3, 64, authority.issue(3))}
            gateway = RsuGateway(rsus, collector_port=1)
            await gateway.start(port=0)
            try:
                client = await wire.FrameClient.open(
                    "127.0.0.1", gateway.port, 5.0
                )
                batch = wire.ResponseBatch(
                    rsu_id=3,
                    macs=np.array([random_mac(9)], dtype=np.uint64),
                    bit_indices=np.array([5], dtype=np.uint32),
                    seq=7,
                )
                first = await client.request(batch)
                second = await client.request(batch)  # the resend
                client.close()
                return first, second, gateway, rsus[3]
            finally:
                await gateway.stop()

        first, second, gateway, rsu = run(body())
        assert isinstance(first, wire.BatchAck) and not first.duplicate
        assert isinstance(second, wire.BatchAck) and second.duplicate
        assert first.seq == second.seq == 7
        assert gateway.batches_deduped == 1
        assert rsu.counter == 1  # applied exactly once

    def test_seq_window_resets_when_the_period_closes(self):
        """Batch seqs are scoped to one period's stream.  A second
        day's replay against the same long-running gateway numbers its
        batches from 1 again — closing the period must reset the dedup
        window, or the whole next day gets silently swallowed."""

        async def body():
            authority = CertificateAuthority(seed=5)
            rsus = {3: RoadsideUnit(3, 64, authority.issue(3))}
            gateway = RsuGateway(
                rsus,
                collector_port=1,  # uploads fail; close still succeeds
                upload_timeout=0.1,
                retry_policy=RetryPolicy(
                    max_attempts=1, base_delay=0.01, jitter=0.0
                ),
            )
            await gateway.start(port=0)
            try:
                client = await wire.FrameClient.open(
                    "127.0.0.1", gateway.port, 10.0
                )

                def batch(mac_seed):
                    return wire.ResponseBatch(
                        rsu_id=3,
                        macs=np.array([random_mac(mac_seed)], np.uint64),
                        bit_indices=np.array([5], dtype=np.uint32),
                        seq=1,
                    )

                day_one = await client.request(batch(9))
                await client.request(wire.EndPeriod(period=0))
                # Day two: same seq, different content — must apply.
                day_two = await client.request(batch(10))
                client.close()
                return day_one, day_two, gateway, rsus[3]
            finally:
                await gateway.stop()

        day_one, day_two, gateway, rsu = run(body())
        assert isinstance(day_one, wire.BatchAck) and not day_one.duplicate
        assert isinstance(day_two, wire.BatchAck) and not day_two.duplicate
        assert gateway.batches_deduped == 0
        assert rsu.counter == 1  # day two's response, after the reset

    def test_reclosing_a_period_does_not_reset_arrays(self):
        """A retried EndPeriod must not call rsu.end_period() twice —
        that would wipe the day's arrays before upload."""

        async def body():
            authority = CertificateAuthority(seed=5)
            rsus = {3: RoadsideUnit(3, 64, authority.issue(3))}
            server = None  # no collector: uploads fail, close still works
            del server
            gateway = RsuGateway(
                rsus,
                collector_port=1,
                upload_timeout=0.1,
                retry_policy=RetryPolicy(
                    max_attempts=1, base_delay=0.01, jitter=0.0
                ),
            )
            await gateway.start(port=0)
            try:
                client = await wire.FrameClient.open(
                    "127.0.0.1", gateway.port, 10.0
                )
                client.send(
                    wire.ResponseMsg(rsu_id=3, mac=random_mac(4), bit_index=9)
                )
                ack_a = await client.request(wire.EndPeriod(period=0))
                ack_b = await client.request(wire.EndPeriod(period=0))
                client.close()
                return ack_a, ack_b, gateway
            finally:
                await gateway.stop()

        ack_a, ack_b, gateway = run(body())
        assert isinstance(ack_a, wire.EndPeriodAck)
        assert isinstance(ack_b, wire.EndPeriodAck)
        assert gateway.periods_reclosed == 1
        # One snapshot cached with one stable seq; the re-close reused
        # it rather than snapshotting an already-reset array.
        snapshots = gateway._period_uploads[0]
        assert len(snapshots) == 1
        assert snapshots[3].counter == 1


# ----------------------------------------------------------------------
# Pipelined period close: one fault mid-pipeline, exactly-once storage
# ----------------------------------------------------------------------
def _forced_lane(faults):
    """A :class:`_Lane` class whose lane of seed ``s`` takes the fate
    ``faults[s][window]`` for each listed window (a clean profile
    passes every other byte): with profile seed 0, seed 0 is the first
    connection's client-to-upstream lane and seed 1 its reply lane."""

    class ForcedLane(_Lane):
        def __init__(self, profile, seed, stats):
            super().__init__(profile, seed, stats)
            self.forced = faults.get(seed, {})

        def _fate(self, window):
            fate = super()._fate(window)
            return self.forced.get(window, fate)

    return ForcedLane


class TestPipelinedClose:
    """The gateway writes a period's snapshots back to back on one
    connection and reads the acks in order; a fault in the middle of
    the pipeline drops the connection and only the unacked remainder
    is resent."""

    @pytest.fixture(scope="class")
    def big(self):
        # Frames of 256 B to 4 KiB: a fault window fits inside one.
        return DeploymentSpec(total_trips=20_000, seed=17)

    @staticmethod
    def _frame_bounds(gateway, shard_id):
        """``(start, end)`` byte offsets of each snapshot frame of the
        gateway's first close, in upload (rsu_id) order."""
        bounds, offset = [], 0
        for rsu_id in sorted(gateway.rsus):
            size = gateway.rsus[rsu_id].array_size
            fields = dict(
                rsu_id=rsu_id,
                period=0,
                counter=0,
                array_size=size,
                packed_bits=bytes((size + 7) // 8),
                seq=1,
            )
            if shard_id is None:
                frame = wire.encode_frame(wire.Snapshot(**fields))
            else:
                frame = wire.encode_frame(
                    wire.ShardSnapshot(shard_id=shard_id, **fields)
                )
            bounds.append((offset, offset + len(frame)))
            offset += len(frame)
        return bounds

    @staticmethod
    def _middle_window(bounds):
        """``(frame index, window)``: the first fault window past the
        middle frame that lies wholly inside one frame's payload."""
        for index in range(len(bounds) // 2, len(bounds) - 1):
            start, end = bounds[index]
            window = -(-(start + 64) // SEGMENT)
            if (window + 1) * SEGMENT <= end:
                return index, window
        raise AssertionError("no frame holds a whole fault window")

    async def _close_through(self, spec, shards, faults_for):
        """Close period 0 on every gateway, one after another, with
        uploads relayed through a proxy whose lanes take *faults_for*
        (the first gateway's frame bounds -> {lane seed: {window:
        fate}})."""
        from repro.service import faults as faults_module
        from repro.service.runtime import start_federation

        plane = await start_federation(
            spec,
            shards=shards,
            upload_retry_policy=FAST_POLICY,
            upload_timeout=1.0,
        )
        gateways = [plane.shards[key] for key in sorted(plane.shards)]
        first = gateways[0]
        bounds = self._frame_bounds(first, first.shard_id)
        saved = faults_module._Lane
        faults_module._Lane = _forced_lane(faults_for(bounds))
        proxy = FaultProxy("127.0.0.1", plane.collector.port, name="upload")
        await proxy.start()
        try:
            for gateway in gateways:
                gateway.collector_port = proxy.port
                await gateway.close_period(0)
        finally:
            faults_module._Lane = saved
            await proxy.stop()
            await plane.stop()
        return gateways, plane.collector, proxy, bounds

    def test_every_snapshot_is_written_before_the_first_ack(self, spec):
        """A collector that answers only once the whole period arrived:
        a close that waited for each ack before the next write would
        time out here."""

        async def body():
            rsus = spec.build_rsus(spec.scheme.rsu_ids)
            frames = []
            handled = asyncio.Event()

            async def hold_acks(reader, writer):
                parser = wire.FrameParser()
                try:
                    while len(frames) < len(rsus):
                        data = await reader.read(1 << 16)
                        if not data:
                            break
                        frames.extend(parser.feed(data))
                    for f in frames:
                        wire.write_frame(
                            writer,
                            wire.SnapshotAck(
                                rsu_id=f.rsu_id, period=f.period, seq=f.seq
                            ),
                        )
                    await writer.drain()
                    await reader.read()
                finally:
                    writer.close()
                    handled.set()

            server = await asyncio.start_server(hold_acks, "127.0.0.1", 0)
            gateway = RsuGateway(
                rsus,
                collector_port=server.sockets[0].getsockname()[1],
                upload_timeout=1.0,
                retry_policy=RetryPolicy(max_attempts=1),
            )
            try:
                uploaded = await gateway.close_period(0)
                # The gateway hangs up after the last ack; the handler
                # then closes its side before the loop goes away.
                await asyncio.wait_for(handled.wait(), timeout=5.0)
            finally:
                server.close()
                await server.wait_closed()
            return uploaded, frames, gateway

        uploaded, frames, gateway = run(body())
        assert uploaded == len(spec.scheme.rsu_ids)
        assert [f.rsu_id for f in frames] == sorted(spec.scheme.rsu_ids)
        assert gateway.snapshots_failed == 0
        assert gateway.uploads_retried == 0

    @pytest.mark.parametrize("shards", [0, 2])
    def test_corrupt_frame_mid_pipeline(self, big, shards):
        def faults_for(bounds):
            _index, window = self._middle_window(bounds)
            return {0: {window: (_CORRUPT, window * SEGMENT + 7, 0x10)}}

        gateways, collector, proxy, bounds = run(
            self._close_through(big, shards, faults_for)
        )
        fleet = len(big.scheme.rsu_ids)
        assert proxy.stats.bits_flipped == 1
        assert proxy.stats.faults_injected == 1
        # One fault, one reconnect: the remainder went on connection 2.
        assert proxy.stats.connections == 2 + (len(gateways) - 1)
        assert 0 < self._middle_window(bounds)[0] < len(bounds) - 1
        # Stored exactly once; the frames acked before the fault were
        # not resent, so nothing needed deduplicating.
        assert sum(g.snapshots_uploaded for g in gateways) == fleet
        assert sum(g.snapshots_failed for g in gateways) == 0
        assert sum(g.uploads_retried for g in gateways) == 1
        assert collector.snapshots_received == fleet
        assert collector.snapshots_deduped == 0
        assert collector.snapshots_conflicted == 0
        assert collector.frames_rejected == 1  # the corrupted frame
        assert collector.server.decoder.rsu_ids(0) == sorted(big.scheme.rsu_ids)

    def test_dropped_window_mid_pipeline(self, big):
        def faults_for(bounds):
            _index, window = self._middle_window(bounds)
            return {0: {window: (_DROP, 0, 0)}}

        gateways, collector, proxy, _bounds = run(
            self._close_through(big, 0, faults_for)
        )
        fleet = len(big.scheme.rsu_ids)
        assert proxy.stats.windows_dropped == 1
        assert proxy.stats.connections == 2
        (gateway,) = gateways
        assert gateway.snapshots_uploaded == fleet
        assert gateway.uploads_retried == 1
        assert collector.snapshots_received == fleet
        assert collector.snapshots_deduped == 0

    def test_corrupt_ack_mid_pipeline(self, big):
        """A lost ack: the collector stored the snapshot, the gateway
        resends it, and dedup keeps the store exactly-once."""
        ack = len(wire.encode_frame(wire.SnapshotAck(rsu_id=0, period=0, seq=1)))

        def faults_for(bounds):
            # A bit of the ack that ends the first reply window.
            return {1: {0: (_CORRUPT, SEGMENT - 1, 0x01)}}

        gateways, collector, proxy, bounds = run(
            self._close_through(big, 0, faults_for)
        )
        fleet = len(big.scheme.rsu_ids)
        hit = (SEGMENT - 1) // ack  # acks before the corrupted one
        assert proxy.stats.bits_flipped == 1
        assert proxy.stats.connections == 2
        (gateway,) = gateways
        assert gateway.snapshots_uploaded == fleet
        assert gateway.uploads_retried == 1
        assert collector.snapshots_received == fleet
        # Only the unacked remainder was resent, and each resent frame
        # the collector had already stored was deduplicated.
        assert 1 <= collector.snapshots_deduped <= fleet - hit
        assert collector.snapshots_conflicted == 0


# ----------------------------------------------------------------------
# Metrics reconciliation: injected faults match observed metrics
# ----------------------------------------------------------------------
class TestChaosMetricsReconcile:
    """The issue's acceptance criterion: a fault-profile replay must
    produce metrics that reconcile *exactly* with the injected faults.

    A reset-only ingress profile makes the accounting closed-form:
    every injected reset kills the streaming connection exactly once,
    and with a generous ack timeout and a clean query/upload path no
    other event causes a reconnect — so the loadgen's observed
    reconnect counter must equal the proxy's injected reset counter.
    """

    def test_injected_resets_equal_observed_reconnects(self, spec):
        profile = FaultProfile(seed=29, reset_rate=0.02)
        clean = FaultProfile(seed=0)
        result, gateway, collector, ingress, upload = run(
            _loadgen_under_faults(
                spec,
                profile,
                clean,
                max_queries=20,
                ack_timeout=5.0,
            )
        )
        assert result.bit_identical
        # The run was not secretly clean, and resets were the ONLY
        # fault class injected.
        assert ingress.stats.resets > 0
        assert ingress.stats.faults_injected == ingress.stats.resets
        # Exact reconciliation, via both the report and the registry.
        assert result.reconnects == ingress.stats.resets
        assert (
            int(result.registry.value("loadgen.reconnects_total"))
            == ingress.stats.resets
        )
        # The clean query path contributed no reconnects.
        assert result.registry.value("loadgen.query_reconnects_total") == 0

    def test_response_counters_reconcile_across_the_plane(self, spec):
        """Every response the loadgen got acked was received and
        recorded by the gateway exactly once, resets notwithstanding."""
        profile = FaultProfile(seed=29, reset_rate=0.02)
        clean = FaultProfile(seed=0)
        result, gateway, collector, ingress, upload = run(
            _loadgen_under_faults(
                spec,
                profile,
                clean,
                max_queries=10,
                ack_timeout=5.0,
            )
        )
        assert result.bit_identical
        sent = int(result.registry.value("loadgen.responses_sent_total"))
        total_passes = sum(
            len(spec.response_indices(rsu_id))
            for rsu_id in spec.scheme.rsu_ids
        )
        # Dedup means resent batches count once on both sides.
        assert sent == total_passes
        assert gateway.responses_received == sent
        assert gateway.responses_recorded == sent
        # Clean upload path: each RSU's snapshot uploaded and stored
        # exactly once.
        assert upload.stats.faults_injected == 0
        assert gateway.snapshots_uploaded == len(spec.scheme.rsu_ids)
        assert collector.snapshots_received == len(spec.scheme.rsu_ids)
        assert collector.snapshots_deduped == 0
        # Gateway-side dedup can exceed the loadgen's observed dedup
        # acks (a duplicate ack lost to a reset triggers yet another
        # resend), but never the other way around.
        assert gateway.batches_deduped >= result.dedup_acks
