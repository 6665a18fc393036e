"""Integration tests: gateway + collector over localhost sockets.

The headline property is the issue's acceptance criterion — a live
Sioux Falls day streamed through the socket pipeline must decode to
exactly the estimates the in-process :class:`CentralDecoder` produces
for the same seed.
"""

import asyncio

import numpy as np
import pytest

from repro.service import wire
from repro.service.collector import CollectorService
from repro.service.gateway import RsuGateway
from repro.service.loadgen import run_loadgen
from repro.service.runtime import DeploymentSpec, start_services
from repro.vcps.ids import random_mac
from repro.vcps.pki import CertificateAuthority
from repro.vcps.rsu import RoadsideUnit


@pytest.fixture(scope="module")
def spec():
    # Small but non-trivial: every node carries traffic, all 276 pairs
    # are queryable.
    return DeploymentSpec(total_trips=1_500, seed=13)


def run(coroutine):
    return asyncio.run(coroutine)


async def _with_services(spec, body):
    """Run *body(gateway, collector)* against live localhost services."""
    gateway, collector = await start_services(
        spec, gateway_port=0, collector_port=0
    )
    try:
        return await body(gateway, collector)
    finally:
        await gateway.stop()
        await collector.stop()


class TestLiveDayMatchesInProcess:
    def test_loadgen_is_bit_identical(self, spec):
        async def body(gateway, collector):
            return await run_loadgen(
                spec,
                gateway_port=gateway.port,
                collector_port=collector.port,
            )

        result = run(_with_services(spec, body))
        assert result.snapshots_acked == len(spec.scheme.rsu_ids)
        assert result.counters_checked == len(spec.scheme.rsu_ids)
        assert result.counter_mismatches == []
        assert result.estimates_checked > 200
        assert result.pair_mismatches == []
        assert result.bit_identical
        assert result.responses_sent > 0
        assert result.throughput > 0

    def test_gateway_arrays_match_vectorized_encoder(self, spec):
        """After the replay, each RSU's counter equals the encoder's."""

        async def body(gateway, collector):
            await run_loadgen(
                spec,
                gateway_port=gateway.port,
                collector_port=collector.port,
            )
            return {
                rsu_id: collector.server.point_volume(rsu_id)
                for rsu_id in spec.scheme.rsu_ids
            }

        live_counters = run(_with_services(spec, body))
        for rsu_id, report in spec.reference_reports().items():
            assert live_counters[rsu_id] == report.counter


class TestGatewayRobustness:
    @pytest.fixture
    def rsus(self):
        authority = CertificateAuthority(seed=5)
        return {7: RoadsideUnit(7, 64, authority.issue(7))}

    def test_single_response_and_rejection(self, rsus):
        async def body():
            gateway = RsuGateway(rsus, collector_port=1)
            await gateway.start(port=0)
            try:
                client = await wire.FrameClient.open(
                    "127.0.0.1", gateway.port, 5.0
                )
                client.send(
                    wire.ResponseMsg(rsu_id=7, mac=random_mac(1), bit_index=9)
                )
                # Out of range for a 64-bit array: dropped, not fatal.
                client.send(
                    wire.ResponseMsg(rsu_id=7, mac=random_mac(2), bit_index=64)
                )
                # Unknown RSU: answered with an error frame.
                answer = await client.request(
                    wire.ResponseMsg(rsu_id=99, mac=random_mac(3), bit_index=0)
                )
                client.close()
                return answer
            finally:
                await gateway.stop()

        answer = run(body())
        assert isinstance(answer, wire.ErrorMsg)
        assert answer.code == wire.E_UNKNOWN_RSU
        rsu = rsus[7]
        assert rsu.counter == 1
        assert rsu.rejected_responses == 1

    def test_malformed_frame_gets_error_and_close(self, rsus):
        async def body():
            gateway = RsuGateway(rsus, collector_port=1)
            await gateway.start(port=0)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.port
                )
                writer.write(b"garbage that is not a frame..")
                # One error frame, then the server closes.
                data = await asyncio.wait_for(reader.read(), timeout=5)
                writer.close()
                await writer.wait_closed()
                return data
            finally:
                await gateway.stop()

        data = run(body())
        answer, used = wire.decode_frame(data)
        assert used == len(data)
        assert isinstance(answer, wire.ErrorMsg)
        assert answer.code == wire.E_MALFORMED

    def test_upload_retry_exhaustion_is_reported(self, rsus):
        """No collector listening: close_period retries, then gives up
        without raising, and the ack reports zero snapshots."""

        async def body():
            gateway = RsuGateway(
                rsus,
                collector_port=1,  # nothing listens here
                upload_timeout=0.2,
                upload_retries=2,
            )
            await gateway.start(port=0)
            try:
                client = await wire.FrameClient.open(
                    "127.0.0.1", gateway.port, 30.0
                )
                ack = await client.request(wire.EndPeriod(period=0))
                client.close()
                return ack, gateway.snapshots_failed
            finally:
                await gateway.stop()

        ack, failed = run(body())
        assert isinstance(ack, wire.EndPeriodAck)
        assert ack.snapshots == 0
        assert failed == 1

    def test_a_batch_behind_end_period_lands_in_the_next_period(self, rsus):
        """A batch written right behind an ``EndPeriod``, without
        waiting for its ack, is read only once the close is answered:
        the ``EndPeriodAck`` comes first and the batch is recorded in
        the next period, not in the closed one."""

        def batch(seq, mac_seed):
            return wire.ResponseBatch(
                rsu_id=7,
                macs=np.array([random_mac(mac_seed)], dtype=np.uint64),
                bit_indices=np.array([5], dtype=np.uint32),
                seq=seq,
            )

        async def body():
            gateway = RsuGateway(
                rsus,
                collector_port=1,  # nothing listens: one refused upload
                upload_timeout=0.2,
                upload_retries=1,
            )
            await gateway.start(port=0)
            try:
                client = await wire.FrameClient.open(
                    "127.0.0.1", gateway.port, 10.0
                )
                first = await client.request(batch(1, 1))
                # Pipelined: both frames go out before either reply, and
                # replies resolve the requests in order.
                closed = client.submit(wire.EndPeriod(period=0))
                behind = client.submit(batch(1, 2))
                replies = [await closed, await behind]
                client.close()
                return first, replies, gateway
            finally:
                await gateway.stop()

        first, (closed, behind), gateway = run(body())
        assert isinstance(first, wire.BatchAck)
        assert isinstance(closed, wire.EndPeriodAck)
        # The seq window reset at the close, so seq 1 applies again.
        assert isinstance(behind, wire.BatchAck) and not behind.duplicate
        assert gateway._period_uploads[0][7].counter == 1
        assert rsus[7].counter == 1  # period 1's one response


    def test_end_window_without_windows_is_nacked(self, rsus):
        async def body():
            gateway = RsuGateway(rsus, collector_port=1)
            await gateway.start(port=0)
            try:
                client = await wire.FrameClient.open(
                    "127.0.0.1", gateway.port, 5.0
                )
                answer = await client.request(wire.EndWindow(period=0, window=0))
                client.close()
                return answer, gateway.frames_rejected
            finally:
                await gateway.stop()

        answer, rejected = run(body())
        assert isinstance(answer, wire.ErrorMsg)
        assert answer.code == wire.E_MALFORMED
        assert rejected == 1


class TestCollectorRobustness:
    def test_snapshot_ingest_and_queries(self, spec):
        async def body():
            collector = CollectorService(spec.build_central_server())
            await collector.start(port=0)
            try:
                client = await wire.FrameClient.open(
                    "127.0.0.1", collector.port, 5.0
                )
                reports = spec.reference_reports()
                for report in reports.values():
                    ack = await client.request(wire.Snapshot.from_report(report))
                    assert isinstance(ack, wire.SnapshotAck)
                # A pair query answered from the uploaded snapshots.
                a, b = spec.scheme.rsu_ids[:2]
                estimate = await client.request(
                    wire.VolumeQuery(rsu_x=a, rsu_y=b, period=0)
                )
                # Same-RSU pair is an estimation error, not a crash.
                error = await client.request(
                    wire.VolumeQuery(rsu_x=a, rsu_y=a, period=0)
                )
                # A message the collector does not serve.
                rejected = await client.request(wire.EndPeriod(period=0))
                client.close()
                return estimate, error, rejected
            finally:
                await collector.stop()

        estimate, error, rejected = run(body())
        a, b = spec.scheme.rsu_ids[:2]
        expected = spec.reference_decoder().pair_estimate(a, b)
        assert isinstance(estimate, wire.EstimateMsg)
        assert estimate.n_c_hat == expected.value
        assert isinstance(error, wire.ErrorMsg)
        assert error.code == wire.E_ESTIMATION
        assert isinstance(rejected, wire.ErrorMsg)
        assert rejected.code == wire.E_MALFORMED

    def test_missing_report_is_estimation_error(self, spec):
        async def body():
            collector = CollectorService(spec.build_central_server())
            await collector.start(port=0)
            try:
                client = await wire.FrameClient.open(
                    "127.0.0.1", collector.port, 5.0
                )
                answer = await client.request(
                    wire.VolumeQuery(rsu_x=1, rsu_y=2, period=0)
                )
                client.close()
                return answer
            finally:
                await collector.stop()

        answer = run(body())
        assert isinstance(answer, wire.ErrorMsg)
        assert answer.code == wire.E_ESTIMATION
