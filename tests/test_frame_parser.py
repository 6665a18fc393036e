"""The sans-IO frame parser and the two protocol ends built on it.

``wire.FrameParser`` holds the header checks, the CRC check and the
payload decode that ``decode_frame`` runs too.  Bytes in any chunking
decode to what ``decode_frame`` gives; a malformed stream gets the
parser's own ``WireError`` text through the gateway's and the
collector's session; queries pipelined in one write are answered in
order; a client that does not read its answers pauses the session's
reading, which the gateway counts as a backpressure stall.  The frame
client resolves pipelined replies in order, keeps one deadline timer
per connection, times a request out at its own deadline, and fails
every outstanding request with one fault.
"""

import asyncio
import socket
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import WireError
from repro.service import wire
from repro.service.collector import CollectorService
from repro.service.gateway import RsuGateway
from repro.service.runtime import DeploymentSpec

u32 = st.integers(min_value=0, max_value=(1 << 32) - 1)
u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
mac48 = st.integers(min_value=0, max_value=(1 << 48) - 1)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def snapshots(draw):
    size = draw(st.integers(min_value=1, max_value=200))
    bits = np.zeros(size, dtype=bool)
    bits[draw(st.lists(st.integers(0, size - 1), max_size=20))] = True
    return wire.Snapshot(
        rsu_id=draw(u32),
        period=draw(u32),
        counter=draw(u64),
        array_size=size,
        packed_bits=np.packbits(bits).tobytes(),
        seq=draw(u64),
    )


@st.composite
def batches(draw):
    entries = draw(st.lists(st.tuples(mac48, u32), max_size=16))
    return wire.ResponseBatch(
        rsu_id=draw(u32),
        macs=np.array([m for m, _ in entries], dtype=np.uint64),
        bit_indices=np.array([i for _, i in entries], dtype=np.uint32),
        seq=draw(u64),
    )


messages = st.one_of(
    st.builds(wire.VolumeQuery, rsu_x=u32, rsu_y=u32, period=u32),
    st.builds(wire.PointQuery, rsu_id=u32, period=u32),
    st.builds(wire.EndPeriod, period=u32),
    st.builds(wire.BatchAck, seq=u64, duplicate=st.booleans()),
    st.builds(
        wire.EstimateMsg,
        n_c_hat=finite,
        v_c=finite,
        v_x=finite,
        v_y=finite,
        m_x=u32,
        m_y=u32,
        n_x=u64,
        n_y=u64,
        s=u32,
    ),
    st.builds(
        wire.ErrorMsg,
        code=st.integers(min_value=0, max_value=(1 << 16) - 1),
        message=st.text(max_size=40),
    ),
    snapshots(),
    batches(),
)


def _decode_all(data):
    """Every frame of *data*, one ``decode_frame`` call each."""
    out, offset = [], 0
    while offset < len(data):
        message, used = wire.decode_frame(data[offset:])
        out.append(message)
        offset += used
    return out


class TestChunking:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(stream=st.lists(messages, min_size=1, max_size=8), data=st.data())
    def test_any_split_decodes_like_decode_frame(self, stream, data):
        raw = b"".join(wire.encode_frame(message) for message in stream)
        if data.draw(st.booleans(), label="one byte at a time"):
            cuts = list(range(1, len(raw)))
        else:
            cuts = sorted(
                set(data.draw(st.lists(st.integers(1, len(raw) - 1), max_size=12)))
            )
        parser = wire.FrameParser()
        got = []
        for lo, hi in zip([0] + cuts, cuts + [len(raw)]):
            got.extend(parser.feed(raw[lo:hi]))
        parser.eof()  # ended between frames: no error
        expected = _decode_all(raw)
        assert [wire.encode_frame(m) for m in got] == [
            wire.encode_frame(m) for m in expected
        ]
        assert [type(m) for m in got] == [type(m) for m in expected]

    def test_frames_ahead_of_a_malformed_one_come_out_first(self):
        good = wire.encode_frame(wire.EndPeriod(period=4))
        parser = wire.FrameParser()
        out = []
        with pytest.raises(WireError, match="bad frame magic"):
            for message in parser.feed(good + good + b"XX" + good[2:]):
                out.append(message)
        assert out == [wire.EndPeriod(period=4)] * 2


# ----------------------------------------------------------------------
# The collector's protocol session
# ----------------------------------------------------------------------
QUERY = wire.encode_frame(wire.VolumeQuery(rsu_x=1, rsu_y=2, period=0))


def _with_header(frame, **fields):
    """*frame* with the named header fields replaced."""
    names = ("magic", "version", "msg_type", "length", "crc")
    values = dict(zip(names, struct.unpack(">2sBBII", frame[:12])))
    values.update(fields)
    return struct.pack(">2sBBII", *values.values()) + frame[12:]


def _malformed():
    """``(label, bytes)``: each malformation, then the stream ends."""
    crc_flipped = bytearray(QUERY)
    crc_flipped[9] ^= 0x04
    short_payload = wire.encode_frame(wire.EndPeriod(period=1))
    cases = [
        ("bad magic", b"XX" + QUERY[2:]),
        ("bad version", _with_header(QUERY, version=9)),
        ("oversized length", _with_header(QUERY, length=wire.MAX_PAYLOAD + 1)),
        ("flipped CRC bit", bytes(crc_flipped)),
        ("unknown type", _with_header(QUERY, msg_type=0x66)),
        # A VolumeQuery header over an EndPeriod's 4-byte payload.
        ("payload too short", _with_header(short_payload, msg_type=wire.T_QUERY)),
    ]
    cases += [(f"EOF at byte {k}", QUERY[:k]) for k in range(1, len(QUERY))]
    return cases


def _parser_error(data):
    """The ``WireError`` text of a stream holding *data*, then EOF."""
    parser = wire.FrameParser()
    with pytest.raises(WireError) as info:
        list(parser.feed(data))
        parser.eof()
    return str(info.value)


@pytest.fixture(scope="module")
def reports():
    spec = DeploymentSpec(total_trips=1_500, seed=13)
    return spec, list(spec.reference_reports().values())


def _collector(spec, reports):
    collector = CollectorService(spec.build_central_server())
    for seq, report in enumerate(reports, 1):
        ack = collector._handle(wire.Snapshot.from_report(report, seq=seq))
        assert isinstance(ack, wire.SnapshotAck)
    return collector


async def _until(predicate, *, turns=400):
    for _ in range(turns):
        if predicate():
            return True
        await asyncio.sleep(0.005)
    return predicate()


def _gateway(spec):
    return RsuGateway(spec.build_rsus(spec.scheme.rsu_ids), collector_port=1)


@pytest.mark.parametrize("service", ["gateway", "collector"])
def test_malformed_streams_get_the_parsers_text(reports, service):
    cases = _malformed()
    expected = {label: _parser_error(data) for label, data in cases}
    assert expected["EOF at byte 5"] == (
        "stream truncated mid-header (5 of 12 bytes)"
    )
    assert expected["EOF at byte 20"] == (
        "stream truncated mid-frame (8 of 12 payload bytes)"
    )

    async def body():
        server = _collector(*reports) if service == "collector" else _gateway(
            reports[0]
        )
        await server.start(port=0)
        got = {}
        try:
            for label, data in cases:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(data)
                writer.write_eof()
                # One error frame, then the server hangs up.
                answer = await asyncio.wait_for(reader.read(), 5)
                writer.close()
                await writer.wait_closed()
                reply, used = wire.decode_frame(answer)
                assert used == len(answer), label
                assert isinstance(reply, wire.ErrorMsg), label
                assert reply.code == wire.E_MALFORMED
                got[label] = reply.message
        finally:
            await server.stop()
        return got, server.frames_rejected

    got, rejected = asyncio.run(body())
    assert got == expected
    assert rejected == len(cases)


def test_pipelined_queries_are_answered_in_order(reports):
    spec, reps = reports
    reference = _collector(spec, reps)
    ids = sorted(report.rsu_id for report in reps)
    queries = [wire.PointQuery(rsu_id=ids[0], period=0)]
    queries += [
        wire.VolumeQuery(rsu_x=a, rsu_y=b, period=0)
        for a in ids[:6]
        for b in ids[:6]
    ]
    queries.append(wire.VolumeQuery(rsu_x=ids[0], rsu_y=max(ids) + 1, period=0))
    expected = b"".join(wire.encode_frame(reference._handle(q)) for q in queries)

    async def body():
        collector = _collector(spec, reps)
        await collector.start(port=0)
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", collector.port
            )
            writer.write(b"".join(wire.encode_frame(q) for q in queries))
            got = await asyncio.wait_for(reader.readexactly(len(expected)), 5)
            writer.close()
            await writer.wait_closed()
        finally:
            await collector.stop()
        return got

    assert asyncio.run(body()) == expected


def test_a_client_that_does_not_read_pauses_the_session(reports):
    spec, reps = reports
    a, b = sorted(report.rsu_id for report in reps)[:2]
    query = wire.encode_frame(wire.VolumeQuery(rsu_x=a, rsu_y=b, period=0))
    reply = wire.encode_frame(_collector(spec, reps)._handle(
        wire.VolumeQuery(rsu_x=a, rsu_y=b, period=0)
    ))

    async def body():
        collector = _collector(spec, reps)
        await collector.start(port=0)
        loop = asyncio.get_running_loop()
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        try:
            await loop.sock_connect(sock, ("127.0.0.1", collector.port))
            # A small stream buffer: the client stops reading its own
            # socket after 2 KiB of unread answers.
            reader, writer = await asyncio.open_connection(sock=sock, limit=1024)
            assert await _until(lambda: collector.open_sessions == 1)
            (session,) = collector._sessions
            transport = session._transport
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            transport.set_write_buffer_limits(high=4096)
            sent = 0
            while transport.is_reading() and sent < 20_000:
                writer.write(query * 50)
                sent += 50
                await asyncio.sleep(0.002)
            paused = not transport.is_reading()
            got = await asyncio.wait_for(reader.readexactly(sent * len(reply)), 10)
            resumed = await _until(transport.is_reading)
            writer.close()
            await writer.wait_closed()
        finally:
            await collector.stop()
        return paused, resumed, sent, got

    paused, resumed, sent, got = asyncio.run(body())
    assert paused
    assert sent < 20_000
    assert resumed
    assert got == reply * sent


def test_a_client_that_does_not_read_its_acks_pauses_the_gateway(reports):
    """Sequenced batches whose acks are never read: the gateway session
    stops reading, and counts the pause as a backpressure stall."""
    spec = reports[0]
    rsu_id = spec.scheme.rsu_ids[0]

    def batch(seq):
        return wire.encode_frame(
            wire.ResponseBatch(
                rsu_id=rsu_id,
                macs=np.array([0x020000000001], dtype=np.uint64),
                bit_indices=np.array([1], dtype=np.uint32),
                seq=seq,
            )
        )

    async def body():
        gateway = _gateway(spec)
        await gateway.start(port=0)
        loop = asyncio.get_running_loop()
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        try:
            await loop.sock_connect(sock, ("127.0.0.1", gateway.port))
            reader, writer = await asyncio.open_connection(sock=sock, limit=1024)
            assert await _until(lambda: gateway.open_sessions == 1)
            (session,) = gateway._sessions
            transport = session._transport
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            transport.set_write_buffer_limits(high=4096)
            sent = 0
            while transport.is_reading() and sent < 40_000:
                writer.write(b"".join(batch(sent + k) for k in range(1, 51)))
                sent += 50
                await asyncio.sleep(0.002)
            paused = not transport.is_reading()
            stalls = gateway.backpressure_stalls
            ack = len(wire.encode_frame(wire.BatchAck(seq=1)))
            got = await asyncio.wait_for(reader.readexactly(sent * ack), 10)
            resumed = await _until(transport.is_reading)
            writer.close()
            await writer.wait_closed()
        finally:
            await gateway.stop()
        return paused, stalls, resumed, sent, got

    paused, stalls, resumed, sent, got = asyncio.run(body())
    assert paused
    assert stalls >= 1
    assert sent < 40_000
    assert resumed
    assert got == b"".join(
        wire.encode_frame(wire.BatchAck(seq=seq)) for seq in range(1, sent + 1)
    )


# ----------------------------------------------------------------------
# The frame client
# ----------------------------------------------------------------------
END_PERIOD = wire.encode_frame(wire.EndPeriod(period=1))


def _answer_first_frame_only():
    """A server that echoes the first ``EndPeriod`` frame of each
    connection, then stays silent until the client hangs up."""
    handlers = []

    async def serve(reader, writer):
        handlers.append(asyncio.current_task())
        try:
            writer.write(await reader.readexactly(len(END_PERIOD)))
            await reader.read()
        finally:
            writer.close()

    return serve, handlers


class _Echo(asyncio.Protocol):
    """Sends every byte back: each frame is its own reply."""

    def connection_made(self, transport):
        self.transport = transport

    def data_received(self, data):
        self.transport.write(data)


class _Garbage(_Echo):
    """Answers anything with bytes that are not a frame."""

    def data_received(self, data):
        self.transport.write(b"garbage, not a frame")


class TestRequestClient:
    def test_a_request_times_out_at_its_own_deadline(self):
        timeout = 0.3

        async def body():
            serve, handlers = _answer_first_frame_only()
            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            loop = asyncio.get_running_loop()
            client = await wire.FrameClient.open(
                "127.0.0.1", server.sockets[0].getsockname()[1], timeout
            )
            try:
                first = await client.request(wire.EndPeriod(period=1))
                await asyncio.sleep(0.2)
                start = loop.time()
                with pytest.raises(asyncio.TimeoutError):
                    await client.request(wire.EndPeriod(period=2))
                elapsed = loop.time() - start
            finally:
                client.close()
                await asyncio.wait_for(asyncio.gather(*handlers), 5)
                server.close()
                await server.wait_closed()
            return first, elapsed

        first, elapsed = asyncio.run(body())
        assert first == wire.EndPeriod(period=1)
        # The first request's timer fired at its deadline, 0.1 s into
        # the second request, and re-armed to the second's deadline.
        assert timeout <= elapsed < timeout + 0.25

    def test_one_timer_serves_every_request(self, reports):
        spec, reps = reports
        armed = []

        async def body():
            collector = _collector(spec, reps)
            await collector.start(port=0)
            loop = asyncio.get_running_loop()
            call_at = loop.call_at

            def counting_call_at(when, callback, *args, **kwargs):
                armed.append(when)
                return call_at(when, callback, *args, **kwargs)

            client = await wire.FrameClient.open("127.0.0.1", collector.port, 5.0)
            loop.call_at = counting_call_at
            try:
                ids = sorted(report.rsu_id for report in reps)
                for rsu_id in ids:
                    answer = await client.request(
                        wire.PointQuery(rsu_id=rsu_id, period=0)
                    )
                    assert isinstance(answer, wire.PointVolume)
            finally:
                client.close()
                loop.call_at = call_at
                await collector.stop()
            return len(ids)

        queries = asyncio.run(body())
        assert queries > 10
        assert len(armed) == 1

    def test_eof_mid_reply_is_truncation(self):
        async def body():
            async def half_answer(reader, writer):
                await reader.readexactly(len(END_PERIOD))
                writer.write(QUERY[:7])
                writer.close()

            server = await asyncio.start_server(half_answer, "127.0.0.1", 0)
            client = await wire.FrameClient.open(
                "127.0.0.1", server.sockets[0].getsockname()[1], 5.0
            )
            try:
                with pytest.raises(WireError) as info:
                    await client.request(wire.EndPeriod(period=1))
                # A broken connection fails every later request too.
                with pytest.raises(WireError):
                    await client.request(wire.EndPeriod(period=1))
            finally:
                client.close()
                server.close()
                await server.wait_closed()
            return str(info.value)

        assert asyncio.run(body()) == "stream truncated mid-header (7 of 12 bytes)"

    def test_pipelined_replies_resolve_in_fifo_order(self):
        async def body():
            loop = asyncio.get_running_loop()
            server = await loop.create_server(_Echo, "127.0.0.1", 0)
            client = await wire.FrameClient.open(
                "127.0.0.1", server.sockets[0].getsockname()[1], 5.0
            )
            order = []
            try:
                futures = [
                    client.submit(wire.EndPeriod(period=period))
                    for period in range(20)
                ]
                for future in futures:
                    future.add_done_callback(
                        lambda f: order.append(f.result().period)
                    )
                replies = await asyncio.gather(*futures)
            finally:
                client.close()
                server.close()
                await server.wait_closed()
            return replies, order

        replies, order = asyncio.run(body())
        assert replies == [wire.EndPeriod(period=p) for p in range(20)]
        assert order == list(range(20))

    def test_one_fault_fails_every_outstanding_request(self):
        async def body():
            loop = asyncio.get_running_loop()
            server = await loop.create_server(_Garbage, "127.0.0.1", 0)
            client = await wire.FrameClient.open(
                "127.0.0.1", server.sockets[0].getsockname()[1], 5.0
            )
            try:
                futures = [
                    client.submit(wire.EndPeriod(period=period))
                    for period in range(3)
                ]
                errors = await asyncio.gather(*futures, return_exceptions=True)
                with pytest.raises(WireError) as later:
                    client.submit(wire.EndPeriod(period=3))
            finally:
                client.close()
                server.close()
                await server.wait_closed()
            return errors, later.value

        errors, later = asyncio.run(body())
        assert isinstance(errors[0], WireError)
        assert "bad frame magic" in str(errors[0])
        assert all(error is errors[0] for error in errors)
        assert later is errors[0]
