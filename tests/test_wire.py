"""Property and validation tests for the binary wire codec."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitarray import BitArray
from repro.core.reports import RsuReport
from repro.errors import WireError
from repro.service import wire

u32 = st.integers(min_value=0, max_value=(1 << 32) - 1)
u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
mac48 = st.integers(min_value=0, max_value=(1 << 48) - 1)


def roundtrip(message):
    frame = wire.encode_frame(message)
    decoded, consumed = wire.decode_frame(frame)
    assert consumed == len(frame)
    return decoded


class TestResponseRoundTrip:
    @given(rsu_id=u32, mac=mac48, bit_index=u32)
    def test_single(self, rsu_id, mac, bit_index):
        msg = wire.ResponseMsg(rsu_id=rsu_id, mac=mac, bit_index=bit_index)
        assert roundtrip(msg) == msg

    @given(
        rsu_id=u32,
        seq=u64,
        entries=st.lists(st.tuples(mac48, u32), max_size=64),
    )
    def test_batch(self, rsu_id, seq, entries):
        macs = np.array([m for m, _ in entries], dtype=np.uint64)
        idx = np.array([i for _, i in entries], dtype=np.uint32)
        msg = wire.ResponseBatch(
            rsu_id=rsu_id, macs=macs, bit_indices=idx, seq=seq
        )
        out = roundtrip(msg)
        assert out.rsu_id == rsu_id
        assert out.seq == seq
        assert np.array_equal(np.asarray(out.macs, dtype=np.uint64), macs)
        assert np.array_equal(
            np.asarray(out.bit_indices, dtype=np.uint32), idx
        )

    @given(seq=u64, duplicate=st.booleans())
    def test_batch_ack(self, seq, duplicate):
        msg = wire.BatchAck(seq=seq, duplicate=duplicate)
        assert roundtrip(msg) == msg

    def test_batch_rejects_mismatched_arrays(self):
        with pytest.raises(WireError):
            wire.ResponseBatch(
                rsu_id=1,
                macs=np.zeros(3, dtype=np.uint64),
                bit_indices=np.zeros(2, dtype=np.uint32),
            )

    def test_batch_rejects_wide_mac(self):
        msg = wire.ResponseBatch(
            rsu_id=1,
            macs=np.array([1 << 50], dtype=np.uint64),
            bit_indices=np.array([0], dtype=np.uint32),
        )
        with pytest.raises(WireError):
            msg.payload()


#: The three report frames and the leading fields each adds to a report.
SNAPSHOT_ROUTING = {
    wire.Snapshot: {},
    wire.ShardSnapshot: {"shard_id": 2},
    wire.WindowSnapshot: {"shard_id": 2, "window": 4},
}


class TestSnapshotRoundTrip:
    @given(
        rsu_id=u32,
        period=u32,
        counter=u64,
        seq=u64,
        log_m=st.integers(min_value=0, max_value=14),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_arbitrary_reports(
        self, rsu_id, period, counter, seq, log_m, data
    ):
        """Counters, power-of-two sizes, bit patterns and routing
        fields all survive the wire, for every report frame."""
        size = 1 << log_m
        ones = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=size - 1), max_size=size
            )
        )
        report = RsuReport(
            rsu_id=rsu_id,
            counter=counter,
            bits=BitArray.from_indices(size, np.array(ones, dtype=np.int64))
            if ones
            else BitArray(size),
            period=period,
        )
        cls = data.draw(st.sampled_from(list(SNAPSHOT_ROUTING)))
        routing = {name: data.draw(u32) for name in SNAPSHOT_ROUTING[cls]}
        frame = cls.from_report(report, seq=seq, **routing)
        snap = roundtrip(frame)
        assert snap == frame
        assert snap.seq == seq
        back = snap.to_report()
        assert back.rsu_id == report.rsu_id
        assert back.period == report.period
        assert back.counter == report.counter
        assert back.bits == report.bits

    def test_padding_bits_must_be_zero(self):
        report = RsuReport(rsu_id=1, counter=0, bits=BitArray(4))
        for cls, routing in SNAPSHOT_ROUTING.items():
            frame = bytearray(
                wire.encode_frame(cls.from_report(report, **routing))
            )
            frame[-1] |= 0x0F  # set the 4 padding bits past array_size
            payload = bytes(frame[12:])
            frame[8:12] = struct.pack(">I", zlib.crc32(payload))
            with pytest.raises(WireError, match="padding bits"):
                wire.decode_frame(bytes(frame))

    def test_wrong_packed_length_rejected(self):
        for cls, routing in SNAPSHOT_ROUTING.items():
            frame = cls(
                rsu_id=1,
                period=0,
                counter=0,
                array_size=16,
                packed_bits=b"\0",
                **routing,
            )
            with pytest.raises(WireError, match="needs 2 packed bytes"):
                frame.payload()


class TestSnapshotGolden:
    """The report frames' bytes, pinned from before they shared one
    codec: a fixture report encoded with seq 9, shard 2 and window 4."""

    REPORT = RsuReport(
        rsu_id=7,
        counter=5,
        bits=BitArray.from_indices(21, [0, 5, 8, 13, 20]),
        period=3,
    )
    FRAMES = {
        wire.Snapshot: "565702030000001f704a37fd0000000700000003000000000000"
        "0009000000000000000500000015848408",
        wire.ShardSnapshot: "5657020c00000023287ec16f00000002000000070000"
        "00030000000000000009000000000000000500000015848408",
        wire.WindowSnapshot: "5657020f00000027e77b11900000000200000007000"
        "00003000000040000000000000009000000000000000500000015848408",
    }

    def frame(self, cls):
        return cls.from_report(self.REPORT, seq=9, **SNAPSHOT_ROUTING[cls])

    @pytest.mark.parametrize(
        "cls", list(FRAMES), ids=lambda cls: cls.__name__
    )
    def test_frame_bytes(self, cls):
        assert wire.encode_frame(self.frame(cls)).hex() == self.FRAMES[cls]

    def test_wal_bytes(self, tmp_path):
        from repro.federation.wal import WriteAheadLog

        path = tmp_path / "golden.wal"
        with WriteAheadLog(path) as wal:
            wal.append(self.frame(wire.ShardSnapshot))
            wal.append(self.frame(wire.WindowSnapshot))
            wal.append(wire.SizeAnnounce.from_sizes(3, {7: 32, 9: 64}))
        assert path.read_bytes().hex() == (
            "574c0100000023287ec16f000000020000000700000003000000000000"
            "0009000000000000000500000015848408574c0200000027e77b119000"
            "0000020000000700000003000000040000000000000009000000000000"
            "000500000015848408574c03000000186a2e06930000000300000002000"
            "00007000000090000002000000040"
        )


class TestControlAndQueryRoundTrip:
    @given(rsu_id=u32, period=u32, seq=u64)
    def test_snapshot_ack(self, rsu_id, period, seq):
        msg = wire.SnapshotAck(rsu_id=rsu_id, period=period, seq=seq)
        assert roundtrip(msg) == msg

    @given(period=u32, snapshots=u32)
    def test_end_period(self, period, snapshots):
        assert roundtrip(wire.EndPeriod(period=period)) == wire.EndPeriod(
            period=period
        )
        ack = wire.EndPeriodAck(period=period, snapshots=snapshots)
        assert roundtrip(ack) == ack

    @given(rsu_x=u32, rsu_y=u32, period=u32)
    def test_volume_query(self, rsu_x, rsu_y, period):
        msg = wire.VolumeQuery(rsu_x=rsu_x, rsu_y=rsu_y, period=period)
        assert roundtrip(msg) == msg

    @given(rsu_id=u32, period=u32, counter=u64)
    def test_point_messages(self, rsu_id, period, counter):
        assert roundtrip(
            wire.PointQuery(rsu_id=rsu_id, period=period)
        ) == wire.PointQuery(rsu_id=rsu_id, period=period)
        msg = wire.PointVolume(rsu_id=rsu_id, period=period, counter=counter)
        assert roundtrip(msg) == msg

    @given(
        floats=st.lists(
            st.floats(allow_nan=False), min_size=4, max_size=4
        ),
        m_x=u32,
        m_y=u32,
        n_x=u64,
        n_y=u64,
        s=u32,
    )
    def test_estimate(self, floats, m_x, m_y, n_x, n_y, s):
        msg = wire.EstimateMsg(*floats, m_x=m_x, m_y=m_y, n_x=n_x, n_y=n_y, s=s)
        assert roundtrip(msg) == msg

    @given(code=st.integers(min_value=0, max_value=65535), text=st.text(max_size=200))
    def test_error(self, code, text):
        msg = wire.ErrorMsg(code=code, message=text)
        assert roundtrip(msg) == msg


class TestStrictFraming:
    def frame(self):
        return wire.encode_frame(wire.EndPeriod(period=3))

    def test_bad_magic(self):
        with pytest.raises(WireError, match="magic"):
            wire.decode_frame(b"XX" + self.frame()[2:])

    def test_unsupported_version(self):
        frame = bytearray(self.frame())
        frame[2] = 9
        with pytest.raises(WireError, match="version"):
            wire.decode_frame(bytes(frame))

    def test_unknown_type(self):
        frame = bytearray(self.frame())
        frame[3] = 0x6E
        with pytest.raises(WireError, match="unknown message type"):
            wire.decode_frame(bytes(frame))

    def test_truncated_payload(self):
        with pytest.raises(WireError):
            wire.decode_frame(self.frame()[:-1])

    def test_truncated_header(self):
        with pytest.raises(WireError):
            wire.decode_frame(self.frame()[:5])

    def test_declared_length_capped(self):
        header = struct.pack(
            ">2sBBII",
            wire.MAGIC,
            wire.VERSION,
            wire.T_ERROR,
            wire.MAX_PAYLOAD + 1,
            0,
        )
        with pytest.raises(WireError, match="MAX_PAYLOAD"):
            wire.decode_frame(header)

    def test_payload_length_must_match_type(self):
        # An EndPeriod frame with an extra byte of payload.
        good = wire.EndPeriod(period=1).payload() + b"\0"
        frame = (
            struct.pack(
                ">2sBBII",
                wire.MAGIC,
                wire.VERSION,
                wire.T_END_PERIOD,
                len(good),
                zlib.crc32(good) & 0xFFFFFFFF,
            )
            + good
        )
        with pytest.raises(WireError):
            wire.decode_frame(frame)

    def test_payload_crc_is_checked(self):
        frame = bytearray(wire.encode_frame(wire.EndPeriod(period=3)))
        frame[-1] ^= 0x10  # flip one payload bit; length/type stay valid
        with pytest.raises(WireError, match="CRC"):
            wire.decode_frame(bytes(frame))

    def test_header_crc_field_is_checked(self):
        frame = bytearray(wire.encode_frame(wire.EndPeriod(period=3)))
        frame[8] ^= 0x01  # corrupt the declared CRC itself
        with pytest.raises(WireError, match="CRC"):
            wire.decode_frame(bytes(frame))

    def test_trailing_bytes_not_consumed(self):
        frame = self.frame()
        _, consumed = wire.decode_frame(frame + b"extra")
        assert consumed == len(frame)

    def test_mac_range_enforced_on_encode(self):
        with pytest.raises(WireError):
            wire.ResponseMsg(rsu_id=1, mac=1 << 48, bit_index=0).payload()
