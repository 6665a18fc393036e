"""Protocol fuzzing: randomized message sequences against the agents,
and corpus-driven hardening of the binary wire codec.

Hypothesis drives random interleavings of valid, replayed, malformed
and impostor messages at a vehicle and an RSU, checking the agents'
invariants hold regardless of ordering:

* RSU counter == number of *accepted* responses, always;
* set bits <= accepted responses;
* a vehicle answers each RSU at most once per period, whatever the
  query order;
* rejected responses never mutate measurement state.

The wire-level corpora (truncated frames, bit-flipped headers,
oversized length prefixes) pin down the codec's failure contract:
malformed input raises a :mod:`repro.errors` type — never a raw
``struct.error``, never an unbounded read.
"""

import asyncio
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitarray import BitArray
from repro.core.parameters import SchemeParameters
from repro.core.reports import RsuReport
from repro.errors import (
    AuthenticationError,
    ProtocolError,
    ValidationError,
    WireError,
)
from repro.service import wire
from repro.vcps.ids import random_mac, random_macs
from repro.vcps.messages import Query, Response
from repro.vcps.pki import CertificateAuthority
from repro.vcps.rsu import RoadsideUnit
from repro.vcps.vehicle import Vehicle
from tests.bit_oracle import KERNEL_SETS, BoolBits, kernels
from tests.rsu_oracle import index_batch_ingest

ARRAY_SIZE = 64


def build_world(seed):
    ca = CertificateAuthority(seed=1)
    params = SchemeParameters(s=2, load_factor=2.0, m_o=1 << 10, hash_seed=seed)
    rsu = RoadsideUnit(1, ARRAY_SIZE, ca.issue(1))
    vehicle = Vehicle(
        7, 1234, params, trust_anchor=ca.trust_anchor(), seed=seed
    )
    return ca, rsu, vehicle


# One fuzz "event": what arrives next at the RSU.
events = st.lists(
    st.sampled_from(
        ["valid", "replay_bit", "oob_index", "vendor_mac", "negative_index"]
    ),
    min_size=1,
    max_size=40,
)


class TestRsuFuzz:
    @given(events, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_counter_tracks_accepted_responses_exactly(self, sequence, seed):
        _, rsu, _ = build_world(seed)
        rng = np.random.default_rng(seed)
        accepted = 0
        for event in sequence:
            if event == "valid":
                response = Response(
                    mac=random_mac(rng), bit_index=int(rng.integers(ARRAY_SIZE))
                )
            elif event == "replay_bit":
                response = Response(mac=random_mac(rng), bit_index=0)
            elif event == "oob_index":
                response = Response(mac=random_mac(rng), bit_index=ARRAY_SIZE)
            elif event == "negative_index":
                response = Response(mac=random_mac(rng), bit_index=-1)
            else:  # vendor_mac
                response = Response(mac=0x001A2B3C4D5E, bit_index=1)
            try:
                rsu.handle_response(response)
                accepted += 1
            except ProtocolError:
                pass
        assert rsu.counter == accepted
        report = rsu.end_period()
        assert report.bits.count_ones() <= max(accepted, 0)
        assert report.counter == accepted


class TestVehicleFuzz:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4),  # rsu id
                st.sampled_from(["good", "rogue", "expired"]),
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_at_most_one_answer_per_rsu_per_period(self, sequence, seed):
        ca, _, vehicle = build_world(seed)
        rogue = CertificateAuthority("rogue", seed=2)
        answered = set()
        for rsu_id, kind in sequence:
            if kind == "good":
                cert = ca.issue(rsu_id)
            elif kind == "expired":
                cert = ca.issue(rsu_id, not_after=-1)
            else:
                cert = rogue.issue(rsu_id)
            query = Query(rsu_id=rsu_id, certificate=cert, array_size=ARRAY_SIZE)
            try:
                response = vehicle.handle_query(query)
            except AuthenticationError:
                continue
            if response is not None:
                assert rsu_id not in answered, "double answer within a period"
                answered.add(rsu_id)
                response.validate_for(ARRAY_SIZE)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_period_reset_allows_reanswer_deterministically(self, seed):
        ca, _, vehicle = build_world(seed)
        query = Query(rsu_id=1, certificate=ca.issue(1), array_size=ARRAY_SIZE)
        first = vehicle.handle_query(query)
        vehicle.start_period()
        second = vehicle.handle_query(query)
        assert first is not None and second is not None
        # Same deterministic index both periods (the derivation has no
        # period input), fresh MAC each time.
        assert first.bit_index == second.bit_index
        assert first.mac != second.mac


# ----------------------------------------------------------------------
# Wire codec corpora
# ----------------------------------------------------------------------
def _report():
    return RsuReport(
        rsu_id=4, counter=3, bits=BitArray.from_indices(64, [1, 9, 40])
    )


def _corpus():
    """One valid encoded frame of every message type."""
    rng = np.random.default_rng(3)
    messages = [
        wire.ResponseMsg(rsu_id=1, mac=random_mac(rng), bit_index=5),
        wire.ResponseBatch(
            rsu_id=2,
            macs=np.array([random_mac(rng) for _ in range(3)], np.uint64),
            bit_indices=np.array([0, 7, 63], dtype=np.uint32),
            seq=9,
        ),
        wire.BatchAck(seq=9, duplicate=True),
        wire.EndPeriod(period=0),
        wire.EndPeriodAck(period=0, snapshots=24),
        wire.Snapshot.from_report(_report(), seq=5),
        wire.SnapshotAck(rsu_id=4, period=0, seq=5),
        wire.VolumeQuery(rsu_x=1, rsu_y=2, period=0),
        wire.PointQuery(rsu_id=1, period=0),
        wire.PointVolume(rsu_id=1, period=0, counter=12),
        wire.EstimateMsg(
            n_c_hat=10.5,
            v_c=0.25,
            v_x=0.5,
            v_y=0.5,
            m_x=64,
            m_y=128,
            n_x=10,
            n_y=20,
            s=2,
        ),
        wire.ErrorMsg(wire.E_MALFORMED, "fuzz"),
    ]
    return [wire.encode_frame(m) for m in messages]


CORPUS = _corpus()


def _read_from_bytes(data):
    """Run read_message against a closed stream holding *data*."""

    async def body():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await wire.read_message(reader)

    return asyncio.run(body())


class TestTruncatedFrames:
    @pytest.mark.parametrize("frame", CORPUS, ids=lambda f: f"len{len(f)}")
    def test_every_truncation_raises_wire_error(self, frame):
        """decode_frame on any strict prefix is a WireError — never a
        struct.error, never a partial parse."""
        for cut in range(len(frame)):
            with pytest.raises(WireError):
                wire.decode_frame(frame[:cut])

    @pytest.mark.parametrize("frame", CORPUS, ids=lambda f: f"len{len(f)}")
    def test_stream_truncation_is_wire_error_not_clean_eof(self, frame):
        """A stream that dies mid-frame is truncation (WireError);
        only EOF on a frame boundary is a clean close."""
        with pytest.raises(asyncio.IncompleteReadError):
            _read_from_bytes(b"")  # clean close between frames
        for cut in (1, len(frame) // 2, len(frame) - 1):
            with pytest.raises(WireError):
                _read_from_bytes(frame[:cut])

    def test_trailing_garbage_after_valid_frame_is_detected(self):
        frame = CORPUS[0]
        message, consumed = wire.decode_frame(frame + b"\xff" * 7)
        assert consumed == len(frame)
        with pytest.raises(WireError):
            wire.decode_frame((frame + b"\xff" * 7)[consumed:])


class TestBitFlippedFrames:
    @pytest.mark.parametrize("frame", CORPUS, ids=lambda f: f"len{len(f)}")
    def test_header_bit_flips_never_escape_the_error_type(self, frame):
        """Flip every bit of the 12-byte header: each one either is
        detected (WireError) or still yields a well-formed Message —
        struct.error and friends must never escape."""
        header_size = 12
        detected = 0
        for byte in range(header_size):
            for bit in range(8):
                flipped = bytearray(frame)
                flipped[byte] ^= 1 << bit
                try:
                    message, consumed = wire.decode_frame(bytes(flipped))
                except WireError:
                    detected += 1
                else:
                    assert consumed <= len(flipped)
                    assert isinstance(message, wire.Message.__args__)
        # Magic, version, length, and CRC cover most of the header, so
        # the overwhelming majority of flips must be caught.
        assert detected >= 7 * header_size

    @pytest.mark.parametrize("frame", CORPUS, ids=lambda f: f"len{len(f)}")
    def test_payload_bit_flips_are_always_caught_by_crc(self, frame):
        header_size = 12
        for offset in range(header_size, len(frame)):
            flipped = bytearray(frame)
            flipped[offset] ^= 0x10
            with pytest.raises(WireError, match="CRC"):
                wire.decode_frame(bytes(flipped))


class TestOversizedLengthPrefix:
    @staticmethod
    def _header(length, msg_type=0x01):
        return struct.pack(
            ">2sBBII", wire.MAGIC, wire.VERSION, msg_type, length, 0
        )

    @pytest.mark.parametrize(
        "length", [wire.MAX_PAYLOAD + 1, 1 << 31, (1 << 32) - 1]
    )
    def test_decode_frame_rejects_oversized_declaration(self, length):
        with pytest.raises(WireError, match="MAX_PAYLOAD"):
            wire.decode_frame(self._header(length))

    @pytest.mark.parametrize(
        "length", [wire.MAX_PAYLOAD + 1, 1 << 31, (1 << 32) - 1]
    )
    def test_read_message_rejects_before_reading_the_body(self, length):
        """The length check happens on the header alone — a hostile
        4 GiB declaration raises instead of waiting for bytes that
        will never come (the hang the issue forbids)."""
        with pytest.raises(WireError, match="MAX_PAYLOAD"):
            _read_from_bytes(self._header(length))

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=60, deadline=None)
    def test_any_declared_length_with_no_body_is_a_wire_error(self, length):
        with pytest.raises(WireError):
            _read_from_bytes(self._header(length) + b"xx")


class TestRandomGarbage:
    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=120, deadline=None)
    def test_decode_frame_never_leaks_struct_error(self, blob):
        try:
            message, consumed = wire.decode_frame(blob)
        except WireError:
            return
        assert consumed <= len(blob)
        assert isinstance(message, wire.Message.__args__)


# ----------------------------------------------------------------------
# Padding contract: from_bytes / or_bytes / zero-copy ingest, fuzzed
# against the bool oracle on both kernel sets
# ----------------------------------------------------------------------
@st.composite
def sized_payloads(draw):
    """A bit-array size and a payload of exactly the right length
    (whose padding bits may or may not be dirty)."""
    size = draw(st.integers(min_value=1, max_value=256))
    nbytes = (size + 7) // 8
    data = draw(st.binary(min_size=nbytes, max_size=nbytes))
    return size, data


def _padding_dirty(size, data):
    tail = size % 8
    return bool(tail and data[-1] & ((1 << (8 - tail)) - 1))


class TestPaddingRejectionFuzz:
    """Deserialization must reject payloads whose padding bits past
    ``size`` are set: an accepted dirty pad would skew the zero-bit
    statistics.  Accepted payloads must decode to the bool oracle's
    bits, on the word kernels and on the bool ones."""

    @pytest.mark.parametrize("backend", KERNEL_SETS)
    @given(sized_payloads())
    @settings(max_examples=60, deadline=None)
    def test_from_bytes_contract_on_every_backend(self, backend, payload):
        size, data = payload
        with kernels(backend):
            if _padding_dirty(size, data):
                with pytest.raises(ValidationError):
                    BitArray.from_bytes(data, size)
                return
            array = BitArray.from_bytes(data, size)
        oracle = BoolBits.from_bytes(data, size)
        assert array.to_bytes() == oracle.to_bytes() == data
        assert np.array_equal(array.bits, oracle.bits)
        assert array.count_ones() == sum(bin(byte).count("1") for byte in data)

    @pytest.mark.parametrize("backend", KERNEL_SETS)
    @given(sized_payloads(), st.sampled_from([-2, -1, 1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_wrong_length_rejected_on_every_backend(
        self, backend, payload, delta
    ):
        size, data = payload
        resized = data[:delta] if delta < 0 else data + b"\x00" * delta
        with kernels(backend), pytest.raises(ValidationError):
            BitArray.from_bytes(resized, size)

    @pytest.mark.parametrize("backend", KERNEL_SETS)
    @given(sized_payloads(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_or_bytes_contract_on_every_backend(self, backend, payload, data):
        size, incoming = payload
        indices = data.draw(st.lists(st.integers(0, size - 1), max_size=size))
        oracle = BoolBits.from_indices(size, indices)
        with kernels(backend):
            array = BitArray.from_indices(size, indices)
            before = array.to_bytes()
            if _padding_dirty(size, incoming):
                with pytest.raises(ValidationError):
                    array.or_bytes(incoming)
                assert array.to_bytes() == before, "rejected payload mutated state"
                return
            array.or_bytes(incoming)
        oracle.or_bytes(incoming)
        assert array.to_bytes() == oracle.to_bytes()

    def test_snapshot_with_dirty_padding_is_rejected(self):
        """A hostile period snapshot whose pad bits are set dies in the
        codec itself, and — defense in depth — a hand-constructed
        message object still dies at report reconstruction, before it
        can touch collector state."""
        snapshot = wire.Snapshot(
            rsu_id=1,
            period=0,
            counter=3,
            array_size=21,
            packed_bits=b"\xff\xff\xff",
            seq=1,
        )
        with pytest.raises(WireError, match="padding"):
            wire.decode_frame(wire.encode_frame(snapshot))
        with pytest.raises(ValidationError):
            snapshot.to_report()
        clean = wire.Snapshot.from_report(_report(), seq=1)
        decoded, _ = wire.decode_frame(wire.encode_frame(clean))
        assert decoded.to_report().bits == _report().bits

    @pytest.mark.parametrize("backend", KERNEL_SETS)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=25, deadline=None)
    def test_wire_ingest_matches_index_ingest_on_every_backend(
        self, backend, seed, count
    ):
        """The zero-copy admission path must make byte-identical
        accept/reject decisions to the validated path
        (``tests/rsu_oracle.py``), for any mix of
        vendor MACs and out-of-range indices, on both kernel sets."""
        rng = np.random.default_rng(seed)
        m = 64
        macs = random_macs(count, seed=rng)
        vendor = rng.random(count) < 0.25
        macs[vendor] &= ~np.uint64(0x02_00_00_00_00_00)
        indices = rng.integers(0, 2 * m, size=count, dtype=np.uint32)
        ca = CertificateAuthority(seed=1)
        with kernels(backend):
            validated = RoadsideUnit(1, m, ca.issue(1))
            zero_copy = RoadsideUnit(1, m, ca.issue(1))
            index_batch_ingest(
                validated, macs.astype(np.uint64), indices.astype(np.int64)
            )
            zero_copy.handle_wire_batch(
                macs.astype(">u8"), indices.astype(">u4")
            )
        assert zero_copy.counter == validated.counter
        assert (
            zero_copy.rejected_responses == validated.rejected_responses
        )
        assert (
            zero_copy.end_period().bits == validated.end_period().bits
        )
