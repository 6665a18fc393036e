"""Tests for the RSU agent."""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.vcps.ids import random_mac
from repro.vcps.messages import Response
from repro.vcps.pki import CertificateAuthority
from repro.vcps.rsu import RoadsideUnit
from tests.rsu_oracle import index_batch_ingest


@pytest.fixture
def ca():
    return CertificateAuthority(seed=1)


@pytest.fixture
def rsu(ca):
    return RoadsideUnit(5, 256, ca.issue(5))


class TestConstruction:
    def test_certificate_subject_checked(self, ca):
        with pytest.raises(ProtocolError):
            RoadsideUnit(5, 256, ca.issue(6))

    def test_query_interval_validated(self, ca):
        with pytest.raises(ProtocolError):
            RoadsideUnit(5, 256, ca.issue(5), query_interval=0)


class TestBroadcast:
    def test_query_content(self, rsu):
        query = rsu.make_query(now=9)
        assert query.rsu_id == 5
        assert query.array_size == 256
        assert query.timestamp == 9
        assert query.certificate.rsu_id == 5

    def test_should_broadcast_interval(self, ca):
        rsu = RoadsideUnit(5, 256, ca.issue(5), query_interval=3)
        assert rsu.should_broadcast(0)
        assert not rsu.should_broadcast(1)
        assert rsu.should_broadcast(3)


class TestCollection:
    def test_handle_response_records(self, rsu):
        rsu.handle_response(Response(mac=random_mac(1), bit_index=9))
        assert rsu.counter == 1
        report = rsu.end_period()
        assert report.bits[9] == 1

    def test_malformed_response_rejected_and_counted(self, rsu):
        with pytest.raises(ProtocolError):
            rsu.handle_response(Response(mac=random_mac(1), bit_index=256))
        assert rsu.counter == 0
        assert rsu.rejected_responses == 1

    def test_vendor_mac_rejected(self, rsu):
        with pytest.raises(ProtocolError):
            rsu.handle_response(Response(mac=0x001A2B3C4D5E, bit_index=1))
        assert rsu.rejected_responses == 1


class TestBatchedCollection:
    def test_batch_matches_per_message(self, ca):
        """handle_responses produces bit-identical state to the
        per-message path for the same responses."""
        responses = [
            Response(mac=random_mac(i), bit_index=(7 * i) % 256)
            for i in range(100)
        ]
        one = RoadsideUnit(5, 256, ca.issue(5))
        for response in responses:
            one.handle_response(response)
        batched = RoadsideUnit(5, 256, ca.issue(5))
        recorded = batched.handle_responses(responses)
        assert recorded == 100
        assert batched.counter == one.counter
        assert batched.end_period().bits == one.end_period().bits

    def test_empty_batch(self, rsu):
        assert rsu.handle_responses([]) == 0
        assert rsu.counter == 0

    def test_malformed_entries_dropped_not_fatal(self, rsu):
        batch = [
            Response(mac=random_mac(1), bit_index=3),
            Response(mac=random_mac(2), bit_index=256),  # out of range
            Response(mac=0x001A2B3C4D5E, bit_index=4),  # vendor MAC
            Response(mac=random_mac(3), bit_index=5),
        ]
        assert rsu.handle_responses(batch) == 2
        assert rsu.counter == 2
        assert rsu.rejected_responses == 2
        report = rsu.end_period()
        assert report.bits[3] == 1 and report.bits[5] == 1
        assert report.bits[4] == 0

    def test_index_batch_arrays(self, rsu):
        macs = np.array([random_mac(i) for i in range(4)], dtype=np.uint64)
        indices = np.array([0, 1, 300, -1], dtype=np.int64)
        oracle = RoadsideUnit(rsu.rsu_id, rsu.array_size, rsu.certificate)
        assert rsu.handle_wire_batch(macs, indices) == 2
        assert rsu.rejected_responses == 2
        # Same rejects, counter and bits as the validated array path.
        assert index_batch_ingest(oracle, macs, indices) == 2
        assert oracle.rejected_responses == 2
        assert rsu.end_period().bits == oracle.end_period().bits

    def test_index_batch_shape_mismatch(self, rsu):
        with pytest.raises(ProtocolError):
            rsu.handle_wire_batch(
                np.zeros(2, dtype=np.uint64), np.zeros(3, dtype=np.int64)
            )


class TestPeriodLifecycle:
    def test_end_period_resets_and_increments(self, rsu):
        rsu.handle_response(Response(mac=random_mac(1), bit_index=1))
        first = rsu.end_period()
        assert first.period == 0
        assert first.counter == 1
        assert rsu.counter == 0
        second = rsu.end_period()
        assert second.period == 1
        assert second.counter == 0

    def test_reports_are_snapshots(self, rsu):
        rsu.handle_response(Response(mac=random_mac(1), bit_index=1))
        report = rsu.end_period()
        rsu.handle_response(Response(mac=random_mac(2), bit_index=2))
        assert report.bits.count_ones() == 1
