"""Write-ahead log: record format, torn tails, CRC, replay recovery."""

import struct

import pytest

from repro.errors import WalError
from repro.federation.wal import WriteAheadLog, replay_wal
from repro.obs import MetricsRegistry
from repro.service import wire
from repro.service.collector import CollectorService
from repro.service.runtime import DeploymentSpec


@pytest.fixture(scope="module")
def spec():
    return DeploymentSpec(total_trips=1_500, seed=13)


@pytest.fixture(scope="module")
def snapshots(spec):
    """One ShardSnapshot per RSU, deterministic shard assignment."""
    return [
        wire.ShardSnapshot.from_report(
            report, shard_id=rsu_id % 3, seq=index + 1
        )
        for index, (rsu_id, report) in enumerate(
            sorted(spec.reference_reports().items())
        )
    ]


def write_log(path, snaps):
    with WriteAheadLog(path) as wal:
        for snap in snaps:
            wal.append(snap)
    return wal


class TestRecordFormat:
    def test_roundtrip_is_lossless(self, tmp_path, snapshots):
        path = tmp_path / "log.wal"
        wal = write_log(path, snapshots)
        assert wal.records_appended == len(snapshots)
        assert wal.bytes_appended == path.stat().st_size
        replayed = list(replay_wal(path))
        assert len(replayed) == len(snapshots)
        for original, copy in zip(snapshots, replayed):
            assert copy == original

    def test_append_after_close_raises(self, tmp_path, snapshots):
        wal = WriteAheadLog(tmp_path / "log.wal")
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(WalError):
            wal.append(snapshots[0])

    def test_append_is_append_only(self, tmp_path, snapshots):
        """Reopening an existing log appends; prior records survive."""
        path = tmp_path / "log.wal"
        write_log(path, snapshots[:2])
        write_log(path, snapshots[2:4])
        assert list(replay_wal(path)) == snapshots[:4]

    def test_empty_log_replays_nothing(self, tmp_path):
        path = tmp_path / "log.wal"
        path.touch()
        assert list(replay_wal(path)) == []


class TestTornTail:
    def test_truncated_payload_stops_cleanly(self, tmp_path, snapshots):
        path = tmp_path / "log.wal"
        write_log(path, snapshots[:3])
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # tear the final record's payload
        registry = MetricsRegistry()
        replayed = list(replay_wal(path, registry=registry))
        assert replayed == snapshots[:2]
        assert registry.counter("federation.wal_truncated_total").value == 1

    def test_truncated_header_stops_cleanly(self, tmp_path, snapshots):
        path = tmp_path / "log.wal"
        write_log(path, snapshots[:2])
        with path.open("ab") as handle:
            handle.write(b"WL\x01")  # half a header, crash mid-write
        assert list(replay_wal(path)) == snapshots[:2]

    def test_corrupt_final_crc_is_treated_as_torn(
        self, tmp_path, snapshots
    ):
        path = tmp_path / "log.wal"
        write_log(path, snapshots[:2])
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the final record
        path.write_bytes(bytes(data))
        assert list(replay_wal(path)) == snapshots[:1]


class TestCorruption:
    def test_midlog_crc_mismatch_raises(self, tmp_path, snapshots):
        """Corruption anywhere but the tail is not a crash artefact —
        refuse to replay past it."""
        path = tmp_path / "log.wal"
        write_log(path, snapshots[:1])
        first_len = path.stat().st_size
        write_log(path, snapshots[1:3])
        data = bytearray(path.read_bytes())
        data[first_len - 1] ^= 0xFF  # corrupt record 1 of 3
        path.write_bytes(bytes(data))
        with pytest.raises(WalError):
            list(replay_wal(path))

    def test_bad_magic_raises(self, tmp_path, snapshots):
        path = tmp_path / "log.wal"
        write_log(path, snapshots[:1])
        data = bytearray(path.read_bytes())
        data[0:2] = b"XX"
        path.write_bytes(bytes(data))
        with pytest.raises(WalError):
            list(replay_wal(path))

    def test_unknown_record_type_raises(self, tmp_path, snapshots):
        path = tmp_path / "log.wal"
        payload = snapshots[0].payload()
        import zlib

        header = struct.pack(
            ">2sBII", b"WL", 99, len(payload), zlib.crc32(payload)
        )
        path.write_bytes(header + payload)
        with pytest.raises(WalError):
            list(replay_wal(path))


class TestRecovery:
    def test_recover_rebuilds_bit_identical_state(
        self, tmp_path, spec, snapshots
    ):
        """A collector killed after journalling replays to the same
        matrix a never-killed collector computed."""
        path = tmp_path / "log.wal"
        live = CollectorService(
            spec.build_central_server(), wal=WriteAheadLog(path)
        )
        for snap in snapshots:
            assert isinstance(live._handle(snap), wire.SnapshotAck)
        live_matrix = live.server.decoder.estimate_matrix(0)
        live.wal.close()

        recovered = CollectorService(spec.build_central_server())
        applied = recovered.recover(path)
        assert applied == len(snapshots)
        assert recovered.wal_records_replayed == len(snapshots)
        assert recovered.server.decoder.estimate_matrix(0) == live_matrix
        golden = spec.reference_decoder().estimate_matrix(0)
        assert recovered.server.decoder.estimate_matrix(0) == golden

    def test_replay_dedups_duplicated_records(
        self, tmp_path, spec, snapshots
    ):
        """A crash between WAL append and ack leaves a record the
        gateway will retransmit; replaying a log that contains the
        duplicate twice must still count each partial once."""
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            for snap in snapshots:
                wal.append(snap)
            wal.append(snapshots[0])  # crash-window duplicate

        recovered = CollectorService(spec.build_central_server())
        recovered.recover(path)
        assert recovered.snapshots_deduped == 1
        golden = spec.reference_decoder().estimate_matrix(0)
        assert recovered.server.decoder.estimate_matrix(0) == golden

    def test_recover_without_configured_wal_requires_path(self, spec):
        from repro.errors import ValidationError

        collector = CollectorService(spec.build_central_server())
        with pytest.raises(ValidationError):
            collector.recover()
