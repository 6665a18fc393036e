"""Append-only write-ahead log for the federated collector.

Every :class:`~repro.service.wire.ShardSnapshot` the collector is
about to apply is journaled here *first* — appended and flushed before
the merge happens and long before the ack goes out.  If the collector
process dies at any point after the append, replaying the log rebuilds
the exact same merge state: OR-merge is idempotent and the log records
carry the same ``(shard, rsu, period, seq)`` dedup identity the live
path uses, so records applied twice (logged, applied, crashed, then
replayed *and* retransmitted by the gateway) still land exactly once.

The streaming tier's :class:`~repro.service.wire.WindowSnapshot`
partials are journaled the same way under their own record type, so a
recovered collector also rebuilds its time-sliced window overlay.  The
adaptive-sizing tier's :class:`~repro.service.wire.SizeAnnounce`
frames are journaled *before first publication* under record type 3,
so a recovered collector re-announces exactly the per-period sizes it
announced before the crash rather than re-deriving a plan from
possibly-partial streaming state (docs/adaptive.md).

Record layout (all integers big-endian)::

    offset  size  field
    0       2     magic  b"WL"
    2       1     record type (1 = shard snapshot, 2 = window partial,
                  3 = size announce)
    3       4     payload length u32
    7       4     CRC-32 of the payload
    11      n     payload — the frame's wire payload verbatim

A *torn tail* — a final record whose header or payload is shorter than
declared, or whose CRC does not match, because the process died
mid-append — is expected and not an error: replay stops just before
it and counts ``federation.wal_truncated_total``.  The same damage
anywhere *before* the tail means the file was corrupted at rest, and
replay raises :class:`~repro.errors.WalError` rather than silently
dropping applied measurement state.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.errors import WalError
from repro.obs import MetricsRegistry
from repro.service import wire
from repro.utils.logconfig import get_logger

__all__ = [
    "WriteAheadLog",
    "replay_wal",
    "REC_SNAPSHOT",
    "REC_WINDOW",
    "REC_SIZES",
]

logger = get_logger("federation.wal")

_MAGIC = b"WL"
_HEADER = struct.Struct(">2sBII")

#: Record type of a journaled :class:`~repro.service.wire.ShardSnapshot`.
REC_SNAPSHOT = 1
#: Record type of a journaled :class:`~repro.service.wire.WindowSnapshot`.
REC_WINDOW = 2
#: Record type of a journaled :class:`~repro.service.wire.SizeAnnounce`.
REC_SIZES = 3

#: Record type -> the frame class journaled under it.
_RECORDS = {
    REC_SNAPSHOT: wire.ShardSnapshot,
    REC_WINDOW: wire.WindowSnapshot,
    REC_SIZES: wire.SizeAnnounce,
}
_RECORD_TYPES = {frame: rec_type for rec_type, frame in _RECORDS.items()}


class WriteAheadLog:
    """Appender for the collector's snapshot journal.

    Opens *path* in append mode, so restarting a collector against its
    existing log continues the journal rather than truncating it —
    replay first, then keep appending.

    Parameters
    ----------
    path:
        Log file location; parent directories must exist.
    registry:
        Where ``federation.wal_records_total`` /
        ``federation.wal_bytes_total`` are recorded.
    fsync:
        When True, ``os.fsync`` after every append — durable against
        power loss, not just process death, at a large throughput
        cost.  The default (False) flushes to the OS on every append,
        which already survives the process kills the chaos suite
        injects.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        registry: Optional[MetricsRegistry] = None,
        fsync: bool = False,
    ) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._fh = open(self.path, "ab")
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self._m_records = self.registry.counter(
            "federation.wal_records_total"
        )
        self._m_bytes = self.registry.counter("federation.wal_bytes_total")

    def append(
        self,
        snapshot: Union[
            wire.ShardSnapshot, wire.WindowSnapshot, wire.SizeAnnounce
        ],
    ) -> None:
        """Journal one shard snapshot, window partial, or size
        announcement; flushed before this returns."""
        if self._fh.closed:
            raise WalError(f"write-ahead log {self.path} is closed")
        rec_type = _RECORD_TYPES[type(snapshot)]
        payload = snapshot.payload()
        record = (
            _HEADER.pack(
                _MAGIC,
                rec_type,
                len(payload),
                zlib.crc32(payload) & 0xFFFFFFFF,
            )
            + payload
        )
        self._fh.write(record)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._m_records.inc()
        self._m_bytes.inc(len(record))

    @property
    def records_appended(self) -> int:
        """Records journaled through this appender (not the whole file)."""
        return int(self._m_records.value)

    @property
    def bytes_appended(self) -> int:
        """Bytes journaled through this appender (not the whole file)."""
        return int(self._m_bytes.value)

    def close(self) -> None:
        """Flush, fsync, and close the journal (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(path={str(self.path)!r}, "
            f"records_appended={self.records_appended})"
        )


def replay_wal(
    path: Union[str, Path],
    *,
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[
    Union[wire.ShardSnapshot, wire.WindowSnapshot, wire.SizeAnnounce]
]:
    """Yield every intact record in *path*, in append order — shard
    snapshots, window partials, and size announcements alike, each
    decoded to its frame type.

    Stops (without error) at a torn tail — the partial final record a
    crash mid-append leaves behind — counting
    ``federation.wal_truncated_total``.  Raises
    :class:`~repro.errors.WalError` for a bad magic, unknown record
    type, CRC mismatch, or short payload anywhere before the tail:
    that is corruption of already-durable state, and replaying around
    it would silently drop applied snapshots.
    """
    registry = registry if registry is not None else MetricsRegistry()
    m_truncated = registry.counter("federation.wal_truncated_total")
    data = Path(path).read_bytes()
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            logger.warning(
                "wal %s: torn record header at offset %d; replay stops",
                path,
                offset,
            )
            m_truncated.inc()
            return
        magic, rec_type, length, crc = _HEADER.unpack_from(data, offset)
        if magic != _MAGIC:
            raise WalError(
                f"wal {path}: bad record magic {magic!r} at offset "
                f"{offset}"
            )
        frame = _RECORDS.get(rec_type)
        if frame is None:
            raise WalError(
                f"wal {path}: unknown record type {rec_type} at offset "
                f"{offset}"
            )
        end = offset + _HEADER.size + length
        if end > total:
            logger.warning(
                "wal %s: torn record payload at offset %d "
                "(%d of %d bytes); replay stops",
                path,
                offset,
                total - offset - _HEADER.size,
                length,
            )
            m_truncated.inc()
            return
        payload = data[offset + _HEADER.size : end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            if end == total:
                # A CRC mismatch on the *final* record is a torn write
                # too (e.g. the filesystem persisted the header but
                # only part of an overwritten block).
                logger.warning(
                    "wal %s: CRC mismatch on final record at offset %d; "
                    "replay stops",
                    path,
                    offset,
                )
                m_truncated.inc()
                return
            raise WalError(
                f"wal {path}: CRC mismatch at offset {offset} with "
                "intact records after it — log is corrupt"
            )
        yield frame.decode(payload)
        offset = end
