"""Binary wire protocol for the live measurement plane.

Every message travels in one *frame*::

    offset  size  field
    0       2     magic  b"VW"
    2       1     version (currently 2)
    3       1     message type
    4       4     payload length (big-endian u32)
    8       4     CRC-32 of the payload (big-endian u32)
    12      N     payload

All multi-byte integers are big-endian.  Payload layouts per type are
documented on each message class and in ``docs/protocol.md``.  The
decoder is strict: bad magic, unknown version/type, truncated or
oversized payloads, a payload whose CRC-32 disagrees with the header,
out-of-range fields, and non-zero padding bits in a snapshot all raise
:class:`~repro.errors.WireError` — a gateway must be able to reject
any byte stream without crashing or corrupting state.  The CRC makes
in-flight corruption *detectable*: a corrupt frame is nacked with an
error frame instead of being silently recorded, which is what lets the
retry layer (:mod:`repro.service.retry`) guarantee bit-identical
decoding over lossy links.

Version 2 additions over the original framing: the payload CRC, the
``seq`` field on :class:`ResponseBatch` / :class:`Snapshot` /
``SnapshotAck`` (delivery sequence numbers, ``0`` = unsequenced
best-effort), and :class:`BatchAck` — the gateway's per-batch receipt
that makes retransmission-with-dedup possible.  The federation tier
adds three shard-aware types under the same version (old peers simply
never see them): :class:`ShardSnapshot` (a shard's *partial* report,
OR-merged at the federated collector), :class:`Handoff` and
:class:`HandoffAck` (mid-period RSU rebalance between shards) — see
``docs/federation.md``.  The streaming tier adds three more:
:class:`WindowSnapshot` (a sub-period window partial, OR-merged into
the server's live decoder), :class:`EndWindow` and
:class:`EndWindowAck` (close one window at the gateway) — see
``docs/streaming.md``.  The adaptive-sizing tier adds three more:
:class:`SizeQuery` (ask the collector for a period's array sizes),
:class:`SizeAnnounce` (the deterministic per-period size plan, also
journalled to the federation WAL as record type 3), and
:class:`SizeAnnounceAck` (a gateway's receipt after re-sizing its
fleet) — see ``docs/adaptive.md``.

The codec is deliberately numpy-friendly: response batches carry
parallel ``uint64``/``uint32`` arrays (decoded with zero copies via
``np.frombuffer``) and snapshots carry ``np.packbits`` output, so the
hot ingest path never loops in Python.
"""

from __future__ import annotations

import asyncio
import operator
import struct
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterator, Optional, Set, Tuple, Union

import numpy as np

from repro.core.bitarray import BitArray
from repro.core.reports import RsuReport
from repro.errors import WireError
from repro.obs import MetricsRegistry, get_registry

__all__ = [
    "MAGIC",
    "VERSION",
    "MAX_PAYLOAD",
    "ResponseMsg",
    "ResponseBatch",
    "BatchAck",
    "Snapshot",
    "SnapshotAck",
    "ShardSnapshot",
    "WindowSnapshot",
    "Handoff",
    "HandoffAck",
    "EndWindow",
    "EndWindowAck",
    "EndPeriod",
    "EndPeriodAck",
    "VolumeQuery",
    "EstimateMsg",
    "PointQuery",
    "PointVolume",
    "SizeQuery",
    "SizeAnnounce",
    "SizeAnnounceAck",
    "ErrorMsg",
    "Message",
    "encode_frame",
    "decode_frame",
    "FrameParser",
    "write_frame",
    "FrameSession",
    "FrameServer",
    "FrameClient",
]

MAGIC = b"VW"
VERSION = 2
#: Hard cap on payload size: the largest legal snapshot is an
#: ``m_o = 2**24``-bit array (2 MiB packed) plus its fixed header.
MAX_PAYLOAD = (1 << 21) + 64

_HEADER = struct.Struct(">2sBBII")

_MAC_LIMIT = 1 << 48

# Message type codes.
T_RESPONSE = 0x01
T_RESPONSE_BATCH = 0x02
T_SNAPSHOT = 0x03
T_SNAPSHOT_ACK = 0x04
T_END_PERIOD = 0x05
T_END_PERIOD_ACK = 0x06
T_QUERY = 0x07
T_ESTIMATE = 0x08
T_POINT_QUERY = 0x09
T_POINT_VOLUME = 0x0A
T_BATCH_ACK = 0x0B
T_SHARD_SNAPSHOT = 0x0C
T_HANDOFF = 0x0D
T_HANDOFF_ACK = 0x0E
T_WINDOW_SNAPSHOT = 0x0F
T_END_WINDOW = 0x10
T_END_WINDOW_ACK = 0x11
T_SIZE_QUERY = 0x12
T_SIZE_ANNOUNCE = 0x13
T_SIZE_ACK = 0x14
T_ERROR = 0x7F

# Error codes carried by ErrorMsg.
E_MALFORMED = 1
E_UNKNOWN_RSU = 2
E_ESTIMATION = 3
E_INTERNAL = 4
#: A snapshot re-upload for an already-stored ``(rsu_id, period)`` that
#: carries a *different* sequence number: the collector refuses to
#: overwrite measurement state it has already decoded from.
E_DUPLICATE = 5


def _check_u32(value: int, name: str) -> int:
    value = int(value)
    if not 0 <= value < 1 << 32:
        raise WireError(f"{name} must fit in u32, got {value}")
    return value


def _check_u64(value: int, name: str) -> int:
    value = int(value)
    if not 0 <= value < 1 << 64:
        raise WireError(f"{name} must fit in u64, got {value}")
    return value


# ----------------------------------------------------------------------
# Message classes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResponseMsg:
    """One vehicle response: ``rsu_id u32 | mac u64 | bit_index u32``."""

    rsu_id: int
    mac: int
    bit_index: int

    _STRUCT = struct.Struct(">IQI")
    type = T_RESPONSE

    def payload(self) -> bytes:
        if not 0 <= self.mac < _MAC_LIMIT:
            raise WireError(f"mac must be a 48-bit integer, got {self.mac}")
        return self._STRUCT.pack(
            _check_u32(self.rsu_id, "rsu_id"),
            self.mac,
            _check_u32(self.bit_index, "bit_index"),
        )

    @classmethod
    def decode(cls, payload: bytes) -> "ResponseMsg":
        if len(payload) != cls._STRUCT.size:
            raise WireError(
                f"response payload must be {cls._STRUCT.size} bytes, "
                f"got {len(payload)}"
            )
        rsu_id, mac, bit_index = cls._STRUCT.unpack(payload)
        if mac >= _MAC_LIMIT:
            raise WireError(f"mac must be a 48-bit integer, got {mac}")
        return cls(rsu_id=rsu_id, mac=mac, bit_index=bit_index)


@dataclass(frozen=True)
class ResponseBatch:
    """A batch of responses for one RSU.

    ``rsu_id u32 | seq u64 | count u32 | macs u64[count] |
    indices u32[count]``.  Parallel arrays rather than interleaved
    records, so the gateway can hand both straight to
    :meth:`RoadsideUnit.handle_wire_batch`.

    ``seq`` is a sender-assigned delivery sequence number.  ``seq == 0``
    means best-effort (no ack, no dedup — the original fire-and-forget
    semantics).  ``seq >= 1`` asks the gateway to (a) acknowledge the
    batch with a :class:`BatchAck` and (b) apply it at most once, so a
    sender may retransmit after a fault without double-counting.
    """

    rsu_id: int
    macs: np.ndarray
    bit_indices: np.ndarray
    seq: int = 0

    _HEAD = struct.Struct(">IQI")
    type = T_RESPONSE_BATCH

    def __post_init__(self) -> None:
        macs = np.ascontiguousarray(self.macs, dtype=">u8")
        idx = np.ascontiguousarray(self.bit_indices, dtype=">u4")
        if macs.shape != idx.shape or macs.ndim != 1:
            raise WireError(
                f"macs shape {macs.shape} and indices shape {idx.shape} "
                "must be equal 1-D arrays"
            )
        object.__setattr__(self, "macs", macs)
        object.__setattr__(self, "bit_indices", idx)

    def __len__(self) -> int:
        return int(self.macs.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResponseBatch):
            return NotImplemented
        return (
            self.rsu_id == other.rsu_id
            and self.seq == other.seq
            and np.array_equal(self.macs, other.macs)
            and np.array_equal(self.bit_indices, other.bit_indices)
        )

    def payload(self) -> bytes:
        if self.macs.size and int(self.macs.max()) >= _MAC_LIMIT:
            raise WireError("batch contains a MAC wider than 48 bits")
        head = self._HEAD.pack(
            _check_u32(self.rsu_id, "rsu_id"),
            _check_u64(self.seq, "seq"),
            _check_u32(self.macs.size, "count"),
        )
        return head + self.macs.tobytes() + self.bit_indices.tobytes()

    @classmethod
    def decode(cls, payload: bytes) -> "ResponseBatch":
        if len(payload) < cls._HEAD.size:
            raise WireError("truncated response batch header")
        rsu_id, seq, count = cls._HEAD.unpack_from(payload)
        expected = cls._HEAD.size + count * 12
        if len(payload) != expected:
            raise WireError(
                f"response batch of {count} entries must be {expected} "
                f"bytes, got {len(payload)}"
            )
        macs = np.frombuffer(payload, dtype=">u8", count=count, offset=cls._HEAD.size)
        idx = np.frombuffer(
            payload, dtype=">u4", count=count, offset=cls._HEAD.size + 8 * count
        )
        if macs.size and int(macs.max()) >= _MAC_LIMIT:
            raise WireError("batch contains a MAC wider than 48 bits")
        return cls(rsu_id=rsu_id, macs=macs, bit_indices=idx, seq=seq)


@dataclass(frozen=True)
class BatchAck:
    """Gateway receipt for one sequenced batch: ``seq u64 | flags u8``.

    ``flags`` bit 0 set means the batch was a duplicate of one already
    applied (the sender's retransmission was deduplicated, not
    recorded a second time).
    """

    seq: int
    duplicate: bool = False

    _STRUCT = struct.Struct(">QB")
    type = T_BATCH_ACK

    def payload(self) -> bytes:
        return self._STRUCT.pack(
            _check_u64(self.seq, "seq"), 1 if self.duplicate else 0
        )

    @classmethod
    def decode(cls, payload: bytes) -> "BatchAck":
        if len(payload) != cls._STRUCT.size:
            raise WireError(
                f"batch ack payload must be {cls._STRUCT.size} bytes, "
                f"got {len(payload)}"
            )
        seq, flags = cls._STRUCT.unpack(payload)
        if flags > 1:
            raise WireError(f"batch ack flags must be 0 or 1, got {flags}")
        return cls(seq=seq, duplicate=bool(flags))


def _simple(name, code, fmt, fields_doc, field_names):
    """Build a fixed-layout message class (header-only payload)."""
    layout = struct.Struct(fmt)
    # Built once per class: the field values as a tuple, and each
    # field's range check in layout order (fmt[0] is ">").
    values = (
        operator.attrgetter(*field_names)
        if len(field_names) > 1
        else lambda self: (getattr(self, field_names[0]),)
    )
    checks = tuple(
        (fname, _check_u64 if kind == "Q" else _check_u32)
        for fname, kind in zip(field_names, fmt[1:])
    )

    def payload(self) -> bytes:
        try:
            return layout.pack(*values(self))
        except struct.error:
            # Not plain in-range integers: convert and range-check each
            # field, raising WireError for the first that does not fit.
            return layout.pack(
                *[check(getattr(self, fname), fname) for fname, check in checks]
            )

    def decode(cls, data: bytes):
        if len(data) != layout.size:
            raise WireError(
                f"{name} payload must be {layout.size} bytes, got {len(data)}"
            )
        return cls(*layout.unpack(data))

    namespace = {
        "__doc__": fields_doc,
        "payload": payload,
        "decode": classmethod(decode),
        "type": code,
        "__annotations__": {fname: int for fname in field_names},
    }
    return dataclass(frozen=True)(type(name, (), namespace))


class _PackedReport:
    """The codec of the three report frames.

    A payload is the frame's leading ``u32`` routing fields
    (``_LEAD``), then the packed-report tail ``seq u64 | counter u64 |
    array_size u32 | packed_bits u8[ceil(array_size / 8)]``.  The bit
    array is ``np.packbits`` output (big-endian bit order) and any
    padding bits past ``array_size`` must be zero.  Every
    :class:`~repro.errors.WireError` text starts with the frame's
    ``_LABEL``.
    """

    _LABEL: str
    _LEAD: Tuple[str, ...]
    _HEAD: struct.Struct
    rsu_id: int
    period: int
    counter: int
    array_size: int
    packed_bits: bytes
    seq: int

    @classmethod
    def _check_packed(cls, size: int, packed: bytes) -> None:
        expected = (size + 7) // 8
        if len(packed) != expected:
            raise WireError(
                f"{cls._LABEL} of {size} bits needs {expected} packed "
                f"bytes, got {len(packed)}"
            )

    def payload(self) -> bytes:
        self._check_packed(self.array_size, self.packed_bits)
        return (
            self._HEAD.pack(
                *(_check_u32(getattr(self, name), name) for name in self._LEAD),
                _check_u64(self.seq, "seq"),
                _check_u64(self.counter, "counter"),
                _check_u32(self.array_size, "array_size"),
            )
            + self.packed_bits
        )

    @classmethod
    def decode(cls, payload: bytes):
        if len(payload) < cls._HEAD.size:
            raise WireError(f"truncated {cls._LABEL} header")
        *lead, seq, counter, size = cls._HEAD.unpack_from(payload)
        if size == 0:
            raise WireError(f"{cls._LABEL} array_size must be positive")
        packed = payload[cls._HEAD.size :]
        cls._check_packed(size, packed)
        if size % 8 and packed[-1] & ((1 << (8 - size % 8)) - 1):
            raise WireError(f"{cls._LABEL} padding bits past array_size are set")
        return cls(
            *lead, counter=counter, array_size=size, packed_bits=packed, seq=seq
        )

    # -- conversions to/from the in-process report type ----------------
    @classmethod
    def from_report(cls, report: RsuReport, *, seq: int = 0, **routing: int):
        """Wrap a :class:`~repro.core.reports.RsuReport`; *routing*
        gives the leading fields a report does not carry (``shard_id``,
        ``window``)."""
        return cls(
            rsu_id=report.rsu_id,
            period=report.period,
            counter=report.counter,
            array_size=report.array_size,
            packed_bits=report.bits.to_bytes(),
            seq=seq,
            **routing,
        )

    def to_report(self) -> RsuReport:
        """The (whole or partial) report this frame carries."""
        return RsuReport(
            rsu_id=self.rsu_id,
            counter=self.counter,
            bits=BitArray.from_bytes(self.packed_bits, self.array_size),
            period=self.period,
        )


def _packed_report(name, code, label, lead, doc):
    """Build a report frame class: the *lead* ``u32`` fields, then the
    :class:`_PackedReport` tail; fields in that order, ``seq`` last."""
    annotations = {fname: int for fname in lead}
    annotations.update(counter=int, array_size=int, packed_bits=bytes, seq=int)
    namespace = {
        "__doc__": doc,
        "__annotations__": annotations,
        "packed_bits": field(repr=False),
        "seq": 0,
        "type": code,
        "_LABEL": label,
        "_LEAD": lead,
        "_HEAD": struct.Struct(">" + "I" * len(lead) + "QQI"),
    }
    return dataclass(frozen=True)(type(name, (_PackedReport,), namespace))


Snapshot = _packed_report(
    "Snapshot",
    T_SNAPSHOT,
    "snapshot",
    ("rsu_id", "period"),
    """An RSU's period-end report: ``rsu_id u32 | period u32`` and the
    packed-report tail.

    ``seq`` identifies the *upload*, not the report: a gateway
    retransmitting the same snapshot after a lost ack reuses the seq,
    and the collector dedups on ``(rsu_id, period, seq)`` — safe,
    because re-ORing identical snapshot bits is idempotent and the
    counter is not re-observed.  A different seq for an already-stored
    ``(rsu_id, period)`` is a conflict and is nacked.
    """,
)

ShardSnapshot = _packed_report(
    "ShardSnapshot",
    T_SHARD_SNAPSHOT,
    "shard snapshot",
    ("shard_id", "rsu_id", "period"),
    """A gateway shard's *partial* period-end report: ``shard_id u32 |
    rsu_id u32 | period u32`` and the packed-report tail.

    Unlike a :class:`Snapshot`, several ShardSnapshots for one
    ``(rsu_id, period)`` are *expected*: after a mid-period handoff the
    vehicle responses for an RSU land on two shards, and each uploads
    the portion it recorded.  The federated collector OR-merges the
    bit arrays (a lossless state-based CRDT join) and sums the
    counters, deduplicating retransmissions on
    ``(shard_id, rsu_id, period, seq)`` — shard-scoped, because each
    shard numbers its uploads independently.  Acknowledged with the
    ordinary :class:`SnapshotAck` echoing the upload seq.
    """,
)

WindowSnapshot = _packed_report(
    "WindowSnapshot",
    T_WINDOW_SNAPSHOT,
    "window snapshot",
    ("shard_id", "rsu_id", "period", "window"),
    """A sub-period *window* partial of one RSU's bit array:
    ``shard_id u32 | rsu_id u32 | period u32 | window u32`` and the
    packed-report tail.  An unsharded gateway uploads with
    ``shard_id == 0``.

    Window partials are an *overlay* on the period-close upload, not a
    replacement: the gateway still ships its whole
    :class:`Snapshot` / :class:`ShardSnapshot` at period close, so the
    authoritative batch decode is untouched.  The collector OR-merges
    window partials per ``(rsu_id, period, window)`` into the server's
    streaming decoder — the same state-based CRDT join as shard
    partials, deduplicated on ``(shard_id, seq)``, so rebalanced RSUs
    whose window landed on two shards merge losslessly.  Acknowledged
    with the ordinary :class:`SnapshotAck` echoing the upload seq.
    """,
)


SnapshotAck = _simple(
    "SnapshotAck",
    T_SNAPSHOT_ACK,
    ">IIQ",
    "Collector's receipt for one snapshot: ``rsu_id u32 | period u32 | "
    "seq u64`` (seq echoes the upload being acknowledged; a dedup hit "
    "echoes the stored upload's seq).",
    ("rsu_id", "period", "seq"),
)

Handoff = _simple(
    "Handoff",
    T_HANDOFF,
    ">IIII",
    "Mid-period shard rebalance: ``rsu_id u32 | from_shard u32 | "
    "to_shard u32 | period u32``.  Sent to the *target* shard, which "
    "provisions a fresh zeroed RSU for the remainder of the period; "
    "the source shard keeps its partial array and both upload "
    "``ShardSnapshot`` partials at period close (OR-merge makes the "
    "split lossless).",
    ("rsu_id", "from_shard", "to_shard", "period"),
)

HandoffAck = _simple(
    "HandoffAck",
    T_HANDOFF_ACK,
    ">III",
    "Target shard's confirmation of a ``Handoff``: ``rsu_id u32 | "
    "to_shard u32 | period u32``.",
    ("rsu_id", "to_shard", "period"),
)

EndWindow = _simple(
    "EndWindow",
    T_END_WINDOW,
    ">II",
    "Close one sub-period window at the gateway: ``period u32 | "
    "window u32``.  The gateway snapshots and resets every RSU's "
    "window accumulator, and uploads one "
    "``WindowSnapshot`` per RSU before acknowledging.",
    ("period", "window"),
)

EndWindowAck = _simple(
    "EndWindowAck",
    T_END_WINDOW_ACK,
    ">III",
    "Gateway's confirmation of an ``EndWindow``: ``period u32 | "
    "window u32 | partials_uploaded u32``.",
    ("period", "window", "partials"),
)

EndPeriod = _simple(
    "EndPeriod",
    T_END_PERIOD,
    ">I",
    "Close the measurement period at the gateway: ``period u32``.",
    ("period",),
)

EndPeriodAck = _simple(
    "EndPeriodAck",
    T_END_PERIOD_ACK,
    ">II",
    "Gateway's confirmation: ``period u32 | snapshots_uploaded u32``.",
    ("period", "snapshots"),
)

VolumeQuery = _simple(
    "VolumeQuery",
    T_QUERY,
    ">III",
    "Point-to-point query: ``rsu_x u32 | rsu_y u32 | period u32``.",
    ("rsu_x", "rsu_y", "period"),
)

PointQuery = _simple(
    "PointQuery",
    T_POINT_QUERY,
    ">II",
    "Point volume query: ``rsu_id u32 | period u32``.",
    ("rsu_id", "period"),
)

PointVolume = _simple(
    "PointVolume",
    T_POINT_VOLUME,
    ">IIQ",
    "Point volume answer: ``rsu_id u32 | period u32 | counter u64``.",
    ("rsu_id", "period", "counter"),
)

SizeQuery = _simple(
    "SizeQuery",
    T_SIZE_QUERY,
    ">I",
    "Ask the collector for the array sizes of one period: "
    "``period u32``.  Answered with a :class:`SizeAnnounce` built from "
    "the server's deterministic size plan (docs/adaptive.md); "
    "idempotent — re-asking returns the identical announcement.",
    ("period",),
)

SizeAnnounceAck = _simple(
    "SizeAnnounceAck",
    T_SIZE_ACK,
    ">II",
    "Gateway's confirmation of a :class:`SizeAnnounce`: ``period u32 | "
    "applied u32`` (the number of RSUs whose logical size actually "
    "changed; re-announcing the same sizes applies zero).",
    ("period", "applied"),
)


@dataclass(frozen=True)
class SizeAnnounce:
    """Per-period array sizes published by the adaptive control loop.

    ``period u32 | count u32 | rsu_ids u32[count] | sizes u32[count]``
    — parallel arrays, ``rsu_ids`` strictly increasing so the encoded
    bytes of a plan are canonical (byte-identical announcements for
    identical plans, which is what the WAL journalling and the CI
    golden-trajectory diff rely on).  Every size must be a power of
    two ``>= 2``; the strict decoder enforces both invariants.
    """

    period: int
    rsu_ids: np.ndarray
    sizes: np.ndarray

    _HEAD = struct.Struct(">II")
    type = T_SIZE_ANNOUNCE

    def __post_init__(self) -> None:
        rsu_ids = np.ascontiguousarray(self.rsu_ids, dtype=">u4")
        sizes = np.ascontiguousarray(self.sizes, dtype=">u4")
        if rsu_ids.shape != sizes.shape or rsu_ids.ndim != 1:
            raise WireError(
                f"rsu_ids shape {rsu_ids.shape} and sizes shape "
                f"{sizes.shape} must be equal 1-D arrays"
            )
        if rsu_ids.size and np.any(rsu_ids[1:] <= rsu_ids[:-1]):
            raise WireError("size announce rsu_ids must be strictly increasing")
        if sizes.size:
            as_int = sizes.astype(np.int64)
            if np.any(as_int < 2) or np.any(as_int & (as_int - 1)):
                raise WireError(
                    "size announce sizes must be powers of two >= 2"
                )
        object.__setattr__(self, "rsu_ids", rsu_ids)
        object.__setattr__(self, "sizes", sizes)

    def __len__(self) -> int:
        return int(self.rsu_ids.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SizeAnnounce):
            return NotImplemented
        return (
            self.period == other.period
            and np.array_equal(self.rsu_ids, other.rsu_ids)
            and np.array_equal(self.sizes, other.sizes)
        )

    @classmethod
    def from_sizes(cls, period: int, sizes) -> "SizeAnnounce":
        """Build the canonical announcement for ``rsu_id -> m_x``."""
        rsu_ids = sorted(int(rsu_id) for rsu_id in sizes)
        return cls(
            period=period,
            rsu_ids=np.array(rsu_ids, dtype=">u4"),
            sizes=np.array([int(sizes[r]) for r in rsu_ids], dtype=">u4"),
        )

    def to_sizes(self) -> dict:
        """The announced plan as ``{rsu_id: m_x}``."""
        return {
            int(rsu_id): int(size)
            for rsu_id, size in zip(self.rsu_ids, self.sizes)
        }

    def payload(self) -> bytes:
        head = self._HEAD.pack(
            _check_u32(self.period, "period"),
            _check_u32(self.rsu_ids.size, "count"),
        )
        return head + self.rsu_ids.tobytes() + self.sizes.tobytes()

    @classmethod
    def decode(cls, payload: bytes) -> "SizeAnnounce":
        if len(payload) < cls._HEAD.size:
            raise WireError("truncated size announce header")
        period, count = cls._HEAD.unpack_from(payload)
        expected = cls._HEAD.size + count * 8
        if len(payload) != expected:
            raise WireError(
                f"size announce of {count} entries must be {expected} "
                f"bytes, got {len(payload)}"
            )
        rsu_ids = np.frombuffer(
            payload, dtype=">u4", count=count, offset=cls._HEAD.size
        )
        sizes = np.frombuffer(
            payload, dtype=">u4", count=count, offset=cls._HEAD.size + 4 * count
        )
        return cls(period=period, rsu_ids=rsu_ids, sizes=sizes)


@dataclass(frozen=True)
class EstimateMsg:
    """Point-to-point answer mirroring
    :class:`~repro.core.estimator.PairEstimate`:

    ``n_c_hat f64 | v_c f64 | v_x f64 | v_y f64 | m_x u32 | m_y u32 |
    n_x u64 | n_y u64 | s u32``.
    """

    n_c_hat: float
    v_c: float
    v_x: float
    v_y: float
    m_x: int
    m_y: int
    n_x: int
    n_y: int
    s: int

    _STRUCT = struct.Struct(">ddddIIQQI")
    type = T_ESTIMATE

    def payload(self) -> bytes:
        return self.pack(
            self.n_c_hat,
            self.v_c,
            self.v_x,
            self.v_y,
            self.m_x,
            self.m_y,
            self.n_x,
            self.n_y,
            self.s,
        )

    @classmethod
    def pack(cls, n_c_hat, v_c, v_x, v_y, m_x, m_y, n_x, n_y, s) -> bytes:
        """The payload of an answer with these fields."""
        try:
            return cls._STRUCT.pack(n_c_hat, v_c, v_x, v_y, m_x, m_y, n_x, n_y, s)
        except struct.error:
            # Not plain in-range numbers: convert and range-check each
            # field, raising WireError for the first that does not fit.
            return cls._STRUCT.pack(
                float(n_c_hat),
                float(v_c),
                float(v_x),
                float(v_y),
                _check_u32(m_x, "m_x"),
                _check_u32(m_y, "m_y"),
                _check_u64(n_x, "n_x"),
                _check_u64(n_y, "n_y"),
                _check_u32(s, "s"),
            )

    @classmethod
    def decode(cls, payload: bytes) -> "EstimateMsg":
        if len(payload) != cls._STRUCT.size:
            raise WireError(
                f"estimate payload must be {cls._STRUCT.size} bytes, "
                f"got {len(payload)}"
            )
        return cls(*cls._STRUCT.unpack(payload))


@dataclass(frozen=True)
class ErrorMsg:
    """An error frame: ``code u16 | utf-8 message``."""

    code: int
    message: str

    _HEAD = struct.Struct(">H")
    type = T_ERROR

    def payload(self) -> bytes:
        code = int(self.code)
        if not 0 <= code < 1 << 16:
            raise WireError(f"error code must fit in u16, got {code}")
        return self._HEAD.pack(code) + self.message.encode("utf-8")

    @classmethod
    def decode(cls, payload: bytes) -> "ErrorMsg":
        if len(payload) < cls._HEAD.size:
            raise WireError("truncated error frame")
        (code,) = cls._HEAD.unpack_from(payload)
        try:
            text = payload[cls._HEAD.size :].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"error frame text is not UTF-8: {exc}") from exc
        return cls(code=code, message=text)


#: Every frame class, one per message type code.
_FRAMES = (
    ResponseMsg,
    ResponseBatch,
    BatchAck,
    Snapshot,
    SnapshotAck,
    ShardSnapshot,
    WindowSnapshot,
    Handoff,
    HandoffAck,
    EndWindow,
    EndWindowAck,
    EndPeriod,
    EndPeriodAck,
    VolumeQuery,
    EstimateMsg,
    PointQuery,
    PointVolume,
    SizeQuery,
    SizeAnnounce,
    SizeAnnounceAck,
    ErrorMsg,
)

Message = Union[_FRAMES]

_DECODERS = {cls.type: cls for cls in _FRAMES}


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def _crc(payload: bytes) -> int:
    return zlib.crc32(payload) & 0xFFFFFFFF


def encode_frame(message: Message) -> bytes:
    """Serialize *message* into one complete frame.

    *message* may also be the :class:`~repro.core.estimator.PairEstimate`
    that answers a :class:`VolumeQuery`: it is framed as the
    :class:`EstimateMsg` it stands for, without being copied into one.
    """
    payload_of = getattr(message, "payload", None)
    if payload_of is None:
        msg_type = T_ESTIMATE
        payload = EstimateMsg.pack(
            message.value,
            message.v_c,
            message.v_x,
            message.v_y,
            message.m_x,
            message.m_y,
            message.n_x,
            message.n_y,
            message.s,
        )
    else:
        msg_type = message.type
        payload = payload_of()
    if len(payload) > MAX_PAYLOAD:
        raise WireError(
            f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD "
            f"({MAX_PAYLOAD})"
        )
    return (
        _HEADER.pack(MAGIC, VERSION, msg_type, len(payload), _crc(payload))
        + payload
    )


def _decode_payload(msg_type: int, payload: bytes, crc: int) -> Message:
    if _crc(payload) != crc:
        get_registry().counter("wire.crc_failures_total").inc()
        raise WireError(
            f"payload CRC mismatch (declared 0x{crc:08x}, computed "
            f"0x{_crc(payload):08x}): frame corrupt in flight"
        )
    try:
        decoder = _DECODERS[msg_type]
    except KeyError:
        raise WireError(f"unknown message type 0x{msg_type:02x}") from None
    return decoder.decode(payload)


def _frame_header(data, offset: int = 0) -> Tuple[int, int, int]:
    """Check the header at *offset* of *data*; returns ``(msg_type,
    length, crc)``."""
    magic, version, msg_type, length, crc = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported wire version {version}")
    if length > MAX_PAYLOAD:
        raise WireError(
            f"declared payload of {length} bytes exceeds MAX_PAYLOAD "
            f"({MAX_PAYLOAD})"
        )
    return msg_type, length, crc


def _truncation(received: int, length: Optional[int] = None) -> WireError:
    """The error of a stream that ended *received* bytes into a frame's
    header, or with *length* given, into its payload."""
    if length is None:
        return WireError(
            f"stream truncated mid-header ({received} of {_HEADER.size} "
            "bytes)"
        )
    return WireError(
        f"stream truncated mid-frame ({received} of {length} payload bytes)"
    )


def decode_frame(data: bytes) -> "tuple[Message, int]":
    """Decode one frame from the head of *data*.

    Returns ``(message, bytes_consumed)``.  Raises
    :class:`~repro.errors.WireError` on any malformation, including a
    buffer too short for the declared payload — stream consumers should
    use :class:`FrameParser`, which knows how many bytes to wait for.
    """
    if len(data) < _HEADER.size:
        raise WireError(
            f"frame header needs {_HEADER.size} bytes, got {len(data)}"
        )
    msg_type, length, crc = _frame_header(data)
    end = _HEADER.size + length
    if len(data) < end:
        raise WireError(
            f"frame declares {length} payload bytes but only "
            f"{len(data) - _HEADER.size} present"
        )
    return _decode_payload(msg_type, data[_HEADER.size : end], crc), end


class _FrameCounters:
    """The ``wire.frames_total`` / ``wire.bytes_total`` pair of one
    direction, held across frames.

    The handles are looked up on the first frame and again only when
    the process-default registry is swapped (:func:`repro.obs.set_registry`)
    or cleared; every other frame pays two increments, not two
    label-keyed lookups.
    """

    __slots__ = ("direction", "registry", "generation", "frames", "bytes")

    def __init__(self, direction: str) -> None:
        self.direction = direction
        self.registry: Optional[MetricsRegistry] = None
        self.generation = -1

    def count(self, nbytes: int) -> None:
        registry = get_registry()
        if (
            registry is not self.registry
            or registry.generation != self.generation
        ):
            self.registry = registry
            self.generation = registry.generation
            self.frames = registry.counter(
                "wire.frames_total", direction=self.direction
            )
            self.bytes = registry.counter(
                "wire.bytes_total", direction=self.direction
            )
        self.frames.inc()
        self.bytes.inc(nbytes)


_FRAMES_IN = _FrameCounters("in")
_FRAMES_OUT = _FrameCounters("out")


class FrameParser:
    """The sans-IO frame reader of one byte stream: bytes go in as they
    arrive, in any chunking, and each message comes out once its frame
    is whole.

    It runs the header checks, the CRC check and the payload decode
    that :func:`decode_frame` runs, so a malformed frame raises the
    same :class:`~repro.errors.WireError` text whichever end reads it.
    Each message it yields counts one inbound frame in
    ``wire.frames_total`` / ``wire.bytes_total``.  After a
    ``WireError`` the stream is unusable: the reader hangs up.
    """

    __slots__ = ("_buffer", "_header")

    def __init__(self) -> None:
        #: Bytes of the frame being read: its header, or once the
        #: header is checked, the payload received so far.
        self._buffer = bytearray()
        #: ``(msg_type, length, crc)`` of the checked header, else None.
        self._header: Optional[Tuple[int, int, int]] = None

    def feed(self, data: bytes) -> Iterator[Message]:
        """Take *data* and yield every message it completes, in order.

        The messages of frames ahead of a malformed one are yielded
        before its ``WireError`` is raised.  Consume the iterator to
        the end before the next :meth:`feed`.
        """
        buffer = self._buffer
        if buffer:
            buffer += data
            data = buffer
        offset, size, header = 0, len(data), self._header
        try:
            while True:
                if header is None:
                    if size - offset < _HEADER.size:
                        break
                    header = _frame_header(data, offset)
                    offset += _HEADER.size
                msg_type, length, crc = header
                end = offset + length
                if end > size:
                    break
                header = None
                message = _decode_payload(msg_type, bytes(data[offset:end]), crc)
                offset = end
                _FRAMES_IN.count(_HEADER.size + length)
                yield message
        finally:
            self._header = header
            if data is buffer:
                del buffer[:offset]
            elif offset < size:
                buffer += data[offset:]

    def eof(self) -> None:
        """The stream ended: raise ``WireError`` if it ended inside a
        frame, which is truncation, not a clean close."""
        if self._header is not None:
            raise _truncation(len(self._buffer), self._header[1])
        if self._buffer:
            raise _truncation(len(self._buffer))


def write_frame(sink, message: Message) -> None:
    """Frame *message* onto *sink* (an :class:`asyncio.Transport`, or
    anything with a ``write`` method), counting one outbound frame."""
    frame = encode_frame(message)
    _FRAMES_OUT.count(len(frame))
    sink.write(frame)


# ----------------------------------------------------------------------
# Sessions: the one server connection and the one client connection
# ----------------------------------------------------------------------
class FrameSession(asyncio.Protocol):
    """One client connection of a :class:`FrameServer`.

    Frames are parsed as bytes arrive (:class:`FrameParser`) and each
    goes to the server's ``_handle``, in order.  A reply it returns is
    written at once; ``None`` writes nothing.  A coroutine (a control
    frame's work, such as a period close) runs while the session stops
    reading; its reply is written when it returns, and then the same
    parse resumes, so the frames of one connection are handled and
    answered in order.  A malformed frame, or an EOF inside a frame, is
    answered with ``E_MALFORMED`` and the connection is closed.  While
    the write buffer is over its high-water mark the session stops
    reading too, so a client that does not read its answers is not
    sent more.
    """

    def __init__(self, service: "FrameServer") -> None:
        self._service = service
        self._parser = FrameParser()
        self._transport: Optional[asyncio.Transport] = None
        #: The parse suspended behind a running control frame, and the
        #: task running it.
        self._frames: Optional[Iterator[Message]] = None
        self._task: Optional[asyncio.Task] = None
        self._write_paused = False
        #: :meth:`close` came while a control frame ran.
        self._closing = False
        self._lost = False
        #: Resolved once the connection is lost and no control frame runs.
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        listener = self._service._server
        if listener is not None and not listener.is_serving():
            transport.close()  # accepted while stop() was closing
            return
        self._service._sessions.add(self)

    def data_received(self, data: bytes) -> None:
        self._run(self._parser.feed(data))

    def _run(self, frames: Iterator[Message]) -> None:
        transport = self._transport
        handle = self._service._handle
        try:
            for message in frames:
                reply = handle(message)
                if reply is None:
                    continue
                if asyncio.iscoroutine(reply):
                    self._frames = frames
                    transport.pause_reading()
                    self._task = asyncio.ensure_future(self._control(reply))
                    return
                write_frame(transport, reply)
        except WireError as exc:
            self._reject(exc)

    async def _control(self, work) -> None:
        transport = self._transport
        try:
            reply = await work
        except BaseException:
            transport.close()
            raise
        finally:
            self._task = None
            self._settle()
        write_frame(transport, reply)
        frames, self._frames = self._frames, None
        if self._closing:
            transport.close()
        elif not transport.is_closing():
            self._run(frames)
            if self._task is None and not self._write_paused:
                transport.resume_reading()

    def eof_received(self) -> None:
        try:
            self._parser.eof()
        except WireError as exc:
            self._reject(exc)
        # Returning None closes the transport once replies are written.

    def _reject(self, exc: WireError) -> None:
        self._service._m_frames_rejected.inc()
        write_frame(self._transport, ErrorMsg(E_MALFORMED, str(exc)))
        self._transport.close()

    def pause_writing(self) -> None:
        self._write_paused = True
        if self._service._m_stalls is not None:
            self._service._m_stalls.inc()
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        if self._task is None:
            self._transport.resume_reading()

    def close(self) -> None:
        """Hang up, once the control frame running (if any) is answered."""
        if self._task is None:
            self._transport.close()
        else:
            self._closing = True

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._lost = True
        self._settle()

    def _settle(self) -> None:
        if self._lost and self._task is None and not self.closed.done():
            self._service._sessions.discard(self)
            self.closed.set_result(None)


class FrameServer:
    """A TCP listener that serves each connection as a
    :class:`FrameSession`.

    A subclass answers frames in ``_handle(message)``, which returns
    the reply, ``None`` for no reply, or a coroutine that returns the
    reply.  It counts the frames refused as malformed in the counter
    ``_m_frames_rejected`` and, when ``_m_stalls`` is a counter, each
    pause of reading for a full write buffer in it.
    """

    _m_stalls = None

    def __init__(self) -> None:
        self._server: Optional[asyncio.AbstractServer] = None
        self._sessions: Set[FrameSession] = set()
        self.port: Optional[int] = None

    async def _listen(self, host: str, port: int) -> None:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: FrameSession(self), host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, then close every open client connection and
        wait until each is gone.  A session first answers the control
        frame it is running; each client reads its answers, then EOF."""
        if self._server is not None:
            self._server.close()
            sessions = list(self._sessions)
            for session in sessions:
                session.close()
            await asyncio.gather(*(session.closed for session in sessions))
            await self._server.wait_closed()
            self._server = None

    @property
    def open_sessions(self) -> int:
        """Client connections currently open."""
        return len(self._sessions)


class FrameClient(asyncio.Protocol):
    """One pipelined request connection: requests go out back to back,
    and each reply resolves the oldest waiting request (the servers
    answer a connection's frames in order).

    Replies are parsed as bytes arrive and resolve their futures inside
    :meth:`data_received`.  The deadline is one timer per connection:
    the oldest waiting request must be answered within its *timeout* of
    its write or of the reply before it, whichever came later.  The
    timer, armed at an earlier deadline, re-arms itself to the current
    one when it fires early.  A fault (a malformed or unrequested frame,
    EOF, a reset, a missed deadline) fails every waiting request, and
    every later one, with the same exception and closes the
    connection; the caller reconnects.
    """

    def __init__(self, timeout: float) -> None:
        self._loop = asyncio.get_running_loop()
        self._timeout = timeout
        self._parser = FrameParser()
        self._transport: Optional[asyncio.Transport] = None
        #: ``(future, timeout)`` per request awaiting its reply, oldest
        #: first.
        self._waiters: Deque[Tuple[asyncio.Future, float]] = deque()
        self._fault: Optional[BaseException] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self._deadline = 0.0

    @classmethod
    async def open(cls, host: str, port: int, timeout: float) -> "FrameClient":
        """Connect, giving up after *timeout* seconds, which is then
        each request's default deadline."""
        loop = asyncio.get_running_loop()
        _, client = await asyncio.wait_for(
            loop.create_connection(lambda: cls(timeout), host, port), timeout
        )
        return client

    def send(self, message: Message) -> None:
        """Write *message*, a frame that gets no reply; raise the
        connection's fault if it has one."""
        if self._fault is not None:
            raise self._fault
        write_frame(self._transport, message)

    def submit(
        self, message: Message, timeout: Optional[float] = None
    ) -> "asyncio.Future[Message]":
        """Write *message* and return the future of the frame that
        answers it, which must come within *timeout* seconds (default:
        the connection's) once every earlier request is answered."""
        self.send(message)
        waiter = self._loop.create_future()
        timeout = self._timeout if timeout is None else timeout
        self._waiters.append((waiter, timeout))
        if len(self._waiters) == 1:
            self._arm(timeout)
        return waiter

    async def request(
        self, message: Message, timeout: Optional[float] = None
    ) -> Message:
        """Send *message* and return the frame that answers it."""
        return await self.submit(message, timeout)

    def _arm(self, timeout: float) -> None:
        self._deadline = deadline = self._loop.time() + timeout
        timer = self._timer
        if timer is None or deadline < timer.when():
            if timer is not None:
                timer.cancel()
            self._timer = self._loop.call_at(deadline, self._expire)

    def _expire(self) -> None:
        self._timer = None
        if not self._waiters:
            return  # idle: the next request arms a timer again
        if self._loop.time() < self._deadline:
            self._timer = self._loop.call_at(self._deadline, self._expire)
            return
        self._fail(asyncio.TimeoutError())

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        waiters = self._waiters
        try:
            for message in self._parser.feed(data):
                if not waiters:
                    raise WireError(f"unrequested frame {message!r}")
                waiter, _ = waiters.popleft()
                if not waiter.done():
                    waiter.set_result(message)
                if waiters:
                    self._arm(waiters[0][1])
        except WireError as exc:
            self._fail(exc)

    def eof_received(self) -> None:
        try:
            self._parser.eof()
        except WireError as exc:
            self._fail(exc)
        else:
            self._fail(asyncio.IncompleteReadError(b"", None))

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._fail(
            exc if exc is not None else asyncio.IncompleteReadError(b"", None)
        )

    def _fail(self, exc: BaseException) -> None:
        """End the connection with *exc*, raising it in every waiting
        request and every later one."""
        if self._fault is None:
            self._fault = exc
        waiters = self._waiters
        while waiters:
            waiter, _ = waiters.popleft()
            if not waiter.done():
                waiter.set_exception(exc)
                # The fault is the connection's, raised to whoever
                # awaits; a reply no caller awaits any more is not
                # reported again when it is collected.
                waiter.exception()
        self.close()

    def close(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._transport.close()
