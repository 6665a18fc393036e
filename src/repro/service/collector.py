"""The asyncio central collector: the offline decoding phase as a
service.

Gateways upload period snapshots at period close and the collector
turns them into measurement state on the existing
:class:`~repro.vcps.server.CentralServer`:

* an unsharded gateway's whole-report
  :class:`~repro.service.wire.Snapshot` goes through
  :meth:`~repro.vcps.server.CentralServer.receive_report` (history
  update, integrity check, decoder submission);
* a gateway shard's :class:`~repro.service.wire.ShardSnapshot` partial
  is OR-merged into one report per ``(rsu_id, period)`` — the
  state-based-CRDT join the paper's encoding admits for free: bits are
  word-wise ORed via the zero-copy
  :meth:`~repro.core.bitarray.BitArray.or_bytes` path, counters summed
  (shards count disjoint response partitions).  OR is commutative,
  associative and idempotent, so partials may arrive in any order,
  interleaved across shards, and duplicated;
  ``tests/test_federation_crdt.py`` proves those laws.

With a :class:`~repro.federation.wal.WriteAheadLog` attached, every
shard partial, window partial and size announcement is appended
*before* it is applied, so a collector killed at any point replays —
:meth:`CollectorService.recover` — to bit-identical merge state and
therefore a bit-identical period matrix.  Whole-report snapshots have
no WAL record type.

Analysts — or the load generator — then ask for point and
point-to-point volumes over the same socket protocol and get the
Eq. (5) MLE back, computed by exactly the code path the in-process
experiments use.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.core.bitarray import BitArray
from repro.core.reports import RsuReport
from repro.errors import (
    ConfigurationError,
    EstimationError,
    ReproError,
    ValidationError,
    WireError,
)
from repro.obs import MetricsRegistry
from repro.service import wire
from repro.utils.logconfig import get_logger
from repro.vcps.server import CentralServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.estimator import PairEstimate
    from repro.federation.wal import WriteAheadLog

__all__ = ["CollectorService", "merge_partial_reports"]

logger = get_logger("service.collector")


def merge_partial_reports(
    partials: Iterable[RsuReport],
) -> RsuReport:
    """OR-merge partial reports for one ``(rsu_id, period)``.

    The pure-function form of the collector's shard merge, so the CRDT
    property tests can exercise the join without sockets: bits are
    OR-folded in one ``or_reduce`` kernel call, counters summed.  All
    partials must agree on ``rsu_id``, ``period``, and array size; the
    inputs are not mutated.
    """
    partials = list(partials)
    if not partials:
        raise ValidationError("cannot merge zero partial reports")
    first = partials[0]
    for partial in partials[1:]:
        if (
            partial.rsu_id != first.rsu_id
            or partial.period != first.period
        ):
            raise ValidationError(
                f"cannot merge partials for rsu {partial.rsu_id} period "
                f"{partial.period} into rsu {first.rsu_id} period "
                f"{first.period}"
            )
    return RsuReport(
        rsu_id=first.rsu_id,
        counter=sum(partial.counter for partial in partials),
        bits=BitArray.or_reduce([partial.bits for partial in partials]),
        period=first.period,
    )


class _MergeState:
    """Accumulated join for one ``(rsu_id, period)``."""

    __slots__ = ("counter", "bits", "partials")

    def __init__(self, counter: int, bits: BitArray) -> None:
        self.counter = counter
        self.bits = bits
        self.partials = 1


class CollectorService(wire.FrameServer):
    """One measurement back end behind a TCP socket.

    Whole-report snapshot ingestion is idempotent: uploads are keyed by
    ``(rsu_id, period, seq)``.  A retransmission of an
    already-applied upload (same key) is acknowledged again without
    touching measurement state — safe because re-ORing identical
    snapshot bits changes nothing and the counter is only observed
    once — while an upload that would *replace* stored state for a
    ``(rsu_id, period)`` under a different seq is refused with
    ``E_DUPLICATE``.  That split is what makes gateway-side retries
    safe on a lossy link.

    Shard partials take the merge path, deduplicated on ``(shard_id,
    rsu_id, period, seq)`` — shard-scoped, because every shard numbers
    its uploads independently from 1.  The two paths are mutually
    exclusive per ``(rsu_id, period)``: once either has applied state
    for a key, the other is refused with ``E_DUPLICATE``, because
    mixing a whole-report overwrite into an ongoing OR-merge (or vice
    versa) would corrupt the estimate.  Merged reports are submitted
    straight to the decoder, *not* through
    :meth:`~repro.vcps.server.CentralServer.receive_report`: the
    history/anomaly layer compares a report's counter against expected
    volume, and a half-merged partial would trip it spuriously.

    Parameters
    ----------
    server:
        The :class:`~repro.vcps.server.CentralServer` that stores
        reports and answers queries.  Shared state: multiple
        connections feed and query the same server.
    registry:
        The :class:`~repro.obs.MetricsRegistry` this collector records
        into (``collector.*`` metrics); private by default.
    retention_periods:
        How many of the most recent measurement periods keep their
        dedup keys.  ``None`` (the default) retains everything — the
        historical behaviour — while ``N >= 1`` evicts the keys of any
        period more than ``N`` behind the newest period seen, bounding
        memory across a long-running multi-period deployment.  Beyond
        the window the duplicate/conflict protection for that period
        lapses: an (extremely) late retransmission would be re-applied
        rather than deduplicated, which is why the window is
        configurable rather than fixed.  The
        ``collector.dedup_keys_retained`` gauge tracks the live key
        count.
    wal:
        The write-ahead journal; every shard partial, window partial
        and size announcement is appended (and flushed) before it is
        applied.  ``None`` (the default) disables journaling — then a
        collector crash loses the period.
    """

    def __init__(
        self,
        server: CentralServer,
        *,
        registry: Optional[MetricsRegistry] = None,
        retention_periods: Optional[int] = None,
        wal: Optional["WriteAheadLog"] = None,
    ) -> None:
        super().__init__()
        self.server = server
        self.wal = wal
        if retention_periods is not None:
            retention_periods = int(retention_periods)
            if retention_periods < 1:
                raise ConfigurationError(
                    f"retention_periods must be >= 1, got {retention_periods}"
                )
        self.retention_periods = retention_periods
        self._max_period: Optional[int] = None
        #: (rsu_id, period) -> seq of the upload that was applied.
        self._applied: Dict[Tuple[int, int], int] = {}
        #: (rsu_id, period) -> accumulated OR-merge of shard partials.
        self._merged: Dict[Tuple[int, int], _MergeState] = {}
        #: (rsu_id, period, window) -> {(shard_id, seq)} of the
        #: partials already OR-merged; window is None for a shard
        #: partial.
        self._stamps: Dict[
            Tuple[int, int, Optional[int]], Set[Tuple[int, int]]
        ] = {}
        #: period -> the SizeAnnounce already published for it.  Plans
        #: are deterministic, but caching the frame keeps re-asks
        #: byte-identical and lets recovery seed announcements from the
        #: WAL without consulting the server.
        self._announced: Dict[int, wire.SizeAnnounce] = {}
        # Metrics (pre-created; see the gateway for the pattern).
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self._m_received = self.registry.counter(
            "collector.snapshots_received_total"
        )
        self._m_deduped = self.registry.counter(
            "collector.snapshots_deduped_total"
        )
        self._m_conflicted = self.registry.counter(
            "collector.snapshots_conflicted_total"
        )
        self._m_windows_received = self.registry.counter(
            "collector.window_partials_received_total"
        )
        self._m_windows_deduped = self.registry.counter(
            "collector.window_partials_deduped_total"
        )
        self._m_answered = self.registry.counter(
            "collector.queries_answered_total"
        )
        self._m_sizes_announced = self.registry.counter(
            "collector.sizes_announced_total"
        )
        self._m_frames_rejected = self.registry.counter(
            "collector.frames_rejected_total"
        )
        self._m_query_seconds = self.registry.histogram(
            "collector.query_seconds"
        )
        self._m_retained = self.registry.gauge(
            "collector.dedup_keys_retained"
        )
        self._m_evicted = self.registry.counter(
            "collector.dedup_keys_evicted_total"
        )

    # ------------------------------------------------------------------
    # Stats (registry-backed integer views, kept for compatibility)
    # ------------------------------------------------------------------
    @property
    def snapshots_received(self) -> int:
        """Snapshots applied to measurement state."""
        return int(self._m_received.value)

    @property
    def snapshots_deduped(self) -> int:
        """Retransmitted uploads acknowledged without re-applying."""
        return int(self._m_deduped.value)

    @property
    def snapshots_conflicted(self) -> int:
        """Uploads refused because a different seq already applied."""
        return int(self._m_conflicted.value)

    @property
    def window_partials_received(self) -> int:
        """Window-tagged partials OR-merged into the streaming tier."""
        return int(self._m_windows_received.value)

    @property
    def window_partials_deduped(self) -> int:
        """Retransmitted window partials acknowledged without merging."""
        return int(self._m_windows_deduped.value)

    @property
    def queries_answered(self) -> int:
        """Point and point-to-point queries answered successfully."""
        return int(self._m_answered.value)

    @property
    def frames_rejected(self) -> int:
        """Frames nacked as malformed or unhandleable."""
        return int(self._m_frames_rejected.value)

    @property
    def dedup_keys_retained(self) -> int:
        """Dedup keys currently held (bounded by the retention window)."""
        return int(self._m_retained.value)

    @property
    def snapshots_merged(self) -> int:
        """Shard partials merged into measurement state (all shards)."""
        return sum(state.partials for state in self._merged.values())

    @property
    def wal_records_replayed(self) -> int:
        """Journal records re-applied by :meth:`recover`."""
        return int(self.registry.counter("federation.wal_replayed_total").value)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        await self._listen(host, port)
        logger.info("collector listening on %s:%s", host, self.port)

    # ------------------------------------------------------------------
    # Message handling (synchronous — decoding is pure CPU)
    # ------------------------------------------------------------------
    def _handle(
        self, message: wire.Message
    ) -> Union[wire.Message, "PairEstimate"]:
        if isinstance(message, (wire.ShardSnapshot, wire.WindowSnapshot)):
            return self._handle_partial(message)
        if isinstance(message, wire.Snapshot):
            return self._handle_snapshot(message)
        if isinstance(message, wire.SizeQuery):
            return self._handle_size_query(message)
        if isinstance(message, (wire.VolumeQuery, wire.PointQuery)):
            start = self.registry.clock()
            if isinstance(message, wire.VolumeQuery):
                reply = self._handle_query(message)
            else:
                reply = self._handle_point_query(message)
            self._m_query_seconds.observe(self.registry.clock() - start)
            return reply
        self._m_frames_rejected.inc()
        return wire.ErrorMsg(
            wire.E_MALFORMED,
            f"collector cannot handle {type(message).__name__}",
        )

    def _handle_snapshot(self, snapshot: wire.Snapshot) -> wire.Message:
        key = (snapshot.rsu_id, snapshot.period)
        if key in self._merged:
            self._m_conflicted.inc()
            return wire.ErrorMsg(
                wire.E_DUPLICATE,
                f"rsu {snapshot.rsu_id} period {snapshot.period} is "
                "being shard-merged; refusing a whole-report snapshot",
            )
        applied_seq = self._applied.get(key)
        if applied_seq is not None:
            if applied_seq == snapshot.seq:
                # Retransmission of the upload we already applied:
                # idempotent, ack again, leave state untouched.
                self._m_deduped.inc()
                logger.debug(
                    "dedup: rsu=%s period=%s seq=%s",
                    snapshot.rsu_id,
                    snapshot.period,
                    snapshot.seq,
                )
                return wire.SnapshotAck(
                    rsu_id=snapshot.rsu_id,
                    period=snapshot.period,
                    seq=applied_seq,
                )
            # A *different* upload for a key we already decoded from:
            # refusing is the only answer that keeps estimates stable.
            self._m_conflicted.inc()
            return wire.ErrorMsg(
                wire.E_DUPLICATE,
                f"snapshot for rsu {snapshot.rsu_id} period "
                f"{snapshot.period} already applied from upload seq "
                f"{applied_seq}; refusing to overwrite with seq "
                f"{snapshot.seq}",
            )
        try:
            report = snapshot.to_report()
            self.server.receive_report(report)
        except ReproError as exc:
            self._m_frames_rejected.inc()
            return wire.ErrorMsg(wire.E_MALFORMED, str(exc))
        self._applied[key] = snapshot.seq
        self._m_received.inc()
        self._observe_period(snapshot.period)
        return wire.SnapshotAck(
            rsu_id=snapshot.rsu_id, period=snapshot.period, seq=snapshot.seq
        )

    def _handle_partial(
        self,
        partial: Union[wire.ShardSnapshot, wire.WindowSnapshot],
        *,
        journal: bool = True,
    ) -> wire.Message:
        """OR-merge one shard or window partial; *journal* is False on
        WAL replay.

        Many partials legitimately target one ``(rsu_id, period,
        window)`` — one per shard, more after a handoff — so dedup is
        per ``(shard_id, seq)`` within that key (``window`` is None for
        a shard partial) and a fresh stamp is always merged.  The
        partial is deduplicated, size-checked, journaled, applied and
        acknowledged, in that order: a refused partial is never
        journaled.
        """
        window = getattr(partial, "window", None)
        key = (partial.rsu_id, partial.period)
        if window is None and key in self._applied:
            # A whole-report Snapshot already owns this key.
            self._m_conflicted.inc()
            return wire.ErrorMsg(
                wire.E_DUPLICATE,
                f"rsu {partial.rsu_id} period {partial.period} already "
                "applied as a whole-report snapshot; refusing a shard "
                "partial",
            )
        stamps = self._stamps.setdefault((*key, window), set())
        stamp = (partial.shard_id, partial.seq)
        ack = wire.SnapshotAck(
            rsu_id=partial.rsu_id, period=partial.period, seq=partial.seq
        )
        if stamp in stamps:
            # Retransmission of a merged partial: ack again without
            # re-adding the counter (OR-ing the bits again would be
            # harmless; re-summing the counter would not).
            (self._m_deduped if window is None else self._m_windows_deduped).inc()
            return ack
        try:
            self._check_partial_size(partial, window)
        except ReproError as exc:
            self._m_frames_rejected.inc()
            return wire.ErrorMsg(wire.E_MALFORMED, str(exc))
        if journal and self.wal is not None:
            # Write-ahead: on disk before the merge, long before the
            # ack.  A crash after this point replays the record; the
            # unacked gateway retransmits and dedups against it.
            self.wal.append(partial)
        try:
            self._apply_partial(partial, window)
        except ReproError as exc:
            self._m_frames_rejected.inc()
            return wire.ErrorMsg(wire.E_MALFORMED, str(exc))
        stamps.add(stamp)
        self._observe_period(partial.period)
        return ack

    def _check_partial_size(
        self,
        partial: Union[wire.ShardSnapshot, wire.WindowSnapshot],
        window: Optional[int],
    ) -> None:
        """Raise :class:`~repro.errors.ReproError` if *partial* cannot
        merge into the state it targets; changes no state."""
        if window is not None:
            self.server.streaming.check_partial(
                partial.rsu_id,
                partial.array_size,
                period=partial.period,
                window=window,
            )
            return
        state = self._merged.get((partial.rsu_id, partial.period))
        if state is not None and state.bits.size != partial.array_size:
            raise ValidationError(
                f"shard {partial.shard_id} uploaded a "
                f"{partial.array_size}-bit partial for rsu "
                f"{partial.rsu_id} period {partial.period}, but "
                f"{state.bits.size} bits are already merged"
            )

    def _apply_partial(
        self,
        partial: Union[wire.ShardSnapshot, wire.WindowSnapshot],
        window: Optional[int],
    ) -> None:
        """OR a window partial into the streaming tier, or a shard
        partial into its ``(rsu_id, period)`` merge."""
        if window is not None:
            self.server.receive_window_partial(
                partial.rsu_id,
                partial.packed_bits,
                partial.array_size,
                partial.counter,
                period=partial.period,
                window=window,
            )
            self._m_windows_received.inc()
            return
        key = (partial.rsu_id, partial.period)
        state = self._merged.get(key)
        if state is None:
            bits = BitArray.from_bytes(partial.packed_bits, partial.array_size)
            state = _MergeState(partial.counter, bits)
            self._merged[key] = state
        else:
            state.bits.or_bytes(partial.packed_bits)
            state.counter += partial.counter
            state.partials += 1
        # Re-submit the merged report; submit() is latest-wins.  The
        # streaming tier absorbs the same merged report (OR on bits,
        # sealed counter latest-wins), so the adaptive controller's
        # observed per-period volumes stay correct behind shards too.
        merged = RsuReport(
            rsu_id=partial.rsu_id,
            counter=state.counter,
            bits=state.bits,
            period=partial.period,
        )
        self.server.decoder.submit(merged)
        self.server.streaming.observe_report(merged)
        self._m_received.inc()
        self.registry.counter(
            "federation.snapshots_merged_total", shard=partial.shard_id
        ).inc()
        self.registry.gauge("federation.merge_keys").set(len(self._merged))

    def _handle_size_query(self, query: wire.SizeQuery) -> wire.Message:
        """Answer one :class:`~repro.service.wire.SizeQuery` with the
        period's canonical :class:`~repro.service.wire.SizeAnnounce`.

        The first ask computes the plan
        (:meth:`~repro.vcps.server.CentralServer.plan_sizes`) and
        journals the announcement (record type ``REC_SIZES``) *before*
        publishing it — write-ahead, so a collector that crashes after
        answering re-announces identical sizes after recovery.  Every
        later ask (retry, second gateway, the loadgen verifier) gets
        the cached frame back byte for byte.
        """
        period = int(query.period)
        cached = self._announced.get(period)
        if cached is None:
            try:
                sizes = self.server.plan_sizes(period)
                cached = wire.SizeAnnounce.from_sizes(period, sizes)
            except (ReproError, WireError) as exc:
                self._m_frames_rejected.inc()
                return wire.ErrorMsg(wire.E_ESTIMATION, str(exc))
            if self.wal is not None:
                self.wal.append(cached)
            self._announced[period] = cached
        self._m_sizes_announced.inc()
        return cached

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self, path: Optional[Union[str, Path]] = None) -> int:
        """Replay a write-ahead log into this collector's state.

        Reads *path* (default: this collector's own ``wal.path``) and
        re-applies every intact record through the live paths —
        without re-journaling — so the rebuilt state is bit-identical
        to what the crashed collector held, including the dedup sets
        that make post-recovery gateway retransmissions exactly-once.
        Records the count in ``federation.wal_replayed_total`` and
        returns the number of records applied (duplicates in the log
        dedup against themselves and are not double-counted).
        """
        from repro.federation.wal import replay_wal

        if path is None:
            if self.wal is None:
                raise ValidationError(
                    "recover() needs a path when no WAL is attached"
                )
            path = self.wal.path
        m_replayed = self.registry.counter("federation.wal_replayed_total")
        applied = 0
        for record in replay_wal(path, registry=self.registry):
            m_replayed.inc()
            if isinstance(record, wire.SizeAnnounce):
                # Re-install the journaled plan as published.
                self.server.adopt_size_plan(record.period, record.to_sizes())
                self._announced[int(record.period)] = record
                applied += 1
                continue
            reply = self._handle_partial(record, journal=False)
            if isinstance(reply, wire.SnapshotAck):
                applied += 1
            else:  # pragma: no cover - requires a semantically bad log
                logger.warning(
                    "wal %s: replayed record refused: %r", path, reply
                )
        logger.info("wal %s: replayed %d records", path, applied)
        return applied

    # ------------------------------------------------------------------
    # Dedup-state retention
    # ------------------------------------------------------------------
    def _observe_period(self, period: int) -> None:
        """Advance the newest-period watermark and apply retention."""
        if self._max_period is None or period > self._max_period:
            self._max_period = period
            if self.retention_periods is not None:
                evicted = self._evict_before(
                    self._max_period - self.retention_periods
                )
                if evicted:
                    self._m_evicted.inc(evicted)
                    logger.debug(
                        "retention: evicted %d dedup keys for periods <= %d",
                        evicted,
                        self._max_period - self.retention_periods,
                    )
        self._m_retained.set(self._dedup_keys())

    def _evict_before(self, horizon: int) -> int:
        """Drop dedup keys for periods ``<= horizon``; returns the
        number evicted."""
        stale = [key for key in self._applied if key[1] <= horizon]
        for key in stale:
            del self._applied[key]
        evicted = len(stale)
        for key in [key for key in self._stamps if key[1] <= horizon]:
            evicted += len(self._stamps.pop(key))
        return evicted

    def _dedup_keys(self) -> int:
        """Current dedup key count (feeds the retained-keys gauge)."""
        return len(self._applied) + sum(map(len, self._stamps.values()))

    def _handle_query(
        self, query: wire.VolumeQuery
    ) -> Union[wire.Message, "PairEstimate"]:
        try:
            estimate = self.server.point_to_point(
                query.rsu_x, query.rsu_y, query.period
            )
        except EstimationError as exc:
            return wire.ErrorMsg(wire.E_ESTIMATION, str(exc))
        except ReproError as exc:  # pragma: no cover - defensive
            return wire.ErrorMsg(wire.E_INTERNAL, str(exc))
        self._m_answered.inc()
        # Framed as an EstimateMsg as it is (wire.encode_frame).
        return estimate

    def _handle_point_query(self, query: wire.PointQuery) -> wire.Message:
        try:
            counter = self.server.point_volume(query.rsu_id, query.period)
        except EstimationError as exc:
            return wire.ErrorMsg(wire.E_ESTIMATION, str(exc))
        self._m_answered.inc()
        return wire.PointVolume(
            rsu_id=query.rsu_id, period=query.period, counter=counter
        )
