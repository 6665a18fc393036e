"""The asyncio RSU gateway: the online coding phase as a service.

Vehicles (or the load generator standing in for them) stream
:class:`~repro.service.wire.ResponseMsg` /
:class:`~repro.service.wire.ResponseBatch` frames over TCP.  Each
connection is a :class:`~repro.service.wire.FrameSession`: a frame is
decoded as its bytes arrive and ORed straight into its
:class:`~repro.vcps.rsu.RoadsideUnit` with one vectorized
:meth:`~repro.vcps.rsu.RoadsideUnit.handle_wire_batch` call — one
bounds/MAC check, one counter bump, one scatter per frame — and then
acknowledged.

Backpressure is the transport's: while a session's write buffer is
over its high-water mark the session stops reading the socket, so TCP
flow control pushes back on a sender that does not read its acks.

On :class:`~repro.service.wire.EndPeriod` the session stops reading
while the gateway closes the period at every RSU and uploads the
snapshots to the collector pipelined on one connection, with bounded
retries and per-attempt timeouts; it acknowledges and then reads on.

One class serves both deployments.  An unsharded gateway
(``shard_id=None``) fronts the whole fleet and uploads whole-report
:class:`~repro.service.wire.Snapshot` frames.  A gateway shard
(``shard_id=i``) fronts its partition of the fleet, uploads
:class:`~repro.service.wire.ShardSnapshot` partials for the collector
to OR-merge, and accepts mid-period
:class:`~repro.service.wire.Handoff` frames: it provisions a fresh
zeroed RSU so it can record the rest of a rebalanced RSU's responses
while the source shard keeps its partial array.

Every stage records into the gateway's own
:class:`~repro.obs.MetricsRegistry` (``gateway.*`` metrics, plus
``federation.handoffs_*`` on a shard; see ``docs/observability.md``);
the historical stat attributes (``responses_received`` etc.) remain as
registry-backed integer properties.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Set

import numpy as np

from repro.errors import ReproError, RetryExhaustedError, WireError
from repro.obs import MetricsRegistry
from repro.service import wire
from repro.service.retry import RetryPolicy, retry_async
from repro.utils.logconfig import get_logger
from repro.vcps.rsu import RoadsideUnit

__all__ = ["RsuGateway"]

logger = get_logger("service.gateway")

#: Failures during a snapshot upload worth another attempt.
_UPLOAD_RETRY_ON = (
    OSError,
    WireError,
    asyncio.TimeoutError,
    asyncio.IncompleteReadError,
)


class RsuGateway(wire.FrameServer):
    """A fleet of RSUs behind one ingestion socket.

    Parameters
    ----------
    rsus:
        ``rsu_id -> RoadsideUnit`` — the measurement state this gateway
        fronts.
    collector_host, collector_port:
        Where period snapshots are uploaded.
    upload_timeout:
        Per-attempt timeout for a snapshot upload (connect, send, ack).
    upload_retries:
        Upload attempts per snapshot before giving up (used to build
        the default *retry_policy*).
    retry_policy:
        Full backoff schedule for uploads; overrides *upload_retries*.
    retry_seed:
        Seed for backoff jitter, so fault tests are reproducible.
    windows:
        When ``> 0``, every RSU also accumulates a sub-period window
        bit array (see :meth:`~repro.vcps.rsu.RoadsideUnit.track_windows`)
        and the gateway serves :class:`~repro.service.wire.EndWindow`
        frames by uploading window-tagged
        :class:`~repro.service.wire.WindowSnapshot` partials to the
        collector.  ``0`` (the default) disables the streaming tier.
    registry:
        The :class:`~repro.obs.MetricsRegistry` this gateway records
        into; a fresh private registry by default so concurrent
        gateways (and tests) never share counters.
    shard_id:
        ``None`` (the default) for an unsharded gateway; otherwise this
        shard's id, stamped into every uploaded
        :class:`~repro.service.wire.ShardSnapshot` so the collector
        can scope upload-seq dedup per shard.
    provisioner:
        A shard's fleet builder,
        :meth:`~repro.service.runtime.DeploymentSpec.build_rsus`: called
        with ``[rsu_id]`` when a :class:`~repro.service.wire.Handoff`
        names an RSU this shard does not own yet.  Without one, such
        handoffs are refused with ``E_UNKNOWN_RSU``.
    """

    def __init__(
        self,
        rsus: Dict[int, RoadsideUnit],
        *,
        shard_id: Optional[int] = None,
        provisioner: Optional[
            Callable[[Iterable[int]], Dict[int, RoadsideUnit]]
        ] = None,
        collector_host: str = "127.0.0.1",
        collector_port: int = 8702,
        upload_timeout: float = 5.0,
        upload_retries: int = 3,
        retry_policy: Optional[RetryPolicy] = None,
        retry_seed: int = 0,
        windows: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__()
        self.rsus = dict(rsus)
        self.shard_id = None if shard_id is None else int(shard_id)
        self._provisioner = provisioner
        self.windows = int(windows)
        if self.windows > 0:
            for rsu in self.rsus.values():
                rsu.track_windows()
        self.collector_host = collector_host
        self.collector_port = collector_port
        self.upload_timeout = float(upload_timeout)
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=max(int(upload_retries), 1))
        )
        self._retry_rng = random.Random(retry_seed)
        # Sequenced-delivery state.  Seqs of applied batches (bounded
        # by one day's frame count; senders restart seqs per run).
        self._seen_seqs: Set[int] = set()
        # RSUs whose radio is currently down (see set_outage): frames
        # for them are dropped at admission.
        self._outages: Set[int] = set()
        # period -> rsu_id -> the exact Snapshot frame (with its upload
        # seq) produced when the period was first closed; re-closing an
        # already-closed period re-uploads from here instead of calling
        # end_period() again, which makes EndPeriod idempotent.
        self._period_uploads: Dict[int, Dict[int, wire.Snapshot]] = {}
        self._period_acked: Dict[int, Set[int]] = {}
        self._next_upload_seq = 1
        # Created lazily inside the running loop (py3.9 binds locks to
        # the loop current at construction time).
        self._close_lock: Optional[asyncio.Lock] = None
        # Metrics.  Instruments are pre-created so the hot paths pay
        # one attribute access, not a registry lookup, per event.
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self._m_received = self.registry.counter(
            "gateway.responses_received_total"
        )
        self._m_recorded = self.registry.counter(
            "gateway.responses_recorded_total"
        )
        self._m_rejected = self.registry.counter(
            "gateway.responses_rejected_total"
        )
        self._m_frames_rejected = self.registry.counter(
            "gateway.frames_rejected_total"
        )
        self._m_deduped = self.registry.counter(
            "gateway.batches_deduped_total"
        )
        self._m_uploaded = self.registry.counter(
            "gateway.snapshots_uploaded_total"
        )
        self._m_upload_failed = self.registry.counter(
            "gateway.snapshots_failed_total"
        )
        self._m_retried = self.registry.counter(
            "gateway.uploads_retried_total"
        )
        self._m_reclosed = self.registry.counter(
            "gateway.periods_reclosed_total"
        )
        self._m_windows_closed = self.registry.counter(
            "gateway.windows_closed_total"
        )
        self._m_resizes = self.registry.counter(
            "gateway.resizes_applied_total"
        )
        self._m_window_uploads = self.registry.counter(
            "gateway.window_partials_uploaded_total"
        )
        self._m_stalls = self.registry.counter(
            "gateway.backpressure_stalls_total"
        )
        self._m_outage_dropped = self.registry.counter(
            "gateway.outage_dropped_total"
        )
        self._m_flush_seconds = self.registry.histogram(
            "gateway.ingest_flush_seconds"
        )
        self._m_close_seconds = self.registry.histogram(
            "gateway.period_close_seconds"
        )
        if self.shard_id is not None:
            self._m_handoffs = self.registry.counter(
                "federation.handoffs_accepted_total"
            )
            self._m_handoffs_refused = self.registry.counter(
                "federation.handoffs_refused_total"
            )

    # ------------------------------------------------------------------
    # Stats (registry-backed; the attribute names predate the registry
    # and the chaos suite asserts on them as exact integers)
    # ------------------------------------------------------------------
    @property
    def responses_received(self) -> int:
        """Responses accepted off the wire (pre-validation)."""
        return int(self._m_received.value)

    @property
    def responses_recorded(self) -> int:
        """Responses that passed RSU validation and set a bit."""
        return int(self._m_recorded.value)

    @property
    def responses_rejected(self) -> int:
        """Responses an RSU refused (bad MAC or out-of-range index)."""
        return int(self._m_rejected.value)

    @property
    def frames_rejected(self) -> int:
        """Frames nacked outright (malformed or unknown RSU)."""
        return int(self._m_frames_rejected.value)

    @property
    def batches_deduped(self) -> int:
        """Sequenced batches dropped as already-applied duplicates."""
        return int(self._m_deduped.value)

    @property
    def snapshots_uploaded(self) -> int:
        """Snapshots the collector acknowledged."""
        return int(self._m_uploaded.value)

    @property
    def snapshots_failed(self) -> int:
        """Snapshots abandoned after the retry policy gave up."""
        return int(self._m_upload_failed.value)

    @property
    def uploads_retried(self) -> int:
        """Individual upload attempts that failed and were retried."""
        return int(self._m_retried.value)

    @property
    def periods_reclosed(self) -> int:
        """EndPeriod frames for a period that was already closed."""
        return int(self._m_reclosed.value)

    @property
    def windows_closed(self) -> int:
        """EndWindow frames served (window partials shipped)."""
        return int(self._m_windows_closed.value)

    @property
    def window_partials_uploaded(self) -> int:
        """WindowSnapshot frames the collector acknowledged."""
        return int(self._m_window_uploads.value)

    @property
    def resizes_applied(self) -> int:
        """RSUs re-sized by accepted SizeAnnounce frames."""
        return int(self._m_resizes.value)

    @property
    def backpressure_stalls(self) -> int:
        """Times a session stopped reading for a full write buffer."""
        return int(self._m_stalls.value)

    @property
    def outage_dropped(self) -> int:
        """Responses dropped because their RSU's radio was down."""
        return int(self._m_outage_dropped.value)

    @property
    def handoffs_accepted(self) -> int:
        """Mid-period rebalances this shard took ownership for."""
        if self.shard_id is None:
            return 0
        return int(self._m_handoffs.value)

    # ------------------------------------------------------------------
    # Scheduled RSU outages (the chaos drill's switch; docs/scenarios.md)
    # ------------------------------------------------------------------
    def set_outage(self, rsu_ids) -> None:
        """Silence the given RSUs: until :meth:`clear_outage`, frames
        addressed to them are dropped at admission (counted in
        ``gateway.outage_dropped_total``), as if the roadside radio
        went dark mid-period.

        The TCP plane stays up — sequenced frames are still acked so a
        well-behaved sender does not retry into the hole — only the
        measurement state goes unfed.  Unknown ids are ignored (a shard
        gateway owns just its partition of the fleet).
        """
        self._outages.update(int(rsu_id) for rsu_id in rsu_ids)

    def clear_outage(self) -> None:
        """Bring every silenced RSU back: they resume recording from the
        next frame."""
        self._outages.clear()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind the ingestion socket."""
        await self._listen(host, port)
        logger.info("gateway listening on %s:%s", host, self.port)

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def _handle(self, message: wire.Message):
        """Answer one frame of a session: a reply, ``None`` for an
        unsequenced response, or the coroutine of a control frame."""
        if isinstance(message, wire.ResponseBatch):
            return self._ingest(
                message.rsu_id, message.macs, message.bit_indices, message.seq
            )
        if isinstance(message, wire.ResponseMsg):
            return self._ingest(
                message.rsu_id,
                np.array([message.mac], dtype=np.uint64),
                np.array([message.bit_index], dtype=np.int64),
            )
        if isinstance(message, wire.EndPeriod):
            return self._answer(
                self.close_period(message.period),
                lambda uploaded: wire.EndPeriodAck(
                    period=message.period, snapshots=uploaded
                ),
            )
        if isinstance(message, wire.EndWindow) and self.windows > 0:
            return self._answer(
                self.close_window(message.period, message.window),
                lambda uploaded: wire.EndWindowAck(
                    period=message.period,
                    window=message.window,
                    partials=uploaded,
                ),
            )
        if isinstance(message, wire.SizeAnnounce):
            return self._answer(
                self.apply_size_announce(message),
                lambda applied: wire.SizeAnnounceAck(
                    period=message.period, applied=applied
                ),
            )
        if isinstance(message, wire.Handoff) and self.shard_id is not None:
            return self._handle_handoff(message)
        self._m_frames_rejected.inc()
        return wire.ErrorMsg(
            wire.E_MALFORMED,
            f"gateway cannot handle {type(message).__name__}",
        )

    async def _answer(self, work, ack: Callable[[int], wire.Message]):
        """The ack of a control frame's *work*, or ``E_INTERNAL`` if it
        failed."""
        try:
            return ack(await work)
        except ReproError as exc:
            self._m_frames_rejected.inc()
            return wire.ErrorMsg(wire.E_INTERNAL, str(exc))

    def _handle_handoff(self, message: wire.Handoff) -> wire.Message:
        """Take ownership of a rebalanced RSU (shards only; an
        unsharded gateway nacks ``Handoff`` like any frame it cannot
        handle)."""
        if message.to_shard != self.shard_id:
            self._m_handoffs_refused.inc()
            return wire.ErrorMsg(
                wire.E_MALFORMED,
                f"handoff of rsu {message.rsu_id} addresses shard "
                f"{message.to_shard}, but this is shard {self.shard_id}",
            )
        if message.rsu_id not in self.rsus:
            if self._provisioner is None:
                self._m_handoffs_refused.inc()
                return wire.ErrorMsg(
                    wire.E_UNKNOWN_RSU,
                    f"shard {self.shard_id} cannot provision rsu "
                    f"{message.rsu_id} (no provisioner)",
                )
            provisioned = self._provisioner([message.rsu_id])[message.rsu_id]
            if self.windows > 0:
                # A rebalanced-in RSU joins the streaming tier too, so
                # its window partials keep flowing mid-period.
                provisioned.track_windows()
            self.rsus[message.rsu_id] = provisioned
            self._m_handoffs.inc()
            logger.info(
                "shard %d accepted rsu %d from shard %d (period %d)",
                self.shard_id,
                message.rsu_id,
                message.from_shard,
                message.period,
            )
        # Otherwise a handoff retransmission (or a no-op rebalance):
        # the RSU is already provisioned, so ack without zeroing state.
        return wire.HandoffAck(
            rsu_id=message.rsu_id,
            to_shard=self.shard_id,
            period=message.period,
        )

    def _ingest(
        self,
        rsu_id: int,
        macs: np.ndarray,
        indices: np.ndarray,
        seq: int = 0,
    ) -> Optional[wire.Message]:
        """Record one frame's responses in its RSU; returns the ack of
        a sequenced frame, an error frame, or ``None``."""
        if rsu_id not in self.rsus:
            self._m_frames_rejected.inc()
            return wire.ErrorMsg(wire.E_UNKNOWN_RSU, f"unknown RSU {rsu_id}")
        if rsu_id in self._outages:
            # Scheduled outage: the radio is down, so the responses
            # never reach the measurement state.  The transport is
            # still alive, so sequenced frames are acked (and their
            # seqs burned) — the sender must not resend into the hole.
            self._m_outage_dropped.inc(int(macs.size))
            if seq:
                self._seen_seqs.add(seq)
                return wire.BatchAck(seq=seq, duplicate=False)
            return None
        if seq:
            # Sequenced delivery: a batch the sender may retransmit
            # after a fault.  Apply exactly once, ack every time.
            if seq in self._seen_seqs:
                self._m_deduped.inc()
                return wire.BatchAck(seq=seq, duplicate=True)
            self._seen_seqs.add(seq)
        self._m_received.inc(int(macs.size))
        start = self.registry.clock()
        # The frame's zero-copy big-endian views, straight to the RSU.
        recorded = self.rsus[rsu_id].handle_wire_batch(macs, indices)
        self._m_recorded.inc(recorded)
        self._m_rejected.inc(int(indices.size) - recorded)
        self._m_flush_seconds.observe(self.registry.clock() - start)
        return wire.BatchAck(seq=seq, duplicate=False) if seq else None

    # ------------------------------------------------------------------
    # Period close and snapshot upload
    # ------------------------------------------------------------------
    async def close_period(self, period: int) -> int:
        """Flush, snapshot every RSU, upload everything; returns the
        number of snapshots the collector has acknowledged.

        Idempotent: the first close of a period closes every RSU and
        caches the resulting snapshots (each
        stamped with a stable upload seq).  A re-close — e.g. a sender
        retrying ``EndPeriod`` after a lost ack — re-uploads only the
        snapshots the collector has not yet acknowledged, never calling
        :meth:`~repro.vcps.rsu.RoadsideUnit.end_period` a second time.
        """
        if self._close_lock is None:
            self._close_lock = asyncio.Lock()
        async with self._close_lock:
            close_start = self.registry.clock()
            if period in self._period_uploads:
                self._m_reclosed.inc()
                logger.info("period %s re-closed; resuming uploads", period)
            else:
                snapshots: Dict[int, wire.Snapshot] = {}
                for rsu in self.rsus.values():
                    report = rsu.end_period()
                    if self.shard_id is None:
                        snapshot = wire.Snapshot.from_report(
                            report, seq=self._next_upload_seq
                        )
                    else:
                        snapshot = wire.ShardSnapshot.from_report(
                            report,
                            shard_id=self.shard_id,
                            seq=self._next_upload_seq,
                        )
                    snapshots[report.rsu_id] = snapshot
                    self._next_upload_seq += 1
                self._period_uploads[period] = snapshots
                self._period_acked[period] = set()
                # Batch seqs are scoped to one period's stream: the next
                # day's replay numbers its batches from 1 again, so the
                # dedup window must reset when the period closes.  Any
                # straggler resend for the closed period was already
                # acked (senders only close after every batch acks).
                self._seen_seqs.clear()
            acked = self._period_acked[period]
            todo = [
                snap
                for rsu_id, snap in sorted(
                    self._period_uploads[period].items()
                )
                if rsu_id not in acked
            ]
            await self._upload_snapshots(period, todo)
            uploaded = len(acked)
        self._m_close_seconds.observe(self.registry.clock() - close_start)
        logger.info(
            "period %s closed: %d/%d snapshots uploaded",
            period,
            uploaded,
            len(self._period_uploads[period]),
        )
        return uploaded

    # ------------------------------------------------------------------
    # Sub-period window close (streaming tier)
    # ------------------------------------------------------------------
    async def close_window(self, period: int, window: int) -> int:
        """Close the current window at every RSU and upload the
        window-tagged partials; returns how many the collector acked.

        Window partials are an overlay on the authoritative period
        snapshots: :meth:`close_period` is untouched by this path.  A
        retransmitted ``EndWindow`` after a completed close re-ships
        empty partials (the accumulators were already reset), which the
        collector's OR-merge absorbs harmlessly.
        """
        if self.windows <= 0:
            raise WireError(
                "gateway was not started with windows enabled"
            )
        if self._close_lock is None:
            self._close_lock = asyncio.Lock()
        async with self._close_lock:
            partials: List[wire.WindowSnapshot] = []
            for rsu in sorted(self.rsus.values(), key=lambda r: r.rsu_id):
                report = rsu.close_window()
                partials.append(
                    wire.WindowSnapshot.from_report(
                        report,
                        window=int(window),
                        shard_id=self.shard_id or 0,
                        seq=self._next_upload_seq,
                    )
                )
                self._next_upload_seq += 1
            acked: Set[int] = set()
            await self._upload_snapshots(
                int(period), partials, acked=acked, window=True
            )
            self._m_windows_closed.inc()
        logger.info(
            "window %s/%s closed: %d/%d partials uploaded",
            period,
            window,
            len(acked),
            len(partials),
        )
        return len(acked)

    # ------------------------------------------------------------------
    # Adaptive re-sizing (docs/adaptive.md)
    # ------------------------------------------------------------------
    async def apply_size_announce(self, announce: wire.SizeAnnounce) -> int:
        """Adopt a :class:`~repro.service.wire.SizeAnnounce` for the
        fleet; returns how many RSUs actually changed size.

        Announced ids this gateway does not own are skipped — a shard
        gateway only holds its partition of the fleet, while the
        announcement always covers all of it.  Senders announce
        strictly between an ``EndPeriodAck`` and the next period's
        traffic, and a session reads no frame behind the announcement
        until it is acked, so no response for the *old* size lands in
        a re-sized array.  Idempotent: re-announcing the same plan
        changes nothing and acks ``applied=0``.
        """
        if self._close_lock is None:
            self._close_lock = asyncio.Lock()
        async with self._close_lock:
            applied = 0
            for rsu_id, size in announce.to_sizes().items():
                rsu = self.rsus.get(int(rsu_id))
                if rsu is None:
                    continue
                if rsu.resize(int(size)):
                    applied += 1
            if applied:
                self._m_resizes.inc(applied)
        logger.info(
            "size announce period=%s: %d/%d resizes applied",
            announce.period,
            applied,
            len(announce),
        )
        return applied

    async def _upload_snapshots(
        self,
        period: int,
        snapshots: List[wire.Snapshot],
        *,
        acked: Optional[Set[int]] = None,
        window: bool = False,
    ) -> None:
        """Upload *snapshots* pipelined on one connection: every unacked
        snapshot is written back to back, then the acks are read in
        order (the collector answers a connection's frames in order).

        Each snapshot keeps its own attempts under the retry policy.
        A fault on the way to its ack (a failed connect or write, a
        lost, late or wrong reply) drops the connection; the next
        attempt redials and re-writes only the snapshots still
        unacked, from the one awaited.  Collector-side (rsu_id,
        period, seq) and shard dedup make the resends exactly-once.
        A snapshot that runs out of attempts is counted failed and the
        rest go on over a fresh connection.

        *acked* collects the rsu_ids the collector confirmed (defaults
        to the period-close ledger); *window* routes the success metric
        to the window-partial counter.
        """
        if acked is None:
            acked = self._period_acked[period]
        unacked = deque(snapshots)
        client: Optional[wire.FrameClient] = None
        # The reply future of each unacked snapshot written on `client`.
        replies: deque = deque()

        def _drop_connection() -> None:
            nonlocal client
            if client is not None:
                client.close()
                client = None
            replies.clear()

        async def attempt() -> None:
            nonlocal client
            if client is None:
                client = await wire.FrameClient.open(
                    self.collector_host, self.collector_port, self.upload_timeout
                )
                replies.extend(client.submit(snap) for snap in unacked)
            ack = await replies.popleft()
            snap = unacked[0]
            if not (
                isinstance(ack, wire.SnapshotAck)
                and ack.rsu_id == snap.rsu_id
                and ack.period == snap.period
            ):
                raise WireError(f"unexpected upload reply {ack!r}")

        def _on_retry(attempt_no: int, exc: BaseException) -> None:
            logger.warning(
                "snapshot upload rsu=%s attempt %d/%d failed: %s",
                unacked[0].rsu_id,
                attempt_no + 1,
                self.retry_policy.max_attempts,
                exc,
            )
            self._m_retried.inc()
            _drop_connection()

        try:
            while unacked:
                try:
                    await retry_async(
                        attempt,
                        policy=self.retry_policy,
                        retry_on=_UPLOAD_RETRY_ON,
                        rng=self._retry_rng,
                        on_retry=_on_retry,
                        registry=self.registry,
                        op="snapshot_upload",
                    )
                except RetryExhaustedError as exc:
                    logger.error(
                        "snapshot upload rsu=%s gave up after %d attempts: %s",
                        unacked.popleft().rsu_id,
                        exc.attempts,
                        exc,
                    )
                    self._m_upload_failed.inc()
                    _drop_connection()
                    continue
                acked.add(unacked.popleft().rsu_id)
                if window:
                    self._m_window_uploads.inc()
                else:
                    self._m_uploaded.inc()
        finally:
            _drop_connection()
