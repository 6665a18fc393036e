"""The asyncio RSU gateway: the online coding phase as a service.

Vehicles (or the load generator standing in for them) stream
:class:`~repro.service.wire.ResponseMsg` /
:class:`~repro.service.wire.ResponseBatch` frames over TCP.  The
gateway routes them to the right
:class:`~repro.vcps.rsu.RoadsideUnit`, but never records per message:
responses accumulate in a bounded queue and a single ingest worker
drains them into vectorized
:meth:`~repro.vcps.rsu.RoadsideUnit.handle_wire_batch` calls — one
bounds/MAC check, one counter bump, one scatter per flush.

Backpressure is structural: the ingest queue is bounded, the reader
coroutine ``await``-s on ``queue.put``, and while it waits it is not
reading the socket, so TCP flow control pushes back on the sender.

On :class:`~repro.service.wire.EndPeriod` the gateway flushes, closes
the period at every RSU, and uploads the snapshots to the collector
pipelined on one connection, with bounded retries and per-attempt
timeouts, before acknowledging.

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
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ReproError, RetryExhaustedError, WireError
from repro.obs import MetricsRegistry
from repro.service import wire
from repro.service.retry import RetryPolicy, retry_async
from repro.utils.connections import Connections
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

#: (rsu_id, macs, bit_indices) as decoded straight off the wire.
_QueueItem = Tuple[int, np.ndarray, np.ndarray]


class RsuGateway:
    """A fleet of RSUs behind one ingestion socket.

    Parameters
    ----------
    rsus:
        ``rsu_id -> RoadsideUnit`` — the measurement state this gateway
        fronts.
    collector_host, collector_port:
        Where period snapshots are uploaded.
    batch_size:
        Flush an RSU's pending responses once this many accumulate.
    queue_size:
        Bound on the ingest queue (items, not responses); when full,
        readers stall and TCP backpressure reaches the sender.
    flush_interval:
        Seconds of queue idleness after which pending responses are
        flushed regardless of batch size.
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
        batch_size: int = 4096,
        queue_size: int = 1024,
        flush_interval: float = 0.05,
        upload_timeout: float = 5.0,
        upload_retries: int = 3,
        retry_policy: Optional[RetryPolicy] = None,
        retry_seed: int = 0,
        windows: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.rsus = dict(rsus)
        self.shard_id = None if shard_id is None else int(shard_id)
        self._provisioner = provisioner
        self.windows = int(windows)
        if self.windows > 0:
            for rsu in self.rsus.values():
                rsu.track_windows()
        self.collector_host = collector_host
        self.collector_port = collector_port
        self.batch_size = int(batch_size)
        self.flush_interval = float(flush_interval)
        self.upload_timeout = float(upload_timeout)
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=max(int(upload_retries), 1))
        )
        self._retry_rng = random.Random(retry_seed)
        self._queue: "asyncio.Queue[_QueueItem]" = asyncio.Queue(
            maxsize=int(queue_size)
        )
        self._pending: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        self._pending_counts: Dict[int, int] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._clients = Connections()
        self._ingest_task: Optional[asyncio.Task] = None
        self.port: Optional[int] = None
        # Sequenced-delivery state.  Seqs of applied batches (bounded
        # by one day's frame count; senders restart seqs per run).
        self._seen_seqs: Set[int] = set()
        # RSUs whose radio is currently down (see set_outage): frames
        # for them are dropped at admission, before the queue.
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
        self._m_backpressure = self.registry.counter(
            "gateway.backpressure_stalls_total"
        )
        self._m_outage_dropped = self.registry.counter(
            "gateway.outage_dropped_total"
        )
        self._m_queue_depth = self.registry.gauge("gateway.queue_depth")
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
        """Times a reader blocked on a full ingest queue."""
        return int(self._m_backpressure.value)

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
        """Bind the ingestion socket and start the ingest worker."""
        self._server = await asyncio.start_server(
            self._serve_client, host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._ingest_task = asyncio.ensure_future(self._ingest_loop())
        logger.info("gateway listening on %s:%s", host, self.port)

    async def stop(self) -> None:
        """Stop accepting, close every open client stream and wait for
        its handler, drain the queue, cancel the worker."""
        if self._server is not None:
            self._server.close()
            await self._clients.close()
            await self._server.wait_closed()
            self._server = None
        if self._ingest_task is not None:
            await self._queue.join()
            self._flush_all()
            self._ingest_task.cancel()
            try:
                await self._ingest_task
            except asyncio.CancelledError:
                pass
            self._ingest_task = None

    # ------------------------------------------------------------------
    # Client connections
    # ------------------------------------------------------------------
    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await self._clients.serve(writer, self._session(reader, writer))

    async def _session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                message = await wire.read_message(reader)
            except asyncio.IncompleteReadError:
                break  # clean close between frames
            except WireError as exc:
                # A framing error is unrecoverable on this stream —
                # report it and hang up.
                self._m_frames_rejected.inc()
                await self._send_error(writer, wire.E_MALFORMED, str(exc))
                break
            if isinstance(message, wire.ResponseMsg):
                await self._enqueue(
                    writer,
                    message.rsu_id,
                    np.array([message.mac], dtype=np.uint64),
                    np.array([message.bit_index], dtype=np.int64),
                )
            elif isinstance(message, wire.ResponseBatch):
                await self._enqueue(
                    writer,
                    message.rsu_id,
                    message.macs,
                    message.bit_indices,
                    seq=message.seq,
                )
            elif isinstance(message, wire.EndWindow):
                uploaded = await self.close_window(
                    message.period, message.window
                )
                await wire.write_message(
                    writer,
                    wire.EndWindowAck(
                        period=message.period,
                        window=message.window,
                        partials=uploaded,
                    ),
                )
            elif isinstance(message, wire.EndPeriod):
                uploaded = await self.close_period(message.period)
                await wire.write_message(
                    writer,
                    wire.EndPeriodAck(
                        period=message.period, snapshots=uploaded
                    ),
                )
            elif isinstance(message, wire.SizeAnnounce):
                try:
                    applied = await self.apply_size_announce(message)
                except ReproError as exc:
                    self._m_frames_rejected.inc()
                    await self._send_error(
                        writer, wire.E_INTERNAL, str(exc)
                    )
                else:
                    await wire.write_message(
                        writer,
                        wire.SizeAnnounceAck(
                            period=message.period, applied=applied
                        ),
                    )
            elif (
                isinstance(message, wire.Handoff)
                and self.shard_id is not None
            ):
                await self._handle_handoff(message, writer)
            else:
                self._m_frames_rejected.inc()
                await self._send_error(
                    writer,
                    wire.E_MALFORMED,
                    f"gateway cannot handle {type(message).__name__}",
                )

    async def _handle_handoff(
        self, message: wire.Handoff, writer: asyncio.StreamWriter
    ) -> None:
        """Take ownership of a rebalanced RSU (shards only; an
        unsharded gateway nacks ``Handoff`` like any frame it cannot
        handle)."""
        if message.to_shard != self.shard_id:
            self._m_handoffs_refused.inc()
            await self._send_error(
                writer,
                wire.E_MALFORMED,
                f"handoff of rsu {message.rsu_id} addresses shard "
                f"{message.to_shard}, but this is shard {self.shard_id}",
            )
            return
        if message.rsu_id not in self.rsus:
            if self._provisioner is None:
                self._m_handoffs_refused.inc()
                await self._send_error(
                    writer,
                    wire.E_UNKNOWN_RSU,
                    f"shard {self.shard_id} cannot provision rsu "
                    f"{message.rsu_id} (no provisioner)",
                )
                return
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
        try:
            await wire.write_message(
                writer,
                wire.HandoffAck(
                    rsu_id=message.rsu_id,
                    to_shard=self.shard_id,
                    period=message.period,
                ),
            )
        except (ConnectionError, OSError):  # pragma: no cover
            pass

    async def _send_error(
        self, writer: asyncio.StreamWriter, code: int, text: str
    ) -> None:
        try:
            await wire.write_message(writer, wire.ErrorMsg(code, text))
        except (ConnectionError, OSError):  # peer already gone
            pass

    async def _enqueue(
        self,
        writer: asyncio.StreamWriter,
        rsu_id: int,
        macs: np.ndarray,
        indices: np.ndarray,
        seq: int = 0,
    ) -> None:
        if rsu_id not in self.rsus:
            self._m_frames_rejected.inc()
            await self._send_error(
                writer, wire.E_UNKNOWN_RSU, f"unknown RSU {rsu_id}"
            )
            return
        if rsu_id in self._outages:
            # Scheduled outage: the radio is down, so the responses
            # never reach the measurement state.  The transport is
            # still alive, so sequenced frames are acked (and their
            # seqs burned) — the sender must not resend into the hole.
            self._m_outage_dropped.inc(int(macs.size))
            if seq and seq not in self._seen_seqs:
                self._seen_seqs.add(seq)
            if seq:
                await self._reply_ack(writer, seq, duplicate=False)
            return
        if seq:
            # Sequenced delivery: a batch the sender may retransmit
            # after a fault.  Apply exactly once, ack every time.
            if seq in self._seen_seqs:
                self._m_deduped.inc()
                await self._reply_ack(writer, seq, duplicate=True)
                return
            self._seen_seqs.add(seq)
            self._m_received.inc(int(macs.size))
            await self._put((rsu_id, macs, indices))
            await self._reply_ack(writer, seq, duplicate=False)
            return
        self._m_received.inc(int(macs.size))
        await self._put((rsu_id, macs, indices))

    async def _put(self, item: _QueueItem) -> None:
        """Enqueue for the ingest worker, counting backpressure stalls."""
        if self._queue.full():
            self._m_backpressure.inc()
        await self._queue.put(item)
        self._m_queue_depth.set(self._queue.qsize())

    async def _reply_ack(
        self, writer: asyncio.StreamWriter, seq: int, *, duplicate: bool
    ) -> None:
        try:
            await wire.write_message(
                writer, wire.BatchAck(seq=seq, duplicate=duplicate)
            )
        except (ConnectionError, OSError):  # peer already gone
            pass

    # ------------------------------------------------------------------
    # Batched ingestion
    # ------------------------------------------------------------------
    async def _ingest_loop(self) -> None:
        queue = self._queue
        while True:
            # Queued items are taken with no timer (``wait_for`` costs a
            # task and a timer handle per call).  Only an empty queue
            # waits, bounded so that an idle gateway still flushes.
            if not queue.empty():
                item = queue.get_nowait()
            else:
                try:
                    item = await asyncio.wait_for(
                        queue.get(), timeout=self.flush_interval
                    )
                except asyncio.TimeoutError:
                    self._flush_all()
                    continue
            rsu_id, macs, indices = item
            self._pending.setdefault(rsu_id, []).append((macs, indices))
            count = self._pending_counts.get(rsu_id, 0) + int(macs.size)
            self._pending_counts[rsu_id] = count
            if count >= self.batch_size:
                self._flush(rsu_id)
            self._m_queue_depth.set(self._queue.qsize())
            self._queue.task_done()

    def _flush(self, rsu_id: int) -> None:
        chunks = self._pending.pop(rsu_id, None)
        self._pending_counts.pop(rsu_id, None)
        if not chunks:
            return
        start = self.registry.clock()
        if len(chunks) == 1:
            # The common case: one wire frame pending — hand its
            # zero-copy big-endian views straight to the RSU, no
            # concatenation, no byteswap.
            macs, indices = chunks[0]
        else:
            # Multi-frame flush: one fused concatenate per side (numpy
            # normalizes byte order while copying, so the RSU still
            # sees each element touched exactly once).
            macs = np.concatenate([m for m, _ in chunks])
            indices = np.concatenate([i for _, i in chunks])
        recorded = self.rsus[rsu_id].handle_wire_batch(macs, indices)
        self._m_recorded.inc(recorded)
        self._m_rejected.inc(int(indices.size) - recorded)
        self._m_flush_seconds.observe(self.registry.clock() - start)

    def _flush_all(self) -> None:
        for rsu_id in list(self._pending):
            self._flush(rsu_id)

    # ------------------------------------------------------------------
    # Period close and snapshot upload
    # ------------------------------------------------------------------
    async def close_period(self, period: int) -> int:
        """Flush, snapshot every RSU, upload everything; returns the
        number of snapshots the collector has acknowledged.

        Idempotent: the first close of a period drains the queue,
        closes every RSU, and caches the resulting snapshots (each
        stamped with a stable upload seq).  A re-close — e.g. a sender
        retrying ``EndPeriod`` after a lost ack — re-uploads only the
        snapshots the collector has not yet acknowledged, never calling
        :meth:`~repro.vcps.rsu.RoadsideUnit.end_period` a second time.
        """
        if self._close_lock is None:
            self._close_lock = asyncio.Lock()
        async with self._close_lock:
            if period in self._period_uploads:
                self._m_reclosed.inc()
                logger.info("period %s re-closed; resuming uploads", period)
                close_start = self.registry.clock()
            else:
                await self._queue.join()
                self._flush_all()
                # Timed from here: the snapshot and the upload, not the
                # ingest drain above.
                close_start = self.registry.clock()
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
        """Flush, close the current window at every RSU, and upload the
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
            await self._queue.join()
            self._flush_all()
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
        announcement always covers all of it.  The ingest queue is
        drained first so in-flight responses for the *old* size cannot
        land in a re-sized array; senders announce strictly between an
        ``EndPeriodAck`` and the next period's traffic, so the drain is
        normally a no-op.  Idempotent: re-announcing the same plan
        changes nothing and acks ``applied=0``.
        """
        if self._close_lock is None:
            self._close_lock = asyncio.Lock()
        async with self._close_lock:
            await self._queue.join()
            self._flush_all()
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
        connection: Optional[
            Tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = None
        written = False  # every unacked snapshot is on `connection`

        def _drop_connection() -> None:
            nonlocal connection, written
            if connection is not None:
                connection[1].close()
                connection = None
            written = False

        async def attempt() -> None:
            nonlocal connection, written
            if connection is None:
                connection = await asyncio.wait_for(
                    asyncio.open_connection(
                        self.collector_host, self.collector_port
                    ),
                    timeout=self.upload_timeout,
                )
            reader, writer = connection
            if not written:
                written = True
                await wire.write_messages(
                    writer, unacked, timeout=self.upload_timeout
                )
            ack = await wire.read_message(reader, timeout=self.upload_timeout)
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
