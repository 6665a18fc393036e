"""Load generator: replay a scenario day against a live deployment.

Computes every vehicle's wire response for the day locally (the same
Eq. 2 arithmetic as the vectorized encoder), streams them to the
gateway — or to every gateway shard at once — in sequenced
:class:`~repro.service.wire.ResponseBatch` frames, closes the period,
and then interrogates the collector pair by pair —
recording achieved ingest throughput (responses/sec) and query latency
percentiles, and checking every returned estimate bit-for-bit against
the in-process :class:`~repro.core.decoder.CentralDecoder` on the same
seed.

Delivery is fault-tolerant end to end.  Every batch carries a sequence
number and is held until the gateway's :class:`~repro.service.wire.
BatchAck` comes back; on any fault — a dropped or corrupted frame, a
reset, a silent blackhole — the generator reconnects with jittered
backoff and resends only the unacked batches.  Gateway-side seq dedup
makes resends exactly-once, the idempotent ``EndPeriod`` makes the
close retryable, and queries are read-only so they are simply
reissued, so estimates stay bit-identical to in-process decoding
under every fault profile.

One piece of each: :func:`plan_phases` plans a day for any plane
shape (shards, windows, period, rebalance), :func:`send_phases`
delivers one gateway's plan, :func:`replay_day` streams a day to
every gateway concurrently, and :func:`run_loadgen` drives the
periods.  The chaos drills plan and send through the same pieces.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    EstimationError,
    RetryExhaustedError,
    WireError,
)
from repro.federation.router import ShardRouter
from repro.obs import MetricsRegistry
from repro.service import wire
from repro.service.retry import RetryPolicy, retry_async
from repro.service.runtime import (
    DEFAULT_COLLECTOR_PORT,
    DEFAULT_GATEWAY_PORT,
    DeploymentSpec,
    shard_port_plan,
)
from repro.utils.rng import as_generator
from repro.utils.tables import AsciiTable
from repro.vcps.ids import random_macs

__all__ = [
    "LoadgenResult",
    "StreamStats",
    "plan_phases",
    "send_phases",
    "replay_day",
    "announce_sizes",
    "run_queries",
    "run_loadgen",
]

#: Failures that mean "this connection is gone; reconnect and resend".
_FAULTS = (
    OSError,
    WireError,
    asyncio.TimeoutError,
    asyncio.IncompleteReadError,
)

#: Consecutive zero-progress reconnect cycles before giving up.
_MAX_STALLS = 20


class StreamStats:
    """What the streaming phase delivered and what it survived.

    A read view over ``loadgen.*`` instruments in a
    :class:`~repro.obs.MetricsRegistry`: the bespoke fault counters
    this class used to carry now live in the registry, so the stats
    returned to callers and a ``--metrics-out`` dump of the same run
    can never disagree.
    """

    def __init__(
        self, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self._m_sent = self.registry.counter(
            "loadgen.responses_sent_total"
        )
        self._m_reconnects = self.registry.counter(
            "loadgen.reconnects_total"
        )
        self._m_resent = self.registry.counter(
            "loadgen.batches_resent_total"
        )
        self._m_dedup = self.registry.counter("loadgen.dedup_acks_total")
        self._m_nacks = self.registry.counter("loadgen.nacks_total")
        self._m_windows = self.registry.counter(
            "loadgen.windows_closed_total"
        )
        self._m_snapshots = self.registry.gauge("loadgen.snapshots_acked")
        self._m_elapsed = self.registry.gauge("loadgen.stream_seconds")

    @property
    def sent(self) -> int:
        """Responses the gateway acknowledged."""
        return int(self._m_sent.value)

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds the streaming phase took."""
        return float(self._m_elapsed.value)

    @property
    def snapshots_acked(self) -> int:
        """Snapshots the collector acked at period close."""
        return int(self._m_snapshots.value)

    @property
    def reconnects(self) -> int:
        """Faults that forced a reconnect-and-resend cycle."""
        return int(self._m_reconnects.value)

    @property
    def batches_resent(self) -> int:
        """Batches written more than once (unacked at a fault)."""
        return int(self._m_resent.value)

    @property
    def dedup_acks(self) -> int:
        """Acks flagged duplicate (the gateway had the batch already)."""
        return int(self._m_dedup.value)

    @property
    def nacks(self) -> int:
        """Error frames received where an ack was expected."""
        return int(self._m_nacks.value)

    @property
    def windows_closed(self) -> int:
        """Sub-period windows the gateway acknowledged closing."""
        return int(self._m_windows.value)


@dataclass
class LoadgenResult:
    """What a load generation run achieved and whether it was correct —
    for an unsharded replay and a sharded one alike."""

    responses_sent: int
    stream_seconds: float
    queries: int
    query_latencies_ms: np.ndarray = field(repr=False)
    estimates_checked: int
    pair_mismatches: List[Tuple[int, int]]
    counters_checked: int
    counter_mismatches: List[int]
    snapshots_acked: int
    reconnects: int = 0
    batches_resent: int = 0
    dedup_acks: int = 0
    nacks: int = 0
    #: Registry holding every ``loadgen.*``/``retry.*`` metric the run
    #: recorded — what ``repro loadgen --metrics-out`` dumps.
    registry: Optional[MetricsRegistry] = field(default=None, repr=False)
    #: How many measurement periods the run replayed.
    periods: int = 1
    #: The per-period size plans actually announced on the wire
    #: (period 0 = the deployment's initial sizes).
    size_trajectory: List[Dict[int, int]] = field(
        default_factory=list, repr=False
    )
    #: Periods whose announced sizes differed from the in-process
    #: golden trajectory — must be empty for a correct deployment.
    trajectory_mismatches: List[int] = field(default_factory=list)
    #: Responses acknowledged per gateway shard (empty when unsharded).
    per_shard: Dict[int, int] = field(default_factory=dict)
    #: Mid-period RSU handoffs between shards.
    handoffs: int = 0

    @property
    def throughput(self) -> float:
        """Achieved ingest rate in responses per second (0 when no
        streaming time was measured)."""
        if self.stream_seconds <= 0:
            return 0.0
        return self.responses_sent / self.stream_seconds

    @property
    def bit_identical(self) -> bool:
        """True iff every live answer matched the in-process decoder
        and every announced size plan matched the golden trajectory."""
        return (
            not self.pair_mismatches
            and not self.counter_mismatches
            and not self.trajectory_mismatches
        )

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p90/p99 query latency in milliseconds."""
        if self.query_latencies_ms.size == 0:
            return {"p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "p50": float(np.percentile(self.query_latencies_ms, 50)),
            "p90": float(np.percentile(self.query_latencies_ms, 90)),
            "p99": float(np.percentile(self.query_latencies_ms, 99)),
        }

    def render(self) -> str:
        p = self.latency_percentiles()
        table = AsciiTable(
            ["metric", "value"], title="Live pipeline load generation"
        )
        if self.per_shard:
            cells = ", ".join(
                f"s{shard}={count:,}"
                for shard, count in sorted(self.per_shard.items())
            )
            table.add_row(["shards", f"{len(self.per_shard)} ({cells})"])
            table.add_row(["mid-period handoffs", self.handoffs])
        if self.periods > 1:
            table.add_row(["periods replayed", self.periods])
            resizes = sum(
                1
                for prev, plan in zip(
                    self.size_trajectory, self.size_trajectory[1:]
                )
                for rsu_id in plan
                if plan[rsu_id] != prev.get(rsu_id)
            )
            table.add_row(["announced resizes", resizes])
            table.add_row(
                [
                    "size trajectory",
                    (
                        "matches golden"
                        if not self.trajectory_mismatches
                        else "MISMATCH in periods "
                        f"{self.trajectory_mismatches}"
                    ),
                ]
            )
        table.add_row(["responses streamed", f"{self.responses_sent:,}"])
        table.add_row(["ingest time (s)", f"{self.stream_seconds:.2f}"])
        table.add_row(["throughput (responses/s)", f"{self.throughput:,.0f}"])
        table.add_row(["snapshots acked", self.snapshots_acked])
        table.add_row(["queries answered", self.queries])
        table.add_row(["query latency p50 (ms)", f"{p['p50']:.2f}"])
        table.add_row(["query latency p90 (ms)", f"{p['p90']:.2f}"])
        table.add_row(["query latency p99 (ms)", f"{p['p99']:.2f}"])
        table.add_row(["reconnects", self.reconnects])
        table.add_row(["batches resent", self.batches_resent])
        table.add_row(["duplicate acks (deduped)", self.dedup_acks])
        table.add_row(["nacks (corrupt frames)", self.nacks])
        table.add_row(
            ["point counters checked", f"{self.counters_checked}"]
        )
        table.add_row(
            ["pair estimates checked", f"{self.estimates_checked}"]
        )
        verdict = (
            "bit-identical to in-process decoding"
            if self.bit_identical
            else (
                f"MISMATCHES: {len(self.pair_mismatches)} pairs, "
                f"{len(self.counter_mismatches)} counters"
            )
        )
        table.add_row(["verification", verdict])
        return table.render()


#: One delivery phase: the batches to stream, then the frame that
#: closes it (``EndWindow``, ``EndPeriod`` or ``Handoff``; ``None``
#: ends the phase once every batch is acked).
Phase = Tuple[Sequence[wire.ResponseBatch], Optional[wire.Message]]


def _closes(frame: wire.Message, answer: wire.Message) -> bool:
    """Whether *answer* is the ack that completes closing *frame*."""
    if isinstance(frame, wire.EndPeriod):
        return isinstance(answer, wire.EndPeriodAck)
    if isinstance(frame, wire.EndWindow):
        return (
            isinstance(answer, wire.EndWindowAck)
            and answer.window == frame.window
        )
    return isinstance(answer, wire.HandoffAck) and answer.rsu_id == frame.rsu_id


def plan_phases(
    spec: DeploymentSpec,
    *,
    router: Optional[ShardRouter] = None,
    rebalance: int = 0,
    windows: int = 0,
    period: int = 0,
    wire_batch: int = 4096,
) -> Dict[int, List[Phase]]:
    """Day *period* as one :func:`send_phases` plan per gateway.

    Each RSU's responses are split into ``max(windows, 1)`` contiguous
    slices (``np.array_split``: near-equal, deterministic); slice *w*
    of every RSU streams in window *w*, which closes with an
    ``EndWindow`` when *windows* ``> 1``, and the day closes with
    ``EndPeriod``.  Seqs number the frames 1..N across the whole day,
    so a re-run produces the same frames — the dedup identity a resend
    relies on, on whichever shard it lands — and restart at 1 each
    period, matching the gateway's per-period dedup scope.  The MAC
    stream is seeded ``spec.seed + period``.

    Without a *router* the plan has one gateway, key ``0``.  With one,
    key *i* is shard *i* and every batch goes to its RSU's shard,
    except that the first *rebalance* RSU ids (sorted) are handed to
    the neighbour shard inside every window: the home shard streams
    the first half of the RSU's batches, the target a
    :class:`~repro.service.wire.Handoff` and then the tail.  A shard's
    window is its home batches, then a ``Handoff`` and tail per RSU
    handed to it (by id), then the closing frame.  The handed-off RSUs
    are then reassigned on *router*, so later periods route them to
    their new shard.
    """
    rebalance = int(rebalance)
    if rebalance and router is None:
        raise ConfigurationError(
            "rebalance needs shards: an unsharded gateway has no "
            "neighbour to hand RSUs to"
        )
    if not 0 <= rebalance <= len(spec.scheme.rsu_ids):
        raise ConfigurationError(
            f"rebalance must be in [0, {len(spec.scheme.rsu_ids)}] "
            f"(the fleet size), got {rebalance}"
        )
    windows = max(int(windows), 1)
    router = router if router is not None else ShardRouter(1)
    shards = router.shard_count
    home = router.shard_for
    moving = set(sorted(spec.scheme.rsu_ids)[:rebalance])
    mac_rng = as_generator(spec.seed + int(period))
    days: List[List[wire.ResponseBatch]] = [[] for _ in range(windows)]
    seq = 1
    for rsu_id in spec.scheme.rsu_ids:
        indices = spec.response_indices(rsu_id, period=period)
        if indices.size == 0:
            continue
        macs = random_macs(indices.size, seed=mac_rng)
        for w, (part, part_macs) in enumerate(
            zip(np.array_split(indices, windows), np.array_split(macs, windows))
        ):
            for lo in range(0, part.size, wire_batch):
                days[w].append(
                    wire.ResponseBatch(
                        rsu_id=rsu_id,
                        macs=part_macs[lo : lo + wire_batch],
                        bit_indices=part[lo : lo + wire_batch].astype(
                            np.uint32
                        ),
                        seq=seq,
                    )
                )
                seq += 1
    plans: Dict[int, List[Phase]] = {shard: [] for shard in range(shards)}
    handed: Dict[int, int] = {}
    for w, batches in enumerate(days):
        pending: Dict[int, List[wire.ResponseBatch]] = {
            shard: [] for shard in range(shards)
        }
        split: Dict[int, List[wire.ResponseBatch]] = {}
        for batch in batches:
            if batch.rsu_id in moving:
                split.setdefault(batch.rsu_id, []).append(batch)
            else:
                pending[home(batch.rsu_id)].append(batch)
        tails = []
        for rsu_id in sorted(split):
            cut = max(1, len(split[rsu_id]) // 2)
            pending[home(rsu_id)].extend(split[rsu_id][:cut])
            tails.append((rsu_id, split[rsu_id][cut:]))
        for rsu_id, tail in tails:
            source = home(rsu_id)
            target = handed[rsu_id] = (source + 1) % shards
            handoff = wire.Handoff(
                rsu_id=rsu_id, from_shard=source, to_shard=target, period=period
            )
            plans[target].append((pending[target], handoff))
            pending[target] = tail
        close = (
            wire.EndWindow(period=period, window=w)
            if windows > 1
            else wire.EndPeriod(period=period)
        )
        for shard in range(shards):
            plans[shard].append((pending[shard], close))
    if windows > 1:
        for phases in plans.values():
            phases.append(([], wire.EndPeriod(period=period)))
    for rsu_id in sorted(handed):
        router.reassign(rsu_id, handed[rsu_id])
    return plans


async def send_phases(
    phases: Sequence[Phase],
    *,
    host: str = "127.0.0.1",
    port: int = DEFAULT_GATEWAY_PORT,
    window: int = 32,
    ack_timeout: float = 5.0,
    close_timeout: float = 30.0,
    retry_policy: Optional[RetryPolicy] = None,
    retry_seed: int = 0,
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[int, int]:
    """Deliver *phases* to one gateway: the plane's only sender.

    Batches stream pipelined on one :class:`~repro.service.wire.
    FrameClient` with a sliding window — one ack is awaited whenever
    *window* frames are unacked — and each phase ends with its closing
    frame, once every batch of the phase is acked.  A fault (a dropped
    or corrupted frame, a nack, a reset, a silent blackhole) closes
    the connection, reconnects under *retry_policy*, and resends only
    the batches the gateway has not acknowledged; gateway-side seq
    dedup makes resends exactly-once, and every closing frame is
    idempotent gateway-side (``EndPeriod`` re-uploads unacked
    snapshots, a re-sent ``EndWindow`` ships empty partials the
    OR-merge absorbs, a re-sent ``Handoff`` re-acks without zeroing
    state).  Raises :class:`~repro.errors.RetryExhaustedError` after
    too many consecutive cycles with no forward progress.

    Observations land in *registry* as ``loadgen.*`` metrics.  Returns
    ``(responses acked, snapshots acked by the EndPeriod close)``.
    """
    policy = retry_policy if retry_policy is not None else RetryPolicy()
    rng = random.Random(retry_seed)
    stats = StreamStats(registry)
    sent_once: set = set()
    client: Optional[wire.FrameClient] = None
    sent = snapshots = stalls = 0
    try:
        for batches, close_frame in phases:
            unacked = {batch.seq: batch for batch in batches}
            phase_done = False
            while not phase_done:
                made_progress = False
                try:
                    if client is None:
                        client = await retry_async(
                            lambda: wire.FrameClient.open(host, port, ack_timeout),
                            policy=policy,
                            rng=rng,
                            registry=stats.registry,
                            op="gateway_connect",
                        )

                    def take(answer: wire.Message) -> None:
                        nonlocal sent, made_progress
                        if isinstance(answer, wire.BatchAck):
                            if answer.duplicate:
                                stats._m_dedup.inc()
                            acked = unacked.pop(answer.seq, None)
                            if acked is not None:
                                stats._m_sent.inc(len(acked))
                                sent += len(acked)
                                made_progress = True
                        elif isinstance(answer, wire.ErrorMsg):
                            stats._m_nacks.inc()
                            raise WireError(f"gateway nack: {answer.message}")
                        else:
                            raise WireError(f"unexpected ack frame {answer!r}")

                    pending: deque = deque()
                    for batch in list(unacked.values()):
                        if batch.seq in sent_once:
                            stats._m_resent.inc()
                        else:
                            sent_once.add(batch.seq)
                        pending.append(client.submit(batch))
                        if len(pending) >= window:
                            take(await pending.popleft())
                    while pending:
                        take(await pending.popleft())
                    if close_frame is not None:
                        answer = await client.request(
                            close_frame, timeout=close_timeout
                        )
                        closing = type(close_frame).__name__
                        if isinstance(answer, wire.ErrorMsg):
                            stats._m_nacks.inc()
                            raise WireError(
                                f"gateway nack on {closing}: {answer.message}"
                            )
                        if not _closes(close_frame, answer):
                            raise WireError(
                                f"unexpected {closing} reply {answer!r}"
                            )
                        if isinstance(answer, wire.EndPeriodAck):
                            snapshots = answer.snapshots
                        elif isinstance(answer, wire.EndWindowAck):
                            stats._m_windows.inc()
                    phase_done = True
                except _FAULTS as exc:
                    if client is not None:
                        client.close()
                        client = None
                    stats._m_reconnects.inc()
                    stalls = 0 if made_progress else stalls + 1
                    if stalls >= _MAX_STALLS:
                        raise RetryExhaustedError(
                            f"no streaming progress after {stalls} "
                            f"consecutive reconnects: {exc}",
                            attempts=stalls,
                        ) from exc
    finally:
        if client is not None:
            client.close()
    return sent, snapshots


async def replay_day(
    spec: DeploymentSpec,
    *,
    host: str = "127.0.0.1",
    gateway_port: int = DEFAULT_GATEWAY_PORT,
    shard_ports: Optional[Sequence[int]] = None,
    router: Optional[ShardRouter] = None,
    rebalance: int = 0,
    wire_batch: int = 4096,
    period: int = 0,
    window: int = 32,
    windows: int = 0,
    ack_timeout: float = 5.0,
    close_timeout: float = 30.0,
    retry_policy: Optional[RetryPolicy] = None,
    retry_seed: int = 0,
    registry: Optional[MetricsRegistry] = None,
) -> StreamStats:
    """Stream day *period* to every gateway concurrently and close it.

    The day is planned by :func:`plan_phases` — one unsharded gateway
    without a *router*, else one per shard, with *rebalance* RSUs
    handed between shards — and each gateway's plan goes to its port
    in *shard_ports* (default ``[gateway_port]``) through its own
    :func:`send_phases` with at most *window* unacked frames.  With *windows* ``> 1`` (the
    sub-period window count — distinct from *window*, the
    outstanding-frame cap) every gateway closes each window with an
    :class:`~repro.service.wire.EndWindow` before the next begins, so
    it ships one window-tagged partial per RSU per window (see
    ``docs/streaming.md``).

    Everything the run observes lands in *registry* (fresh if omitted)
    as ``loadgen.*`` metrics, plus ``federation.loadgen_sent_total``
    per shard; the returned :class:`StreamStats` is a view over that
    registry.
    """
    plans = plan_phases(
        spec,
        router=router,
        rebalance=rebalance,
        windows=windows,
        period=period,
        wire_batch=wire_batch,
    )
    ports = list(shard_ports) if shard_ports is not None else [gateway_port]
    if len(ports) != len(plans):
        raise ConfigurationError(
            f"{len(ports)} gateway ports for {len(plans)} gateways"
        )
    stats = StreamStats(registry)

    async def deliver(gateway: int, port: int) -> int:
        sent, snapshots = await send_phases(
            plans[gateway],
            host=host,
            port=port,
            window=window,
            ack_timeout=ack_timeout,
            close_timeout=close_timeout,
            retry_policy=retry_policy,
            retry_seed=retry_seed,
            registry=stats.registry,
        )
        if router is not None:
            stats.registry.counter(
                "federation.loadgen_sent_total", shard=gateway
            ).inc(sent)
        return snapshots

    start = time.perf_counter()
    snapshots = await asyncio.gather(
        *(deliver(gateway, port) for gateway, port in enumerate(ports))
    )
    stats._m_snapshots.set(sum(snapshots))
    stats._m_elapsed.set(time.perf_counter() - start)
    return stats


async def announce_sizes(
    spec: DeploymentSpec,
    period: int,
    *,
    host: str = "127.0.0.1",
    gateway_ports: Sequence[int] = (DEFAULT_GATEWAY_PORT,),
    collector_port: int = DEFAULT_COLLECTOR_PORT,
    ack_timeout: float = 5.0,
    retry_policy: Optional[RetryPolicy] = None,
    retry_seed: int = 0,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[int, int]:
    """Run one between-period size negotiation (docs/adaptive.md).

    Asks the collector for *period*'s size plan
    (:class:`~repro.service.wire.SizeQuery` →
    :class:`~repro.service.wire.SizeAnnounce`), then forwards the
    announcement verbatim to every gateway in *gateway_ports*, each of
    which re-sizes its fleet before acking.  Both legs are idempotent
    — the collector journals and caches the announcement
    (byte-identical re-asks), a gateway's resizes are no-ops when
    already applied — so fault recovery simply reissues the exchange.
    Returns the announced ``rsu_id -> m_x`` plan.
    """
    policy = retry_policy if retry_policy is not None else RetryPolicy()
    rng = random.Random(retry_seed)
    registry = registry if registry is not None else MetricsRegistry()
    m_announced = registry.counter("loadgen.size_announces_total")
    m_reconnects = registry.counter(
        "loadgen.size_announce_reconnects_total"
    )

    async def exchange(
        port: int, message: wire.Message, op: str
    ) -> wire.Message:
        last_exc: Optional[BaseException] = None
        for _ in range(_MAX_STALLS):
            client = None
            try:
                client = await retry_async(
                    lambda: wire.FrameClient.open(host, port, ack_timeout),
                    policy=policy,
                    rng=rng,
                    registry=registry,
                    op=op,
                )
                answer = await client.request(message)
                if isinstance(answer, wire.ErrorMsg):
                    raise WireError(f"{op} nack: {answer.message}")
                return answer
            except _FAULTS as exc:
                last_exc = exc
                m_reconnects.inc()
            finally:
                if client is not None:
                    client.close()
        raise RetryExhaustedError(
            f"{op} never completed after {_MAX_STALLS} reconnects: "
            f"{last_exc}",
            attempts=_MAX_STALLS,
        ) from last_exc

    announce = await exchange(
        collector_port, wire.SizeQuery(period=int(period)), "size_query"
    )
    if not isinstance(announce, wire.SizeAnnounce):
        raise WireError(
            f"expected a SizeAnnounce for period {period}, "
            f"got {announce!r}"
        )
    for port in gateway_ports:
        ack = await exchange(port, announce, "size_announce")
        if not (
            isinstance(ack, wire.SizeAnnounceAck)
            and ack.period == int(period)
        ):
            raise WireError(
                f"expected a SizeAnnounceAck for period {period}, "
                f"got {ack!r}"
            )
    m_announced.inc()
    return announce.to_sizes()


async def run_queries(
    spec: DeploymentSpec,
    *,
    host: str = "127.0.0.1",
    collector_port: int = DEFAULT_COLLECTOR_PORT,
    period: int = 0,
    max_queries: Optional[int] = None,
    ack_timeout: float = 5.0,
    retry_policy: Optional[RetryPolicy] = None,
    retry_seed: int = 0,
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[np.ndarray, int, List[Tuple[int, int]], int, List[int], int]:
    """Query the live collector and diff against the local decoder.

    Queries are read-only, so fault recovery is simple: on any broken
    exchange, reconnect and reissue the same query.  An
    ``E_ESTIMATION`` error frame is a legitimate *answer* (the local
    decoder fails the same way); any other error frame counts as a
    fault.

    Returns ``(latencies_ms, estimates_checked, pair_mismatches,
    counters_checked, counter_mismatches, reconnects)``.
    """
    policy = retry_policy if retry_policy is not None else RetryPolicy()
    rng = random.Random(retry_seed)
    registry = registry if registry is not None else MetricsRegistry()
    m_queries = registry.counter("loadgen.queries_total")
    m_reconnects = registry.counter("loadgen.query_reconnects_total")
    m_latency = registry.histogram("loadgen.query_seconds")
    reference = spec.reference_decoder(period=period)
    rsu_ids = reference.rsu_ids(period)
    latencies: List[float] = []
    mismatches: List[Tuple[int, int]] = []
    counter_mismatches: List[int] = []
    checked = 0
    counters_checked = 0
    client: Optional[wire.FrameClient] = None

    async def ask(message: wire.Message) -> wire.Message:
        nonlocal client
        last_exc: Optional[BaseException] = None
        for _ in range(_MAX_STALLS):
            try:
                if client is None:
                    client = await retry_async(
                        lambda: wire.FrameClient.open(
                            host, collector_port, ack_timeout
                        ),
                        policy=policy,
                        rng=rng,
                        registry=registry,
                        op="collector_connect",
                    )
                answer = await client.request(message)
                if (
                    isinstance(answer, wire.ErrorMsg)
                    and answer.code != wire.E_ESTIMATION
                ):
                    raise WireError(f"collector nack: {answer.message}")
                m_queries.inc()
                return answer
            except _FAULTS as exc:
                last_exc = exc
                if client is not None:
                    client.close()
                    client = None
                m_reconnects.inc()
        raise RetryExhaustedError(
            f"query never completed after {_MAX_STALLS} reconnects: "
            f"{last_exc}",
            attempts=_MAX_STALLS,
        ) from last_exc

    try:
        # Exact point volumes first: cheap, and a counter drift would
        # explain any estimate drift downstream.
        for rsu_id in rsu_ids:
            answer = await ask(
                wire.PointQuery(rsu_id=rsu_id, period=period)
            )
            counters_checked += 1
            if not (
                isinstance(answer, wire.PointVolume)
                and answer.counter == reference.point_volume(rsu_id, period)
            ):
                counter_mismatches.append(rsu_id)
        # The full point-to-point matrix.
        pairs = [
            (a, b)
            for i, a in enumerate(rsu_ids)
            for b in rsu_ids[i + 1 :]
        ]
        if max_queries is not None:
            pairs = pairs[: int(max_queries)]
        for rsu_x, rsu_y in pairs:
            start = time.perf_counter()
            answer = await ask(
                wire.VolumeQuery(rsu_x=rsu_x, rsu_y=rsu_y, period=period)
            )
            elapsed = time.perf_counter() - start
            m_latency.observe(elapsed)
            latencies.append(elapsed * 1e3)
            try:
                expected = reference.pair_estimate(rsu_x, rsu_y, period)
            except EstimationError:
                # The live side must fail the same way.
                if not isinstance(answer, wire.ErrorMsg):
                    mismatches.append((rsu_x, rsu_y))
                continue
            checked += 1
            if not (
                isinstance(answer, wire.EstimateMsg)
                and answer.n_c_hat == expected.value
                and answer.v_c == expected.v_c
                and answer.v_x == expected.v_x
                and answer.v_y == expected.v_y
                and answer.m_x == expected.m_x
                and answer.m_y == expected.m_y
                and answer.n_x == expected.n_x
                and answer.n_y == expected.n_y
            ):
                mismatches.append((rsu_x, rsu_y))
    finally:
        if client is not None:
            client.close()
    return (
        np.asarray(latencies),
        checked,
        mismatches,
        counters_checked,
        counter_mismatches,
        int(m_reconnects.value),
    )


async def run_loadgen(
    spec: Optional[DeploymentSpec] = None,
    *,
    host: str = "127.0.0.1",
    gateway_port: int = DEFAULT_GATEWAY_PORT,
    collector_port: int = DEFAULT_COLLECTOR_PORT,
    shards: int = 0,
    rebalance: int = 0,
    shard_ports: Optional[Sequence[int]] = None,
    wire_batch: int = 4096,
    max_queries: Optional[int] = None,
    period: int = 0,
    window: int = 32,
    windows: int = 0,
    ack_timeout: float = 5.0,
    close_timeout: float = 30.0,
    retry_policy: Optional[RetryPolicy] = None,
    retry_seed: int = 0,
    registry: Optional[MetricsRegistry] = None,
) -> LoadgenResult:
    """Full load generation run against any plane shape: for every
    period, announce its sizes, stream the day, then verify queries.

    ``shards=0`` drives one unsharded gateway at *gateway_port*;
    ``shards=N`` drives N gateway shards at *shard_ports* (default:
    :func:`~repro.service.runtime.shard_port_plan`, the rule ``repro
    serve --shards N`` binds by).  ``rebalance=K`` hands the first K
    RSU ids (sorted) to their neighbour shard during period 0 (see
    :func:`plan_phases`); later periods route them to their new shard.
    *windows* ``> 1`` replays each day in that many window-closed
    phases (the deployment must be serving with the same window
    count).  Invalid shapes raise
    :class:`~repro.errors.ConfigurationError` before any socket opens.

    A spec with ``periods > 1`` replays that many consecutive days.
    Before day ``p > 0`` the generator runs :func:`announce_sizes` —
    collector plan, every gateway resized — and diffs the announced
    plan against the spec's in-process
    :meth:`~repro.service.runtime.DeploymentSpec.size_trajectory`; a
    divergence fails :attr:`LoadgenResult.bit_identical` like any
    estimate mismatch.  Each day's counters and matrix are verified by
    :func:`run_queries` against the in-process decoder.  One
    *registry* (fresh if omitted) collects every metric and is
    attached to the result as ``result.registry``.
    """
    spec = spec if spec is not None else DeploymentSpec()
    registry = registry if registry is not None else MetricsRegistry()
    periods = max(1, int(getattr(spec, "periods", 1)))
    shards = int(shards)
    if shards < 0:
        raise ConfigurationError(f"shards must be >= 0, got {shards}")
    if periods > 1 and int(windows) > 1:
        raise ConfigurationError(
            "multi-period replay does not support sub-period windows; "
            "drop --window or --periods"
        )
    router = ShardRouter(shards, registry=registry) if shards else None
    if shard_ports is None:
        shard_ports = (
            shard_port_plan(gateway_port, shards, collector_port)
            if shards
            else [gateway_port]
        )
    golden = spec.size_trajectory()
    announced: List[Dict[int, int]] = [dict(golden[0])]
    trajectory_mismatches: List[int] = []
    stream_seconds = 0.0
    snapshots_acked = 0
    all_latencies: List[np.ndarray] = []
    checked = 0
    mismatches: List[Tuple[int, int]] = []
    counters_checked = 0
    counter_mismatches: List[int] = []
    query_reconnects = 0
    for p in range(periods):
        if p > 0:
            sizes = await announce_sizes(
                spec,
                period + p,
                host=host,
                gateway_ports=shard_ports,
                collector_port=collector_port,
                ack_timeout=ack_timeout,
                retry_policy=retry_policy,
                retry_seed=retry_seed + 1000 + p,
                registry=registry,
            )
            announced.append(sizes)
            if sizes != golden[p]:
                trajectory_mismatches.append(p)
        stream = await replay_day(
            spec,
            host=host,
            shard_ports=shard_ports,
            router=router,
            rebalance=rebalance if p == 0 else 0,
            wire_batch=wire_batch,
            period=period + p,
            window=window,
            windows=windows,
            ack_timeout=ack_timeout,
            close_timeout=close_timeout,
            retry_policy=retry_policy,
            retry_seed=retry_seed,
            registry=registry,
        )
        stream_seconds += stream.elapsed
        snapshots_acked += stream.snapshots_acked
        (
            latencies,
            p_checked,
            p_mismatches,
            p_counters_checked,
            p_counter_mismatches,
            p_reconnects,
        ) = await run_queries(
            spec,
            host=host,
            collector_port=collector_port,
            period=period + p,
            max_queries=max_queries,
            ack_timeout=ack_timeout,
            retry_policy=retry_policy,
            retry_seed=retry_seed + 1 + p,
            registry=registry,
        )
        all_latencies.append(latencies)
        checked += p_checked
        mismatches.extend(p_mismatches)
        counters_checked += p_counters_checked
        counter_mismatches.extend(p_counter_mismatches)
        query_reconnects += p_reconnects
    latencies = np.concatenate(all_latencies)
    return LoadgenResult(
        responses_sent=stream.sent,
        stream_seconds=stream_seconds,
        queries=int(latencies.size),
        query_latencies_ms=latencies,
        estimates_checked=checked,
        pair_mismatches=mismatches,
        counters_checked=counters_checked,
        counter_mismatches=counter_mismatches,
        snapshots_acked=snapshots_acked,
        reconnects=stream.reconnects + query_reconnects,
        batches_resent=stream.batches_resent,
        dedup_acks=stream.dedup_acks,
        nacks=stream.nacks,
        registry=registry,
        periods=periods,
        size_trajectory=announced,
        trajectory_mismatches=trajectory_mismatches,
        per_shard={
            shard: int(
                registry.value("federation.loadgen_sent_total", shard=shard)
            )
            for shard in range(shards)
        },
        handoffs=len(router.overrides) if router is not None else 0,
    )
