"""Start, drive, and benchmark a whole federation in one process.

Three tiers of entry point live here:

* :func:`start_federation` / :class:`FederationPlane` — bring up N
  :class:`~repro.federation.shards.ShardGateway` shards and one
  :class:`~repro.federation.collector.FederatedCollector` inside the
  current event loop (shard fleets are built through
  :func:`repro.runtime.run_tasks`, so ``REPRO_WORKERS`` /
  ``REPRO_EXECUTOR`` parallelize startup like every other batch in
  this repo).  The plane knows how to kill and resurrect a shard,
  which the chaos scenario leans on.
* :func:`run_federated_loadgen` — the sharded day replay: the same
  deterministic batches as :func:`repro.service.loadgen.replay_day`
  (seqs stay globally unique, which is what makes a mid-period
  handoff retransmission-safe), partitioned by the router, streamed
  to every shard concurrently, optionally rebalancing RSUs between
  shards mid-period, then verified bit-for-bit against the local
  reference decoder through the unmodified
  :func:`repro.service.loadgen.run_queries`.
* :func:`run_federated_serve` — the blocking process behind
  ``repro serve --shards N``, with the same SIGTERM/SIGINT graceful
  shutdown as the single-gateway serve: shards drain their ingest
  queues and the WAL tail is fsynced before the process exits.
* :func:`run_shard_slice` — a top-level, picklable "one shard's whole
  day" used by ``benchmarks/bench_federation.py`` to drive shards in
  separate OS processes via :func:`repro.runtime.run_tasks`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.sizing import StaticSizing
from repro.errors import ConfigurationError, WireError
from repro.federation.collector import FederatedCollector
from repro.federation.router import ShardRouter
from repro.federation.shards import (
    ShardGateway,
    build_shard_rsus,
    spec_provisioner,
)
from repro.federation.wal import WriteAheadLog
from repro.obs import MetricsRegistry
from repro.runtime import run_tasks, task
from repro.service import loadgen, wire
from repro.service.runtime import (
    DeploymentSpec,
    install_stop_handlers,
)
from repro.utils.logconfig import get_logger
from repro.vcps.ids import random_macs
from repro.vcps.pki import CertificateAuthority
from repro.vcps.rsu import RoadsideUnit
from repro.vcps.server import CentralServer

__all__ = [
    "FederationPlane",
    "FederatedLoadgenResult",
    "ShardClient",
    "start_federation",
    "run_federated_loadgen",
    "run_federated_serve",
    "run_shard_slice",
    "shard_port_plan",
    "DEFAULT_SHARD_BASE_PORT",
]

logger = get_logger("federation.runtime")

#: ``repro serve --shards N`` binds shard *i* to ``base + i``.
DEFAULT_SHARD_BASE_PORT = 8711


def shard_port_plan(
    base: int, shards: int, collector_port: int
) -> List[int]:
    """The deterministic shard ports both sides of a CLI deployment use.

    Consecutive ports from *base*, skipping *collector_port* so the
    default flag values never collide.  ``repro serve --shards N`` and
    ``repro loadgen --shards N`` compute this independently from the
    same flags, like everything else in a deployment spec.
    """
    ports: List[int] = []
    port = int(base)
    while len(ports) < shards:
        if port != collector_port:
            ports.append(port)
        port += 1
    return ports


# ----------------------------------------------------------------------
# Plane lifecycle
# ----------------------------------------------------------------------
@dataclass
class FederationPlane:
    """A running federation: router, shard gateways, collector, WAL."""

    spec: DeploymentSpec
    router: ShardRouter
    shards: Dict[int, ShardGateway]
    collector: FederatedCollector
    host: str = "127.0.0.1"
    wal: Optional[WriteAheadLog] = None
    owns_wal: bool = field(default=False, repr=False)
    #: Sub-period window count the plane was started with (0 = the
    #: streaming window tier is off).
    windows: int = 0

    def shard_ports(self) -> Dict[int, int]:
        """``shard_id -> bound ingest port`` for every live shard."""
        return {
            shard_id: gateway.port
            for shard_id, gateway in sorted(self.shards.items())
        }

    async def stop(self) -> None:
        """Drain and stop every shard, the collector, and the WAL."""
        for gateway in self.shards.values():
            await gateway.stop()
        await self.collector.stop()
        if self.owns_wal and self.wal is not None:
            self.wal.close()

    async def kill_shard(self, shard_id: int) -> None:
        """Stop shard *shard_id* and discard its in-memory state.

        Simulates a shard crash: the gateway object (and with it every
        un-uploaded bit array and the batch dedup window) is dropped.
        The socket is closed cleanly so the port can be rebound.
        """
        gateway = self.shards.pop(shard_id)
        await gateway.stop()
        logger.info("shard %d killed (state discarded)", shard_id)

    async def restart_shard(
        self, shard_id: int, *, port: int = 0
    ) -> ShardGateway:
        """Bring shard *shard_id* back with fresh zeroed RSUs.

        The revived shard owns whatever the router currently assigns
        it (rebalances included) and starts from empty arrays — its
        senders must resend the period's responses, exactly as after a
        real crash.
        """
        if shard_id in self.shards:
            raise ConfigurationError(
                f"shard {shard_id} is still running; kill it first"
            )
        gateway = ShardGateway(
            shard_id,
            build_shard_rsus(self.spec, self.router, shard_id),
            provisioner=spec_provisioner(self.spec),
            collector_host=self.host,
            collector_port=self.collector.port,
            windows=self.windows,
        )
        await gateway.start(self.host, port)
        self.shards[shard_id] = gateway
        logger.info(
            "shard %d restarted on %s:%s", shard_id, self.host, gateway.port
        )
        return gateway


async def start_federation(
    spec: DeploymentSpec,
    *,
    shards: int,
    host: str = "127.0.0.1",
    gateway_ports: Union[int, Sequence[int], None] = None,
    collector_port: int = 0,
    wal_path: Union[str, Path, None] = None,
    wal_fsync: bool = False,
    retention_periods: Optional[int] = None,
    build_workers: Optional[int] = None,
    build_executor: Optional[str] = None,
    windows: int = 0,
) -> FederationPlane:
    """Start a collector and *shards* gateway shards; returns the plane.

    *gateway_ports* may be ``None`` (every shard ephemeral), a base
    port (shard *i* binds ``base + i``; base 0 means ephemeral), or an
    explicit per-shard sequence.  With *wal_path*, the collector
    journals every shard partial there (the plane owns and closes the
    log).  Shard RSU fleets are built through
    :func:`repro.runtime.run_tasks` with *build_workers* /
    *build_executor* (default: the ``REPRO_WORKERS`` /
    ``REPRO_EXECUTOR`` plan).  *windows* ``> 0`` turns on the streaming
    window tier: every shard tracks sub-period accumulators and serves
    ``EndWindow``, and the collector OR-merges window-tagged partials.
    """
    router = ShardRouter(shards)
    registry = MetricsRegistry()
    wal = None
    if wal_path is not None:
        wal = WriteAheadLog(wal_path, registry=registry, fsync=wal_fsync)
    collector = FederatedCollector(
        spec.build_central_server(windows=max(int(windows), 1)),
        registry=registry,
        retention_periods=retention_periods,
        wal=wal,
    )
    await collector.start(host, collector_port)
    fleets = run_tasks(
        [
            task(build_shard_rsus, spec, router, shard_id)
            for shard_id in range(shards)
        ],
        workers=build_workers,
        executor=build_executor,
    )
    if gateway_ports is None or gateway_ports == 0:
        ports: List[int] = [0] * shards
    elif isinstance(gateway_ports, int):
        ports = [gateway_ports + i for i in range(shards)]
    else:
        ports = list(gateway_ports)
        if len(ports) != shards:
            raise ConfigurationError(
                f"{len(ports)} gateway ports for {shards} shards"
            )
    plane = FederationPlane(
        spec=spec,
        router=router,
        shards={},
        collector=collector,
        host=host,
        wal=wal,
        owns_wal=wal is not None,
        windows=int(windows),
    )
    provisioner = spec_provisioner(spec)
    for shard_id, (fleet, port) in enumerate(zip(fleets, ports)):
        gateway = ShardGateway(
            shard_id,
            fleet,
            provisioner=provisioner,
            collector_host=host,
            collector_port=collector.port,
            windows=int(windows),
        )
        await gateway.start(host, port)
        plane.shards[shard_id] = gateway
    logger.info(
        "federation up: %d shards -> collector %s:%s (wal=%s)",
        shards,
        host,
        collector.port,
        wal.path if wal is not None else "off",
    )
    return plane


# ----------------------------------------------------------------------
# Shard client (streaming, handoff, period close)
# ----------------------------------------------------------------------
class ShardClient:
    """One sender's connection to one gateway shard.

    Minimal strict client used by the sharded load generator and the
    chaos scenario: batches are streamed with a bounded in-flight
    window, every frame's ack is checked, and any nack raises
    :class:`~repro.errors.WireError` (fault *recovery* lives in the
    callers, which simply resend through a fresh client — gateway
    batch dedup and collector merge dedup make that safe).
    """

    def __init__(
        self, host: str, port: int, *, timeout: float = 10.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        """Dial the shard (idempotent)."""
        if self._writer is None:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                timeout=self.timeout,
            )

    async def _ask(self, message: wire.Message) -> wire.Message:
        await self.connect()
        assert self._reader is not None and self._writer is not None
        await asyncio.wait_for(
            wire.write_message(self._writer, message), timeout=self.timeout
        )
        return await asyncio.wait_for(
            wire.read_message(self._reader), timeout=self.timeout
        )

    async def send_batches(
        self,
        batches: Sequence[wire.ResponseBatch],
        *,
        window: int = 32,
    ) -> int:
        """Stream *batches* with at most *window* unacked; returns the
        responses acknowledged (dedup acks included)."""
        await self.connect()
        assert self._reader is not None and self._writer is not None
        sent = 0
        outstanding: List[wire.ResponseBatch] = []

        async def read_ack() -> None:
            nonlocal sent
            batch = outstanding.pop(0)
            ack = await asyncio.wait_for(
                wire.read_message(self._reader), timeout=self.timeout
            )
            if not isinstance(ack, wire.BatchAck) or ack.seq != batch.seq:
                raise WireError(
                    f"expected ack for batch seq {batch.seq}, got {ack!r}"
                )
            sent += int(batch.macs.size)

        for batch in batches:
            await asyncio.wait_for(
                wire.write_message(self._writer, batch),
                timeout=self.timeout,
            )
            outstanding.append(batch)
            if len(outstanding) >= window:
                await read_ack()
        while outstanding:
            await read_ack()
        return sent

    async def handoff(
        self, rsu_id: int, from_shard: int, to_shard: int, period: int
    ) -> None:
        """Tell this (target) shard to take ownership of *rsu_id*."""
        ack = await self._ask(
            wire.Handoff(
                rsu_id=rsu_id,
                from_shard=from_shard,
                to_shard=to_shard,
                period=period,
            )
        )
        if not (
            isinstance(ack, wire.HandoffAck) and ack.rsu_id == rsu_id
        ):
            raise WireError(f"handoff of rsu {rsu_id} refused: {ack!r}")

    async def end_window(
        self, period: int, window: int, *, timeout: Optional[float] = None
    ) -> int:
        """Close sub-period *window* at the shard; returns how many
        window-tagged partials the collector acked."""
        await self.connect()
        assert self._reader is not None and self._writer is not None
        await asyncio.wait_for(
            wire.write_message(
                self._writer,
                wire.EndWindow(period=period, window=window),
            ),
            timeout=self.timeout,
        )
        ack = await asyncio.wait_for(
            wire.read_message(self._reader),
            timeout=timeout if timeout is not None else self.timeout,
        )
        if not (
            isinstance(ack, wire.EndWindowAck) and ack.window == window
        ):
            raise WireError(f"expected EndWindowAck, got {ack!r}")
        return ack.partials

    async def end_period(
        self, period: int, *, timeout: Optional[float] = None
    ) -> int:
        """Close *period* at the shard; returns snapshots uploaded."""
        await self.connect()
        assert self._reader is not None and self._writer is not None
        await asyncio.wait_for(
            wire.write_message(self._writer, wire.EndPeriod(period=period)),
            timeout=self.timeout,
        )
        ack = await asyncio.wait_for(
            wire.read_message(self._reader),
            timeout=timeout if timeout is not None else self.timeout,
        )
        if not isinstance(ack, wire.EndPeriodAck):
            raise WireError(f"expected EndPeriodAck, got {ack!r}")
        return ack.snapshots

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            self._reader = None
            self._writer = None


# ----------------------------------------------------------------------
# Sharded load generation
# ----------------------------------------------------------------------
@dataclass
class FederatedLoadgenResult:
    """What a sharded replay delivered and whether it was correct."""

    shards: int
    responses_sent: int
    per_shard: Dict[int, int]
    handoffs: int
    snapshots_acked: int
    stream_seconds: float
    estimates_checked: int
    pair_mismatches: List[Tuple[int, int]]
    counters_checked: int
    counter_mismatches: List[int]

    @property
    def bit_identical(self) -> bool:
        """True iff every live answer matched the local reference."""
        return not self.pair_mismatches and not self.counter_mismatches

    @property
    def throughput(self) -> float:
        """Responses per second across the whole streaming phase."""
        if self.stream_seconds <= 0:
            return 0.0
        return self.responses_sent / self.stream_seconds

    def render(self) -> str:
        """Human-readable summary for the CLI."""
        shard_cells = ", ".join(
            f"s{shard}={count:,}"
            for shard, count in sorted(self.per_shard.items())
        )
        lines = [
            f"shards              : {self.shards} ({shard_cells})",
            f"responses sent      : {self.responses_sent:,} "
            f"in {self.stream_seconds:.2f}s "
            f"({self.throughput:,.0f}/s)",
            f"mid-period handoffs : {self.handoffs}",
            f"snapshots acked     : {self.snapshots_acked}",
            f"estimates checked   : {self.estimates_checked} "
            f"({len(self.pair_mismatches)} mismatches)",
            f"counters checked    : {self.counters_checked} "
            f"({len(self.counter_mismatches)} mismatches)",
            "verdict             : "
            + ("bit-identical" if self.bit_identical else "MISMATCH"),
        ]
        return "\n".join(lines)


def plan_shard_batches(
    spec: DeploymentSpec,
    router: ShardRouter,
    *,
    wire_batch: int = 4096,
    rebalance_rsus: Sequence[int] = (),
) -> Tuple[
    Dict[int, List[wire.ResponseBatch]],
    List[Tuple[int, int, int, List[wire.ResponseBatch]]],
]:
    """Partition the deterministic day across shards.

    Returns ``(phase1, moves)``: *phase1* maps each shard to the
    batches it receives before any rebalance; *moves* lists
    ``(rsu_id, from_shard, to_shard, tail_batches)`` — for each
    rebalanced RSU, the second half of its batches, to be streamed to
    the target shard after the :class:`~repro.service.wire.Handoff`.
    Batch seqs come from :func:`repro.service.loadgen._day_batches`
    and stay globally unique, so a batch resent to a different shard
    after a crash still dedups correctly.
    """
    batches = loadgen._day_batches(spec, wire_batch)
    phase1: Dict[int, List[wire.ResponseBatch]] = {
        shard: [] for shard in range(router.shard_count)
    }
    moving = set(int(r) for r in rebalance_rsus)
    by_rsu: Dict[int, List[wire.ResponseBatch]] = {}
    for batch in batches:
        if batch.rsu_id in moving:
            by_rsu.setdefault(batch.rsu_id, []).append(batch)
        else:
            phase1[router.shard_for(batch.rsu_id)].append(batch)
    moves: List[Tuple[int, int, int, List[wire.ResponseBatch]]] = []
    for rsu_id in sorted(by_rsu):
        home = router.shard_for(rsu_id)
        target = (home + 1) % router.shard_count
        rsu_batches = by_rsu[rsu_id]
        cut = max(1, len(rsu_batches) // 2)
        phase1[home].extend(rsu_batches[:cut])
        moves.append((rsu_id, home, target, rsu_batches[cut:]))
    return phase1, moves


async def run_federated_loadgen(
    spec: DeploymentSpec,
    *,
    shards: int,
    host: str = "127.0.0.1",
    shard_ports: Sequence[int],
    collector_port: int,
    wire_batch: int = 4096,
    window: int = 32,
    period: int = 0,
    rebalance: int = 0,
    max_queries: Optional[int] = None,
    close_timeout: float = 60.0,
    registry: Optional[MetricsRegistry] = None,
) -> FederatedLoadgenResult:
    """Replay the deterministic day against a running federation.

    Streams every shard concurrently; with ``rebalance=N`` the first N
    RSU ids (sorted) are handed to their neighbour shard mid-period,
    so their responses land on two shards and the collector's OR-merge
    is exercised for real.  Afterwards the unmodified
    :func:`repro.service.loadgen.run_queries` checks every counter and
    point-to-point estimate against the local reference decoder.
    """
    registry = registry if registry is not None else MetricsRegistry()
    router = ShardRouter(shards, registry=registry)
    if rebalance:
        movable = sorted(spec.scheme.rsu_ids)[: int(rebalance)]
    else:
        movable = []
    phase1, moves = plan_shard_batches(
        spec, router, wire_batch=wire_batch, rebalance_rsus=movable
    )
    clients = {
        shard: ShardClient(host, port)
        for shard, port in zip(range(shards), shard_ports)
    }
    per_shard: Dict[int, int] = {shard: 0 for shard in range(shards)}
    start = time.perf_counter()
    try:
        # Phase 1: every shard streams its home batches concurrently.
        async def stream(shard: int) -> None:
            sent = await clients[shard].send_batches(
                phase1[shard], window=window
            )
            per_shard[shard] += sent
            registry.counter(
                "federation.loadgen_sent_total", shard=shard
            ).inc(sent)

        await asyncio.gather(*(stream(s) for s in range(shards)))
        # Phase 2: hand each rebalanced RSU to its target shard, then
        # stream the tail of its day there.
        for rsu_id, home, target, tail in moves:
            await clients[target].handoff(rsu_id, home, target, period)
            router.reassign(rsu_id, target)
            sent = await clients[target].send_batches(tail, window=window)
            per_shard[target] += sent
            registry.counter(
                "federation.loadgen_sent_total", shard=target
            ).inc(sent)
        # Close the period everywhere; every shard uploads partials.
        snapshots = 0
        for shard in range(shards):
            snapshots += await clients[shard].end_period(
                period, timeout=close_timeout
            )
    finally:
        for client in clients.values():
            await client.close()
    stream_seconds = time.perf_counter() - start
    (
        _latencies,
        estimates_checked,
        pair_mismatches,
        counters_checked,
        counter_mismatches,
        _reconnects,
    ) = await loadgen.run_queries(
        spec,
        host=host,
        collector_port=collector_port,
        period=period,
        max_queries=max_queries,
        registry=registry,
    )
    return FederatedLoadgenResult(
        shards=shards,
        responses_sent=sum(per_shard.values()),
        per_shard=per_shard,
        handoffs=len(moves),
        snapshots_acked=snapshots,
        stream_seconds=stream_seconds,
        estimates_checked=estimates_checked,
        pair_mismatches=pair_mismatches,
        counters_checked=counters_checked,
        counter_mismatches=counter_mismatches,
    )


# ----------------------------------------------------------------------
# Blocking serve entry point (``repro serve --shards N``)
# ----------------------------------------------------------------------
async def _federated_serve_forever(
    spec: DeploymentSpec,
    *,
    shards: int,
    host: str,
    gateway_port: int,
    collector_port: int,
    metrics_port: Optional[int],
    wal_path: Union[str, Path, None],
    retention_periods: Optional[int],
    windows: int = 0,
) -> None:
    from repro.obs import serve_metrics

    # Before any port opens: a SIGTERM during start-up still drains.
    stop = asyncio.Event()
    install_stop_handlers(stop)
    plane = await start_federation(
        spec,
        shards=shards,
        host=host,
        gateway_ports=(
            shard_port_plan(gateway_port, shards, collector_port)
            if gateway_port
            else None
        ),
        collector_port=collector_port,
        wal_path=wal_path,
        retention_periods=retention_periods,
        windows=windows,
    )
    metrics = None
    if metrics_port is not None:
        registries = {"collector": plane.collector.registry}
        for shard_id, gateway in sorted(plane.shards.items()):
            registries[f"shard{shard_id}"] = gateway.registry
        metrics = await serve_metrics(
            registries, host=host, port=metrics_port
        )
    for shard_id, gateway in sorted(plane.shards.items()):
        print(
            f"shard {shard_id} listening on {host}:{gateway.port} "
            f"({len(gateway.rsus)} RSUs)"
        )
    print(f"collector listening on {host}:{plane.collector.port}")
    if plane.wal is not None:
        print(f"write-ahead log at {plane.wal.path}")
    if metrics is not None:
        print(f"metrics exposed at http://{host}:{metrics.port}/metrics")
    print("press Ctrl-C to stop", flush=True)
    try:
        await stop.wait()
    finally:
        if metrics is not None:
            await metrics.stop()
        # plane.stop() drains every shard's ingest queue and fsyncs
        # the WAL tail, so SIGTERM never loses accepted responses or
        # journaled partials.
        await plane.stop()
    retained = sum(
        gateway.responses_recorded for gateway in plane.shards.values()
    )
    wal_note = ""
    if plane.wal is not None:
        wal_note = (
            f", wal synced ({plane.wal.records_appended} records)"
        )
    print(
        f"shutdown complete: {shards} shards drained, "
        f"{retained:,} responses retained{wal_note}",
        flush=True,
    )


def run_federated_serve(
    spec: Optional[DeploymentSpec] = None,
    *,
    shards: int,
    host: str = "127.0.0.1",
    gateway_port: int = DEFAULT_SHARD_BASE_PORT,
    collector_port: int = 0,
    metrics_port: Optional[int] = None,
    wal_path: Union[str, Path, None] = None,
    retention_periods: Optional[int] = None,
    windows: int = 0,
) -> int:
    """Blocking entry point behind ``repro serve --shards N``.

    Shard *i* binds ``gateway_port + i``.  SIGTERM/SIGINT trigger the
    same graceful shutdown as the single-gateway serve, plus a WAL
    fsync, before the process exits 0.  *windows* ``> 0`` enables the
    streaming window tier across every shard.
    """
    spec = spec if spec is not None else DeploymentSpec()
    try:
        asyncio.run(
            _federated_serve_forever(
                spec,
                shards=shards,
                host=host,
                gateway_port=gateway_port,
                collector_port=collector_port,
                metrics_port=metrics_port,
                wal_path=wal_path,
                retention_periods=retention_periods,
                windows=windows,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - non-unix fallback
        print("\nshutting down")
    return 0


# ----------------------------------------------------------------------
# Process-parallel shard slice (the federation benchmark's worker)
# ----------------------------------------------------------------------
def run_shard_slice(
    shard_id: int,
    rsu_count: int,
    responses_per_rsu: int,
    array_bits: int,
    *,
    wire_batch: int = 4096,
    window: int = 64,
    seed: int = 1234,
    s: int = 2,
    load_factor: float = 3.0,
) -> Dict[str, object]:
    """One shard's whole ingest day, self-contained and picklable.

    Builds *rsu_count* synthetic RSUs (ids ``shard_id * rsu_count ..``),
    a private :class:`~repro.federation.collector.FederatedCollector`,
    and a :class:`~repro.federation.shards.ShardGateway`, then streams
    ``rsu_count * responses_per_rsu`` deterministic responses over a
    real localhost socket and closes the period.  Per-RSU randomness
    is seeded by ``seed + rsu_id``, so the same RSU produces the same
    bits no matter how many shards the fleet is split into — which
    lets the benchmark diff a federated run against its single-shard
    baseline bit for bit.

    Returns ``{"responses", "elapsed", "checks"}`` where *checks* maps
    each RSU id to ``(merged counter, merged popcount)``.
    """

    async def drive() -> Dict[str, object]:
        authority = CertificateAuthority(seed=seed)
        base = shard_id * rsu_count
        rsus = {
            rsu_id: RoadsideUnit(
                rsu_id, array_bits, authority.issue(rsu_id)
            )
            for rsu_id in range(base, base + rsu_count)
        }
        collector = FederatedCollector(
            CentralServer(s, StaticSizing(load_factor))
        )
        await collector.start("127.0.0.1", 0)
        gateway = ShardGateway(
            shard_id,
            rsus,
            collector_host="127.0.0.1",
            collector_port=collector.port,
        )
        await gateway.start("127.0.0.1", 0)
        batches: List[wire.ResponseBatch] = []
        seq = 1
        for rsu_id in sorted(rsus):
            rng = np.random.default_rng(seed + rsu_id)
            indices = rng.integers(
                0, array_bits, size=responses_per_rsu, dtype=np.int64
            )
            macs = random_macs(responses_per_rsu, seed=seed + rsu_id)
            for lo in range(0, responses_per_rsu, wire_batch):
                batches.append(
                    wire.ResponseBatch(
                        rsu_id=rsu_id,
                        macs=macs[lo : lo + wire_batch],
                        bit_indices=indices[lo : lo + wire_batch].astype(
                            np.uint32
                        ),
                        seq=seq,
                    )
                )
                seq += 1
        client = ShardClient("127.0.0.1", gateway.port)
        start = time.perf_counter()
        sent = await client.send_batches(batches, window=window)
        await client.end_period(0, timeout=120.0)
        elapsed = time.perf_counter() - start
        await client.close()
        checks = {
            rsu_id: (
                collector.server.point_volume(rsu_id, 0),
                state.bits.count_ones(),
            )
            for (rsu_id, _period), state in sorted(
                collector._merged.items()
            )
        }
        await gateway.stop()
        await collector.stop()
        return {"responses": sent, "elapsed": elapsed, "checks": checks}

    return asyncio.run(drive())
