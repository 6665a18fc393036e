"""Drive and benchmark a sharded plane in one process.

The plane itself — :class:`~repro.service.runtime.FederationPlane`
and :func:`~repro.service.runtime.start_federation`, one bring-up for
``shards=0`` (unsharded) and ``shards=N`` — lives in the service tier
and is re-exported here.  This module adds what only a sharded
deployment needs:

* :func:`run_federated_loadgen` — the sharded day replay: the same
  deterministic batches as :func:`repro.service.loadgen.replay_day`
  (seqs stay globally unique, which is what makes a mid-period
  handoff retransmission-safe), partitioned by the router and
  streamed to every shard concurrently through the one sender,
  :func:`repro.service.loadgen.send_phases`, optionally rebalancing
  RSUs between shards mid-period, then verified bit-for-bit against
  the local reference decoder through the unmodified
  :func:`repro.service.loadgen.run_queries`.
* :func:`run_shard_slice` — a top-level, picklable "one shard's whole
  day" used by ``benchmarks/bench_federation.py`` to drive shards in
  separate OS processes via :func:`repro.runtime.run_tasks`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.sizing import StaticSizing
from repro.federation.router import ShardRouter
from repro.obs import MetricsRegistry
from repro.service import wire
from repro.service.collector import CollectorService
from repro.service.gateway import RsuGateway
from repro.service.loadgen import (
    LoadgenResult,
    Phase,
    StreamStats,
    _day_window_batches,
    run_queries,
    send_phases,
)
from repro.service.runtime import (
    DeploymentSpec,
    FederationPlane,
    shard_port_plan,
    start_federation,
)
from repro.vcps.ids import random_macs
from repro.vcps.pki import CertificateAuthority
from repro.vcps.rsu import RoadsideUnit
from repro.vcps.server import CentralServer

__all__ = [
    "FederationPlane",
    "start_federation",
    "plan_shard_batches",
    "run_federated_loadgen",
    "run_shard_slice",
    "shard_port_plan",
]


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
    Batch seqs are the plain day's (one window of
    :func:`repro.service.loadgen._day_window_batches`) and stay
    globally unique, so a batch resent to a different shard after a
    crash still dedups correctly.
    """
    batches = _day_window_batches(spec, wire_batch, 1)[0]
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
) -> LoadgenResult:
    """Replay the deterministic day against a running federation.

    Streams every shard concurrently; with ``rebalance=N`` the first N
    RSU ids (sorted) are handed to their neighbour shard mid-period,
    so their responses land on two shards and the collector's OR-merge
    is exercised for real.  Each shard's delivery is one
    :func:`~repro.service.loadgen.send_phases` plan: its home batches,
    then for every RSU handed to it a ``Handoff`` followed by that
    RSU's tail, then ``EndPeriod``.  Afterwards the unmodified
    :func:`repro.service.loadgen.run_queries` checks every counter and
    point-to-point estimate against the local reference decoder.
    """
    registry = registry if registry is not None else MetricsRegistry()
    router = ShardRouter(shards, registry=registry)
    movable = sorted(spec.scheme.rsu_ids)[: int(rebalance)]
    phase1, moves = plan_shard_batches(
        spec, router, wire_batch=wire_batch, rebalance_rsus=movable
    )
    plans: Dict[int, List[Phase]] = {shard: [] for shard in range(shards)}
    pending = dict(phase1)
    for rsu_id, home, target, tail in moves:
        handoff = wire.Handoff(
            rsu_id=rsu_id, from_shard=home, to_shard=target, period=period
        )
        plans[target].append((pending[target], handoff))
        pending[target] = tail
        router.reassign(rsu_id, target)
    for shard in range(shards):
        plans[shard].append((pending[shard], wire.EndPeriod(period=period)))

    async def deliver(shard: int, port: int) -> Tuple[int, int]:
        sent, snapshots = await send_phases(
            plans[shard],
            host=host,
            port=port,
            window=window,
            close_timeout=close_timeout,
            registry=registry,
        )
        registry.counter("federation.loadgen_sent_total", shard=shard).inc(
            sent
        )
        return sent, snapshots

    start = time.perf_counter()
    delivered = await asyncio.gather(
        *(deliver(shard, port) for shard, port in zip(range(shards), shard_ports))
    )
    stream_seconds = time.perf_counter() - start
    stats = StreamStats(registry)
    snapshots = sum(acked for _sent, acked in delivered)
    stats._m_snapshots.set(snapshots)
    (
        latencies,
        estimates_checked,
        pair_mismatches,
        counters_checked,
        counter_mismatches,
        query_reconnects,
    ) = await run_queries(
        spec,
        host=host,
        collector_port=collector_port,
        period=period,
        max_queries=max_queries,
        registry=registry,
    )
    return LoadgenResult(
        responses_sent=sum(sent for sent, _acked in delivered),
        stream_seconds=stream_seconds,
        queries=int(latencies.size),
        query_latencies_ms=latencies,
        estimates_checked=estimates_checked,
        pair_mismatches=pair_mismatches,
        counters_checked=counters_checked,
        counter_mismatches=counter_mismatches,
        snapshots_acked=snapshots,
        reconnects=stats.reconnects + query_reconnects,
        batches_resent=stats.batches_resent,
        dedup_acks=stats.dedup_acks,
        nacks=stats.nacks,
        registry=registry,
        per_shard={
            shard: sent for shard, (sent, _acked) in enumerate(delivered)
        },
        handoffs=len(moves),
    )


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
    a private :class:`~repro.service.collector.CollectorService`, and
    an :class:`~repro.service.gateway.RsuGateway` shard, then streams
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
        collector = CollectorService(
            CentralServer(s, StaticSizing(load_factor))
        )
        await collector.start("127.0.0.1", 0)
        gateway = RsuGateway(
            rsus,
            shard_id=shard_id,
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
        start = time.perf_counter()
        sent, _snapshots = await send_phases(
            [(batches, wire.EndPeriod(period=0))],
            port=gateway.port,
            window=window,
            close_timeout=120.0,
        )
        elapsed = time.perf_counter() - start
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
