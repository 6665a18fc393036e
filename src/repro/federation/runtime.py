"""Drive and benchmark a sharded plane in one process.

The plane itself — :class:`~repro.service.runtime.FederationPlane`
and :func:`~repro.service.runtime.start_federation`, one bring-up for
``shards=0`` (unsharded) and ``shards=N`` — and the load generator,
:func:`repro.service.loadgen.run_loadgen` with ``shards=N``, live in
the service tier.  This module re-exports them (``run_federated_loadgen``
is the same function as ``run_loadgen``) and adds
:func:`run_shard_slice` — a top-level, picklable "one shard's whole
day" used by ``benchmarks/bench_federation.py`` to drive shards in
separate OS processes via :func:`repro.runtime.run_tasks`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List

import numpy as np

from repro.core.sizing import StaticSizing
from repro.service import wire
from repro.service.collector import CollectorService
from repro.service.gateway import RsuGateway
from repro.service.loadgen import run_loadgen, send_phases
from repro.service.runtime import (
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
    "run_federated_loadgen",
    "run_shard_slice",
    "shard_port_plan",
]

#: The sharded replay is the one load generator; the name stays
#: importable for callers that predate the merge.
run_federated_loadgen = run_loadgen


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
