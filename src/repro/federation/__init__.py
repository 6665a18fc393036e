"""Sharding and durability for the live measurement plane.

The live plane of :mod:`repro.service` runs unsharded (``shards=0``:
one gateway for the whole fleet) or as a federation of N gateway
shards, with one implementation of each tier:
:class:`~repro.service.gateway.RsuGateway` (``shard_id=i`` uploads
:class:`~repro.service.wire.ShardSnapshot` partials and accepts
mid-period :class:`~repro.service.wire.Handoff` frames),
:class:`~repro.service.collector.CollectorService` (OR-merges shard
partials under ``(shard, rsu, period, seq)`` dedup, journaling each
to a write-ahead log first) and
:func:`~repro.service.runtime.start_federation`.  Sharding changes no
measurement math: a VLM bit array is a **state-based CRDT** — ORing
two partial arrays for the same RSU loses nothing, and the pass
counters of disjoint response partitions are additive.  This package
holds what only a sharded deployment needs:

* :mod:`~repro.federation.router` — deterministic RSU→shard
  assignment (``rsu_id % shard_count`` plus explicit rebalance
  overrides).
* :mod:`~repro.federation.wal` — the CRC'd append-only log and its
  replay, which rebuilds a killed collector to a bit-identical period
  matrix.
* :mod:`~repro.federation.runtime` — re-exports of the plane and the
  one load generator, and the process-parallel shard slice the
  federation benchmark drives through :func:`repro.runtime.run_tasks`.
* :mod:`~repro.federation.status` — ``repro federation status``, a
  scrape-and-render view of a live federation's metrics.

The ``shard-kill`` drill that proves WAL replay reproduces the
unsharded golden matrix exactly is one of the two chaos drills of
:mod:`repro.service.drills`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ShardRouter": ".router",
        "WriteAheadLog": ".wal",
        "replay_wal": ".wal",
        "merge_partial_reports": "repro.service.collector",
    },
)
