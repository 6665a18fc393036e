"""Live measurement plane: the paper's online/offline split as a
running system.

The in-memory simulation (:mod:`repro.vcps`) collapses the paper's
three roles into one process.  This package pulls them apart over real
sockets, as one plane that runs unsharded (``shards=0``: one gateway
for the whole fleet) or as N gateway shards feeding one OR-merging
collector — a single gateway is just the one-partition case of the
federation, with one implementation of each tier:

* :mod:`repro.service.wire` — length-prefixed binary codec for vehicle
  responses, period snapshots (whole-report and shard partial), and
  decode queries, and the one I/O style over it: a sans-IO frame
  parser, the server session both services run on, and the pipelined
  frame client every sender and uploader uses;
* :mod:`repro.service.gateway` — asyncio RSU gateway: vehicle
  responses ORed into their RSU as each frame arrives, per-period
  snapshot upload with retry; with a ``shard_id`` it uploads shard
  partials and accepts mid-period handoffs;
* :mod:`repro.service.collector` — asyncio central collector: snapshot
  ingestion into :class:`~repro.vcps.server.CentralServer`, the
  shard-partial OR-merge with its write-ahead journal and
  ``recover()``, and query answering over the same protocol;
* :mod:`repro.service.loadgen` — the one sender (phases of batches,
  each closed by ``EndWindow``, ``EndPeriod`` or ``Handoff``) and the
  load generator replaying a day against a live deployment and
  checking the answers against the in-process decoder;
* :mod:`repro.service.runtime` — the shared deployment spec that keeps
  ``repro serve`` and ``repro loadgen`` bit-for-bit consistent, the
  one bring-up (:func:`~repro.service.runtime.start_federation`) and
  the one serve loop;
* :mod:`repro.service.faults` — deterministic fault-injection TCP
  proxy (``repro chaos``) for latency, drops, corruption, resets, and
  blackholes;
* :mod:`repro.service.drills` — the in-process chaos drills
  (``repro chaos --profile shard-kill|rsu-outage``): one bring-up →
  stream → close → compare driver under a shard-kill or an RSU-outage
  perturbation;
* :mod:`repro.service.retry` — the shared jittered-exponential-backoff
  policy every reconnecting client uses.

Sharding-only pieces (the router, the WAL format and ``repro
federation status``) live in :mod:`repro.federation`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "CollectorService": ".collector",
        "RsuGateway": ".gateway",
        "LoadgenResult": ".loadgen",
        "run_loadgen": ".loadgen",
        "DeploymentSpec": ".runtime",
        "run_serve": ".runtime",
        "start_federation": ".runtime",
        "FaultProfile": ".faults",
        "FaultProxy": ".faults",
        "PROFILES": ".faults",
        "run_chaos": ".faults",
        "RetryPolicy": ".retry",
        "retry_async": ".retry",
    },
)
