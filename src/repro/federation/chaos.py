"""The ``shard-kill`` chaos profile: crash, resend, replay, compare.

The scenario the federation exists to survive, run end to end inside
one process:

1. start a federation (N shards, one journaled collector);
2. stream the deterministic day, but kill the victim shard after it
   has ingested only half of its batches — its un-uploaded bit arrays
   and batch-dedup window are gone;
3. restart the shard with fresh zeroed RSUs and resend **all** of its
   batches (the sender cannot know which ones died in the queue;
   resending everything is safe because the revived arrays are empty);
4. close the period on every shard, so the collector OR-merges the
   partials and journals each one;
5. discard the collector and rebuild a fresh one purely from the
   write-ahead log;
6. compare three period matrices — live collector, WAL-recovered
   collector, and the unsharded in-process golden run — for **exact**
   equality, every float digit for digit.

``repro chaos --profile shard-kill`` runs this and exits non-zero on
any mismatch; ``--matrix-out`` / ``--golden-out`` dump the recovered
and golden matrices as canonical JSON so CI can ``diff`` the files.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.core.estimator import PairEstimate
from repro.core.sizing import AdaptiveSizing
from repro.errors import ConfigurationError
from repro.service import wire
from repro.service.collector import CollectorService
from repro.service.loadgen import plan_phases, send_phases
from repro.service.runtime import DeploymentSpec, start_federation
from repro.utils.logconfig import get_logger

__all__ = ["ShardKillReport", "shard_kill_scenario", "run_shard_kill"]

logger = get_logger("federation.chaos")


def matrix_json(
    matrix: Dict[Tuple[int, int], PairEstimate],
) -> Dict[str, Dict[str, object]]:
    """A period matrix as a canonical JSON-ready mapping.

    Keys are ``"x->y"``; values are the full
    :class:`~repro.core.estimator.PairEstimate` field dicts.  Dumped
    with ``sort_keys=True`` this is byte-stable, so two bit-identical
    matrices produce byte-identical files CI can ``cmp``.
    """
    return {
        f"{x}->{y}": dataclasses.asdict(estimate)
        for (x, y), estimate in sorted(matrix.items())
    }


@dataclass
class ShardKillReport:
    """Everything the shard-kill scenario measured and proved."""

    shards: int
    victim: int
    responses_sent: int
    responses_resent: int
    snapshots_acked: int
    wal_records: int
    wal_replayed: int
    pairs_compared: int
    counters_compared: int
    live_identical: bool
    recovered_identical: bool
    elapsed_seconds: float
    recovered_matrix: Dict[str, Dict[str, object]]
    golden_matrix: Dict[str, Dict[str, object]]
    #: Adaptive variant only: whether the WAL-recovered collector's
    #: next-period size plan equals both the live announcement and the
    #: in-process golden trajectory (``None`` = variant not run).
    sizes_identical: Optional[bool] = None

    @property
    def passed(self) -> bool:
        """True iff both the live and the recovered matrix are exact
        (and, in the adaptive variant, the recovered size plan too)."""
        return (
            self.live_identical
            and self.recovered_identical
            and self.sizes_identical is not False
        )

    def render(self) -> str:
        """Human-readable verdict for the CLI."""
        lines = [
            f"shards               : {self.shards} "
            f"(victim: shard {self.victim})",
            f"responses sent       : {self.responses_sent:,} "
            f"({self.responses_resent:,} resent after the kill)",
            f"snapshots acked      : {self.snapshots_acked}",
            f"wal records          : {self.wal_records} appended, "
            f"{self.wal_replayed} replayed",
            f"matrix pairs         : {self.pairs_compared} "
            f"({self.counters_compared} point counters)",
            "live vs golden       : "
            + ("bit-identical" if self.live_identical else "MISMATCH"),
            "recovered vs golden  : "
            + (
                "bit-identical"
                if self.recovered_identical
                else "MISMATCH"
            ),
            "recovered size plan  : "
            + (
                "not checked (static sizing)"
                if self.sizes_identical is None
                else "identical" if self.sizes_identical else "MISMATCH"
            ),
            f"elapsed              : {self.elapsed_seconds:.2f}s",
            "verdict              : "
            + ("PASS" if self.passed else "FAIL"),
        ]
        return "\n".join(lines)


async def shard_kill_scenario(
    spec: DeploymentSpec,
    *,
    shards: int = 3,
    wal_path: Union[str, Path],
    kill_shard: Optional[int] = None,
    wire_batch: int = 4096,
    window: int = 32,
    period: int = 0,
) -> ShardKillReport:
    """Run the kill/restart/replay scenario; see the module docstring.

    *kill_shard* defaults to the highest shard id; a victim outside
    ``[0, shards)`` is a :class:`ConfigurationError` raised before any
    socket opens.  The WAL at *wal_path* must not already exist (a
    stale journal would replay foreign state into the comparison).
    """
    wal_path = Path(wal_path)
    start = time.perf_counter()
    victim = shards - 1 if kill_shard is None else int(kill_shard)
    if shards < 1:
        raise ConfigurationError(
            f"the shard-kill drill needs shards >= 1, got {shards}"
        )
    if not 0 <= victim < shards:
        raise ConfigurationError(
            f"kill_shard must be in [0, {shards}), got {victim}"
        )
    plane = await start_federation(
        spec, shards=shards, wal_path=wal_path
    )

    async def deliver(
        shard: int, batches, close: Optional[wire.Message] = None
    ) -> Tuple[int, int]:
        return await send_phases(
            [(batches, close)],
            host=plane.host,
            port=plane.shards[shard].port,
            window=window,
            close_timeout=120.0,
        )

    try:
        # Each shard's home batches: the plan's first phase, whose
        # EndPeriod this drill sends itself once the victim is back.
        phase1 = {
            shard: phases[0][0]
            for shard, phases in plan_phases(
                spec, router=plane.router, period=period, wire_batch=wire_batch
            ).items()
        }
        victim_batches = phase1[victim]
        # Survivors stream their whole day; the victim gets only half
        # before the crash.
        half = victim_batches[: max(1, len(victim_batches) // 2)]
        results = await asyncio.gather(
            *(deliver(s, phase1[s]) for s in range(shards) if s != victim),
            deliver(victim, half),
        )
        sent = sum(streamed for streamed, _ in results)

        # Crash and resurrect the victim; its arrays come back zeroed,
        # so the sender must replay the shard's entire day.  Batches
        # it had already ingested are simply re-recorded into empty
        # arrays — not duplicates, the state they fed is gone.
        await plane.kill_shard(victim)
        await plane.restart_shard(victim)
        resent, _ = await deliver(victim, victim_batches)

        # Period close: every shard uploads ShardSnapshot partials;
        # the collector journals then merges each one.
        snapshots = 0
        for shard in range(shards):
            _, acked = await deliver(shard, [], wire.EndPeriod(period=period))
            snapshots += acked

        live_matrix = plane.collector.server.decoder.estimate_matrix(
            period
        )
        live_counters = {
            rsu_id: plane.collector.server.point_volume(rsu_id, period)
            for rsu_id in sorted(spec.scheme.rsu_ids)
        }
        # Adaptive variant: have the collector plan (and journal) next
        # period's sizes before the crash, exactly as a between-period
        # SizeQuery would.
        live_sizes: Optional[Dict[int, int]] = None
        if isinstance(spec.sizing, AdaptiveSizing):
            announce = plane.collector._handle(
                wire.SizeQuery(period=period + 1)
            )
            if not isinstance(announce, wire.SizeAnnounce):
                raise RuntimeError(
                    f"collector refused the size query: {announce!r}"
                )
            live_sizes = announce.to_sizes()
        wal_records = (
            plane.wal.records_appended if plane.wal is not None else 0
        )
    finally:
        await plane.stop()

    # Rebuild a collector from nothing but the journal.
    recovered = CollectorService(spec.build_central_server())
    replayed = recovered.recover(wal_path)
    recovered_matrix = recovered.server.decoder.estimate_matrix(period)
    recovered_counters = {
        rsu_id: recovered.server.point_volume(rsu_id, period)
        for rsu_id in sorted(spec.scheme.rsu_ids)
    }

    # The unsharded golden run: every response encoded in process.
    golden = spec.reference_decoder(period=period)
    golden_matrix = golden.estimate_matrix(period)
    golden_counters = {
        rsu_id: golden.point_volume(rsu_id, period)
        for rsu_id in sorted(spec.scheme.rsu_ids)
    }

    live_identical = (
        live_matrix == golden_matrix and live_counters == golden_counters
    )
    recovered_identical = (
        recovered_matrix == golden_matrix
        and recovered_counters == golden_counters
    )
    sizes_identical: Optional[bool] = None
    if live_sizes is not None:
        # The recovered collector must answer the journaled plan (no
        # re-derivation), and both must equal the in-process golden
        # trajectory when the spec models enough periods.
        recovered_sizes = recovered.server.plan_sizes(period + 1)
        sizes_identical = recovered_sizes == live_sizes
        if spec.periods > period + 1:
            golden_sizes = spec.sizes_for(period + 1)
            sizes_identical = sizes_identical and (
                live_sizes == golden_sizes
            )
    report = ShardKillReport(
        shards=shards,
        victim=victim,
        responses_sent=sent + resent,
        responses_resent=resent,
        snapshots_acked=snapshots,
        wal_records=wal_records,
        wal_replayed=replayed,
        pairs_compared=len(golden_matrix),
        counters_compared=len(golden_counters),
        live_identical=live_identical,
        recovered_identical=recovered_identical,
        elapsed_seconds=time.perf_counter() - start,
        recovered_matrix=matrix_json(recovered_matrix),
        golden_matrix=matrix_json(golden_matrix),
        sizes_identical=sizes_identical,
    )
    logger.info("shard-kill scenario: %s", "PASS" if report.passed else "FAIL")
    return report


def run_shard_kill(
    spec: Optional[DeploymentSpec] = None,
    *,
    shards: int = 3,
    wal_path: Union[str, Path, None] = None,
    kill_shard: Optional[int] = None,
    wire_batch: int = 4096,
    matrix_out: Union[str, Path, None] = None,
    golden_out: Union[str, Path, None] = None,
) -> int:
    """Blocking entry point behind ``repro chaos --profile shard-kill``.

    Runs the scenario, prints the verdict, optionally writes the
    recovered and golden matrices as canonical JSON, and returns a
    process exit code (0 = bit-identical recovery).
    """
    spec = spec if spec is not None else DeploymentSpec()
    if wal_path is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-wal-")
        path = Path(scratch.name) / "collector.wal"
    else:
        scratch = None
        path = Path(wal_path)
    try:
        report = asyncio.run(
            shard_kill_scenario(
                spec,
                shards=shards,
                wal_path=path,
                kill_shard=kill_shard,
                wire_batch=wire_batch,
            )
        )
    finally:
        if scratch is not None:
            scratch.cleanup()
    print(report.render())
    if matrix_out is not None:
        Path(matrix_out).write_text(
            json.dumps(report.recovered_matrix, sort_keys=True, indent=1)
        )
        print(f"recovered matrix written to {matrix_out}")
    if golden_out is not None:
        Path(golden_out).write_text(
            json.dumps(report.golden_matrix, sort_keys=True, indent=1)
        )
        print(f"golden matrix written to {golden_out}")
    return 0 if report.passed else 1
