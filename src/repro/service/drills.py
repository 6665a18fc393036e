"""The in-process chaos drills: one bring-up → stream → close → compare path.

The central server decodes every RSU pair's volume (Eq. 5) from the bit
arrays the RSUs upload.  A drill perturbs a live plane and proves that
this decode stays exact, every float digit for digit.
:func:`run_drill` runs the steps every drill shares, and a perturbation
(:class:`ShardKill` or :class:`RsuOutage`) adds its own: which day and
plane shape to stream, what to do between delivery phases, and what to
compare the live decode with.  ``repro chaos --profile
shard-kill|rsu-outage`` runs a drill through :func:`run_chaos_drill`;
``--matrix-out`` / ``--golden-out`` dump its two matrices as canonical
JSON so CI can ``cmp`` the files.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import AsyncIterator, ClassVar, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.estimator import PairMatrix
from repro.core.reports import RsuReport
from repro.core.sizing import AdaptiveSizing
from repro.errors import ConfigurationError
from repro.obs import trace
from repro.scenarios import Scenario
from repro.service import wire
from repro.service.collector import CollectorService
from repro.service.loadgen import announce_sizes, plan_phases, send_phases
from repro.service.runtime import DeploymentSpec, FederationPlane, start_federation
from repro.utils.logconfig import get_logger

__all__ = [
    "DrillReport",
    "OutageReport",
    "RsuOutage",
    "ShardKill",
    "ShardKillReport",
    "decoded",
    "first_outage_period",
    "matrix_json",
    "rsu_outage_scenario",
    "run_chaos_drill",
    "run_drill",
    "shard_kill_scenario",
]

logger = get_logger("service.drills")

#: Responses per ``ResponseBatch`` frame the drills stream.
WIRE_BATCH = 4096
#: Frames a drill sender keeps unacked.
SEND_WINDOW = 32
#: How many periods ahead to scan a scenario's outage schedule.
_SCAN_HORIZON = 64

Decoded = Tuple[PairMatrix, Dict[int, int]]
#: A perturbation's delivery phases: each maps gateway ids to the
#: batches sent to them, to all of those gateways concurrently.
Phases = AsyncIterator[Dict[int, Sequence[wire.ResponseBatch]]]


def matrix_json(matrix: PairMatrix) -> Dict[str, Dict[str, object]]:
    """A period matrix as a canonical JSON-ready mapping.

    Keys are ``"x->y"``; values are the full
    :class:`~repro.core.estimator.PairEstimate` field dicts, read from
    the matrix's columns.  Dumped with ``sort_keys=True`` this is
    byte-stable, so two bit-identical matrices produce byte-identical
    files CI can ``cmp``.
    """
    columns = matrix.columns()
    rows = zip(*(column.tolist() for column in columns.values()))
    x, y = matrix.pair_ids()
    return {
        f"{a}->{b}": dict(zip(columns, row))
        for a, b, row in zip(x.tolist(), y.tolist(), rows)
    }


def decoded(decoder: CentralDecoder, period: int) -> Decoded:
    """``(estimate matrix, point counters)`` *decoder* holds for
    *period*: what a drill compares, live against reference."""
    counters = {
        rsu_id: decoder.point_volume(rsu_id, period)
        for rsu_id in decoder.rsu_ids(period)
    }
    return decoder.estimate_matrix(period), counters


def _verdict(identical: bool) -> str:
    return "bit-identical" if identical else "MISMATCH"


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
class DrillReport:
    """What both drill reports share: :attr:`passed` over their
    :meth:`checks`, :meth:`render` over their :meth:`rows`, and
    :meth:`write`, which dumps the two matrix fields :attr:`DUMPS` names
    (``(field, label)`` for ``--matrix-out``, then ``--golden-out``)."""

    elapsed_seconds: float
    DUMPS: ClassVar[Tuple[Tuple[str, str], ...]] = ()

    def checks(self) -> Tuple[bool, ...]:
        """Every condition the drill must meet to pass."""
        raise NotImplementedError

    def rows(self) -> List[Tuple[str, str]]:
        """The ``(label, value)`` rows above the elapsed and verdict rows."""
        raise NotImplementedError

    @property
    def passed(self) -> bool:
        """True iff every check holds."""
        return all(self.checks())

    def render(self) -> str:
        """Human-readable verdict for the CLI."""
        rows = self.rows() + [
            ("elapsed", f"{self.elapsed_seconds:.2f}s"),
            ("verdict", "PASS" if self.passed else "FAIL"),
        ]
        return "\n".join(f"{label:<21}: {value}" for label, value in rows)

    def write(
        self,
        matrix_out: Union[str, Path, None] = None,
        golden_out: Union[str, Path, None] = None,
    ) -> None:
        """Write the two matrices as canonical JSON where asked."""
        for path, (name, label) in zip((matrix_out, golden_out), self.DUMPS):
            if path is not None:
                matrix = getattr(self, name)
                Path(path).write_text(json.dumps(matrix, sort_keys=True, indent=1))
                print(f"{label} written to {path}")


@dataclass
class ShardKillReport(DrillReport):
    """Everything the shard-kill drill measured and proved."""

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

    DUMPS: ClassVar = (
        ("recovered_matrix", "recovered matrix"),
        ("golden_matrix", "golden matrix"),
    )

    def checks(self) -> Tuple[bool, ...]:
        """Both the live and the recovered matrix are exact (and, in
        the adaptive variant, the recovered size plan too)."""
        return (
            self.live_identical,
            self.recovered_identical,
            self.sizes_identical is not False,
        )

    def rows(self) -> List[Tuple[str, str]]:
        """Fleet, traffic, journal and comparison rows."""
        sizes = (
            "not checked (static sizing)"
            if self.sizes_identical is None
            else "identical" if self.sizes_identical else "MISMATCH"
        )
        return [
            ("shards", f"{self.shards} (victim: shard {self.victim})"),
            (
                "responses sent",
                f"{self.responses_sent:,} "
                f"({self.responses_resent:,} resent after the kill)",
            ),
            ("snapshots acked", f"{self.snapshots_acked}"),
            (
                "wal records",
                f"{self.wal_records} appended, {self.wal_replayed} replayed",
            ),
            (
                "matrix pairs",
                f"{self.pairs_compared} ({self.counters_compared} point counters)",
            ),
            ("live vs golden", _verdict(self.live_identical)),
            ("recovered vs golden", _verdict(self.recovered_identical)),
            ("recovered size plan", sizes),
        ]


def _compare_outage(
    live: PairMatrix, golden: PairMatrix, down: Sequence[int]
) -> Tuple[np.ndarray, bool, np.ndarray]:
    """The rsu-outage verdict's comparison, column against column.

    Returns the mask of *golden*'s pairs that touch a *down* RSU,
    whether every other pair is in *live* with every
    :class:`~repro.core.estimator.PairEstimate` field equal, and each
    affected pair's ``|live - golden| / max(|golden|, 1)`` (pairs
    *live* holds, in key order).
    """
    golden_x, golden_y = golden.pair_ids()
    affected = np.isin(golden_x, down) | np.isin(golden_y, down)
    # Where each golden pair sits in the live matrix (-1: absent).
    at = live.index(golden_x, golden_y, strict=False)
    kept = ~affected
    live_columns, golden_columns = live.columns(), golden.columns()
    unaffected_identical = bool((at[kept] >= 0).all()) and all(
        np.array_equal(live_columns[name][at[kept]], column[kept])
        for name, column in golden_columns.items()
    )
    hit = affected & (at >= 0)
    reference = golden.value[hit]
    deltas = np.abs(live.value[at[hit]] - reference) / np.maximum(
        np.abs(reference), 1.0
    )
    return affected, unaffected_identical, deltas


@dataclass
class OutageReport(DrillReport):
    """Everything the rsu-outage drill measured and proved."""

    period: int
    down: Tuple[int, ...]
    windows: int
    outage_lo: int
    outage_hi: int
    responses_sent: int
    responses_dropped: int
    expected_dropped: int
    snapshots_acked: int
    pairs_compared: int
    pairs_affected: int
    degraded_identical: bool
    unaffected_identical: bool
    delta_mean: float
    delta_max: float
    elapsed_seconds: float
    live_matrix: Dict[str, Dict[str, object]]
    golden_matrix: Dict[str, Dict[str, object]]

    DUMPS: ClassVar = (
        ("live_matrix", "live (degraded) matrix"),
        ("golden_matrix", "full-day golden matrix"),
    )

    def checks(self) -> Tuple[bool, ...]:
        """The gateway dropped exactly the scheduled slices, the live
        matrix equals the degraded golden bit for bit, and pairs away
        from the outage are untouched."""
        return (
            self.degraded_identical,
            self.unaffected_identical,
            self.responses_dropped == self.expected_dropped,
            self.responses_dropped > 0,
        )

    def rows(self) -> List[Tuple[str, str]]:
        """Schedule, traffic, drop accounting and comparison rows."""
        drops = f"{self.responses_dropped:,}"
        if self.responses_dropped != self.expected_dropped:
            drops += f" (expected {self.expected_dropped:,}) MISMATCH"
        return [
            ("outage period", f"day {self.period}, RSUs {list(self.down)} down"),
            (
                "outage windows",
                f"[{self.outage_lo}, {self.outage_hi}) of {self.windows}",
            ),
            ("responses sent", f"{self.responses_sent:,}"),
            ("responses dropped", drops),
            ("snapshots acked", f"{self.snapshots_acked}"),
            (
                "matrix pairs",
                f"{self.pairs_compared} ({self.pairs_affected} touch a downed RSU)",
            ),
            ("live vs degraded", _verdict(self.degraded_identical)),
            ("unaffected vs golden", _verdict(self.unaffected_identical)),
            (
                "affected pair error",
                f"mean {self.delta_mean:.4f}, max {self.delta_max:.4f} "
                "(relative to the full day)",
            ),
        ]


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
@dataclass
class DrillRun:
    """What :func:`run_drill` measured, for the perturbation to report."""

    #: The plane, stopped; its gateways, collector and WAL stay readable.
    plane: FederationPlane
    #: Responses acked per delivery phase.
    sent: List[int]
    snapshots: int
    live: Decoded
    #: The in-process decode of the whole day.
    golden: Decoded
    #: Period 1's size plan the live collector announced (adaptive only).
    sizes: Optional[Dict[int, int]]


async def _deliver(
    plane: FederationPlane,
    shard: int,
    batches: Sequence[wire.ResponseBatch],
    close: Optional[wire.Message] = None,
) -> Tuple[int, int]:
    return await send_phases(
        [(batches, close)],
        host=plane.host,
        port=plane.shards[shard].port,
        window=SEND_WINDOW,
        close_timeout=120.0,
    )


async def run_drill(
    spec: DeploymentSpec,
    perturbation: Union["ShardKill", "RsuOutage"],
    *,
    wal_path: Union[str, Path, None] = None,
) -> DrillReport:
    """Run one chaos drill end to end and return its report.

    The steps: validate, before any socket opens; bring the plane up
    (the perturbation's shard count; ``0`` is the unsharded plane);
    stream the day's :func:`~repro.service.loadgen.plan_phases` batches
    through :func:`~repro.service.loadgen.send_phases`, one phase at a
    time as the perturbation yields them; send ``EndPeriod`` to every
    gateway; with adaptive sizing, announce period 1's sizes; stop the
    plane; decode the live and the golden ``(matrix, counters)``; and
    let the perturbation compare.  The whole run is one ``chaos.drill``
    span, whose duration is the report's ``elapsed_seconds``.

    A sharded drill journals its collector to *wal_path* (default: a
    temporary file).  An existing *wal_path* is refused, never
    truncated: the drill replays the whole journal into its comparison,
    so a stale one would bring an earlier run's records with it.
    """
    wal_path = None if wal_path is None else Path(wal_path)
    with trace.span("chaos.drill", profile=perturbation.profile) as span:
        day = perturbation.prepare(spec)
        if wal_path is not None and wal_path.exists():
            raise ConfigurationError(
                f"write-ahead log {wal_path} already exists; the drill "
                "replays every record in it, so give a path that does not"
            )
        with tempfile.TemporaryDirectory(prefix="repro-wal-") as scratch:
            if wal_path is None and perturbation.shards:
                wal_path = Path(scratch) / "collector.wal"
            plane = await start_federation(
                spec, shards=perturbation.shards, wal_path=wal_path
            )
            try:
                plan = plan_phases(
                    spec,
                    router=plane.router,
                    windows=perturbation.windows,
                    period=day,
                    wire_batch=WIRE_BATCH,
                )
                sent = []
                async for phase in perturbation.phases(plane, plan):
                    results = await asyncio.gather(
                        *(_deliver(plane, s, b) for s, b in phase.items())
                    )
                    sent.append(sum(streamed for streamed, _ in results))
                # The fresh fleet numbers its periods from 0, whichever
                # scenario day it streamed.
                snapshots = 0
                for shard in sorted(plane.shards):
                    _, acked = await _deliver(
                        plane, shard, [], wire.EndPeriod(period=0)
                    )
                    snapshots += acked
                live = decoded(plane.collector.server.decoder, 0)
                sizes = None
                if isinstance(spec.sizing, AdaptiveSizing):
                    sizes = await announce_sizes(
                        spec,
                        1,
                        host=plane.host,
                        gateway_ports=list(plane.shard_ports().values()),
                        collector_port=plane.collector.port,
                    )
            finally:
                await plane.stop()
            golden = decoded(spec.reference_decoder(period=day), day)
            run = DrillRun(plane, sent, snapshots, live, golden, sizes)
            report = perturbation.report(spec, run)
    report.elapsed_seconds = span.duration
    verdict = "PASS" if report.passed else "FAIL"
    logger.info("%s drill: %s", perturbation.profile, verdict)
    return report


def run_chaos_drill(
    spec: DeploymentSpec,
    perturbation: Union["ShardKill", "RsuOutage"],
    *,
    wal_path: Union[str, Path, None] = None,
    matrix_out: Union[str, Path, None] = None,
    golden_out: Union[str, Path, None] = None,
) -> int:
    """Blocking entry point behind ``repro chaos --profile
    shard-kill|rsu-outage``: run the drill, print the verdict, write the
    two matrices where asked, and return a process exit code (0 = every
    check held)."""
    report = asyncio.run(run_drill(spec, perturbation, wal_path=wal_path))
    print(report.render())
    report.write(matrix_out, golden_out)
    return 0 if report.passed else 1


# ----------------------------------------------------------------------
# shard-kill: crash, resend, replay, compare
# ----------------------------------------------------------------------
@dataclass
class ShardKill:
    """Kill shard *victim* (default: the highest id) mid-period, then
    rebuild the collector from nothing but its write-ahead log.  The
    live and the recovered collector must both hold the unsharded
    golden matrix; with adaptive sizing the recovered collector must
    also answer the journaled period-1 size plan."""

    shards: int = 3
    victim: Optional[int] = None

    profile: ClassVar[str] = "shard-kill"
    windows: ClassVar[int] = 0

    def prepare(self, spec: DeploymentSpec) -> int:
        """Refuse a fleet without shards or a victim outside it;
        returns the day to stream (0)."""
        if self.victim is None:
            self.victim = self.shards - 1
        if self.shards < 1:
            raise ConfigurationError(
                f"the shard-kill drill needs shards >= 1, got {self.shards}"
            )
        if not 0 <= self.victim < self.shards:
            raise ConfigurationError(
                f"kill_shard must be in [0, {self.shards}), got {self.victim}"
            )
        return 0

    async def phases(self, plane: FederationPlane, plan: dict) -> Phases:
        """Every shard's day, the victim's cut to half; then crash the
        victim, bring it back with fresh zeroed RSUs and resend its
        whole day.  The sender cannot know which batches died in the
        queue, and resending is safe: batches the victim had ingested
        are re-recorded into empty arrays, not duplicated."""
        day = {shard: plan[shard][0][0] for shard in plan}
        victim = day[self.victim]
        yield {**day, self.victim: victim[: max(1, len(victim) // 2)]}
        await plane.kill_shard(self.victim)
        await plane.restart_shard(self.victim)
        yield {self.victim: victim}

    def report(self, spec: DeploymentSpec, run: DrillRun) -> ShardKillReport:
        """Replay the journal into a fresh collector and compare."""
        recovered = CollectorService(spec.build_central_server())
        replayed = recovered.recover(run.plane.wal.path)
        recovered_matrix, counters = decoded(recovered.server.decoder, 0)
        sizes_identical: Optional[bool] = None
        if run.sizes is not None:
            # The recovered collector must answer the journaled plan (no
            # re-derivation), and both must equal the in-process golden
            # trajectory when the spec models enough periods.
            sizes_identical = recovered.server.plan_sizes(1) == run.sizes
            if spec.periods > 1:
                sizes_identical = sizes_identical and run.sizes == spec.sizes_for(1)
        golden_matrix, golden_counters = run.golden
        return ShardKillReport(
            shards=self.shards,
            victim=self.victim,
            responses_sent=sum(run.sent),
            responses_resent=run.sent[-1],
            snapshots_acked=run.snapshots,
            wal_records=run.plane.wal.records_appended,
            wal_replayed=replayed,
            pairs_compared=len(golden_matrix),
            counters_compared=len(golden_counters),
            live_identical=run.live == run.golden,
            recovered_identical=(recovered_matrix, counters) == run.golden,
            elapsed_seconds=0.0,  # the driver's span sets it
            recovered_matrix=matrix_json(recovered_matrix),
            golden_matrix=matrix_json(golden_matrix),
            sizes_identical=sizes_identical,
        )


async def shard_kill_scenario(
    spec: DeploymentSpec,
    *,
    shards: int = 3,
    wal_path: Union[str, Path, None] = None,
    kill_shard: Optional[int] = None,
) -> ShardKillReport:
    """``run_drill(spec, ShardKill(shards, kill_shard), wal_path=...)``."""
    return await run_drill(spec, ShardKill(shards, kill_shard), wal_path=wal_path)


# ----------------------------------------------------------------------
# rsu-outage: scheduled silence, measured damage
# ----------------------------------------------------------------------
def first_outage_period(scenario: Scenario) -> Optional[int]:
    """The first period *scenario* schedules an RSU outage for, or
    ``None`` when nothing is scheduled within the scan horizon."""
    for period in range(_SCAN_HORIZON):
        if scenario.rsu_outages(period):
            return period
    return None


def _surviving_indices(
    spec: DeploymentSpec,
    rsu_id: int,
    *,
    period: int,
    windows: int,
    outage_lo: int,
    outage_hi: int,
) -> np.ndarray:
    """The responses RSU *rsu_id* still records when its delivery
    slices inside ``[outage_lo, outage_hi)`` are dropped — the same
    ``np.array_split`` partition the streaming plan uses."""
    indices = spec.response_indices(rsu_id, period=period)
    if indices.size == 0:
        return indices
    parts = np.array_split(indices, windows)
    kept = [
        parts[w] for w in range(windows) if not outage_lo <= w < outage_hi
    ]
    return np.concatenate(kept) if kept else indices[:0]


@dataclass
class RsuOutage:
    """Realize the first RSU outage the scenario schedules
    (:meth:`repro.scenarios.Scenario.rsu_outages`): stream that day in
    *windows* sequential phases, and have the gateway drop the downed
    RSUs' frames at admission for the middle third of them, ``[lo,
    hi)``, as if their radios went dark mid-period.  The live decode
    must equal a degraded golden that encodes exactly the surviving
    responses, and pairs away from a downed RSU must equal the full-day
    golden; pairs that touch one report the accuracy cost."""

    windows: int = 6
    #: Found by :meth:`prepare`: the outage day, its downed RSUs, the
    #: outage phases ``[lo, hi)`` (at least one), the responses each
    #: downed RSU still records, and how many the gateway must drop.
    day: int = field(default=0, init=False)
    down: Tuple[int, ...] = field(default=(), init=False)
    lo: int = field(default=0, init=False)
    hi: int = field(default=0, init=False)
    kept: Dict[int, np.ndarray] = field(default_factory=dict, init=False)
    expected_dropped: int = field(default=0, init=False)

    profile: ClassVar[str] = "rsu-outage"
    shards: ClassVar[int] = 0

    def prepare(self, spec: DeploymentSpec) -> int:
        """Find the outage day and its RSUs, refusing a schedule the
        drill cannot realize; returns the day."""
        if self.windows < 3:
            raise ConfigurationError(
                f"the outage drill needs >= 3 delivery windows (one "
                f"before, during, after), got {self.windows}"
            )
        day = first_outage_period(spec.scenario_obj)
        if day is None:
            raise ConfigurationError(
                f"scenario {spec.scenario!r} schedules no RSU outages "
                f"within {_SCAN_HORIZON} periods; try trajectory-replay"
            )
        if day >= spec.periods:
            raise ConfigurationError(
                f"spec models {spec.periods} period(s) but the first "
                f"scheduled outage is day {day}; build the spec with "
                f"periods >= {day + 1}"
            )
        if spec.sizes_for(day) != spec.sizes_for(0):
            raise ConfigurationError(
                "the outage drill streams one day into a fresh fleet and "
                "needs the outage day's size plan to equal day 0's; run "
                "it without adaptive sizing"
            )
        down = tuple(sorted(int(r) for r in spec.scenario_obj.rsu_outages(day)))
        unknown = sorted(set(down) - set(spec.scheme.rsu_ids))
        if unknown:
            raise ConfigurationError(
                f"scheduled outage names RSUs {unknown} that are not in "
                f"the deployment"
            )
        self.day, self.down = day, down
        self.lo = self.windows // 3
        self.hi = max(self.lo + 1, (2 * self.windows) // 3)
        self.kept = {
            rsu_id: _surviving_indices(
                spec,
                rsu_id,
                period=day,
                windows=self.windows,
                outage_lo=self.lo,
                outage_hi=self.hi,
            )
            for rsu_id in down
        }
        self.expected_dropped = sum(
            int(spec.response_indices(rsu_id, period=day).size) - int(kept.size)
            for rsu_id, kept in self.kept.items()
        )
        if not self.expected_dropped:
            raise ConfigurationError(
                f"RSUs {list(down)} record no response in outage windows "
                f"[{self.lo}, {self.hi}) of day {day}, so the drill could "
                f"drop nothing; give it more trips"
            )
        return day

    async def phases(self, plane: FederationPlane, plan: dict) -> Phases:
        """The plan's window phases without their ``EndWindow`` frames
        (the gateway serves no windows), with the gateway's outage
        switch on for phases ``[lo, hi)``."""
        for index, (batches, _close) in enumerate(plan[0][:-1]):
            if index == self.lo:
                plane.shards[0].set_outage(self.down)
            elif index == self.hi:
                plane.shards[0].clear_outage()
            yield {0: batches}

    def report(self, spec: DeploymentSpec, run: DrillRun) -> OutageReport:
        """Compare the live decode with the degraded golden (every pair)
        and with the full-day golden (pairs away from a downed RSU)."""
        # The degraded golden: the full day's reports, except that the
        # downed RSUs lose their outage-window slices.
        reports = spec.reference_reports(period=self.day)
        for rsu_id, kept in self.kept.items():
            reports[rsu_id] = RsuReport(
                rsu_id=rsu_id,
                counter=int(kept.size),
                bits=BitArray.from_indices(spec.scheme.array_size(rsu_id), kept),
                period=self.day,
            )
        degraded = CentralDecoder(spec.s, policy=spec.policy)
        degraded.submit_many(reports.values())
        live_matrix, golden_matrix = run.live[0], run.golden[0]
        affected, unaffected_identical, deltas = _compare_outage(
            live_matrix, golden_matrix, self.down
        )
        return OutageReport(
            period=self.day,
            down=self.down,
            windows=self.windows,
            outage_lo=self.lo,
            outage_hi=self.hi,
            responses_sent=sum(run.sent),
            responses_dropped=run.plane.shards[0].outage_dropped,
            expected_dropped=self.expected_dropped,
            snapshots_acked=run.snapshots,
            pairs_compared=len(golden_matrix),
            pairs_affected=int(affected.sum()),
            degraded_identical=run.live == decoded(degraded, self.day),
            unaffected_identical=unaffected_identical,
            delta_mean=float(np.mean(deltas)) if deltas.size else 0.0,
            delta_max=float(np.max(deltas)) if deltas.size else 0.0,
            elapsed_seconds=0.0,  # the driver's span sets it
            live_matrix=matrix_json(live_matrix),
            golden_matrix=matrix_json(golden_matrix),
        )


async def rsu_outage_scenario(
    spec: DeploymentSpec, *, windows: int = 6
) -> OutageReport:
    """``run_drill(spec, RsuOutage(windows))``."""
    return await run_drill(spec, RsuOutage(windows))
