"""The ``rsu-outage`` chaos profile: scheduled silence, measured damage.

Scenarios can schedule mid-period maintenance windows
(:meth:`repro.scenarios.Scenario.rsu_outages` — e.g.
``trajectory-replay``'s weekend RSU downtime).  Until now that
schedule was advisory metadata; this drill realizes it against the
live plane:

1. find the first period the scenario schedules an outage for, and
   build the in-process golden decode of that full day;
2. start a real gateway + collector and stream the day in ``windows``
   sequential delivery phases (the windows of :func:`repro.service.
   loadgen.plan_phases` — deterministic ``np.array_split`` slices);
3. for the middle third of those phases, flip the gateway's outage
   switch (:meth:`~repro.service.gateway.RsuGateway.set_outage`) for
   the scheduled RSUs — their frames are dropped at admission, exactly
   as if the roadside radio went dark mid-period;
4. close the period and decode the live matrix;
5. compare against *two* references: a **degraded golden** encoding
   exactly the responses that should have survived (must match the
   live matrix bit for bit — the outage semantics are deterministic,
   not approximate), and the **full golden** (pairs not touching a
   downed RSU must still match it bit for bit, and pairs that do touch
   one yield the reported accuracy delta).

``repro chaos --profile rsu-outage`` runs this and exits non-zero
unless the drop accounting and both bit-identity checks hold;
``--matrix-out`` / ``--golden-out`` dump the live (degraded) and
full-day golden matrices as canonical JSON.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.reports import RsuReport
from repro.errors import ConfigurationError
from repro.federation.chaos import matrix_json
from repro.scenarios import Scenario
from repro.service import wire
from repro.service.loadgen import plan_phases, send_phases
from repro.service.runtime import DeploymentSpec, start_services
from repro.utils.logconfig import get_logger

__all__ = [
    "OutageReport",
    "first_outage_period",
    "rsu_outage_scenario",
    "run_rsu_outage",
]

logger = get_logger("service.outage")

#: How many periods ahead to scan a scenario's outage schedule.
_SCAN_HORIZON = 64


def first_outage_period(scenario: Scenario) -> Optional[int]:
    """The first period *scenario* schedules an RSU outage for, or
    ``None`` when nothing is scheduled within the scan horizon."""
    for period in range(_SCAN_HORIZON):
        if scenario.rsu_outages(period):
            return period
    return None


@dataclass
class OutageReport:
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

    @property
    def passed(self) -> bool:
        """True iff the gateway dropped exactly the scheduled slices,
        the live matrix equals the degraded golden bit for bit, and
        pairs away from the outage are untouched."""
        return (
            self.degraded_identical
            and self.unaffected_identical
            and self.responses_dropped == self.expected_dropped
            and self.responses_dropped > 0
        )

    def render(self) -> str:
        """Human-readable verdict for the CLI."""
        drops = f"{self.responses_dropped:,}"
        if self.responses_dropped != self.expected_dropped:
            drops += f" (expected {self.expected_dropped:,}) MISMATCH"
        lines = [
            f"outage period        : day {self.period}, RSUs "
            f"{list(self.down)} down",
            f"outage windows       : [{self.outage_lo}, "
            f"{self.outage_hi}) of {self.windows}",
            f"responses sent       : {self.responses_sent:,}",
            f"responses dropped    : {drops}",
            f"snapshots acked      : {self.snapshots_acked}",
            f"matrix pairs         : {self.pairs_compared} "
            f"({self.pairs_affected} touch a downed RSU)",
            "live vs degraded     : "
            + (
                "bit-identical"
                if self.degraded_identical
                else "MISMATCH"
            ),
            "unaffected vs golden : "
            + (
                "bit-identical"
                if self.unaffected_identical
                else "MISMATCH"
            ),
            f"affected pair error  : mean {self.delta_mean:.4f}, "
            f"max {self.delta_max:.4f} (relative to the full day)",
            f"elapsed              : {self.elapsed_seconds:.2f}s",
            "verdict              : "
            + ("PASS" if self.passed else "FAIL"),
        ]
        return "\n".join(lines)


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


def _degraded_decoder(
    spec: DeploymentSpec,
    *,
    period: int,
    windows: int,
    down: Tuple[int, ...],
    outage_lo: int,
    outage_hi: int,
) -> CentralDecoder:
    """The in-process reference for the outage day: every RSU's full
    responses, except the downed RSUs lose their outage-window slices.
    Reports are tagged period 0 to match the fresh gateway's internal
    period numbering."""
    decoder = CentralDecoder(spec.s, policy=spec.policy)
    reports = []
    for rsu_id in spec.scheme.rsu_ids:
        if rsu_id in down:
            indices = _surviving_indices(
                spec,
                rsu_id,
                period=period,
                windows=windows,
                outage_lo=outage_lo,
                outage_hi=outage_hi,
            )
        else:
            indices = spec.response_indices(rsu_id, period=period)
        bits = BitArray.from_indices(spec.scheme.array_size(rsu_id), indices)
        reports.append(
            RsuReport(
                rsu_id=int(rsu_id),
                counter=int(indices.size),
                bits=bits,
                period=0,
            )
        )
    decoder.submit_many(reports)
    return decoder


async def rsu_outage_scenario(
    spec: DeploymentSpec,
    *,
    windows: int = 6,
    wire_batch: int = 4096,
    window: int = 32,
) -> OutageReport:
    """Run the scheduled-outage drill; see the module docstring.

    The day is delivered in *windows* sequential phases; the middle
    third of them (at least one) is the outage window during which the
    scheduled RSUs' frames are dropped at the gateway.
    """
    windows = int(windows)
    if windows < 3:
        raise ConfigurationError(
            f"the outage drill needs >= 3 delivery windows (one "
            f"before, during, after), got {windows}"
        )
    period = first_outage_period(spec.scenario_obj)
    if period is None:
        raise ConfigurationError(
            f"scenario {spec.scenario!r} schedules no RSU outages "
            f"within {_SCAN_HORIZON} periods; try trajectory-replay"
        )
    if period >= spec.periods:
        raise ConfigurationError(
            f"spec models {spec.periods} period(s) but the first "
            f"scheduled outage is day {period}; build the spec with "
            f"periods >= {period + 1}"
        )
    if spec.sizes_for(period) != spec.sizes_for(0):
        raise ConfigurationError(
            "the outage drill streams one day into a fresh fleet and "
            "needs the outage day's size plan to equal day 0's; run "
            "it without adaptive sizing"
        )
    down = tuple(sorted(int(r) for r in spec.scenario_obj.rsu_outages(period)))
    unknown = sorted(set(down) - set(spec.scheme.rsu_ids))
    if unknown:
        raise ConfigurationError(
            f"scheduled outage names RSUs {unknown} that are not in "
            f"the deployment"
        )
    outage_lo = windows // 3
    outage_hi = max(outage_lo + 1, (2 * windows) // 3)
    expected_dropped = sum(
        int(spec.response_indices(rsu_id, period=period).size)
        - int(
            _surviving_indices(
                spec,
                rsu_id,
                period=period,
                windows=windows,
                outage_lo=outage_lo,
                outage_hi=outage_hi,
            ).size
        )
        for rsu_id in down
    )
    start = time.perf_counter()
    # The plan's window phases, without their EndWindow frames: the
    # drill's gateway serves no windows and closes the day itself.
    phases = [
        batches
        for batches, _close in plan_phases(
            spec, windows=windows, period=period, wire_batch=wire_batch
        )[0][:-1]
    ]
    gateway, collector = await start_services(
        spec, gateway_port=0, collector_port=0
    )
    try:
        sent = 0
        for w, phase in enumerate(phases):
            if w == outage_lo:
                gateway.set_outage(down)
            elif w == outage_hi:
                gateway.clear_outage(down)
            streamed, _ = await send_phases(
                [(phase, None)], port=gateway.port, window=window
            )
            sent += streamed
        gateway.clear_outage()
        # The fresh fleet numbers its own periods from 0 no matter
        # which scenario day the workload came from.
        _, snapshots = await send_phases(
            [([], wire.EndPeriod(period=0))],
            port=gateway.port,
            close_timeout=120.0,
        )
        dropped = gateway.outage_dropped
        live_matrix = collector.server.decoder.estimate_matrix(0)
        live_counters = {
            rsu_id: collector.server.point_volume(rsu_id, 0)
            for rsu_id in sorted(spec.scheme.rsu_ids)
        }
    finally:
        await gateway.stop()
        await collector.stop()

    degraded = _degraded_decoder(
        spec,
        period=period,
        windows=windows,
        down=down,
        outage_lo=outage_lo,
        outage_hi=outage_hi,
    )
    degraded_matrix = degraded.estimate_matrix(0)
    degraded_counters = {
        rsu_id: degraded.point_volume(rsu_id, 0)
        for rsu_id in sorted(spec.scheme.rsu_ids)
    }
    degraded_identical = (
        live_matrix == degraded_matrix
        and live_counters == degraded_counters
    )

    golden_matrix = spec.reference_decoder(period=period).estimate_matrix(
        period
    )
    affected = [
        pair
        for pair in golden_matrix
        if pair[0] in down or pair[1] in down
    ]
    unaffected_identical = all(
        live_matrix.get(pair) == golden_matrix[pair]
        for pair in golden_matrix
        if pair not in set(affected)
    )
    deltas = [
        abs(live_matrix[pair].value - golden_matrix[pair].value)
        / max(abs(golden_matrix[pair].value), 1.0)
        for pair in affected
        if pair in live_matrix
    ]
    report = OutageReport(
        period=period,
        down=down,
        windows=windows,
        outage_lo=outage_lo,
        outage_hi=outage_hi,
        responses_sent=sent,
        responses_dropped=dropped,
        expected_dropped=expected_dropped,
        snapshots_acked=snapshots,
        pairs_compared=len(golden_matrix),
        pairs_affected=len(affected),
        degraded_identical=degraded_identical,
        unaffected_identical=unaffected_identical,
        delta_mean=float(np.mean(deltas)) if deltas else 0.0,
        delta_max=float(np.max(deltas)) if deltas else 0.0,
        elapsed_seconds=time.perf_counter() - start,
        live_matrix=matrix_json(live_matrix),
        golden_matrix=matrix_json(golden_matrix),
    )
    logger.info(
        "rsu-outage scenario: %s", "PASS" if report.passed else "FAIL"
    )
    return report


def run_rsu_outage(
    spec: Optional[DeploymentSpec] = None,
    *,
    windows: int = 6,
    wire_batch: int = 4096,
    matrix_out: Union[str, Path, None] = None,
    golden_out: Union[str, Path, None] = None,
) -> int:
    """Blocking entry point behind ``repro chaos --profile rsu-outage``.

    Runs the drill, prints the verdict, optionally writes the live
    (degraded) and full-day golden matrices as canonical JSON, and
    returns a process exit code (0 = the outage behaved exactly as
    scheduled).
    """
    if spec is None:
        spec = DeploymentSpec(
            total_trips=1_500, scenario="trajectory-replay", periods=6
        )
    report = asyncio.run(
        rsu_outage_scenario(spec, windows=windows, wire_batch=wire_batch)
    )
    print(report.render())
    if matrix_out is not None:
        Path(matrix_out).write_text(
            json.dumps(report.live_matrix, sort_keys=True, indent=1)
        )
        print(f"live (degraded) matrix written to {matrix_out}")
    if golden_out is not None:
        Path(golden_out).write_text(
            json.dumps(report.golden_matrix, sort_keys=True, indent=1)
        )
        print(f"full-day golden matrix written to {golden_out}")
    return 0 if report.passed else 1
