"""The central server (paper Sections II-A and IV-C).

Collects per-period reports from all RSUs, updates the historical
average volumes (which drive next period's array sizing), and answers
point and point-to-point measurement queries through the offline
decoder.  Also cross-checks each report's counter against the bitmap
estimate of its array — a cheap integrity check that flags RSUs whose
counter and array have drifted apart (e.g. a fault or tampering).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core.decoder import CentralDecoder
from repro.core.estimator import (
    PairEstimate,
    PairMatrix,
    ZeroFractionPolicy,
    estimate_point_volume,
)
from repro.core.reports import RsuReport
from repro.core.sizing import AdaptiveSizing, SizingPolicy
from repro.errors import ConfigurationError, EstimationError
from repro.utils.logconfig import get_logger
from repro.vcps.history import VolumeHistory

__all__ = ["CentralServer", "ReportAnomaly"]

logger = get_logger("vcps.server")


@dataclass(frozen=True)
class ReportAnomaly:
    """A report whose counter disagrees with its bit array.

    ``counter`` is the RSU's claimed ``n_x``; ``bitmap_estimate`` is the
    volume implied by the array's zero fraction (Eq. 10 inverted).  A
    healthy report keeps them within a few estimator standard
    deviations of each other.
    """

    rsu_id: int
    period: int
    counter: int
    bitmap_estimate: float
    deviations: float


class CentralServer:
    """Report collection, history maintenance, and measurement queries.

    Parameters
    ----------
    s:
        Logical bit array size the fleet uses.
    sizing:
        A :class:`~repro.core.sizing.SizingPolicy`, used to publish
        next period's array sizes.  An
        :class:`~repro.core.sizing.AdaptiveSizing` policy additionally
        enables the between-period control loop: :meth:`plan_sizes`
        then re-sizes from observed per-period volumes (via the
        streaming tier) instead of holding the initial sizes.
    history:
        Historical volume store (may be pre-seeded).
    policy:
        Saturation policy for the decoder.
    anomaly_threshold:
        How many standard deviations of counter/bitmap disagreement to
        tolerate before flagging (see :meth:`anomalies`).
    windows:
        Sub-period window count for the attached
        :class:`~repro.streaming.StreamingDecoder` (``1`` = whole-period
        streaming only; see ``docs/streaming.md``).
    window_s:
        Wall-clock seconds per window; enables time-valued
        ``traffic_matrix(at=...)`` queries.
    """

    def __init__(
        self,
        s: int,
        sizing: SizingPolicy,
        *,
        history: Optional[VolumeHistory] = None,
        policy: ZeroFractionPolicy = ZeroFractionPolicy.RAISE,
        anomaly_threshold: float = 6.0,
        windows: int = 1,
        window_s: Optional[float] = None,
    ) -> None:
        self.s = int(s)
        self.sizing = sizing
        self.history = history if history is not None else VolumeHistory()
        from repro.streaming import StreamingDecoder

        self.decoder = CentralDecoder(int(s), policy=policy)
        #: Streaming state: every report (and every window partial
        #: fed through :meth:`receive_window_partial`) is also ORed
        #: into a running array here, so :meth:`live_matrix` answers at
        #: any instant by a batch decode of those arrays.
        self.streaming = StreamingDecoder(
            s=int(s),
            policy=policy,
            windows=windows,
            window_s=window_s,
        )
        self.anomaly_threshold = float(anomaly_threshold)
        self._anomalies: List[ReportAnomaly] = []
        #: Period-0 sizes, frozen at construction from the seed history
        #: (before any ``observe`` moved the averages).  These anchor
        #: every size trajectory: static policies return them for every
        #: period, adaptive ones evolve them via :meth:`plan_sizes`.
        self._initial_sizes: Dict[int, int] = {
            rsu_id: sizing.size_for(volume)
            for rsu_id, volume in self.history.known_rsus().items()
        }
        self._adaptive = None  # lazily-built AdaptiveController

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def receive_report(self, report: RsuReport) -> None:
        """Ingest one report: store it, update history, run checks."""
        self.decoder.submit(report)
        self.streaming.observe_report(report)
        self.history.observe(report.rsu_id, report.counter)
        logger.debug(
            "report: rsu=%s period=%s n=%s m=%s zeros=%.4f",
            report.rsu_id,
            report.period,
            report.counter,
            report.array_size,
            report.zero_fraction,
        )
        anomaly = self._check_report(report)
        if anomaly is not None:
            logger.warning(
                "integrity anomaly: rsu=%s period=%s counter=%s "
                "bitmap-implied=%.0f (%.1f deviations)",
                anomaly.rsu_id,
                anomaly.period,
                anomaly.counter,
                anomaly.bitmap_estimate,
                anomaly.deviations,
            )
            self._anomalies.append(anomaly)

    def receive_reports(self, reports: Iterable[RsuReport]) -> None:
        """Ingest a whole period of reports."""
        for report in reports:
            self.receive_report(report)

    def _check_report(self, report: RsuReport) -> Optional[ReportAnomaly]:
        """Counter-vs-bitmap consistency check (non-fatal)."""
        if report.counter == 0:
            return None
        try:
            implied = estimate_point_volume(
                report, policy=ZeroFractionPolicy.CLAMP
            )
        except EstimationError:  # pragma: no cover - CLAMP avoids this
            return None
        m = report.array_size
        q = max(report.zero_fraction, 0.5 / m)
        # Delta-method stddev of the bitmap estimate around the counter.
        stddev = math.sqrt(max((1.0 - q) / (q * m), 1e-30)) / abs(
            math.log1p(-1.0 / m)
        )
        deviations = abs(implied - report.counter) / max(stddev, 1e-12)
        if deviations > self.anomaly_threshold:
            return ReportAnomaly(
                rsu_id=report.rsu_id,
                period=report.period,
                counter=report.counter,
                bitmap_estimate=implied,
                deviations=deviations,
            )
        return None

    # ------------------------------------------------------------------
    # Introspection and queries
    # ------------------------------------------------------------------
    @property
    def anomalies(self) -> List[ReportAnomaly]:
        """All integrity flags raised so far."""
        return list(self._anomalies)

    def next_period_sizes(self) -> Dict[int, int]:
        """Array sizes each RSU should use next period, from the
        updated history (the server publishes these; paper IV-B)."""
        return {
            rsu_id: self.sizing.size_for(volume)
            for rsu_id, volume in self.history.known_rsus().items()
        }

    # ------------------------------------------------------------------
    # Adaptive sizing control loop (docs/adaptive.md)
    # ------------------------------------------------------------------
    @property
    def initial_sizes(self) -> Dict[int, int]:
        """The period-0 array sizes (from the seed history)."""
        return dict(self._initial_sizes)

    def _controller(self):
        if self._adaptive is None:
            from repro.adaptive import AdaptiveController
            from repro.obs import get_registry

            self._adaptive = AdaptiveController(
                self.sizing,
                self._initial_sizes,
                registry=get_registry(),
            )
        return self._adaptive

    def _observed_volume(self, rsu_id: int, period: int) -> float:
        """The volume the streaming tier saw at *rsu_id* in *period*.

        The sealed counter equals the report counter once the period
        closed; an RSU that stayed dark (no responses, no report)
        counts as zero so an idle period never crashes the loop.
        """
        try:
            return float(self.streaming.counter(rsu_id, period))
        except ConfigurationError:
            return 0.0

    def plan_sizes(self, period: int) -> Dict[int, int]:
        """The array sizes every RSU should use in *period*.

        Period 0 always answers the initial (seed-history) sizes.  A
        non-adaptive policy answers those same sizes for every period —
        the paper's static deployment.  An
        :class:`~repro.core.sizing.AdaptiveSizing` policy evolves them
        one period at a time: the plan for period ``p`` applies
        :meth:`~repro.core.sizing.AdaptiveSizing.propose` to the plan
        for ``p - 1`` and the volumes observed during ``p - 1``.  Plans
        are cached, so repeated queries (and the idempotent collector
        announcements built on them) are free and identical.
        """
        period = int(period)
        if period < 0:
            raise ConfigurationError(f"period must be >= 0, got {period}")
        if not isinstance(self.sizing, AdaptiveSizing):
            return dict(self._initial_sizes)
        controller = self._controller()
        while controller.latest_period < period:
            p = controller.latest_period
            volumes = {
                rsu_id: self._observed_volume(rsu_id, p)
                for rsu_id in controller.sizes_for(p)
            }
            controller.observe_period(p, volumes)
        return controller.sizes_for(period)

    def adopt_size_plan(self, period: int, sizes: Dict[int, int]) -> None:
        """Seed the size plan for *period* (WAL crash recovery).

        Recovery replays journalled size announcements so a restarted
        collector publishes exactly the sizes it announced before the
        crash, instead of re-deriving them from possibly-partial
        streaming state.
        """
        if not isinstance(self.sizing, AdaptiveSizing):
            return
        self._controller().adopt(int(period), dict(sizes))

    def point_volume(self, rsu_id: int, period: int = 0) -> int:
        """Exact point volume from the stored counter."""
        return self.decoder.point_volume(rsu_id, period)

    def point_to_point(
        self, rsu_x: int, rsu_y: int, period: int = 0
    ) -> PairEstimate:
        """Point-to-point estimate between two RSUs (Eq. 5).

        Served by :meth:`~repro.core.decoder.CentralDecoder.query_pair`:
        bit-identical to the per-pair decode, which answers the
        period's first ``k - 1`` queries since its last report; every
        later one reads the period's batch decode."""
        return self.decoder.query_pair(rsu_x, rsu_y, period)

    def traffic_matrix(
        self, period: int = 0, at: Optional[float] = None
    ) -> PairMatrix:
        """All-pairs point-to-point estimates for *period*.

        With *at* ``None`` (the default) this is the authoritative
        batch decode: the decoder's vectorized
        :meth:`~repro.core.decoder.CentralDecoder.estimate_matrix`,
        which is bit-identical to the per-pair path.  With *at* set it
        is a time-sliced query answered by the streaming tier — the OD
        matrix over everything observed up to instant *at* (seconds
        into the period when ``window_s`` is configured, else a window
        index); see ``docs/streaming.md`` for the exactness guarantee.
        """
        if at is None:
            return self.decoder.estimate_matrix(period)
        return self.streaming.matrix_at(period=period, at=at)

    def live_matrix(self, period: int = 0) -> PairMatrix:
        """The OD matrix over everything streamed so far for *period*:
        a batch decode of the running arrays, no period close required,
        bit-identical to a batch decode of the same responses
        (``docs/streaming.md``)."""
        return self.streaming.live_matrix(period)

    def window_matrix(self, period: int = 0, window: int = 0) -> PairMatrix:
        """The OD matrix for one sub-period window of *period*."""
        return self.streaming.window_matrix(period=period, window=window)

    def receive_window_partial(
        self,
        rsu_id: int,
        data: bytes,
        size: int,
        counter: int,
        *,
        period: int = 0,
        window: int = 0,
    ) -> int:
        """OR-merge one window-tagged bit-array partial (as uploaded by
        a gateway serving ``EndWindow``) into the streaming tier.
        Returns the number of newly set bits."""
        return self.streaming.ingest_partial(
            rsu_id,
            data,
            size,
            counter,
            period=period,
            window=window,
        )
