"""Between-period adaptive array-sizing control loop (docs/adaptive.md).

The paper fixes each RSU's array length ``m_x`` from historical volume
at period start, so drifting demand pushes RSUs off the
privacy-optimal load factor.  :class:`AdaptiveController` closes the
loop: after each period it takes the volumes the streaming tier
actually observed (:meth:`repro.streaming.StreamingDecoder.counter`)
and proposes next period's sizes through an
:class:`~repro.core.sizing.AdaptiveSizing` policy — the
privacy-optimal target from :mod:`repro.privacy.optimizer` guarded by
a hysteresis deadband, a per-period rate limit, and hard
``min_size``/``max_size`` clamps, with every proposal snapped to a
power of two.

The controller is deliberately dumb about transport: it is pure,
deterministic state ``(policy, plan history)`` driven by explicit
``observe_period`` calls.  :class:`~repro.vcps.server.CentralServer`
owns one and feeds it streaming counters
(:meth:`~repro.vcps.server.CentralServer.plan_sizes`); the collector
wraps the resulting plans in ``SizeAnnounce`` wire frames (journalled
to the federation WAL before first use, so crash recovery replays the
same sizes); gateways apply them to their RSU fleets.  Because every
input is a deterministic function of the workload, the size trajectory
is identical at any worker count.

Metrics (when a registry is attached):

``adaptive.periods_total``
    Periods observed by the controller.
``adaptive.resize_events_total``
    Per-RSU size changes actually applied to a plan.
``adaptive.clamped_proposals_total``
    Proposals that could not reach the target size this period (rate
    limit or min/max clamp still binding).
``adaptive.load_factor``
    Achieved mean load factor ``m_x / n_x`` over the RSUs active in
    the most recently observed period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.core.sizing import AdaptiveSizing
from repro.errors import ConfigurationError
from repro.utils.validation import check_power_of_two

__all__ = ["AdaptiveController", "SizePlan"]


@dataclass(frozen=True)
class SizePlan:
    """The controller's decision for one period.

    Attributes
    ----------
    period:
        The period these sizes apply to.
    sizes:
        ``rsu_id -> m_x`` for every RSU in the fleet.
    resized:
        RSU ids whose size changed relative to the previous period.
    held:
        RSU ids held by the hysteresis deadband (the target size
        differed, but stayed within the band).
    clamped:
        RSU ids whose proposal could not reach the target this period
        (rate limit or min/max clamp still binding) — pressure the
        next period will keep working off.
    """

    period: int
    sizes: Dict[int, int] = field(default_factory=dict)
    resized: Tuple[int, ...] = ()
    held: Tuple[int, ...] = ()
    clamped: Tuple[int, ...] = ()


class AdaptiveController:
    """Deterministic between-period size re-planning.

    Parameters
    ----------
    policy:
        The :class:`~repro.core.sizing.AdaptiveSizing` guard-railed
        policy (target + hysteresis + rate limit + clamps).
    initial_sizes:
        ``rsu_id -> m_x`` in effect for period 0 (power-of-two each).
    registry:
        Optional :class:`~repro.obs.MetricsRegistry` receiving the
        ``adaptive.*`` instruments documented in the module docstring.
    """

    def __init__(
        self,
        policy: AdaptiveSizing,
        initial_sizes: Mapping[int, int],
        *,
        registry=None,
    ) -> None:
        if not isinstance(policy, AdaptiveSizing):
            raise ConfigurationError(
                f"policy must be an AdaptiveSizing, got {policy!r}"
            )
        sizes = {
            int(rsu_id): check_power_of_two(size, f"initial size of RSU {rsu_id}")
            for rsu_id, size in initial_sizes.items()
        }
        self.policy = policy
        self._plans: Dict[int, SizePlan] = {0: SizePlan(period=0, sizes=sizes)}
        self._registry = registry
        if registry is not None:
            self._m_periods = registry.counter("adaptive.periods_total")
            self._m_resizes = registry.counter("adaptive.resize_events_total")
            self._m_clamped = registry.counter(
                "adaptive.clamped_proposals_total"
            )
            self._m_load_factor = registry.gauge("adaptive.load_factor")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def latest_period(self) -> int:
        """The newest period a plan exists for."""
        return max(self._plans)

    def plan_for(self, period: int) -> SizePlan:
        """The full :class:`SizePlan` for *period*."""
        try:
            return self._plans[int(period)]
        except KeyError:
            raise ConfigurationError(
                f"no size plan for period {period}; latest is "
                f"{self.latest_period}"
            ) from None

    def sizes_for(self, period: int) -> Dict[int, int]:
        """``rsu_id -> m_x`` for *period*."""
        return dict(self.plan_for(period).sizes)

    # ------------------------------------------------------------------
    # The control step
    # ------------------------------------------------------------------
    def observe_period(
        self, period: int, volumes: Mapping[int, float]
    ) -> SizePlan:
        """Fold the volumes observed during *period* into a plan for
        ``period + 1``.

        Idempotent: observing an already-folded period returns the
        cached plan unchanged, so replays (collector announcement
        retries, WAL recovery re-walks) cannot fork the trajectory.
        RSUs absent from *volumes* count as zero (dark for the whole
        period).
        """
        period = int(period)
        cached = self._plans.get(period + 1)
        if cached is not None:
            return cached
        previous = self.plan_for(period).sizes
        policy = self.policy
        sizes: Dict[int, int] = {}
        resized, held, clamped = [], [], []
        for rsu_id in sorted(previous):
            current = previous[rsu_id]
            volume = float(volumes.get(rsu_id, 0.0))
            proposal = policy.propose(current, volume)
            sizes[rsu_id] = proposal
            desired = policy.size_for(volume)
            if proposal != current:
                resized.append(rsu_id)
            elif desired != current:
                held.append(rsu_id)
            if proposal != desired and not policy.in_band(proposal, volume):
                clamped.append(rsu_id)
        plan = SizePlan(
            period=period + 1,
            sizes=sizes,
            resized=tuple(resized),
            held=tuple(held),
            clamped=tuple(clamped),
        )
        self._plans[period + 1] = plan
        if self._registry is not None:
            self._m_periods.inc()
            self._m_resizes.inc(len(plan.resized))
            self._m_clamped.inc(len(plan.clamped))
            achieved = self._achieved_load_factor(previous, volumes)
            if achieved is not None:
                self._m_load_factor.set(achieved)
        return plan

    def adopt(self, period: int, sizes: Mapping[int, int]) -> None:
        """Install a recovered plan for *period* verbatim.

        Crash recovery replays journalled ``SizeAnnounce`` frames
        through this instead of re-running the control step, so a
        restarted collector publishes exactly the sizes it announced
        before the crash.  Adopting a plan identical to an existing
        one is a no-op; a conflicting adoption raises.
        """
        period = int(period)
        sizes = {
            int(rsu_id): check_power_of_two(size, f"size of RSU {rsu_id}")
            for rsu_id, size in sizes.items()
        }
        existing = self._plans.get(period)
        if existing is not None:
            if existing.sizes != sizes:
                raise ConfigurationError(
                    f"conflicting size plan for period {period}"
                )
            return
        self._plans[period] = SizePlan(period=period, sizes=sizes)

    @staticmethod
    def _achieved_load_factor(
        sizes: Mapping[int, int], volumes: Mapping[int, float]
    ) -> Optional[float]:
        """Mean ``m_x / n_x`` over RSUs with nonzero observed volume."""
        ratios = [
            sizes[rsu_id] / volume
            for rsu_id, volume in volumes.items()
            if volume > 0 and rsu_id in sizes
        ]
        if not ratios:
            return None
        return sum(ratios) / len(ratios)
