"""Adaptive vs static array sizing under drifting demand (Section IV-C).

The paper sizes each RSU's bit array once, from historical volume; a
real deployment's demand drifts.  This experiment replays a multi-day
Sioux Falls scenario whose daily trip count declines geometrically and
compares two deployments that start from *identical* period-0 sizes:

* **static** — the privacy-optimal sizes computed on day 0 are kept
  for every subsequent day (the paper's rule applied once);
* **adaptive** — the between-period controller of
  :mod:`repro.adaptive` re-sizes each RSU from the previous day's
  observed volumes, with hysteresis and rate-limit guards.

Three quantities are tracked per day and per policy:

* **hysteresis band** — is each RSU's planned size within the
  controller's deadband of the privacy-optimal size for the volumes
  that drove the plan (day ``p``'s plan is judged against day
  ``p - 1``'s observed volumes — the controller acts one period
  behind, by construction)?  Adaptive must hold every live RSU in
  band; static drifts out as demand falls away from its day-0 sizes.
* **accuracy** — mean relative error of the decoded point-to-point
  matrix against the routed ground truth.  Static keeps its larger
  arrays, so its per-pair noise stays slightly lower; that is the
  price adaptive pays.
* **privacy** — the analytic preserved privacy ``p = P(E|A)``
  (Eq. 43) averaged over the measured pairs, plus one *empirical*
  tracker run (:func:`repro.privacy.attacker.empirical_privacy`) on
  the final day's highest-volume pair.  This is what adaptive buys:
  as demand falls, static's effective load factor drops below the
  privacy optimum ``f*`` and its preserved privacy decays; adaptive
  shrinks ``m_x`` to follow ``f*``.

Every per-day decode is an independent :mod:`repro.runtime` task, and
the run re-checks the final day's matrices against a serial re-decode —
``bit_identical`` asserts digit-for-digit equality across worker
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.decoder import CentralDecoder
from repro.core.encoder import encode_passes
from repro.core.estimator import PairEstimate, ZeroFractionPolicy
from repro.core.parameters import SchemeParameters
from repro.core.sizing import AdaptiveSizing, PrivacyOptimalSizing
from repro.privacy.attacker import empirical_privacy
from repro.privacy.formulas import preserved_privacy
from repro.privacy.optimizer import optimal_load_factor
from repro.runtime import Task, run_tasks
from repro.scenarios import get_scenario
from repro.service.runtime import DeploymentSpec
from repro.utils.tables import AsciiTable

__all__ = [
    "AdaptiveMatrixResult",
    "AdaptiveSizingResult",
    "PeriodOutcome",
    "run_adaptive_matrix",
    "run_adaptive_sizing",
]

PairKey = Tuple[int, int]
Matrix = Dict[PairKey, PairEstimate]


def _display(scenario: str) -> str:
    """Headline name: the historical wording for the default scenario,
    the spec string for everything else."""
    return "Sioux Falls" if scenario == "sioux-falls" else scenario


def _decode_day(
    scenario: str,
    trips: int,
    workload_seed: int,
    params: SchemeParameters,
    policy: ZeroFractionPolicy,
    sizes: Dict[int, int],
    period: int,
) -> Matrix:
    """Encode one drifted day at a given size plan and decode all pairs.

    A runtime task: self-contained (resolves *scenario* by name and
    re-routes the day's workload from its trip count and seed — names
    travel through pickled process-executor tasks where workload
    objects should not), consumes no ambient randomness, and is
    therefore bit-identical at any worker count.
    """
    workload = get_scenario(scenario).workload(
        total_trips=trips, seed=workload_seed, period=period
    )
    decoder = CentralDecoder(params.s, policy=policy)
    for rsu_id, (ids, keys) in sorted(workload.passes().items()):
        decoder.submit(
            encode_passes(
                ids,
                keys,
                int(rsu_id),
                sizes[int(rsu_id)],
                params,
                period=period,
            )
        )
    return decoder.estimate_matrix(period)


def _day_task(
    spec: DeploymentSpec,
    sizes: Dict[int, int],
    period: int,
    label: str,
) -> Task:
    """The decode task for day *period* of *spec* at plan *sizes*."""
    return Task(
        fn=_decode_day,
        args=(
            spec.scenario,
            spec.trips_for(period),
            spec.seed + period,
            spec.scheme.params,
            spec.policy,
            dict(sizes),
            period,
        ),
        label=label,
    )


def _mean_error(
    matrix: Matrix, truth: Dict[PairKey, int], min_truth: int
) -> Tuple[float, int]:
    """Mean relative error over pairs with ground truth >= *min_truth*."""
    errors = [
        abs(matrix[pair].value - true_nc) / true_nc
        for pair, true_nc in sorted(truth.items())
        if true_nc >= min_truth and pair in matrix
    ]
    if not errors:
        return float("nan"), 0
    return float(np.mean(errors)), len(errors)


def _mean_privacy(
    volumes: Dict[int, int],
    truth: Dict[PairKey, int],
    sizes: Dict[int, int],
    s: int,
    min_truth: int,
) -> float:
    """Mean analytic preserved privacy over the qualifying pairs.

    Each pair is oriented ``m_x <= m_y`` as Eq. 43 requires; pairs
    below *min_truth* are skipped in lockstep with :func:`_mean_error`.
    """
    values: List[float] = []
    for (a, b), n_c in sorted(truth.items()):
        if n_c < min_truth:
            continue
        n_a, n_b = volumes[a], volumes[b]
        m_a, m_b = sizes[a], sizes[b]
        if m_a > m_b:
            n_a, n_b, m_a, m_b = n_b, n_a, m_b, m_a
        values.append(
            float(preserved_privacy(n_a, n_b, min(n_c, n_a, n_b), m_a, m_b, s))
        )
    return float(np.mean(values)) if values else float("nan")


def _min_truth(trips: int, total_trips: int, base: int) -> int:
    """The ground-truth floor for a drifted day, scaled with its
    demand (relative error against a near-zero denominator is not
    meaningful, but the floor must shrink as the whole day does)."""
    return max(20, round(base * trips / total_trips))


@dataclass(frozen=True)
class PeriodOutcome:
    """Both policies' behaviour over one drifted day."""

    period: int
    trips: int
    live_rsus: int
    #: RSUs whose size changed entering this day (adaptive only).
    resizes: int
    #: RSUs whose planned size is within the hysteresis band of the
    #: privacy-optimal size for the volumes that drove the plan.
    adaptive_in_band: int
    static_in_band: int
    #: Median effective load factor m_x / n_x over live RSUs.
    adaptive_load_factor: float
    static_load_factor: float
    #: Mean relative error of the decoded matrix (qualifying pairs).
    adaptive_error: float
    static_error: float
    #: Mean analytic preserved privacy (same pairs).
    adaptive_privacy: float
    static_privacy: float
    pairs: int


@dataclass(frozen=True)
class AdaptiveSizingResult:
    """Everything the adaptive-vs-static comparison measured."""

    total_trips: int
    periods: int
    drift: float
    s: int
    #: The privacy-optimal global load factor the controller targets.
    f_star: float
    hysteresis: int
    max_step: int
    outcomes: List[PeriodOutcome]
    #: Final-day empirical tracker on the highest-volume pair.
    attacker_pair: PairKey
    attacker_truth: int
    adaptive_empirical_privacy: float
    static_empirical_privacy: float
    #: Final-day matrices re-checked serially.
    serial_identical: bool
    size_trajectory: List[Dict[int, int]] = field(repr=False, default_factory=list)
    scenario: str = "sioux-falls"

    @property
    def adaptive_always_in_band(self) -> bool:
        """Did adaptive hold every live RSU in band, every day?"""
        return all(o.adaptive_in_band == o.live_rsus for o in self.outcomes)

    @property
    def static_drifts_out(self) -> bool:
        """Did static end the run with RSUs outside the band?"""
        return self.outcomes[-1].static_in_band < self.outcomes[-1].live_rsus

    @property
    def bit_identical(self) -> bool:
        """Final matrices identical serially and in parallel?"""
        return self.serial_identical

    def render(self) -> str:
        table = AsciiTable(
            [
                "day",
                "trips",
                "resizes",
                "in band (adp)",
                "in band (sta)",
                "f (adp)",
                "f (sta)",
                "|err|% adp",
                "|err|% sta",
                "privacy adp",
                "privacy sta",
            ],
            title=(
                "Adaptive vs static sizing under drifting demand "
                f"({_display(self.scenario)}, "
                f"{self.total_trips:,} trips/day shrinking "
                f"{100 * -self.drift:.0f}%/day, s={self.s}, "
                f"f*={self.f_star:.2f}, hysteresis ±{self.hysteresis} "
                f"octave, max step {self.max_step})"
            ),
        )
        for o in self.outcomes:
            table.add_row(
                [
                    o.period,
                    o.trips,
                    o.resizes,
                    f"{o.adaptive_in_band}/{o.live_rsus}",
                    f"{o.static_in_band}/{o.live_rsus}",
                    f"{o.adaptive_load_factor:.2f}",
                    f"{o.static_load_factor:.2f}",
                    100 * o.adaptive_error,
                    100 * o.static_error,
                    f"{o.adaptive_privacy:.3f}",
                    f"{o.static_privacy:.3f}",
                ]
            )
        lines = [table.render()]
        lines.append(
            "band verdict      : adaptive "
            + ("in band every day" if self.adaptive_always_in_band else "LEFT THE BAND")
            + "; static "
            + (
                "drifted out of band"
                if self.static_drifts_out
                else "stayed in band (drift too mild)"
            )
        )
        lines.append(
            f"empirical tracker : pair {self.attacker_pair} "
            f"(n_c={self.attacker_truth:,}, final day): "
            f"adaptive p={self.adaptive_empirical_privacy:.3f}, "
            f"static p={self.static_empirical_privacy:.3f}"
        )
        lines.append(
            "determinism       : final matrices "
            + ("bit-identical" if self.serial_identical else "MISMATCH")
            + " serial vs parallel"
        )
        return "\n".join(lines)


def run_adaptive_sizing(
    *,
    total_trips: int = 24_000,
    periods: int = 5,
    drift: float = -0.35,
    s: int = 2,
    seed: int = 13,
    min_truth: int = 200,
    attacker_trials: int = 4,
    scenario: str = "sioux-falls",
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> AdaptiveSizingResult:
    """Compare adaptive and static sizing over a shrinking demand.

    Day ``p`` carries ``total_trips * (1 + drift) ** p`` trips.  The
    default drift (-35%/day, ~0.62 octaves) stays under the
    controller's per-period rate limit of ``max_step = 2`` octaves, so
    adaptive tracks it exactly; cumulatively it exceeds the hysteresis
    band within three days, so static cannot.  Per-day decodes run as
    independent runtime tasks (bit-identical for any *workers* /
    *executor*)."""
    controller = AdaptiveSizing(
        target=PrivacyOptimalSizing(s), hysteresis=1, max_step=2
    )
    spec = DeploymentSpec(
        total_trips=total_trips,
        seed=seed,
        s=s,
        periods=periods,
        drift=drift,
        sizing=controller,
        adaptive=True,
        scenario=scenario,
    )
    f_star, _ = optimal_load_factor(s)
    trajectory = spec.size_trajectory()
    static_sizes = trajectory[0]

    # One decode task per (policy, day).
    last = periods - 1
    tasks = [
        _day_task(spec, trajectory[p], p, f"adaptive:day{p}")
        for p in range(periods)
    ]
    tasks += [
        _day_task(spec, static_sizes, p, f"static:day{p}")
        for p in range(periods)
    ]
    decoded = run_tasks(tasks, workers=workers, executor=executor)
    adaptive_matrices = decoded[:periods]
    static_matrices = decoded[periods:]

    # Determinism: the final day re-decoded inline (serial, one
    # worker) must match digit for digit.
    serial = _decode_day(*tasks[last].args)
    serial_identical = serial == adaptive_matrices[last]

    outcomes: List[PeriodOutcome] = []
    for p in range(periods):
        workload = spec.workload_for(p)
        volumes = workload.volumes()
        truth = workload.common_volumes()
        floor = _min_truth(spec.trips_for(p), total_trips, min_truth)
        # Day p's plan was computed from day p-1's observed volumes
        # (day 0 from its seed history): judge each policy's plan
        # against the volumes that drove it.
        driving = spec.observed_volumes(max(0, p - 1))
        live = {r: v for r, v in driving.items() if v > 0}
        adaptive_error, pairs = _mean_error(adaptive_matrices[p], truth, floor)
        static_error, _ = _mean_error(static_matrices[p], truth, floor)
        current = {r: float(v) for r, v in spec.observed_volumes(p).items() if v > 0}
        outcomes.append(
            PeriodOutcome(
                period=p,
                trips=spec.trips_for(p),
                live_rsus=len(live),
                resizes=0
                if p == 0
                else sum(
                    1
                    for r in trajectory[p]
                    if trajectory[p][r] != trajectory[p - 1][r]
                ),
                adaptive_in_band=sum(
                    1
                    for r, v in live.items()
                    if controller.in_band(trajectory[p][r], v)
                ),
                static_in_band=sum(
                    1
                    for r, v in live.items()
                    if controller.in_band(static_sizes[r], v)
                ),
                adaptive_load_factor=float(
                    np.median([trajectory[p][r] / v for r, v in current.items()])
                ),
                static_load_factor=float(
                    np.median([static_sizes[r] / v for r, v in current.items()])
                ),
                adaptive_error=adaptive_error,
                static_error=static_error,
                adaptive_privacy=_mean_privacy(
                    volumes, truth, trajectory[p], s, floor
                ),
                static_privacy=_mean_privacy(
                    volumes, truth, static_sizes, s, floor
                ),
                pairs=pairs,
            )
        )

    # Empirical tracker on the final day's highest-volume pair.
    final = spec.workload_for(last)
    final_truth = final.common_volumes()
    final_volumes = final.volumes()
    pair = max(sorted(final_truth), key=lambda k: final_truth[k])
    n_c = final_truth[pair]
    empirical: Dict[str, float] = {}
    for name, sizes in (("adaptive", trajectory[last]), ("static", static_sizes)):
        a, b = pair
        n_a, n_b, m_a, m_b = final_volumes[a], final_volumes[b], sizes[a], sizes[b]
        if m_a > m_b:
            n_a, n_b, m_a, m_b = n_b, n_a, m_b, m_a
        empirical[name] = empirical_privacy(
            n_a,
            n_b,
            min(n_c, n_a, n_b),
            m_a,
            m_b,
            s,
            trials=attacker_trials,
            seed=seed,
            hash_seed_base=spec.hash_seed,
        ).privacy

    return AdaptiveSizingResult(
        total_trips=total_trips,
        periods=periods,
        drift=drift,
        s=s,
        f_star=f_star,
        hysteresis=controller.hysteresis,
        max_step=controller.max_step,
        outcomes=outcomes,
        attacker_pair=pair,
        attacker_truth=n_c,
        adaptive_empirical_privacy=empirical["adaptive"],
        static_empirical_privacy=empirical["static"],
        serial_identical=serial_identical,
        size_trajectory=trajectory,
        scenario=spec.scenario,
    )


@dataclass(frozen=True)
class AdaptiveMatrixResult:
    """Multi-day adaptive decode behind ``repro matrix --adaptive``."""

    total_trips: int
    periods: int
    drift: float
    trips: List[int]
    resizes: List[int]
    mean_errors: List[float]
    pairs: List[int]
    serial_identical: bool
    size_trajectory: List[Dict[int, int]] = field(repr=False, default_factory=list)
    scenario: str = "sioux-falls"

    @property
    def bit_identical(self) -> bool:
        """Final matrix identical serially and in parallel?"""
        return self.serial_identical

    def render(self) -> str:
        table = AsciiTable(
            ["day", "trips", "resizes", "mean |err| %", "pairs"],
            title=(
                f"Adaptive multi-day {_display(self.scenario)} matrix "
                f"({self.total_trips:,} trips/day shrinking "
                f"{100 * -self.drift:.0f}%/day, {self.periods} days)"
            ),
        )
        for p in range(self.periods):
            table.add_row(
                [
                    p,
                    self.trips[p],
                    self.resizes[p],
                    100 * self.mean_errors[p],
                    self.pairs[p],
                ]
            )
        lines = [table.render()]
        lines.append(
            "size trajectory   : "
            + " -> ".join(
                f"day {p}: {sum(plan.values()):,} bits"
                for p, plan in enumerate(self.size_trajectory)
            )
        )
        lines.append(
            "determinism       : final matrix "
            + ("bit-identical" if self.serial_identical else "MISMATCH")
            + " serial vs parallel"
        )
        return "\n".join(lines)


def run_adaptive_matrix(
    *,
    total_trips: int = 60_000,
    periods: int = 5,
    drift: float = -0.35,
    s: int = 2,
    seed: int = 13,
    min_truth: int = 200,
    scenario: str = "sioux-falls",
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> AdaptiveMatrixResult:
    """Decode every day of an adaptive multi-period deployment.

    Uses the deployment default controller (``--adaptive``:
    privacy-optimal target, hysteresis 1, max step 1, clamped to
    ``m_o``) so the trajectory matches ``repro loadgen --adaptive``
    for the same flags; per-day decodes are independent runtime tasks
    and the final day is re-checked serially."""
    spec = DeploymentSpec(
        total_trips=total_trips,
        seed=seed,
        s=s,
        periods=periods,
        drift=drift,
        adaptive=True,
        scenario=scenario,
    )
    trajectory = spec.size_trajectory()
    last = periods - 1
    tasks = [
        _day_task(spec, trajectory[p], p, f"matrix:day{p}")
        for p in range(periods)
    ]
    matrices = run_tasks(tasks, workers=workers, executor=executor)
    serial = _decode_day(*tasks[last].args)

    mean_errors: List[float] = []
    pairs: List[int] = []
    resizes: List[int] = [0]
    for p in range(periods):
        truth = spec.workload_for(p).common_volumes()
        floor = _min_truth(spec.trips_for(p), total_trips, min_truth)
        error, count = _mean_error(matrices[p], truth, floor)
        mean_errors.append(error)
        pairs.append(count)
        if p > 0:
            resizes.append(
                sum(
                    1
                    for r in trajectory[p]
                    if trajectory[p][r] != trajectory[p - 1][r]
                )
            )
    return AdaptiveMatrixResult(
        total_trips=total_trips,
        periods=periods,
        drift=drift,
        trips=[spec.trips_for(p) for p in range(periods)],
        resizes=resizes,
        mean_errors=mean_errors,
        pairs=pairs,
        serial_identical=serial == matrices[last],
        size_trajectory=trajectory,
        scenario=spec.scenario,
    )
