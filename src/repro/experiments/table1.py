"""Table I: Sioux Falls point-to-point measurements, both schemes.

Eight RSU pairs against node 10 (``n_y = 451k`` vehicles/day), sorted
by the traffic difference ratio ``d = n_y / n_x``; both schemes
measure each pair's point-to-point volume and the error ratio
``r = |n̂_c - n_c| / n_c`` is reported.

The paper's reading: both schemes are accurate when ``d`` is small
(~0.1% at ``d ≈ 2``), but the baseline's error grows by an order of
magnitude around ``d ≈ 4`` and two orders around ``d ≈ 16``, while the
VLM scheme stays flat.

Per DESIGN.md substitution #1, the per-pair ``(n_x, n_y, n_c)`` are
pinned to the paper's exact Table I values (the schemes consume
nothing else about the network), while the surrounding Sioux Falls
topology/trip context lives in the examples.  The paper prints one
simulation run per pair; since single-run errors are noisy at these
scales we run ``repetitions`` independent rounds per pair and report
the mean error ratio (raw per-round estimates are kept for
inspection), which is the fair shape comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baseline.scheme import FixedLengthScheme
from repro.core.sizing import fixed_array_size_for_privacy
from repro.core.estimator import ZeroFractionPolicy
from repro.core.scheme import VlmScheme
from repro.privacy.optimizer import max_load_factor_for_privacy
from repro.runtime import Task, run_tasks
from repro.traffic.population import VehicleFleet
from repro.traffic.scenarios import (
    TABLE1_N_Y,
    TABLE1_PAIRS,
    TABLE1_RSU_Y,
    Table1Pair,
)
from repro.utils.rng import SeedLike, as_generator, spawn_sequences
from repro.utils.tables import AsciiTable

__all__ = ["Table1Row", "Table1Result", "run_table1"]


@dataclass(frozen=True)
class Table1Row:
    """One measured pair (mean over repetitions)."""

    rsu_x: int
    n_x: int
    n_c: int
    d: float
    vlm_estimate: float
    vlm_error: float
    baseline_estimate: float
    baseline_error: float
    vlm_estimates: Tuple[float, ...]
    baseline_estimates: Tuple[float, ...]
    #: Closed-form per-run relative stddev (Section V machinery), for
    #: judging whether an observed error is noise or systematic.
    vlm_stddev: float = float("nan")
    baseline_stddev: float = float("nan")

    @property
    def vlm_mean_run_error(self) -> float:
        """Mean per-run error ratio (more stable than the error of the
        mean estimate at few repetitions)."""
        return float(
            sum(abs(e - self.n_c) for e in self.vlm_estimates)
            / (self.n_c * len(self.vlm_estimates))
        )

    @property
    def baseline_mean_run_error(self) -> float:
        """Mean per-run error ratio of the baseline."""
        return float(
            sum(abs(e - self.n_c) for e in self.baseline_estimates)
            / (self.n_c * len(self.baseline_estimates))
        )


@dataclass(frozen=True)
class Table1Result:
    """The reproduced Table I."""

    rows: List[Table1Row]
    n_y: int
    s: int
    load_factor: float
    baseline_m: int
    repetitions: int

    def render(self) -> str:
        table = AsciiTable(
            [
                "R_x",
                "n_x",
                "d = n_y/n_x",
                "n_c",
                "n_c^ ([9])",
                "n_c^ (VLM)",
                "r ([9]) %",
                "r (VLM) %",
                "σ ([9]) %",
                "σ (VLM) %",
            ],
            title=(
                f"Table I — Sioux Falls, R_y = {TABLE1_RSU_Y}, n_y = {self.n_y:,}, "
                f"s = {self.s}, f̄ = {self.load_factor:.2f}, "
                f"baseline m = {self.baseline_m:,}, "
                f"mean over {self.repetitions} runs"
            ),
        )
        for row in self.rows:
            table.add_row(
                [
                    row.rsu_x,
                    row.n_x,
                    row.d,
                    row.n_c,
                    row.baseline_estimate,
                    row.vlm_estimate,
                    100.0 * row.baseline_error,
                    100.0 * row.vlm_error,
                    100.0 * row.baseline_stddev,
                    100.0 * row.vlm_stddev,
                ]
            )
        return table.render()


def _measure_pair(
    pair: Table1Pair,
    n_y: int,
    s: int,
    load_factor: float,
    baseline_m: int,
    repetitions: int,
    seed: np.random.SeedSequence,
) -> Table1Row:
    """Both schemes on one pair, averaged over repetitions.

    A runtime task: the pair's ``SeedSequence`` substream is split up
    front into one fleet stream and one hash-seed stream per
    repetition, so the row is independent of every other pair's
    execution (and of the executor running it).
    """
    n_x, n_c = pair.n_x, pair.n_c
    fleet_seed, *rep_seeds = spawn_sequences(seed, 1 + repetitions)
    fleet = VehicleFleet.random(n_x + n_y, seed=fleet_seed)
    ids_x, keys_x = fleet.ids[:n_x], fleet.keys[:n_x]
    ids_y = np.concatenate([fleet.ids[:n_c], fleet.ids[n_x : n_x + n_y - n_c]])
    keys_y = np.concatenate([fleet.keys[:n_c], fleet.keys[n_x : n_x + n_y - n_c]])
    vlm_estimates: List[float] = []
    base_estimates: List[float] = []
    for rep_seed in rep_seeds:
        hash_seed = int(as_generator(rep_seed).integers(2**63))
        vlm = VlmScheme(
            {pair.rsu_x: n_x, TABLE1_RSU_Y: n_y},
            s=s,
            load_factor=load_factor,
            hash_seed=hash_seed,
            policy=ZeroFractionPolicy.CLAMP,
        )
        rx = vlm.encode_rsu(pair.rsu_x, ids_x, keys_x)
        ry = vlm.encode_rsu(TABLE1_RSU_Y, ids_y, keys_y)
        vlm_estimates.append(vlm.measure(rx, ry).value)
        # The baseline folds the VLM reports (the same bytes as hashing
        # the passes again): baseline_m is at most every VLM size, and
        # both are powers of two.
        base = FixedLengthScheme(baseline_m, s=s, hash_seed=hash_seed)
        folded = base.encode({pair.rsu_x: rx, TABLE1_RSU_Y: ry}, source=vlm.params)
        bx, by = folded[pair.rsu_x], folded[TABLE1_RSU_Y]
        base_estimates.append(base.measure(bx, by).value)
    vlm_mean = float(np.mean(vlm_estimates))
    base_mean = float(np.mean(base_estimates))
    from repro.accuracy.variance import estimator_stddev
    from repro.core.sizing import array_size_for_volume

    m_x = array_size_for_volume(n_x, load_factor)
    m_y = array_size_for_volume(n_y, load_factor)
    vlm_stddev = estimator_stddev(n_x, n_y, n_c, m_x, m_y, s)
    base_stddev = estimator_stddev(n_x, n_y, n_c, baseline_m, baseline_m, s)
    return Table1Row(
        rsu_x=pair.rsu_x,
        n_x=n_x,
        n_c=n_c,
        d=pair.traffic_difference_ratio,
        vlm_estimate=vlm_mean,
        vlm_error=abs(vlm_mean - n_c) / n_c,
        baseline_estimate=base_mean,
        baseline_error=abs(base_mean - n_c) / n_c,
        vlm_estimates=tuple(vlm_estimates),
        baseline_estimates=tuple(base_estimates),
        vlm_stddev=vlm_stddev,
        baseline_stddev=base_stddev,
    )


def run_table1(
    *,
    pairs: Sequence[Table1Pair] = TABLE1_PAIRS,
    s: int = 2,
    repetitions: int = 5,
    min_privacy: float = 0.5,
    seed: SeedLike = 1,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> Table1Result:
    """Reproduce Table I.

    ``f̄`` and the baseline ``m`` are derived from the privacy floor
    exactly as the paper prescribes: the binding volume is the
    least-traffic RSU among all involved (node 3, 28k/day).  Pairs are
    measured as independent runtime tasks, one substream each — the
    result is bit-identical for any worker count and executor.
    """
    n_min = min(min(p.n_x for p in pairs), TABLE1_N_Y)
    load_factor = max_load_factor_for_privacy(
        min_privacy, s, n_x=n_min, n_y=n_min
    )
    volumes = [p.n_x for p in pairs] + [TABLE1_N_Y]
    baseline_m = fixed_array_size_for_privacy(
        volumes, s, min_privacy=min_privacy
    )
    rows = run_tasks(
        [
            Task(
                fn=_measure_pair,
                args=(
                    pair,
                    TABLE1_N_Y,
                    s,
                    load_factor,
                    baseline_m,
                    repetitions,
                    sub,
                ),
                label=f"table1:rsu{pair.rsu_x}",
            )
            for pair, sub in zip(pairs, spawn_sequences(seed, len(pairs)))
        ],
        workers=workers,
        executor=executor,
    )
    return Table1Result(
        rows=rows,
        n_y=TABLE1_N_Y,
        s=s,
        load_factor=load_factor,
        baseline_m=baseline_m,
        repetitions=repetitions,
    )
