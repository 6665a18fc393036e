"""Ablations of the design choices DESIGN.md calls out.

Three studies, each isolating one choice of the VLM design:

1. **Unfold-up vs fold-down** — the paper expands the *smaller* array
   by duplication.  The obvious alternative, OR-folding the larger
   array down to the smaller size, is also a valid comparison operator
   (the estimator simply runs with ``m_y -> m_x``); this ablation
   shows it collapses for large traffic ratios because the folded
   array saturates — the quantitative argument for unfolding up.
2. **Load-factor band** — power-of-two sizing realizes a load factor
   in ``[f̄, 2 f̄)``; this study measures accuracy at both band edges,
   bounding the effect of the rounding the scheme accepts in exchange
   for exact unfolding.
3. **Effect of s** — the logical bit array size trades privacy
   against estimator noise (the ``(s-1)/s`` term shrinks the per-car
   signal); this study quantifies the accuracy cost of larger ``s``.

Each study configuration is an independent :mod:`repro.runtime` task
with its own seed substream (the fleet is shared across studies via a
dedicated substream), so the result is bit-identical for any worker
count and executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.bitarray import BitArray
from repro.core.estimator import (
    ZeroFractionPolicy,
    estimate_from_fractions,
)
from repro.core.reports import RsuReport
from repro.core.scheme import VlmScheme
from repro.core.sizing import array_size_for_volume
from repro.errors import SaturatedArrayError
from repro.runtime import Task, run_tasks
from repro.traffic.population import VehicleFleet
from repro.utils.rng import SeedLike, as_generator, spawn_sequences
from repro.utils.tables import AsciiTable

__all__ = ["AblationResult", "run_ablations", "fold_down"]


def fold_down(array: BitArray, target_size: int) -> BitArray:
    """OR-fold *array* down to *target_size* bits (the unfolding
    alternative studied by ablation 1): bit ``i`` of the result is the
    OR of all source bits congruent to ``i`` mod *target_size*."""
    if array.size % target_size != 0:
        raise ValueError(
            f"target size {target_size} does not divide array size {array.size}"
        )
    return array.fold(target_size)


@dataclass(frozen=True)
class AblationRow:
    """One measured configuration of one study."""

    study: str
    label: str
    mean_abs_error: float
    detail: str = ""


@dataclass(frozen=True)
class AblationResult:
    """All ablation rows, grouped by study."""

    rows: List[AblationRow]
    repetitions: int

    def study(self, name: str) -> List[AblationRow]:
        """Rows of one study."""
        return [row for row in self.rows if row.study == name]

    def render(self) -> str:
        parts: List[str] = []
        for study in dict.fromkeys(row.study for row in self.rows):
            table = AsciiTable(
                ["configuration", "mean |err| %", "note"],
                title=f"Ablation — {study} ({self.repetitions} runs each)",
            )
            for row in self.study(study):
                table.add_row([row.label, 100.0 * row.mean_abs_error, row.detail])
            parts.append(table.render())
        return "\n\n".join(parts)


def _pair_reports(
    fleet: VehicleFleet,
    n_x: int,
    n_y: int,
    n_c: int,
    scheme: VlmScheme,
) -> Dict[int, RsuReport]:
    ids_x, keys_x = fleet.ids[:n_x], fleet.keys[:n_x]
    ids_y = np.concatenate([fleet.ids[:n_c], fleet.ids[n_x : n_x + n_y - n_c]])
    keys_y = np.concatenate([fleet.keys[:n_c], fleet.keys[n_x : n_x + n_y - n_c]])
    return {
        1: scheme.encode_rsu(1, ids_x, keys_x),
        2: scheme.encode_rsu(2, ids_y, keys_y),
    }


def _mean_abs_error(estimates: Sequence[float], n_c: int) -> float:
    return float(np.mean([abs(e - n_c) / n_c for e in estimates]))


def _hash_seeds(
    seed: np.random.SeedSequence, repetitions: int
) -> List[int]:
    """Per-repetition hash seeds, all derived up front from *seed*."""
    return [
        int(as_generator(sub).integers(2**63))
        for sub in spawn_sequences(seed, repetitions)
    ]


def _study_unfold_vs_fold(
    n_x: int,
    n_y: int,
    n_c: int,
    load_factor: float,
    repetitions: int,
    fleet_seed: np.random.SeedSequence,
    seed: np.random.SeedSequence,
) -> List[AblationRow]:
    """Study 1: unfold-up (the paper's design) vs fold-down."""
    fleet = VehicleFleet.random(n_x + n_y, seed=fleet_seed)
    up_estimates: List[float] = []
    down_estimates: List[float] = []
    saturated = 0
    for hash_seed in _hash_seeds(seed, repetitions):
        scheme = VlmScheme(
            {1: n_x, 2: n_y},
            s=2,
            load_factor=load_factor,
            hash_seed=hash_seed,
            policy=ZeroFractionPolicy.CLAMP,
        )
        reports = _pair_reports(fleet, n_x, n_y, n_c, scheme)
        up_estimates.append(scheme.measure(reports[1], reports[2]).value)
        # Fold-down alternative: estimator runs entirely at m_x.
        m_x = reports[1].array_size
        folded = fold_down(reports[2].bits, m_x)
        joint = reports[1].bits | folded
        v_x = max(reports[1].bits.zero_fraction(), 0.5 / m_x)
        v_y = max(folded.zero_fraction(), 0.5 / m_x)
        v_c = max(joint.zero_fraction(), 0.5 / m_x)
        if folded.is_saturated() or joint.is_saturated():
            saturated += 1
        try:
            down_estimates.append(
                estimate_from_fractions(v_c, v_x, v_y, m_x, scheme.s)
            )
        except SaturatedArrayError:  # pragma: no cover - clamped above
            saturated += 1
    return [
        AblationRow(
            study="unfold-up vs fold-down",
            label="unfold up (paper)",
            mean_abs_error=_mean_abs_error(up_estimates, n_c),
        ),
        AblationRow(
            study="unfold-up vs fold-down",
            label="fold down (alternative)",
            mean_abs_error=_mean_abs_error(down_estimates, n_c),
            detail=f"{saturated}/{repetitions} runs saturated the folded array",
        ),
    ]


def _study_band_edge(
    n_x: int,
    n_y: int,
    n_c: int,
    factor: float,
    label: str,
    repetitions: int,
    fleet_seed: np.random.SeedSequence,
    seed: np.random.SeedSequence,
) -> List[AblationRow]:
    """Study 2: one edge of the realized load-factor band [f̄, 2 f̄)."""
    fleet = VehicleFleet.random(n_x + n_y, seed=fleet_seed)
    estimates: List[float] = []
    for hash_seed in _hash_seeds(seed, repetitions):
        scheme = VlmScheme(
            {1: n_x, 2: n_y},
            s=2,
            load_factor=factor,
            hash_seed=hash_seed,
            policy=ZeroFractionPolicy.CLAMP,
        )
        reports = _pair_reports(fleet, n_x, n_y, n_c, scheme)
        estimates.append(scheme.measure(reports[1], reports[2]).value)
    m_x = array_size_for_volume(n_x, factor)
    return [
        AblationRow(
            study="load-factor band",
            label=label,
            mean_abs_error=_mean_abs_error(estimates, n_c),
            detail=f"m_x = {m_x:,}",
        )
    ]


def _study_effect_of_s(
    n_x: int,
    n_y: int,
    n_c: int,
    s: int,
    load_factor: float,
    repetitions: int,
    fleet_seed: np.random.SeedSequence,
    seed: np.random.SeedSequence,
) -> List[AblationRow]:
    """Study 3: accuracy cost of one logical array size ``s``."""
    fleet = VehicleFleet.random(n_x + n_y, seed=fleet_seed)
    estimates: List[float] = []
    for hash_seed in _hash_seeds(seed, repetitions):
        scheme = VlmScheme(
            {1: n_x, 2: n_y},
            s=s,
            load_factor=load_factor,
            hash_seed=hash_seed,
            policy=ZeroFractionPolicy.CLAMP,
        )
        reports = _pair_reports(fleet, n_x, n_y, n_c, scheme)
        estimates.append(scheme.measure(reports[1], reports[2]).value)
    return [
        AblationRow(
            study="effect of s",
            label=f"s = {s}",
            mean_abs_error=_mean_abs_error(estimates, n_c),
            detail="per-car log-signal is ~1/(s m_y): grows noisier with s",
        )
    ]


def run_ablations(
    *,
    n_x: int = 10_000,
    ratio: int = 10,
    n_c: int = 2_000,
    load_factor: float = 8.0,
    repetitions: int = 10,
    seed: SeedLike = 21,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> AblationResult:
    """Run all three ablation studies on one pair configuration."""
    n_y = n_x * ratio
    # One substream for the shared fleet, one per study configuration
    # (1 unfold-vs-fold + 2 band edges + 3 values of s = 6 tasks).
    fleet_seed, *config_seeds = spawn_sequences(seed, 7)
    tasks = [
        Task(
            fn=_study_unfold_vs_fold,
            args=(
                n_x, n_y, n_c, load_factor, repetitions,
                fleet_seed, config_seeds[0],
            ),
            label="ablation:unfold-vs-fold",
        )
    ]
    for offset, (factor, label) in enumerate(
        ((load_factor, "f̄ (band floor)"), (2 * load_factor, "2 f̄ (band ceiling)"))
    ):
        tasks.append(
            Task(
                fn=_study_band_edge,
                args=(
                    n_x, n_y, n_c, factor, label, repetitions,
                    fleet_seed, config_seeds[1 + offset],
                ),
                label=f"ablation:band:{factor:g}",
            )
        )
    for offset, s in enumerate((2, 5, 10)):
        tasks.append(
            Task(
                fn=_study_effect_of_s,
                args=(
                    n_x, n_y, n_c, s, load_factor, repetitions,
                    fleet_seed, config_seeds[3 + offset],
                ),
                label=f"ablation:s{s}",
            )
        )
    row_groups = run_tasks(tasks, workers=workers, executor=executor)
    rows = [row for group in row_groups for row in group]
    return AblationResult(rows=rows, repetitions=repetitions)
