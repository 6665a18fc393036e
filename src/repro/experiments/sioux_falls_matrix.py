"""Full Sioux Falls traffic matrix: every pair, both schemes.

Table I samples eight RSU pairs; a transportation study consumes the
*whole* 24x24 matrix.  This experiment routes a calibrated gravity
workload over the Sioux Falls network, measures all 276 unordered
pairs with both schemes, and reports the error distribution
(percentiles) against the routed ground truth, stratified by the
traffic difference ratio ``d`` — the full-population version of the
paper's Table I comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.baseline.scheme import FixedLengthScheme
from repro.core.sizing import fixed_array_size_for_privacy
from repro.core.estimator import ZeroFractionPolicy
from repro.core.scheme import VlmScheme
from repro.errors import ReproError
from repro.privacy.optimizer import max_load_factor_for_privacy
from repro.runtime import Task, run_tasks
from repro.scenarios import get_scenario
from repro.utils.rng import SeedLike
from repro.utils.tables import AsciiTable

__all__ = ["MatrixResult", "run_od_matrix", "run_sioux_falls_matrix"]

PairKey = Tuple[int, int]


class PairOutcome(NamedTuple):
    """One measured pair."""

    pair: PairKey
    truth: int
    d: float
    vlm_error: float
    baseline_error: float


@dataclass(frozen=True)
class MatrixResult:
    """All-pairs measurement outcomes."""

    outcomes: List[PairOutcome]
    total_trips: int
    min_truth: int
    load_factor: float
    baseline_m: int
    scenario: str = "sioux-falls"

    def _errors(self, scheme: str) -> np.ndarray:
        attribute = "vlm_error" if scheme == "vlm" else "baseline_error"
        return np.array([getattr(o, attribute) for o in self.outcomes])

    def percentiles(self, scheme: str) -> Dict[str, float]:
        """Median / p90 / worst relative error of one scheme."""
        errors = self._errors(scheme)
        return {
            "median": float(np.percentile(errors, 50)),
            "p90": float(np.percentile(errors, 90)),
            "max": float(errors.max()),
        }

    def stratified_by_d(self, edges=(1, 2, 5, 10, 1e9)) -> List[Tuple[str, int, float, float]]:
        """Mean error per traffic-difference-ratio band."""
        rows = []
        for low, high in zip(edges, edges[1:]):
            band = [o for o in self.outcomes if low <= o.d < high]
            if not band:
                continue
            rows.append(
                (
                    f"{low:g} <= d < {high:g}",
                    len(band),
                    float(np.mean([o.vlm_error for o in band])),
                    float(np.mean([o.baseline_error for o in band])),
                )
            )
        return rows

    def render(self) -> str:
        # The historical golden headline text is preserved for the
        # default scenario; other scenarios print their spec string.
        display = (
            "Sioux Falls" if self.scenario == "sioux-falls" else self.scenario
        )
        table = AsciiTable(
            ["d band", "pairs", "VLM mean |err| %", "[9] mean |err| %"],
            title=(
                f"{display} full traffic matrix "
                f"({len(self.outcomes)} pairs with n_c >= {self.min_truth}, "
                f"{self.total_trips:,} trips/day, f̄ = {self.load_factor:.1f}, "
                f"baseline m = {self.baseline_m:,})"
            ),
        )
        for label, count, vlm, base in self.stratified_by_d():
            table.add_row([label, count, 100 * vlm, 100 * base])
        lines = [table.render()]
        for scheme in ("vlm", "baseline"):
            p = self.percentiles(scheme)
            lines.append(
                f"{scheme:>8}: median {100 * p['median']:.2f}%  "
                f"p90 {100 * p['p90']:.2f}%  worst {100 * p['max']:.2f}%"
            )
        return "\n".join(lines)


def run_od_matrix(
    *,
    scenario: str = "sioux-falls",
    total_trips: int = 360_600,
    min_truth: int = 500,
    s: int = 2,
    min_privacy: float = 0.5,
    seed: SeedLike = 13,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> MatrixResult:
    """Measure a scenario's full OD matrix with both schemes.

    *scenario* is any spec :func:`repro.scenarios.get_scenario`
    resolves (``sioux-falls``, ``grid-16x16``, ``trajectory-replay``,
    ``tntp:...``).  Pairs whose true common volume is below
    *min_truth* are excluded from error statistics (relative error is
    not meaningful against a near-zero denominator).  Both schemes
    encode RSU by RSU in process; their two all-pairs decodes then run
    as independent runtime tasks — bit-identical for any worker count
    and executor.  The baseline folds each VLM report to ``m``
    (:meth:`FixedLengthScheme.encode`) instead of hashing the passes
    again: ``m = 2^floor(log2(f n_min))`` and ``m_x = 2^ceil(log2(f
    n_x))`` with the same ``f`` and ``n_x >= n_min``, so ``m`` divides
    every ``m_x``.
    """
    scenario_obj = get_scenario(scenario)
    workload = scenario_obj.workload(total_trips=total_trips, seed=seed)
    volumes = workload.volumes()
    truth = workload.common_volumes()
    n_min = min(volumes.values())
    load_factor = max_load_factor_for_privacy(
        min_privacy, s, n_x=n_min, n_y=n_min
    )
    baseline_m = fixed_array_size_for_privacy(
        volumes.values(), s, min_privacy=min_privacy
    )
    # The measurement consumes no randomness (hash seed 7 is pinned),
    # so both matrices are deterministic by construction.
    schemes = (
        VlmScheme(
            volumes, s=s, load_factor=load_factor, hash_seed=7,
            policy=ZeroFractionPolicy.CLAMP,
        ),
        FixedLengthScheme(baseline_m, s=s, hash_seed=7),
    )
    # Encode RSU by RSU: one gather of a node's passes serves both
    # schemes and is dropped before the next node's.  Only the nodes
    # the VLM scheme sized (those on some route) report.  The baseline
    # folds the VLM report instead of hashing the passes again: the
    # same bytes for one read of the array.
    vlm, base = schemes
    for node in vlm.rsu_ids:
        report = vlm.run_period(workload.passes([node]))[node]
        base.run_period({node: report}, source=vlm.params)
    vlm_matrix, base_matrix = run_tasks(
        [
            Task(fn=scheme.decoder.estimate_matrix, label=f"matrix:{kind}")
            for kind, scheme in zip(("vlm", "baseline"), schemes)
        ],
        workers=workers,
        executor=executor,
    )

    # Scored pairs by position: the truth column and both matrices
    # share the triu layout over the same sorted RSUs (the VLM scheme
    # sizes exactly the nodes some route visits).
    for matrix in (vlm_matrix, base_matrix):
        if not np.array_equal(matrix.rsu_ids, truth.nodes):
            raise ReproError(
                f"matrix RSUs {matrix.rsu_ids.tolist()} are not the "
                f"ground-truth nodes {truth.nodes.tolist()}"
            )
    scored = truth.at_least(min_truth)
    true_nc = truth.volume[scored]
    rows, cols = (ranks[scored] for ranks in np.triu_indices(truth.nodes.size, 1))
    node_volume = np.array([volumes[x] for x in truth.nodes.tolist()], dtype=np.int64)
    n_a, n_b = node_volume[rows], node_volume[cols]
    d = np.maximum(n_a, n_b) / np.minimum(n_a, n_b)
    vlm_error, base_error = (
        np.abs(matrix.value[scored] - true_nc) / true_nc
        for matrix in (vlm_matrix, base_matrix)
    )
    outcomes = list(
        map(
            PairOutcome._make,
            zip(
                zip(truth.nodes[rows].tolist(), truth.nodes[cols].tolist()),
                true_nc.tolist(),
                d.tolist(),
                vlm_error.tolist(),
                base_error.tolist(),
            ),
        )
    )
    return MatrixResult(
        outcomes=outcomes,
        total_trips=workload.plan.trips.total_trips,
        min_truth=min_truth,
        load_factor=load_factor,
        baseline_m=baseline_m,
        scenario=scenario_obj.name,
    )


def run_sioux_falls_matrix(
    *,
    total_trips: int = 360_600,
    min_truth: int = 500,
    s: int = 2,
    min_privacy: float = 0.5,
    seed: SeedLike = 13,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> MatrixResult:
    """Measure the full Sioux Falls matrix (``run_od_matrix`` on the
    default scenario; kept for the historical entry-point name)."""
    return run_od_matrix(
        scenario="sioux-falls",
        total_trips=total_trips,
        min_truth=min_truth,
        s=s,
        min_privacy=min_privacy,
        seed=seed,
        workers=workers,
        executor=executor,
    )
