"""City-scale scaling study (extension).

Section IV-E analyzes per-pair cost; a deployment cares about the whole
city: how do encode time, decode time, memory, and accuracy behave as
the instrumented network grows from a town to a metro?  This study
sweeps scenarios of increasing size — any specs the scenario zoo
resolves (``ring-RxS``, ``grid-NxM``, ``tntp:...``); the default sweep
is the historical ring-radial ladder — through the complete pipeline:
demand synthesis, routing, online coding at every RSU, the full
all-pairs traffic matrix, reporting wall-clock and accuracy per scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimator import ZeroFractionPolicy
from repro.core.scheme import VlmScheme
from repro.runtime import Task, run_tasks
from repro.scenarios import get_scenario
from repro.utils.rng import SeedLike, as_generator, spawn_sequences
from repro.utils.tables import AsciiTable

__all__ = ["ScalePoint", "ScalingResult", "run_scaling"]


@dataclass(frozen=True)
class ScalePoint:
    """Measurements at one city size."""

    rsus: int
    vehicles: int
    pairs_measured: int
    encode_seconds: float
    matrix_seconds: float
    total_memory_mib: float
    median_error: float
    scenario: str = ""


@dataclass(frozen=True)
class ScalingResult:
    """The whole sweep."""

    points: List[ScalePoint]

    def render(self) -> str:
        table = AsciiTable(
            [
                "scenario",
                "RSUs",
                "vehicles/day",
                "pairs",
                "encode s",
                "matrix s",
                "memory MiB",
                "median |err| %",
            ],
            title="City-scale pipeline scaling (scenario sweep)",
        )
        for p in self.points:
            table.add_row(
                [
                    p.scenario,
                    p.rsus,
                    p.vehicles,
                    p.pairs_measured,
                    round(p.encode_seconds, 3),
                    round(p.matrix_seconds, 3),
                    round(p.total_memory_mib, 2),
                    100 * p.median_error,
                ]
            )
        return table.render()


def _scale_point(
    spec: str,
    trips_per_rsu: int,
    load_factor: float,
    min_truth: int,
    seed: np.random.SeedSequence,
) -> ScalePoint:
    """One scenario through the whole pipeline (a runtime task).

    *spec* travels as a string so the task pickles cleanly into
    process executors.  The estimates are deterministic per substream;
    the recorded wall-clock readings are measurements, not results,
    and naturally vary run to run (and under an oversubscribed
    parallel plan).
    """
    workload_seed, hash_seed_seq = spawn_sequences(seed, 2)
    scenario = get_scenario(spec)
    network = scenario.network()
    workload = scenario.workload(
        total_trips=trips_per_rsu * network.num_nodes, seed=workload_seed
    )
    volumes = workload.volumes()
    scheme = VlmScheme(
        volumes,
        s=2,
        load_factor=load_factor,
        hash_seed=int(as_generator(hash_seed_seq).integers(2**63)),
        policy=ZeroFractionPolicy.CLAMP,
    )
    start = time.perf_counter()
    # Only the sized RSUs report: a node on no route has no array.
    scheme.run_period(workload.passes(list(scheme.rsu_ids)))
    encode_seconds = time.perf_counter() - start

    start = time.perf_counter()
    matrix = scheme.decoder.all_pairs()
    matrix_seconds = time.perf_counter() - start

    truth = workload.common_volumes()
    scored = truth.at_least(min_truth)
    a, b = (ids[scored].tolist() for ids in truth.pair_ids())
    errors = [
        abs(matrix[pair].value - true) / true
        for pair, true in zip(zip(a, b), truth.volume[scored].tolist())
        if pair in matrix
    ]
    memory_bits = sum(scheme.array_size(rsu) for rsu in scheme.rsu_ids)
    return ScalePoint(
        rsus=network.num_nodes,
        vehicles=workload.plan.trips.total_trips,
        pairs_measured=len(matrix),
        encode_seconds=encode_seconds,
        matrix_seconds=matrix_seconds,
        total_memory_mib=memory_bits / 8 / 1024 / 1024,
        median_error=float(np.median(errors)) if errors else float("nan"),
        scenario=scenario.name,
    )


def run_scaling(
    *,
    city_sizes: Sequence[Tuple[int, int]] = ((2, 6), (3, 8), (4, 10)),
    scenarios: Optional[Sequence[str]] = None,
    trips_per_rsu: int = 4_000,
    load_factor: float = 8.0,
    min_truth: int = 300,
    seed: SeedLike = 41,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> ScalingResult:
    """Sweep a ladder of scenarios through the whole pipeline.

    *scenarios* is a sequence of scenario zoo specs; when omitted the
    historical ``(rings, spokes)`` pairs in *city_sizes* sweep as
    ``ring-RxS`` scenarios (bit-identical to the pre-zoo study).
    Synthetic grids reach hundreds of RSUs: ``scenarios=("grid-8x8",
    "grid-12x12", "grid-16x16")`` sweeps 64 → 256 RSUs.  Each point is
    an independent runtime task with its own seed substream; accuracy
    results are bit-identical for any worker count/executor (timing
    columns are measurements and are not).
    """
    if scenarios is None:
        scenarios = [
            f"ring-{rings}x{spokes}" for rings, spokes in city_sizes
        ]
    specs = [str(spec) for spec in scenarios]
    points: List[ScalePoint] = run_tasks(
        [
            Task(
                fn=_scale_point,
                args=(spec, trips_per_rsu, load_factor, min_truth, sub),
                label=f"scaling:{spec}",
            )
            for spec, sub in zip(specs, spawn_sequences(seed, len(specs)))
        ],
        workers=workers,
        executor=executor,
    )
    return ScalingResult(points=points)
