"""The benchmark's workload table (pure data, no ``repro`` imports).

Shared by the orchestrator (``run.py``), which only needs names and
sample shapes, and the sample process (``child.py``), which runs them.
Why each workload exists is recorded in ``BENCHMARK.json``;
``README.md`` carries the longer argument and the per-layer
predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    *plane* is ``"batch"`` (one ``run_od_matrix`` call per rep),
    ``"live"`` (one unsharded gateway + collector day replay per rep)
    or ``"federated"`` (one sharded replay with a mid-period rebalance
    per rep).  *reps* is how many reps one fresh sample process times
    after its set-up; the ``smoke_*`` fields shrink the workload for
    ``--smoke``.
    """

    name: str
    plane: str
    scenario: str
    trips: int
    reps: int
    smoke_scenario: str
    smoke_trips: int
    shards: int = 0
    rebalance: int = 0

    def sized(self, smoke: bool) -> "Workload":
        """This workload at smoke size (one rep) when *smoke* is set."""
        if not smoke:
            return self
        return replace(
            self, scenario=self.smoke_scenario, trips=self.smoke_trips, reps=1
        )


#: Pairs whose true common volume is below this are not scored for
#: error (relative error against a near-zero denominator is noise).
MIN_TRUTH = 50

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="matrix-sioux",
            plane="batch",
            scenario="sioux-falls",
            trips=360_600,
            reps=4,
            smoke_scenario="sioux-falls",
            smoke_trips=12_000,
        ),
        Workload(
            name="matrix-grid12",
            plane="batch",
            scenario="grid-12x12",
            trips=288_000,
            reps=1,
            smoke_scenario="grid-4x6",
            smoke_trips=24_000,
        ),
        Workload(
            name="live-sioux",
            plane="live",
            scenario="sioux-falls",
            trips=360_600,
            reps=4,
            smoke_scenario="sioux-falls",
            smoke_trips=12_000,
        ),
        Workload(
            name="live-fed-grid8",
            plane="federated",
            scenario="grid-8x8",
            trips=128_000,
            reps=3,
            smoke_scenario="grid-4x6",
            smoke_trips=24_000,
            shards=2,
            rebalance=2,
        ),
    )
}


def get_workload(name: str, smoke: bool = False) -> Optional[Workload]:
    """The named workload (smoke-sized if asked), or ``None``."""
    workload = WORKLOADS.get(name)
    return workload.sized(smoke) if workload is not None else None
