"""Scenario zoo scale bench: grids from 24 to 1,024 RSUs.

Sweeps synthetic grid scenarios across the RSU ladder the paper's
"larger network" discussion gestures at — 24 (Sioux Falls-sized)
through 256 RSUs at 2,000 trips/RSU — running each through the
complete pipeline (demand synthesis, routing, online coding, the
all-pairs matrix) serially and at 4 process workers; every parallel
matrix is asserted bit-identical to its serial twin (the zoo's
determinism contract).  A last rung runs a 32x32 grid (1,024 RSUs,
523,776 matrix pairs) serially at 500 trips/RSU: at 2,000 trips/RSU,
or with 4 workers, it would hold over a gigabyte.

Every serial run is traced with the per-layer spans of
``benchmarks/perf/spans.py`` (the repo benchmark's table of public
pipeline callables), so each rung reports the seconds of every stage
and which stage dominates.

Run: ``pytest benchmarks/bench_scenarios.py``
Artifacts: ``results/scenarios.txt``, ``results/BENCH_scenarios.json``
"""

import json
import os
import sys
import time
from pathlib import Path

from conftest import host_metadata, publish
from repro.experiments.sioux_falls_matrix import run_od_matrix
from repro.scenarios import get_scenario
from repro.utils.serialization import to_jsonable

sys.path.insert(0, str(Path(__file__).resolve().parent / "perf"))
from spans import BATCH_SITES, Recorder  # noqa: E402

#: (spec, RSU count, trips per RSU, also run at 4 process workers).
LADDER = (
    ("grid-4x6", 24, 2_000, True),
    ("grid-8x8", 64, 2_000, True),
    ("grid-12x12", 144, 2_000, True),
    ("grid-16x16", 256, 2_000, True),
    ("grid-32x32", 1_024, 500, False),
)

#: Table columns: a label and the span metrics summed into it.
STAGES = (
    ("demand", ("scenarios.network_s", "scenarios.trip_table_s")),
    ("routing", ("routing.assign_routes_s",)),
    ("truth", ("volumes.node_volumes_s", "volumes.pair_common_volumes_s")),
    ("passes", ("volumes.materialize_s", "volumes.passes_at_s")),
    ("encode", ("core.encode_s", "baseline.encode_s")),
    ("decode", ("core.estimate_matrix_s",)),
)


def _canon(result) -> str:
    return json.dumps(to_jsonable(result), sort_keys=True, default=str)


def _traced_serial(**kwargs):
    """``run_od_matrix`` serially under the span recorder: the result,
    its wall seconds and the self seconds of every span metric."""
    recorder = Recorder()
    start = time.perf_counter()
    with recorder.installed(BATCH_SITES):
        result = run_od_matrix(workers=1, executor="serial", **kwargs)
    wall = time.perf_counter() - start
    totals = recorder.totals(BATCH_SITES).get("setup", {})
    seconds = {k: v for k, v in totals.items() if k.endswith("_s")}
    return result, wall, seconds


def test_scenario_scale_sweep():
    """The grid ladder through the full matrix, serial vs 4 workers."""
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    ladder = [(s, r, 500, p) for s, r, _, p in LADDER[:2]] if smoke else LADDER

    rows = []
    for spec, rsus, trips_per_rsu, parallel_too in ladder:
        scenario = get_scenario(spec)
        assert scenario.network().num_nodes == rsus

        kwargs = dict(
            scenario=spec,
            total_trips=trips_per_rsu * rsus,
            min_truth=50,
            seed=13,
        )
        serial, serial_s, seconds = _traced_serial(**kwargs)

        parallel_s = None
        if parallel_too:
            start = time.perf_counter()
            parallel = run_od_matrix(workers=4, executor="process", **kwargs)
            parallel_s = time.perf_counter() - start
            assert _canon(serial) == _canon(parallel), (
                f"{spec} diverged between serial and 4 process workers"
            )
        stages = {
            label: sum(seconds.get(name, 0.0) for name in names)
            for label, names in STAGES
        }
        rows.append(
            {
                "scenario": spec,
                "rsus": rsus,
                "trips_per_rsu": trips_per_rsu,
                "scored_pairs": len(serial.outcomes),
                "serial_s": serial_s,
                "workers4_s": parallel_s,
                "median_err": serial.percentiles("vlm")["median"],
                "stage_s": stages,
                "span_s": seconds,
                "dominant_stage": max(stages, key=stages.get),
            }
        )

    lines = [
        "Scenario zoo scale sweep"
        + (" (SMOKE)" if smoke else "")
        + ": full OD matrix, serial (traced) vs 4 process workers "
        "(bit-identical)",
        "",
        f"{'scenario':<12}{'RSUs':>6}{'trips/RSU':>10}{'pairs':>7}"
        f"{'serial s':>10}{'4 wkr s':>9}{'median |err| %':>16}",
    ]
    for row in rows:
        workers4 = row["workers4_s"]
        lines.append(
            f"{row['scenario']:<12}{row['rsus']:>6}{row['trips_per_rsu']:>10,}"
            f"{row['scored_pairs']:>7}{row['serial_s']:>10.2f}"
            + (f"{workers4:>9.2f}" if workers4 is not None else f"{'-':>9}")
            + f"{100 * row['median_err']:>15.2f}%"
        )
    lines += [
        "",
        "Per-stage self seconds of the serial run (repro.obs spans)",
        f"{'scenario':<12}"
        + "".join(f"{label:>9}" for label, _ in STAGES)
        + "  dominant",
    ]
    for row in rows:
        stages = row["stage_s"]
        share = stages[row["dominant_stage"]] / row["serial_s"]
        lines.append(
            f"{row['scenario']:<12}"
            + "".join(f"{stages[label]:>9.2f}" for label, _ in STAGES)
            + f"  {row['dominant_stage']} ({100 * share:.0f}% of wall)"
        )
    lines.append("")
    lines.append("all parallel matrices bit-identical to serial: yes")
    publish(
        "scenarios",
        "\n".join(lines),
        data={"host": host_metadata(), "smoke": smoke, "rungs": rows},
    )
