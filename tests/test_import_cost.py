"""Start-up pays only for what runs, and timed work imports nothing.

Package inits export their names lazily (``repro._lazy``), so the
batch entry point loads no part of the live plane, and every module a
run needs is imported before the run starts: a benchmark rep that
imported one would time the import.  Each check runs in a fresh
interpreter and prints what it saw as one JSON line.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Module families the batch plane must never load.
LIVE = ("asyncio", "repro.service", "repro.federation", "repro.vcps")

_PRELUDE = """\
import json, sys
LIVE = {live!r}
def live_modules():
    return sorted(
        m for m in sys.modules
        if any(m == family or m.startswith(family + '.') for family in LIVE)
    )
def added(before):
    return sorted(set(sys.modules) - before)
"""


def run_fresh(code: str) -> dict:
    """Run *code* in a fresh interpreter; return its last stdout line
    as JSON."""
    out = subprocess.run(
        [sys.executable, "-c", _PRELUDE.format(live=LIVE) + code],
        env={
            **os.environ,
            "PYTHONPATH": str(SRC),
            "REPRO_WORKERS": "1",
            "REPRO_EXECUTOR": "serial",
        },
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_batch_entry_point_loads_no_live_plane_and_runs_without_imports():
    seen = run_fresh(
        "from repro.experiments.sioux_falls_matrix import run_od_matrix\n"
        "from repro.scenarios import get_scenario\n"
        "loaded = live_modules()\n"
        "runs = {}\n"
        "for scenario, trips in (('sioux-falls', 6000), ('grid-4x4', 3000)):\n"
        "    before = set(sys.modules)\n"
        "    get_scenario(scenario)\n"
        "    run_od_matrix(scenario=scenario, total_trips=trips, min_truth=20, seed=3)\n"
        "    runs[scenario] = added(before)\n"
        "print(json.dumps({'loaded': loaded, 'runs': runs}))\n"
    )
    assert seen["loaded"] == []
    assert seen["runs"] == {"sioux-falls": [], "grid-4x4": []}


def test_live_rounds_import_nothing_after_start():
    """One replay-and-query round after each bring-up adds no module:
    the plane's code is loaded by ``start_services``/``start_federation``,
    outside a benchmark rep's timer."""
    seen = run_fresh(
        "import asyncio, tempfile\n"
        "from pathlib import Path\n"
        "from repro.obs import MetricsRegistry\n"
        "from repro.service.loadgen import replay_day, run_queries\n"
        "from repro.service.runtime import DeploymentSpec, start_federation, start_services\n"
        "async def main(wal_dir):\n"
        "    rounds = {}\n"
        "    spec = DeploymentSpec(total_trips=1500, seed=3, scenario='sioux-falls')\n"
        "    gateway, collector = await start_services(spec, gateway_port=0, collector_port=0)\n"
        "    before = set(sys.modules)\n"
        "    await replay_day(spec, gateway_port=gateway.port, registry=MetricsRegistry())\n"
        "    await run_queries(spec, collector_port=collector.port, registry=MetricsRegistry())\n"
        "    rounds['unsharded'] = added(before)\n"
        "    await gateway.stop()\n"
        "    await collector.stop()\n"
        "    spec = DeploymentSpec(total_trips=1500, seed=3, scenario='grid-4x4')\n"
        "    plane = await start_federation(spec, shards=2, wal_path=Path(wal_dir) / 'c.wal')\n"
        "    before = set(sys.modules)\n"
        "    await replay_day(\n"
        "        spec, shard_ports=list(plane.shard_ports().values()),\n"
        "        router=plane.router, rebalance=1, registry=MetricsRegistry(),\n"
        "    )\n"
        "    await run_queries(spec, collector_port=plane.collector.port, registry=MetricsRegistry())\n"
        "    rounds['federated'] = added(before)\n"
        "    await plane.stop()\n"
        "    return rounds\n"
        "with tempfile.TemporaryDirectory() as wal_dir:\n"
        "    print(json.dumps(asyncio.run(main(wal_dir))))\n"
    )
    assert seen == {"unsharded": [], "federated": []}
