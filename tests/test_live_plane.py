"""One table for the live plane: every deployment shape decodes the
deterministic day bit-identically to the in-process reference.

The unsharded plane is the zero-shard federation, so one row format
covers it all: bring a plane up, replay the day through the one load
generator, and compare the collector's canonical period-matrix JSON and
its point counters with ``spec.reference_decoder()``.  The
``shard-kill`` row compares a collector rebuilt from nothing but the
write-ahead log.  At 1,500 trips every row takes well under a
second, so the whole table runs in tier-1.
"""

import asyncio

import pytest

from repro.service.collector import CollectorService
from repro.service.drills import matrix_json, shard_kill_scenario
from repro.service.loadgen import run_loadgen
from repro.service.runtime import DeploymentSpec, start_federation


@pytest.fixture(scope="module")
def spec():
    return DeploymentSpec(total_trips=1_500, seed=13)


def decoded(collector):
    """``(matrix JSON, point counters)`` a collector holds for day 0."""
    server = collector.server
    counters = {
        rsu_id: server.point_volume(rsu_id, 0)
        for rsu_id in sorted(server.decoder.rsu_ids(0))
    }
    return matrix_json(server.decoder.estimate_matrix(0)), counters


async def live_row(
    spec, tmp_path, *, shards, rebalance=0, wal=False, windows=0
):
    plane = await start_federation(
        spec,
        shards=shards,
        wal_path=tmp_path / "plane.wal" if wal else None,
        windows=windows,
    )
    try:
        result = await run_loadgen(
            spec,
            shards=shards,
            shard_ports=list(plane.shard_ports().values()),
            collector_port=plane.collector.port,
            rebalance=rebalance,
            windows=windows,
            max_queries=0,
        )
        assert result.bit_identical
        assert result.handoffs == rebalance
        return decoded(plane.collector)
    finally:
        await plane.stop()


async def shard_kill_row(spec, tmp_path):
    path = tmp_path / "kill.wal"
    report = await shard_kill_scenario(spec, shards=3, wal_path=path)
    assert report.passed
    recovered = CollectorService(spec.build_central_server())
    assert recovered.recover(path) == report.wal_records
    return decoded(recovered)


ROWS = [
    pytest.param(lambda s, t: live_row(s, t, shards=0), id="unsharded"),
    pytest.param(lambda s, t: live_row(s, t, shards=1), id="shards-1"),
    pytest.param(
        lambda s, t: live_row(s, t, shards=2, rebalance=2, wal=True),
        id="shards-2-rebalance-wal",
    ),
    pytest.param(
        lambda s, t: live_row(s, t, shards=0, windows=2),
        id="unsharded-windows-2",
    ),
    pytest.param(
        lambda s, t: live_row(s, t, shards=2, windows=2),
        id="shards-2-windows-2",
    ),
    pytest.param(
        lambda s, t: live_row(s, t, shards=2, rebalance=2, windows=2),
        id="shards-2-windows-2-rebalance-2",
    ),
    pytest.param(shard_kill_row, id="shard-kill-recover"),
]


@pytest.mark.parametrize("row", ROWS)
def test_live_plane_matches_reference(spec, tmp_path, row):
    matrix, counters = asyncio.run(row(spec, tmp_path))
    golden = spec.reference_decoder()
    assert matrix == matrix_json(golden.estimate_matrix(0))
    assert counters == {
        rsu_id: golden.point_volume(rsu_id, 0)
        for rsu_id in sorted(golden.rsu_ids(0))
    }
    assert len(matrix) == 276
