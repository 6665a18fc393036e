"""Workload-build goldens: trip table, routes and ground truth per scenario.

Each scenario's digest is one sha256 over its sorted trip table, every
route (in trip-table order), the ``node_volumes`` items in dict order
and the ``pair_common_volumes`` items sorted; the MSA equilibrium on
Sioux Falls is pinned the same way.  The digests were taken with the
dict-building ground truth, before it became a column view; a rewrite
of that layer must reproduce them byte for byte.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.roadnet.congestion import assign_equilibrium
from repro.roadnet.volumes import node_volumes, pair_common_volumes
from repro.scenarios import get_scenario

#: ``scenario -> (total trips, sha256)``.
GOLDEN = {
    "sioux-falls": (
        40_000,
        "6f143177a8f12e7bef60bf2b8fd9389348c7986eaa136842c714aec94dc28c83",
    ),
    "grid-12x12": (
        60_000,
        "2ffb4d319e4fab58e20985f7dd53e710b0095598e08d09074b3297dc07feff7d",
    ),
    "ring-6x4": (
        12_000,
        "9eab641b944f89f1fa421d5a1949f726b5dc764407be3ee478a28726d87ec1d7",
    ),
    "tntp-mini": (
        5_000,
        "8ce05b9edf214d86bac2ac3f5c93c7261079e2d2c8d7ea69fc4d0683b5611b3c",
    ),
    "trajectory-replay": (
        40_000,
        "9e85f0d213debcb281bebd2cd270202545e782fa0751ac9971b091c246153e28",
    ),
}


#: Sioux Falls MSA at 360,600 trips: ``(iterations, gap, sha256)``
#: over the link flows, link times and routes.
EQUILIBRIUM = (
    12,
    0.00011474470854971173,
    "054c12c32a580f721ecbdd74dace324bd522843e233eb3d635041fca0fdbc7b4",
)


def _digest(**rows) -> str:
    digest = hashlib.sha256()
    for label, values in rows.items():
        digest.update(label.encode())
        digest.update(repr(list(values)).encode())
    return digest.hexdigest()


def workload_digest(spec: str, total_trips: int) -> str:
    """The sha256 hex digest of *spec*'s workload build."""
    plan = get_scenario(spec).workload(total_trips=total_trips, seed=1).plan
    pairs = list(plan.trips.pairs())
    return _digest(
        trips=pairs,
        routes=(plan.route(*pair) for pair, _ in pairs),
        node_volumes=node_volumes(plan).items(),
        pair_common_volumes=sorted(pair_common_volumes(plan).items()),
    )


@pytest.mark.parametrize("spec", sorted(GOLDEN))
def test_workload_build_matches_golden(spec):
    total_trips, expected = GOLDEN[spec]
    assert workload_digest(spec, total_trips) == expected


def test_equilibrium_matches_golden():
    scenario = get_scenario("sioux-falls")
    trips = scenario.trip_table(360_600)
    result = assign_equilibrium(
        scenario.network(), trips, max_iterations=12, tolerance=1e-12
    )
    digest = _digest(
        flows=result.link_flows.items(),
        times=result.link_times.items(),
        routes=(result.plan.route(*pair) for pair, _ in trips.pairs()),
    )
    assert (result.iterations, result.relative_gap, digest) == EQUILIBRIUM
