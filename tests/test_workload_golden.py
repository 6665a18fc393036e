"""Workload-build goldens: trip table, routes and ground truth per scenario.

Each scenario's digest is one sha256 over its sorted trip table, every
route (in trip-table order), the ``node_volumes`` items and the
``pair_common_volumes`` items, both in dict order; the MSA equilibrium
on Sioux Falls is pinned the same way.  The digests were taken before
routing, demand and ground truth moved onto the per-origin
shortest-path arrays; a rewrite of that layer must reproduce them
byte for byte.
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
        "08a0fabfde8c02185799eb9efdd131d0f364854550df3bef2475579f664580e4",
    ),
    "grid-12x12": (
        60_000,
        "e87caecf34760e7723781996c1b68c4febf286a9b49f04d836b2c156b6e3095a",
    ),
    "ring-6x4": (
        12_000,
        "31d6593a7019d64d0e7e4058adc4534bdc5f0eaa7d0bf25ca513698e6f8a19fd",
    ),
    "tntp-mini": (
        5_000,
        "338b7dff48a7891761946b1e2dc2296aab531499b7969cf03ce44040cd7fc0c8",
    ),
    "trajectory-replay": (
        40_000,
        "d49567933039a13ffe83d5e4a9055dc280534873ce3d58da6d0cd6000d7e1dfa",
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
        pair_common_volumes=pair_common_volumes(plan).items(),
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
