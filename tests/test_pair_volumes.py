"""``PairVolumes``, the columnar point-to-point ground truth, against the
per-pair oracle and the dict it replaced.

``pair_common_volumes`` returns one ``int64`` column in
``np.triu_indices`` order over the sorted nodes some route visits.
Read as a mapping it must be ``tests/roadnet_oracle.py``'s
``{(a, b): n_c}`` dict with its keys sorted: pairs no vehicle passes
both of are no keys, and a reversed or unknown key raises
``KeyError``.  ``run_od_matrix`` scores both schemes against it by
position; its outcomes are pinned to the digests the dict-building
ground truth gave.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.experiments.sioux_falls_matrix import run_od_matrix
from repro.roadnet.routing import RoutePlan
from repro.roadnet.trips import TripTable
from repro.roadnet.volumes import PairVolumes, pair_common_volumes
from tests import roadnet_oracle as oracle


@st.composite
def plans(draw):
    """Simple routes over scattered node ids, with a random trip each."""
    ids = draw(
        st.lists(
            st.integers(0, 10**9), min_size=2, max_size=12, unique=True
        )
    )
    routes = {}
    for _ in range(draw(st.integers(0, 8))):
        route = draw(st.permutations(ids))[: draw(st.integers(2, len(ids)))]
        routes.setdefault((route[0], route[-1]), route)
    demand = {pair: draw(st.integers(1, 50)) for pair in routes}
    return RoutePlan.from_routes(routes, TripTable(demand))


class TestAgainstOracle:
    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(plans())
    def test_mapping_equals_the_oracle_keys_ascending(self, plan):
        truth = pair_common_volumes(plan)
        expected = oracle.pair_common_volumes(plan)
        assert truth == expected
        assert len(truth) == len(expected)
        assert list(truth) == sorted(expected)
        assert list(truth.items()) == sorted(expected.items())
        assert truth.nodes.tolist() == sorted(set(plan.nodes.tolist()))

    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(plans())
    def test_every_position_holds_its_pair(self, plan):
        """Zero-volume pairs sit in the column as zeros and are no
        keys; ``get`` and ``[]`` agree with the oracle on every pair,
        either way round."""
        truth = pair_common_volumes(plan)
        expected = oracle.pair_common_volumes(plan)
        a, b = truth.pair_ids()
        assert truth.volume.dtype == np.int64
        for x, y, volume in zip(a.tolist(), b.tolist(), truth.volume.tolist()):
            assert volume == expected.get((x, y), 0)
            assert truth.get((x, y)) == expected.get((x, y))
            assert ((x, y) in truth) == (volume > 0)
            if not volume:
                with pytest.raises(KeyError):
                    truth[(x, y)]
            with pytest.raises(KeyError):
                truth[(y, x)]
        floor = int(truth.volume.max(initial=0)) // 2
        kept = truth.at_least(floor)
        assert [(int(a[p]), int(b[p])) for p in kept] == [
            pair for pair in sorted(expected) if expected[pair] >= floor
        ]


def test_unknown_and_malformed_keys_raise_key_error():
    plan = RoutePlan.from_routes({(70, 3): [70, 9, 3]}, TripTable({(70, 3): 4}))
    truth = pair_common_volumes(plan)
    assert dict(truth) == {(3, 9): 4, (3, 70): 4, (9, 70): 4}
    for key in ((3, 3), (1, 9), (3, 71), (9, 3), 3, (3, 9, 70), "3-9"):
        with pytest.raises(KeyError):
            truth[key]
        assert truth.get(key) is None
    with pytest.raises(ValueError):
        truth.volume[0] = 0
    with pytest.raises(ValueError):
        truth.nodes[0] = 0


def test_the_empty_plan_has_no_keys():
    truth = pair_common_volumes(RoutePlan.from_routes({}, TripTable({})))
    assert truth == {}
    assert len(truth) == 0 and list(truth) == []
    assert truth.nodes.size == 0 and truth.volume.size == 0
    assert truth.at_least(1).size == 0


def test_a_volume_column_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match="expected"):
        PairVolumes(np.array([1, 2, 3]), np.zeros(2, dtype=np.int64))


#: ``run_od_matrix(scenario, trips, min_truth=50, seed=5)`` outcome
#: digests, taken with the dict-building ground truth and the
#: ``sorted(truth.items())`` scoring loop.
OUTCOMES = {
    "sioux-falls": (
        40_000,
        253,
        "b8718e06e864c4526a178f45275e564949be17c73cf22332f6e25ef280583a08",
    ),
    "grid-12x12": (
        60_000,
        6123,
        "c13adcf0adeabc3a4060191a117ca504bea87935181fd9a7a9282e758856777b",
    ),
    "ring-6x4": (
        12_000,
        250,
        "99bc3bdcfbb3a72da5be51ad0dc21a4c4cc71c5949ddec845df4da0dc0c5e8a7",
    ),
}


def _outcome_digest(result) -> str:
    lines = [
        f"{result.load_factor!r} {result.baseline_m} {result.total_trips} "
        f"{result.min_truth} {result.scenario}"
    ] + [
        f"{o.pair[0]} {o.pair[1]} {o.truth} {o.d!r} {o.vlm_error!r} "
        f"{o.baseline_error!r}"
        for o in result.outcomes
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("spec", sorted(OUTCOMES))
def test_run_od_matrix_outcomes_match_golden(spec):
    trips, pairs, expected = OUTCOMES[spec]
    result = run_od_matrix(scenario=spec, total_trips=trips, min_truth=50, seed=5)
    assert len(result.outcomes) == pairs
    assert _outcome_digest(result) == expected
    first = result.outcomes[0]
    assert type(first.pair[0]) is int and type(first.truth) is int
    assert type(first.d) is float and type(first.vlm_error) is float
    with pytest.raises(AttributeError):
        first.truth = 0


def test_run_od_matrix_refuses_truth_on_other_nodes(monkeypatch):
    """Scoring gathers by position, so truth over other ids than the
    matrices' RSUs is refused rather than misaligned."""
    from repro.traffic.network_workload import NetworkWorkload

    common_volumes = NetworkWorkload.common_volumes

    def shifted(workload):
        truth = common_volumes(workload)
        return PairVolumes(truth.nodes + 1000, truth.volume)

    monkeypatch.setattr(NetworkWorkload, "common_volumes", shifted)
    with pytest.raises(ReproError, match="not the ground-truth nodes"):
        run_od_matrix(scenario="ring-6x4", total_trips=12_000, min_truth=50, seed=5)
