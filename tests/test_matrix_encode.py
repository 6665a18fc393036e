"""The batch encode behind ``run_od_matrix``: pinned bytes, one gather
per RSU, and RSUs that carry no traffic.

The digests were taken before the Eq. (2) kernels were blocked and the
encode was streamed RSU by RSU; every report byte both schemes produce
must stay the same.
"""

import hashlib
from collections import Counter

import pytest

from repro.baseline.scheme import FixedLengthScheme
from repro.core.decoder import CentralDecoder
from repro.core.estimator import ZeroFractionPolicy
from repro.core.scheme import VlmScheme
from repro.core.sizing import fixed_array_size_for_privacy
from repro.experiments.sioux_falls_matrix import run_od_matrix
from repro.privacy.optimizer import max_load_factor_for_privacy
from repro.roadnet.volumes import TrafficAssignment
from repro.scenarios import get_scenario
from repro.service.runtime import DeploymentSpec

#: sha256 over both schemes' reports (``rsu_id``, ``counter``, bit
#: bytes), VLM first, each in RSU order, at seed 13.
ENCODE_GOLDEN = {
    ("sioux-falls", 360_600): (
        "21b202533166c49a8e722f06716974693464b13af755d14cefc490d34dce1e81"
    ),
    ("grid-4x6", 24_000): (
        "fe87c9d255e54cb32727d20c8ca8f07afd3fa521333b3b400a0181b7b5bcb2e1"
    ),
    ("ring-6x4", 24_000): (
        "ba38d62c12318aa24f129d3d2cb496210dfe65bd4b23d5eb0422a5db8f69bd10"
    ),
}


def _schemes(workload, s=2, min_privacy=0.5):
    """Both schemes configured exactly as ``run_od_matrix`` configures
    them."""
    volumes = workload.volumes()
    n_min = min(volumes.values())
    load_factor = max_load_factor_for_privacy(min_privacy, s, n_x=n_min, n_y=n_min)
    baseline_m = fixed_array_size_for_privacy(
        volumes.values(), s, min_privacy=min_privacy
    )
    return (
        VlmScheme(
            volumes, s=s, load_factor=load_factor, hash_seed=7,
            policy=ZeroFractionPolicy.CLAMP,
        ),
        FixedLengthScheme(baseline_m, s=s, hash_seed=7),
    )


@pytest.mark.parametrize("spec, trips", sorted(ENCODE_GOLDEN))
def test_encoded_reports_match_the_golden(spec, trips):
    workload = get_scenario(spec).workload(total_trips=trips, seed=13)
    schemes = _schemes(workload)
    passes = workload.passes(list(schemes[0].rsu_ids))
    digest = hashlib.sha256()
    for scheme in schemes:
        for _, report in sorted(scheme.encode(passes).items()):
            digest.update(f"{report.rsu_id} {report.counter} ".encode())
            digest.update(report.bits.to_bytes())
    assert digest.hexdigest() == ENCODE_GOLDEN[(spec, trips)]


@pytest.mark.parametrize("spec, trips", sorted(ENCODE_GOLDEN))
def test_run_od_matrix_submits_the_golden_reports(monkeypatch, spec, trips):
    """The reports ``run_od_matrix`` hands its two decoders hash to the
    same golden as encoding every RSU from its passes."""
    submitted = {}
    submit = CentralDecoder.submit

    def recording(self, report):
        submitted.setdefault(self, []).append(report)
        submit(self, report)

    monkeypatch.setattr(CentralDecoder, "submit", recording)
    run_od_matrix(scenario=spec, total_trips=trips)
    assert len(submitted) == 2
    digest = hashlib.sha256()
    for reports in submitted.values():  # VLM submits first
        for report in sorted(reports, key=lambda r: r.rsu_id):
            digest.update(f"{report.rsu_id} {report.counter} ".encode())
            digest.update(report.bits.to_bytes())
    assert digest.hexdigest() == ENCODE_GOLDEN[(spec, trips)]


def test_run_od_matrix_gathers_each_rsu_once(monkeypatch):
    calls = Counter()
    gather = TrafficAssignment.passes_at

    def counting(self, node):
        calls[node] += 1
        return gather(self, node)

    monkeypatch.setattr(TrafficAssignment, "passes_at", counting)
    run_od_matrix(scenario="grid-4x6", total_trips=24_000, min_truth=50)
    workload = get_scenario("grid-4x6").workload(total_trips=24_000, seed=13)
    assert sorted(calls) == sorted(workload.volumes())
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_parallel_decodes_equal_serial(executor):
    kwargs = dict(scenario="ring-6x4", total_trips=24_000, min_truth=50)
    serial = run_od_matrix(**kwargs)
    assert serial.outcomes
    assert run_od_matrix(workers=2, executor=executor, **kwargs) == serial


class TestRsusWithoutTraffic:
    """At 200 trips three Sioux Falls nodes lie on no route: no volume,
    no array, no report."""

    TRIPS = 200

    def test_some_nodes_carry_no_traffic(self):
        workload = get_scenario("sioux-falls").workload(
            total_trips=self.TRIPS, seed=13
        )
        assert len(workload.volumes()) < len(workload.network.nodes)

    def test_run_od_matrix_scores_the_visited_nodes(self):
        result = run_od_matrix(
            scenario="sioux-falls", total_trips=self.TRIPS, min_truth=1
        )
        assert result.outcomes
        workload = get_scenario("sioux-falls").workload(
            total_trips=self.TRIPS, seed=13
        )
        visited = set(workload.volumes())
        assert {node for o in result.outcomes for node in o.pair} <= visited

    def test_reference_reports_cover_the_sized_rsus(self):
        spec = DeploymentSpec(total_trips=self.TRIPS, seed=13)
        reports = spec.reference_reports()
        assert sorted(reports) == list(spec.scheme.rsu_ids)
        assert all(
            report.counter == spec.workload.volumes()[rsu_id]
            for rsu_id, report in reports.items()
        )
        assert len(spec.reference_decoder().rsu_ids()) == len(reports)
