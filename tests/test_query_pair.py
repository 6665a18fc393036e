"""Pair queries served from one batch decode per period.

``CentralDecoder.query_pair`` (behind ``CentralServer.point_to_point``
and the collector's ``VolumeQuery`` handler) answers a period's first
``k - 1`` queries with the scalar ``pair_estimate`` and every later one
from the period's ``estimate_matrix``.  Whichever path answers, the
result must be ``pair_estimate``'s, field for field and error for
error, and a submit must drop the batch decode.
"""

import numpy as np
import pytest

from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.estimator import ZeroFractionPolicy
from repro.core.reports import RsuReport
from repro.errors import EstimationError, ReproError
from repro.obs import MetricsRegistry, use_registry
from repro.service import wire
from repro.service.collector import CollectorService
from repro.service.runtime import DeploymentSpec


@pytest.fixture(scope="module")
def grid8():
    return DeploymentSpec(scenario="grid-8x8", total_trips=128_000, seed=13)


def _outcome(query, rsu_x, rsu_y):
    """What *query* returns, or the type and text of the error it raises."""
    try:
        return query(rsu_x, rsu_y)
    except ReproError as exc:
        return type(exc), str(exc)


def _expected_frame(reference, rsu_x, rsu_y):
    """The collector's reply, built from the scalar reference decode."""
    try:
        e = reference.pair_estimate(rsu_x, rsu_y)
    except EstimationError as exc:
        return wire.ErrorMsg(wire.E_ESTIMATION, str(exc))
    except ReproError as exc:
        return wire.ErrorMsg(wire.E_INTERNAL, str(exc))
    return wire.EstimateMsg(
        n_c_hat=e.value,
        v_c=e.v_c,
        v_x=e.v_x,
        v_y=e.v_y,
        m_x=e.m_x,
        m_y=e.m_y,
        n_x=e.n_x,
        n_y=e.n_y,
        s=e.s,
    )


def test_collector_answers_every_grid8_pair_as_pair_estimate(grid8):
    """Every ordered pair of a grid-8x8 period, self pairs and an
    unknown RSU included: the collector's reply frames are the bytes
    the scalar decode gives, error code and text included."""
    reference = grid8.reference_decoder()
    ids = reference.rsu_ids(0)
    assert len(ids) == 64
    with use_registry(MetricsRegistry()) as registry:
        collector = CollectorService(grid8.build_central_server())
        for seq, report in enumerate(grid8.reference_reports().values(), 1):
            ack = collector._handle(wire.Snapshot.from_report(report, seq=seq))
            assert isinstance(ack, wire.SnapshotAck)
        queried = ids + [max(ids) + 1]
        errors = 0
        for rsu_x in queried:
            for rsu_y in queried:
                expected = _expected_frame(reference, rsu_x, rsu_y)
                reply = collector._handle(
                    wire.VolumeQuery(rsu_x=rsu_x, rsu_y=rsu_y, period=0)
                )
                assert wire.encode_frame(reply) == wire.encode_frame(expected), (
                    rsu_x,
                    rsu_y,
                )
                errors += isinstance(expected, wire.ErrorMsg)
        # Self pairs and the unknown RSU's pairs were error frames; one
        # batch decode answered the rest.
        assert errors == 2 * len(queried) - 1 + len(ids)
        assert registry.value("decoder.matrix_pairs_total") == 2016


def test_matrix_pairs_total_rises_once_by_2016(grid8):
    server = grid8.build_central_server()
    server.receive_reports(grid8.reference_reports().values())
    ids = server.decoder.rsu_ids(0)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    assert len(pairs) == 2016
    with use_registry(MetricsRegistry()) as registry:
        seen = []
        for rsu_x, rsu_y in pairs + pairs:
            server.point_to_point(rsu_x, rsu_y)
            seen.append(registry.value("decoder.matrix_pairs_total"))
    # k - 1 = 63 scalar answers, then one batch decode for the rest.
    assert seen[:63] == [0] * 63
    assert set(seen[63:]) == {2016}


def test_interleaved_submits_are_tracked(grid8):
    """submit -> query -> submit -> query: each answer reflects every
    submit before it, and each resubmit costs at most one batch
    decode."""
    reports = grid8.reference_reports()
    decoder = CentralDecoder(grid8.s, policy=grid8.policy)
    reference = CentralDecoder(grid8.s, policy=grid8.policy)
    for report in reports.values():
        decoder.submit(report)
        reference.submit(report)
    ids = decoder.rsu_ids(0)
    pairs = [(a, b) for a in ids for b in ids if a != b]
    rng = np.random.default_rng(5)
    with use_registry(MetricsRegistry()) as registry:
        for round_no in range(3):
            for rsu_x, rsu_y in pairs:
                got = _outcome(decoder.query_pair, rsu_x, rsu_y)
                assert got == _outcome(reference.pair_estimate, rsu_x, rsu_y)
            assert registry.value("decoder.matrix_pairs_total") == 2016 * (
                round_no + 1
            )
            # Change one report: more responses recorded at one RSU.
            target = ids[int(rng.integers(len(ids)))]
            old = reference.report_for(target)
            bits = old.bits.copy()
            bits.set_bits(rng.integers(0, bits.size, 500))
            new = RsuReport(
                rsu_id=target, counter=old.counter + 500, bits=bits, period=0
            )
            decoder.submit(new)
            reference.submit(new)
            # The very next queries see the new report.
            for other in ids[:3]:
                if other != target:
                    got = _outcome(decoder.query_pair, target, other)
                    assert got == _outcome(reference.pair_estimate, target, other)


def _report(rsu_id, size, ones, counter=5):
    bits = BitArray(size)
    bits.set_bits(np.arange(ones))
    return RsuReport(rsu_id=rsu_id, counter=counter, bits=bits, period=0)


@pytest.mark.parametrize(
    "policy, reports",
    [
        # Sizes that do not tile: the batch decode raises.
        (
            ZeroFractionPolicy.CLAMP,
            [_report(1, 64, 9), _report(2, 64, 20), _report(3, 128, 7),
             _report(4, 96, 11)],
        ),
        # A saturated array under RAISE: so does the batch decode.
        (
            ZeroFractionPolicy.RAISE,
            [_report(1, 64, 9), _report(2, 64, 64), _report(3, 128, 7),
             _report(4, 128, 30)],
        ),
        # Equal sizes queried in both orders; the batch decode answers.
        (
            ZeroFractionPolicy.RAISE,
            [_report(1, 64, 9), _report(2, 64, 31), _report(3, 64, 7),
             _report(4, 128, 30)],
        ),
    ],
)
def test_every_pair_falls_back_to_pair_estimate(policy, reports):
    decoder = CentralDecoder(2, policy=policy)
    reference = CentralDecoder(2, policy=policy)
    decoder.submit_many(reports)
    reference.submit_many(reports)
    ids = [1, 2, 3, 4, 9]
    for _ in range(2):
        for rsu_x in ids:
            for rsu_y in ids:
                got = _outcome(decoder.query_pair, rsu_x, rsu_y)
                assert got == _outcome(reference.pair_estimate, rsu_x, rsu_y)


def test_per_period_pair_queries_run_no_batch_decode(monkeypatch):
    spec = DeploymentSpec(
        scenario="grid-3x3",
        periods=3,
        total_trips=6_000,
        s=2,
        load_factor=8.0,
        hash_seed=7,
        seed=3,
    )
    server = spec.build_central_server()
    for period in range(spec.periods):
        server.receive_reports(spec.reference_reports(period=period).values())

    def no_batch_decode(self, *args, **kwargs):
        raise AssertionError("a single-pair query ran a batch decode")

    monkeypatch.setattr(CentralDecoder, "estimate_matrix", no_batch_decode)
    nodes = sorted(spec.workload.volumes())
    for rsu_x, rsu_y in ((nodes[0], nodes[4]), (nodes[8], nodes[1])):
        got = [
            (period, server.point_to_point(rsu_x, rsu_y, period))
            for period in range(spec.periods)
        ]
        stored = [server.decoder.report_for(rsu_x, p).period for p, _ in got]
        assert stored == [0, 1, 2]
        for period, estimate in got:
            assert estimate == server.decoder.pair_estimate(rsu_x, rsu_y, period)
