"""Tests for the central decoder pipeline."""

import numpy as np
import pytest

from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.encoder import encode_passes
from repro.core.estimator import estimate_intersection
from repro.core.parameters import SchemeParameters
from repro.core.reports import RsuReport
from repro.errors import ConfigurationError, EstimationError, SaturatedArrayError
from repro.traffic.population import VehicleFleet


@pytest.fixture
def loaded_decoder():
    """Decoder with three RSUs' reports from overlapping populations."""
    params = SchemeParameters(s=2, load_factor=1.0, m_o=1 << 12, hash_seed=8)
    fleet = VehicleFleet.random(3_000, seed=1)
    decoder = CentralDecoder(2)
    # RSU 1 sees vehicles [0, 1500); RSU 2 sees [500, 2500);
    # RSU 3 sees [1000, 3000).
    spans = {1: (0, 1500), 2: (500, 2500), 3: (1000, 3000)}
    for rsu_id, (lo, hi) in spans.items():
        report = encode_passes(
            fleet.ids[lo:hi], fleet.keys[lo:hi], rsu_id, 1 << 12, params
        )
        decoder.submit(report)
    return decoder, spans


class TestIngestion:
    def test_rsu_ids_sorted(self, loaded_decoder):
        decoder, _ = loaded_decoder
        assert decoder.rsu_ids() == [1, 2, 3]

    def test_missing_report(self, loaded_decoder):
        decoder, _ = loaded_decoder
        with pytest.raises(EstimationError, match="no report"):
            decoder.report_for(99)
        with pytest.raises(EstimationError):
            decoder.report_for(1, period=5)

    def test_latest_report_wins(self, loaded_decoder):
        decoder, _ = loaded_decoder
        original = decoder.report_for(1)
        replacement = type(original)(
            rsu_id=1, counter=7, bits=original.bits.copy(), period=0
        )
        decoder.submit(replacement)
        assert decoder.point_volume(1) == 7

    def test_len(self, loaded_decoder):
        decoder, _ = loaded_decoder
        assert len(decoder) == 3


class TestQueries:
    def test_point_volume(self, loaded_decoder):
        decoder, spans = loaded_decoder
        for rsu_id, (lo, hi) in spans.items():
            assert decoder.point_volume(rsu_id) == hi - lo

    def test_pair_estimate_accuracy(self, loaded_decoder):
        decoder, _ = loaded_decoder
        # True overlaps: (1,2) -> 1000, (2,3) -> 1500, (1,3) -> 500.
        for pair, truth in {(1, 2): 1000, (2, 3): 1500, (1, 3): 500}.items():
            estimate = decoder.pair_estimate(*pair)
            assert estimate.error_ratio(truth) < 0.35

    def test_same_rsu_rejected(self, loaded_decoder):
        decoder, _ = loaded_decoder
        with pytest.raises(EstimationError, match="distinct"):
            decoder.pair_estimate(1, 1)

    def test_all_pairs(self, loaded_decoder):
        decoder, _ = loaded_decoder
        matrix = decoder.all_pairs()
        assert set(matrix) == {(1, 2), (1, 3), (2, 3)}

    def test_all_pairs_subset(self, loaded_decoder):
        decoder, _ = loaded_decoder
        matrix = decoder.all_pairs(rsu_ids=[1, 3])
        assert set(matrix) == {(1, 3)}
        # A repeated id is a self-pair: both matrix paths refuse it.
        for query in (decoder.all_pairs, decoder.estimate_matrix):
            with pytest.raises(EstimationError, match="two distinct RSUs"):
                query(rsu_ids=[1, 1, 2])


class TestPairPathsAgree:
    """``pair_estimate``, ``estimate_intersection`` and
    ``estimate_matrix`` give the same :class:`PairEstimate`, every
    field exactly, at equal and unequal sizes."""

    @staticmethod
    def _decoder(sizes):
        rng = np.random.default_rng(5)
        decoder = CentralDecoder(2, policy="clamp")
        for rsu_id, size in sizes.items():
            bits = rng.random(size) < 0.3
            decoder.submit(
                RsuReport(rsu_id, int(bits.sum()), BitArray.from_bits(bits))
            )
        return decoder

    @pytest.mark.parametrize(
        "sizes",
        [
            {1: 1 << 8, 2: 1 << 10, 3: 1 << 12, 4: 1 << 12},
            # A 32-bit array is not a whole word: the kernel unfolds it.
            {1: 32, 2: 1 << 6, 3: 1 << 9},
        ],
        ids=["word-sizes", "sub-word"],
    )
    def test_pair_estimate_matches_intersection_and_matrix(self, sizes):
        decoder = self._decoder(sizes)
        matrix = decoder.estimate_matrix()
        assert len(matrix) == len(sizes) * (len(sizes) - 1) // 2
        for (a, b), batched in matrix.items():
            reference = estimate_intersection(
                decoder.report_for(a),
                decoder.report_for(b),
                2,
                policy=decoder.policy,
            )
            assert decoder.pair_estimate(a, b) == reference == batched

    def test_non_dividing_sizes_rejected(self):
        decoder = CentralDecoder(2)
        decoder.submit(RsuReport(1, 3, BitArray.from_indices(48, [1, 2, 3])))
        decoder.submit(RsuReport(2, 3, BitArray.from_indices(64, [1, 2, 3])))
        with pytest.raises(ConfigurationError) as raised:
            decoder.pair_estimate(1, 2)
        assert str(raised.value) == (
            "target size 64 is not a multiple of source size 48; "
            "the scheme requires power-of-two lengths"
        )

    def test_saturated_joint_raises(self):
        # Neither array is saturated, but their tiled OR is.
        decoder = CentralDecoder(2, policy="raise")
        decoder.submit(RsuReport(1, 3, BitArray.from_indices(32, range(0, 32, 2))))
        decoder.submit(RsuReport(2, 3, BitArray.from_indices(64, range(1, 64, 2))))
        with pytest.raises(SaturatedArrayError) as raised:
            decoder.pair_estimate(1, 2)
        assert str(raised.value) == (
            "bit array of size 64 is saturated (no zero bits)"
        )
