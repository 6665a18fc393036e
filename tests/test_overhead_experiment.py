"""Tests for the Section IV-E overhead experiment."""

import numpy as np
import pytest

from repro.core import bitwords
from repro.core.bitarray import BitArray
from repro.core.estimator import estimate_intersection
from repro.core.reports import RsuReport
from repro.experiments.overhead import _server_sizes, run_overhead

popcount = bitwords.popcount


@pytest.fixture(scope="module")
def result():
    return run_overhead(m_exponents=(12, 16))


class TestRunOverhead:
    def test_all_roles_measured(self, result):
        roles = {row.role for row in result.rows}
        assert roles == {
            "vehicle (2 hashes)",
            "rsu (1 bit set)",
            "bulk encode (per vehicle)",
            "server decode",
            "matrix decode scalar (per pair)",
            "matrix decode batched (per pair)",
        }

    def test_vehicle_cost_constant_in_m(self, result):
        rows = result.rows_for("vehicle (2 hashes)")
        assert len(rows) == 2
        ratio = rows[1].per_op_us / rows[0].per_op_us
        assert 0.3 < ratio < 3.0  # O(1): no systematic growth with m

    def test_server_cost_grows_with_m(self, monkeypatch):
        # The O(m_y) claim is about per-bit work, so count it: every
        # word the pair decode popcounts, at the experiment's shapes
        # (m_x = m_y / 16).  Wall-clock timings of the same claim are
        # at the mercy of host load; the word count is exact.
        counted = []

        def spy(words):
            counted[-1] += words.size
            return popcount(words)

        monkeypatch.setattr(bitwords, "popcount", spy)
        rng = np.random.default_rng(51)
        for exponent in (12, 20):
            m_y = 1 << exponent
            m_x = m_y >> 4
            rx = RsuReport(1, m_x // 3, BitArray.from_bits(rng.random(m_x) < 0.3))
            ry = RsuReport(2, m_y // 3, BitArray.from_bits(rng.random(m_y) < 0.3))
            counted.append(0)
            estimate_intersection(rx, ry, 2)
            # The joint array and B_y (m_y bits each) plus B_x (m_x).
            assert counted[-1] == (2 * m_y + m_x) // bitwords.WORD_BITS
        assert counted[1] == counted[0] << 8

    def test_rsu_cost_is_microseconds(self, result):
        (row,) = result.rows_for("rsu (1 bit set)")
        assert row.per_op_us < 100.0

    def test_bulk_encoder_is_fast(self, result):
        (row,) = result.rows_for("bulk encode (per vehicle)")
        # Vectorized path: well under a microsecond per vehicle.
        assert row.per_op_us < 5.0

    def test_render(self, result):
        text = result.render()
        assert "Section IV-E" in text
        assert "O(m_y)" in text

    def test_render_reports_the_counted_word_ratio(self, result, monkeypatch):
        # The printed server line is the word count the pair decode
        # really popcounts at the experiment's two shapes, not a ratio
        # of two wall-clock timings.
        counted = []

        def spy(words):
            counted[-1] += words.size
            return popcount(words)

        monkeypatch.setattr(bitwords, "popcount", spy)
        rng = np.random.default_rng(5)
        for exponent in (12, 16):
            m_x, m_y = _server_sizes(exponent)
            rx = RsuReport(1, m_x // 3, BitArray.from_bits(rng.random(m_x) < 0.3))
            ry = RsuReport(2, m_y // 3, BitArray.from_bits(rng.random(m_y) < 0.3))
            counted.append(0)
            estimate_intersection(rx, ry, 2)
        line = result.render().splitlines()[-1]
        assert line == (
            f"server work across 16x m range: x{counted[1] / counted[0]:.1f} "
            f"words popcounted per pair ({counted[0]:,} -> {counted[1]:,}; "
            "claim: O(m_y))"
        )
        assert counted == [132, 2112]
