"""Tests for the Section IV-E overhead experiment."""

import pytest

from repro.engine import use_backend
from repro.experiments.overhead import run_overhead


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

    def test_server_cost_grows_with_m(self):
        # The O(m_y) claim is about per-bit work; measure it under the
        # legacy backend, where every bit costs a byte of traffic.  The
        # packed backend's word parallelism hides the growth until far
        # larger m than a unit test should touch.
        with use_backend("legacy"):
            result = run_overhead(m_exponents=(12, 16))
        rows = result.rows_for("server decode")
        assert rows[-1].per_op_us > rows[0].per_op_us

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
