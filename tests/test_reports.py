"""Tests for the RSU report container."""

import pytest

from repro.core.bitarray import BitArray
from repro.core.reports import RsuReport
from repro.errors import ConfigurationError


class TestRsuReport:
    def test_properties(self):
        report = RsuReport(rsu_id=3, counter=10, bits=BitArray.from_indices(8, [0, 1]))
        assert report.array_size == 8
        assert report.zero_fraction == pytest.approx(0.75)
        assert report.fill_load == pytest.approx(0.8)

    def test_idle_rsu_fill_load(self):
        report = RsuReport(rsu_id=3, counter=0, bits=BitArray(8))
        assert report.fill_load == float("inf")

    def test_negative_counter_rejected(self):
        with pytest.raises(ConfigurationError):
            RsuReport(rsu_id=3, counter=-1, bits=BitArray(8))
