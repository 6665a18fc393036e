"""Tests for trip tables."""

import pytest

from repro.errors import NetworkDataError
from repro.roadnet.trips import TripTable


@pytest.fixture
def table():
    return TripTable({(1, 2): 100, (2, 1): 80, (1, 3): 50})


class TestConstruction:
    def test_basic_access(self, table):
        assert table.trips(1, 2) == 100
        assert table.trips(3, 1) == 0
        assert table.total_trips == 230
        assert len(table) == 3

    def test_zero_entries_dropped(self):
        table = TripTable({(1, 2): 0, (1, 3): 5})
        assert len(table) == 1

    def test_intra_node_rejected(self):
        with pytest.raises(NetworkDataError):
            TripTable({(1, 1): 5})

    def test_negative_rejected(self):
        with pytest.raises(NetworkDataError):
            TripTable({(1, 2): -5})


class TestAggregates:
    def test_production_attraction(self, table):
        assert table.production(1) == 150
        assert table.attraction(1) == 80
        assert table.production(3) == 0

    def test_nodes_and_origins(self, table):
        assert table.nodes() == [1, 2, 3]
        assert table.origins() == [1, 2]

    def test_pairs_sorted(self, table):
        keys = [pair for pair, _ in table.pairs()]
        assert keys == sorted(keys)


class TestTransforms:
    def test_scaled(self, table):
        scaled = table.scaled(2.0)
        assert scaled.trips(1, 2) == 200
        assert table.trips(1, 2) == 100  # original untouched

    def test_scaled_rounds(self, table):
        scaled = table.scaled(0.014)
        assert scaled.trips(1, 2) == 1  # round(1.4)

    def test_invalid_scale(self, table):
        with pytest.raises(NetworkDataError):
            table.scaled(0)

    def test_to_matrix(self, table):
        matrix = table.to_matrix()
        assert matrix.shape == (3, 3)
        assert matrix[0, 1] == 100
        assert matrix[1, 0] == 80
        assert matrix.sum() == 230

    def test_to_matrix_subset(self, table):
        matrix = table.to_matrix(nodes=[1, 2])
        assert matrix.shape == (2, 2)
        assert matrix.sum() == 180
