"""Tests for the Fig. 1 diagram runner and the Fig. 3 ASCII map."""

import sys

import pytest

from repro.errors import ConfigurationError, NetworkDataError
from repro.experiments.figure1 import run_figure1
from repro.roadnet.generators import grid_network
from repro.roadnet.layout import SIOUX_FALLS_COORDINATES, ascii_map
from repro.roadnet.sioux_falls import sioux_falls_network


class TestFigure1:
    def test_default_example(self):
        result = run_figure1()
        assert result.b_x.size == 4
        assert result.b_y.size == 8
        # Eq. 3: unfolded content duplicates B_x.
        for i in range(8):
            assert result.b_x_unfolded[i] == result.b_x[i % 4]
        # Eq. 4: OR.
        for i in range(8):
            assert result.b_c[i] == (result.b_x_unfolded[i] | result.b_y[i])

    def test_custom_bits(self):
        result = run_figure1(x_bits=[0], y_bits=[7], m_x=2, m_y=8)
        assert result.b_c.count_ones() == 5  # 0,2,4,6 from unfold + 7

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            run_figure1(m_x=3, m_y=8)

    def test_render(self):
        text = run_figure1().render()
        assert "Figure 1" in text
        assert "B_x^u" in text
        assert "zero fractions" in text


class TestFigure3Map:
    def test_sioux_falls_map_contains_every_node(self):
        text = ascii_map(sioux_falls_network())
        for node in range(1, 25):
            assert str(node) in text

    def test_coordinates_cover_all_nodes(self):
        assert set(SIOUX_FALLS_COORDINATES) == set(range(1, 25))

    def test_streets_drawn(self):
        text = ascii_map(sioux_falls_network())
        assert "-" in text and "|" in text

    def test_generic_network_uses_spring_layout(self):
        text = ascii_map(grid_network(3, 3))
        assert "grid-3x3" in text

    def test_spring_layout_needs_networkx(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "networkx", None)
        with pytest.raises(ConfigurationError, match="networkx.*coordinates="):
            ascii_map(grid_network(3, 3))
        text = ascii_map(sioux_falls_network())
        assert all(str(node) in text for node in range(1, 25))

    def test_explicit_coordinates(self):
        network = grid_network(2, 2)
        coords = {1: (0, 0), 2: (1, 0), 3: (0, 1), 4: (1, 1)}
        text = ascii_map(network, coordinates=coords)
        assert "4" in text

    def test_missing_coordinates_rejected(self):
        with pytest.raises(NetworkDataError):
            ascii_map(grid_network(2, 2), coordinates={1: (0, 0)})

    def test_size_validation(self):
        with pytest.raises(NetworkDataError):
            ascii_map(sioux_falls_network(), width=5)


class TestCliIntegration:
    def test_fig1_and_fig3_via_cli(self, capsys):
        from repro.cli import main

        assert main(["fig1", "--quick"]) == 0
        assert main(["fig3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "sioux-falls" in out
