"""Tests for TNTP format support."""

import pytest

from repro.errors import NetworkDataError, TntpFormatError, ValidationError
from repro.roadnet.sioux_falls import sioux_falls_network
from repro.roadnet.tntp import (
    load_network,
    load_trips,
    parse_network,
    parse_trips,
    write_network,
    write_trips,
)
from repro.roadnet.trips import TripTable
from tests import roadnet_oracle as oracle

SAMPLE_NET = """
<NUMBER OF NODES> 3
<NUMBER OF LINKS> 4
<ORIGINAL HEADER>  whatever
<END OF METADATA>

~ init term capacity length fftime b power speed toll type ;
1 2 25900.2 6 6.0 0.15 4 0 0 1 ;
2 1 25900.2 6 6.0 0.15 4 0 0 1 ;
2 3 4958.2  5 4.0 0.15 4 0 0 1 ;
3 2 4958.2  5 4.0 0.15 4 0 0 1 ;
"""

SAMPLE_TRIPS = """
<NUMBER OF ZONES> 3
<TOTAL OD FLOW> 600.0
<END OF METADATA>

Origin  1
    2 :    100.0;    3 :    200.0;
Origin  2
    1 :     50.5;
Origin  3
    1 :    249.0;    3 :      0.0;
"""


class TestParseNetwork:
    def test_structure(self):
        network = parse_network(SAMPLE_NET, name="sample")
        assert network.num_nodes == 3
        assert network.num_arcs == 4
        assert network.name == "sample"

    def test_attributes(self):
        network = parse_network(SAMPLE_NET)
        arc = next(a for a in network.arcs() if (a.tail, a.head) == (2, 3))
        assert arc.capacity == pytest.approx(4958.2)
        assert arc.free_flow_time == pytest.approx(4.0)

    def test_empty_rejected(self):
        with pytest.raises(NetworkDataError):
            parse_network("<END OF METADATA>\n")

    def test_malformed_line(self):
        with pytest.raises(NetworkDataError):
            parse_network("<END OF METADATA>\n1 2 3 ;\n")
        with pytest.raises(NetworkDataError):
            parse_network("<END OF METADATA>\n1 2 x y z ;\n")


class TestParseTrips:
    def test_demand(self):
        trips = parse_trips(SAMPLE_TRIPS)
        assert trips.trips(1, 2) == 100
        assert trips.trips(1, 3) == 200
        assert trips.trips(2, 1) == 50  # 50.5 rounds half-to-even
        assert trips.trips(3, 1) == 249
        assert trips.total_trips == 599

    def test_zero_and_diagonal_dropped(self):
        trips = parse_trips(SAMPLE_TRIPS)
        assert trips.trips(3, 3) == 0

    def test_empty_rejected(self):
        with pytest.raises(NetworkDataError):
            parse_trips("<END OF METADATA>\nOrigin 1\n")


class TestRobustness:
    """Files as they circulate in the wild: BOM, CRLF, comments,
    stray metadata, and typed line-numbered parse errors."""

    def test_crlf_and_cr_line_endings(self):
        for ending in ("\r\n", "\r"):
            network = parse_network(SAMPLE_NET.replace("\n", ending))
            assert network.num_arcs == 4
            trips = parse_trips(SAMPLE_TRIPS.replace("\n", ending))
            assert trips.total_trips == 599

    def test_utf8_bom_dropped(self):
        assert parse_network("﻿" + SAMPLE_NET).num_arcs == 4

    def test_comment_lines_and_trailing_comments(self):
        text = (
            "<END OF METADATA>\n"
            "~ a full-line comment\n"
            "1 2 100.0 6 6.0 0.15 4 0 0 1 ; ~ main street\n"
            "2 1 100.0 6 6.0 0.15 4 0 0 1 ;\n"
        )
        network = parse_network(text)
        assert network.num_arcs == 2

    def test_marker_case_insensitive(self):
        text = SAMPLE_NET.replace("<END OF METADATA>", "<End of Metadata>")
        assert parse_network(text).num_arcs == 4

    def test_stray_headers_after_marker_ignored(self):
        text = SAMPLE_NET.replace(
            "~ init", "<FIRST THRU NODE> 1\n~ init"
        )
        assert parse_network(text).num_arcs == 4

    def test_file_without_marker_is_all_body(self):
        text = (
            "1 2 100.0 6 6.0 0.15 4 0 0 1 ;\n"
            "2 1 100.0 6 6.0 0.15 4 0 0 1 ;\n"
        )
        assert parse_network(text).num_arcs == 2

    def test_error_is_typed_with_line_number(self):
        bad = "<END OF METADATA>\n1 2 100.0 6 6.0 ;\n1 2 3 ;\n"
        with pytest.raises(TntpFormatError) as excinfo:
            parse_network(bad)
        error = excinfo.value
        assert isinstance(error, NetworkDataError)
        assert isinstance(error, ValidationError)
        assert error.line == 3
        assert "line 3" in str(error)

    def test_non_numeric_link_row(self):
        with pytest.raises(TntpFormatError) as excinfo:
            parse_network("<END OF METADATA>\n1 2 x y z ;\n")
        assert excinfo.value.line == 2

    def test_malformed_demand_entry(self):
        bad = (
            "<END OF METADATA>\n"
            "Origin 1\n"
            "    2 : oops;\n"
        )
        with pytest.raises(TntpFormatError) as excinfo:
            parse_trips(bad)
        assert excinfo.value.line == 3

    def test_trips_comment_lines_skipped(self):
        text = SAMPLE_TRIPS.replace(
            "Origin  2", "~ weekday counts only\nOrigin  2"
        )
        assert parse_trips(text).total_trips == 599


class TestMiniFixture:
    """The checked-in mini TNTP dataset under repro/scenarios/data."""

    def test_network_loads(self):
        from repro.scenarios import mini_tntp_paths

        net_path, _ = mini_tntp_paths()
        network = load_network(net_path)
        assert network.num_nodes == 8
        assert network.num_arcs == 20
        assert oracle.strongly_connected(network)

    def test_trips_load_and_match_declared_flow(self):
        from repro.scenarios import mini_tntp_paths

        _, trips_path = mini_tntp_paths()
        trips = load_trips(trips_path)
        assert trips.total_trips == 1240
        assert all(o != d for (o, d), _ in trips.pairs())


class TestRoundTrip:
    def test_network_round_trip(self):
        network = sioux_falls_network()
        restored = parse_network(write_network(network), name=network.name)
        assert restored.num_nodes == network.num_nodes
        assert restored.num_arcs == network.num_arcs
        edges = oracle.digraph(restored).edges
        for arc in network.arcs():
            edge = edges[arc.tail, arc.head]
            assert edge["free_flow_time"] == pytest.approx(arc.free_flow_time)

    def test_trips_round_trip(self):
        trips = TripTable({(1, 2): 100, (2, 1): 50, (1, 3): 7, (3, 2): 9})
        restored = parse_trips(write_trips(trips))
        for (o, d), value in trips.pairs():
            assert restored.trips(o, d) == value
        assert restored.total_trips == trips.total_trips

    def test_file_helpers(self, tmp_path):
        network = sioux_falls_network()
        net_path = tmp_path / "sf_net.tntp"
        net_path.write_text(write_network(network))
        assert load_network(net_path).num_arcs == 76

        trips = TripTable({(1, 2): 10})
        trips_path = tmp_path / "sf_trips.tntp"
        trips_path.write_text(write_trips(trips))
        assert load_trips(trips_path).trips(1, 2) == 10


class TestPipelineFromTntp:
    def test_full_pipeline_from_files(self, tmp_path):
        """Parse files -> route -> measure, end to end."""
        from repro.core.scheme import VlmScheme
        from repro.core.estimator import ZeroFractionPolicy
        from repro.traffic.network_workload import NetworkWorkload

        net_path = tmp_path / "net.tntp"
        trips_path = tmp_path / "trips.tntp"
        net_path.write_text(write_network(sioux_falls_network()))
        demand = {(1, 20): 3_000, (20, 1): 3_000, (10, 13): 2_000}
        trips_path.write_text(write_trips(TripTable(demand)))

        workload = NetworkWorkload.build(
            load_network(net_path), load_trips(trips_path), seed=3
        )
        volumes = workload.volumes()
        scheme = VlmScheme(
            volumes, s=2, load_factor=10.0, hash_seed=2,
            policy=ZeroFractionPolicy.CLAMP,
        )
        # Only instrument the nodes this sparse demand actually touches.
        scheme.run_period(workload.passes(sorted(volumes)))
        truth = workload.common_volumes()
        pair = max(truth, key=truth.get)
        estimate = scheme.decoder.pair_estimate(*pair)
        assert estimate.error_ratio(truth[pair]) < 0.15
