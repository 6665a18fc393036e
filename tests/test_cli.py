"""Tests for the command-line interface."""

import asyncio
import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.experiment == "table1"
        assert not args.quick

    def test_all_registered_experiments_parse(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            assert parser.parse_args([name]).experiment == name

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["bogus"])

    def test_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["fig2", "--quick", "--json", str(tmp_path / "out.json")]
        )
        assert args.quick
        assert args.json.name == "out.json"


class TestMain:
    def test_fig2_quick(self, capsys):
        assert main(["fig2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "finished in" in out

    def test_ablations_quick_with_json(self, capsys, tmp_path):
        path = tmp_path / "results.json"
        assert main(["ablations", "--quick", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert "ablations" in payload
        assert payload["ablations"]["rows"]


class TestChaosParser:
    def test_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.experiment == "chaos"
        assert args.profile == "lossy"
        assert args.listen_port == 9701
        assert args.upstream_port == 8701
        assert args.seed is None  # profile default unless overridden

    def test_profile_and_overrides(self):
        args = build_parser().parse_args(
            [
                "chaos",
                "--profile",
                "flaky",
                "--seed",
                "42",
                "--drop-rate",
                "0.2",
                "--upstream-port",
                "8702",
            ]
        )
        assert args.profile == "flaky"
        assert args.seed == 42
        assert args.drop_rate == pytest.approx(0.2)
        assert args.upstream_port == 8702

    def test_overrides_build_the_right_profile(self):
        from repro.service.faults import PROFILES, profile_from_args

        args = build_parser().parse_args(
            ["chaos", "--profile", "lossy", "--seed", "7", "--latency", "0.5"]
        )
        profile = profile_from_args(
            args.profile, seed=args.seed, latency=args.latency
        )
        assert profile.seed == 7
        assert profile.latency == pytest.approx(0.5)
        # Unspecified fields keep the named profile's values.
        assert profile.drop_rate == PROFILES["lossy"].drop_rate

    def test_unknown_profile_is_a_configuration_error(self):
        from repro.errors import ConfigurationError
        from repro.service.faults import profile_from_args

        with pytest.raises(ConfigurationError):
            profile_from_args("mystery")


class TestFederationParser:
    def test_serve_shard_flags(self, tmp_path):
        args = build_parser().parse_args(
            [
                "serve",
                "--shards", "3",
                "--wal", str(tmp_path / "log.wal"),
                "--retention", "4",
            ]
        )
        assert args.shards == 3
        assert args.wal.name == "log.wal"
        assert args.retention == 4

    def test_serve_defaults_to_unsharded(self):
        args = build_parser().parse_args(["serve"])
        assert args.shards == 0
        assert args.wal is None

    def test_loadgen_shard_flags(self):
        args = build_parser().parse_args(
            ["loadgen", "--shards", "3", "--rebalance", "2"]
        )
        assert args.shards == 3
        assert args.rebalance == 2

    def test_federation_status_requires_metrics_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["federation", "status"])
        args = build_parser().parse_args(
            ["federation", "status", "--metrics-port", "9640"]
        )
        assert args.experiment == "federation"
        assert args.metrics_port == 9640

    def test_chaos_shard_kill_flags(self, tmp_path):
        args = build_parser().parse_args(
            [
                "chaos",
                "--profile", "shard-kill",
                "--shards", "4",
                "--kill-shard", "2",
                "--trips", "900",
                "--matrix-out", str(tmp_path / "m.json"),
                "--golden-out", str(tmp_path / "g.json"),
            ]
        )
        assert args.profile == "shard-kill"
        assert args.shards == 4
        assert args.kill_shard == 2
        assert args.trips == 900

    def test_metrics_accepts_multiple_paths(self):
        args = build_parser().parse_args(
            ["metrics", "summarize", "a.jsonl", "b.jsonl"]
        )
        assert [p.name for p in args.paths] == ["a.jsonl", "b.jsonl"]


class TestServeFlags:
    """``serve`` flags reach the plane (or are refused) without
    --shards; ``run_serve`` is replaced so nothing binds a port."""

    @pytest.fixture
    def serve_calls(self, monkeypatch):
        import repro.service.runtime as runtime

        calls = []
        monkeypatch.setattr(
            runtime, "run_serve", lambda spec, **kw: calls.append(kw) or 0
        )
        return calls

    def test_retention_reaches_the_unsharded_plane(self, serve_calls):
        assert main(["serve", "--trips", "800", "--retention", "3"]) == 0
        assert serve_calls[0]["shards"] == 0
        assert serve_calls[0]["retention_periods"] == 3

    def test_wal_without_shards_is_refused(
        self, serve_calls, capsys, tmp_path
    ):
        wal = tmp_path / "log.wal"
        assert main(["serve", "--trips", "800", "--wal", str(wal)]) == 2
        assert "--wal needs --shards" in capsys.readouterr().err
        assert serve_calls == []
        assert not wal.exists()


class TestLoadgenShape:
    """An invalid plane shape exits 2 before loadgen opens a socket,
    like ``serve --wal`` without ``--shards``."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--shards", "3", "--rebalance", "-1"], "rebalance must be in"),
            (["--shards", "3", "--rebalance", "25"], "rebalance must be in"),
            (["--rebalance", "2"], "rebalance needs shards"),
            (["--shards", "-1"], "shards must be >= 0"),
        ],
    )
    def test_invalid_shape_exits_2(self, monkeypatch, capsys, flags, message):
        async def no_socket(*args, **kwargs):
            raise AssertionError("loadgen opened a socket")

        monkeypatch.setattr(asyncio.BaseEventLoop, "create_connection", no_socket)
        assert main(["loadgen", "--trips", "800", *flags]) == 2
        assert message in capsys.readouterr().err


class TestStreamingParser:
    def test_matrix_live_flag(self):
        args = build_parser().parse_args(["matrix", "--live"])
        assert args.experiment == "matrix"
        assert args.live
        assert args.window is None
        assert args.windows == 4

    def test_matrix_window_implies_live_dispatch(self):
        args = build_parser().parse_args(
            ["matrix", "--window", "2", "--windows", "8"]
        )
        assert not args.live  # --window alone routes to the live path
        assert args.window == 2
        assert args.windows == 8

    def test_matrix_defaults_stay_batch(self):
        args = build_parser().parse_args(["matrix"])
        assert not args.live
        assert args.window is None

    def test_serve_window_flag(self):
        args = build_parser().parse_args(["serve", "--window", "4"])
        assert args.window == 4
        assert build_parser().parse_args(["serve"]).window == 0

    def test_loadgen_window_flag(self):
        args = build_parser().parse_args(["loadgen", "--window", "6"])
        assert args.window == 6

    def test_matrix_live_quick_end_to_end(self, capsys, tmp_path):
        path = tmp_path / "live.json"
        assert main(
            ["matrix", "--live", "--quick", "--json", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
        payload = json.loads(path.read_text())
        assert payload["matrix_live"]["bit_identical"] is True
        assert payload["matrix_live"]["prefix_identical"] is True

    def test_matrix_window_slice_end_to_end(self, capsys):
        assert main(["matrix", "--window", "1", "--quick"]) == 0
        assert "top pairs of window 1" in capsys.readouterr().out
