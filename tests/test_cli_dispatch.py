"""The CLI's tables: experiment rows, command dispatch and refusals."""

import asyncio
import importlib
import inspect
import json

import pytest

from repro.cli import EXPERIMENTS, _timed_artifact, main
from repro.obs import MetricsRegistry, use_registry


class TestExperimentTable:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_row_binds_to_its_function(self, name):
        """Every row names a real function that takes the row's quick
        and full arguments plus every option the row accepts."""
        row = EXPERIMENTS[name]
        module, function = row.target.split(":")
        signature = inspect.signature(
            getattr(importlib.import_module(module), function)
        )
        accepted = {option: None for option in row.accepts}
        signature.bind(**row.quick, **accepted)
        signature.bind(**row.full, **accepted)

    def test_fig3_json_is_its_rendering(self, tmp_path, capsys):
        path = tmp_path / "fig3.json"
        assert main(["fig3", "--json", str(path)]) == 0
        text = capsys.readouterr().out
        rendered = json.loads(path.read_text())["fig3"]["rendered"]
        assert rendered and rendered in text

    def test_each_artifact_is_timed_in_a_span(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            result, seconds = _timed_artifact("fig1", True)
        assert "Figure 1" in result.render()
        histogram = registry.histogram("cli.artifact.seconds", artifact="fig1")
        assert histogram.snapshot()["count"] == 1
        assert histogram.snapshot()["sum"] == seconds


class TestRefusedConfiguration:
    """A refused configuration exits 2 with ``<command>: <reason>`` on
    stderr, from one place in the dispatch, and binds no port."""

    @pytest.fixture(autouse=True)
    def no_sockets(self, monkeypatch):
        async def refuse(*args, **kwargs):
            raise AssertionError("the command opened a socket")

        monkeypatch.setattr(asyncio.BaseEventLoop, "create_server", refuse)
        monkeypatch.setattr(asyncio.BaseEventLoop, "create_connection", refuse)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--trips", "800", "--shards", "-1"], "shards must be >= 0"),
            (
                ["chaos", "--profile", "rsu-outage", "--windows", "2"],
                "needs >= 3 delivery windows",
            ),
            (
                ["chaos", "--profile", "shard-kill", "--shards", "0"],
                "needs shards >= 1",
            ),
            (
                ["chaos", "--profile", "shard-kill", "--kill-shard", "7"],
                "kill_shard must be in [0, 3), got 7",
            ),
            (["loadgen", "--trips", "800", "--rebalance", "2"], "rebalance needs"),
            (["scenarios", "describe", "atlantis"], "unknown scenario"),
            (["scenarios", "describe"], "describe needs a SPEC"),
            (
                [
                    "chaos", "--profile", "rsu-outage", "--adaptive",
                    "--shards", "5", "--kill-shard", "9", "--wal", "x.wal",
                    "--latency", "0.5",
                ],
                "--profile rsu-outage does not read --adaptive, "
                "--kill-shard, --latency, --shards, --wal",
            ),
            (
                ["chaos", "--profile", "shard-kill", "--windows", "9"],
                "--profile shard-kill does not read --windows",
            ),
            (
                ["chaos", "--profile", "rsu-outage", "--trips", "500"],
                "could drop nothing",
            ),
            (
                ["chaos", "--profile", "lossy", "--trips", "3000", "--shards", "7"],
                "--profile lossy does not read --shards, --trips",
            ),
            (
                ["chaos", "--profile", "clean", "--wal", "x.wal", "--adaptive"],
                "--profile clean does not read --adaptive, --wal",
            ),
            (
                ["chaos", "--windows", "4", "--seed", "3"],
                "--profile lossy does not read --windows",
            ),
        ],
    )
    def test_exits_2_with_the_command_prefix(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: ")
        assert message in err
        assert "Traceback" not in err
