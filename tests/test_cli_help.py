"""The ``--help`` text of ``repro`` and of every subcommand, pinned.

``repro.cli`` builds its parser from tables; this golden holds every
help string byte for byte at a fixed ``COLUMNS=80``.  Regenerate it
only for an intended help change::

    PYTHONPATH=src python tests/test_cli_help.py
"""

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_help_golden.json"
PINNED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def _subcommands(parser):
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return list(action.choices)


def _help(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        build_parser().parse_args([*argv, "--help"])
    # Python 3.9's argparse titles the options section differently.
    return out.getvalue().replace("optional arguments:", "options:")


def help_texts():
    """``{"": top-level help, <command>: its help}`` for the live parser."""
    return {
        name: _help([name] if name else [])
        for name in ["", *_subcommands(build_parser())]
    }


@pytest.fixture
def columns_80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_every_command_is_pinned():
    assert ["", *_subcommands(build_parser())] == list(PINNED)


@pytest.mark.parametrize("command", list(PINNED), ids=lambda c: c or "repro")
def test_help_text_is_unchanged(columns_80, command):
    assert _help([command] if command else []) == PINNED[command]


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    os.environ["COLUMNS"] = "80"
    GOLDEN.write_text(json.dumps(help_texts(), indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
