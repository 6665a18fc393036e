"""Shared helpers for the benchmark suite.

Every ``bench_*`` module regenerates one of the paper's evaluation
artifacts (a table or a figure), times its core computation with
pytest-benchmark, and writes the rendered rows/series to
``results/<artifact>.txt`` so the numbers in EXPERIMENTS.md can be
re-derived with ``pytest benchmarks/ --benchmark-only``.  Benchmarks
that also pass ``data=`` to :func:`publish` get a machine-readable
twin, ``results/BENCH_<artifact>.json``, for CI trend tracking.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def publish(name: str, text: str, data: Optional[dict] = None) -> None:
    """Print an artifact and persist it under results/.

    *text* is the human-readable rendering, written to
    ``results/<name>.txt`` as before.  *data*, when given, is a
    JSON-ready mapping of the same numbers, written canonically
    (sorted keys, indent 1) to ``results/BENCH_<name>.json`` so CI and
    notebooks can consume the run without scraping the prose.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if data is not None:
        (RESULTS_DIR / f"BENCH_{name}.json").write_text(
            json.dumps(data, sort_keys=True, indent=1) + "\n"
        )
    print()
    print(text)


def host_metadata() -> dict:
    """The host a benchmark ran on, for its ``BENCH_*.json``."""
    import os
    import platform

    import networkx
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "networkx": networkx.__version__,
        "numpy": numpy.__version__,
        # The word popcount: np.bitwise_count, or the byte lookup table
        # on numpy < 2.0 (repro.core.bitwords).
        "popcount": (
            "bitwise_count" if hasattr(numpy, "bitwise_count") else "lookup_table"
        ),
        "python": platform.python_version(),
    }


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
