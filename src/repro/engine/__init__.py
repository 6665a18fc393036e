"""A stub kept for the frozen benchmark harness.

Bit arrays have one representation, ``uint64`` words
(:mod:`repro.core.bitwords`); there is no backend to select.
``benchmarks/perf/child.py`` records :func:`default_backend_name` in
each run's host block, and its files stay unchanged until
``benchmarks/perf/baseline.json`` is next refreshed, so this name (and
the ``HAVE_NUMBA`` flag beside it) stays until then.
"""

from __future__ import annotations

__all__ = ["default_backend_name"]


def default_backend_name() -> str:
    """``"packed"``: the name the word representation had when bit
    arrays had backends."""
    return "packed"
