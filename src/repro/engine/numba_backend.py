"""A stub kept for the frozen benchmark harness.

The numba word backend is deleted: numba is not a dependency and never
showed a measured win.  ``benchmarks/perf/child.py`` imports
``HAVE_NUMBA`` to record in each run's host block, and its files stay
unchanged until ``benchmarks/perf/baseline.json`` is next refreshed, so
the flag stays until then.
"""

HAVE_NUMBA = False
