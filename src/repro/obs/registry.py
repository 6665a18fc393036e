"""Process-local metrics registry: counters, gauges, histograms.

The measurement plane needs aggregate health signals — throughput,
latency, retry pressure, estimator quality — that are *first-class and
separate* from per-vehicle data (the same split privacy-preserving
crowdsensing systems make).  This module is the substrate: a
dependency-free :class:`MetricsRegistry` holding named instruments,
designed around three constraints:

* **Determinism.**  Histograms use *fixed* bucket boundaries and the
  registry's clock is injectable, so a test driving a fake clock
  produces byte-identical snapshots run after run (the exporter golden
  files in ``tests/test_obs.py`` rely on this).
* **Hot-path cheapness.**  An increment is one dict lookup and one
  float add; the instrumented encode/unfold/ingest paths are chunky
  vectorized operations, so instrumentation overhead stays far below
  the 5% budget ``benchmarks/bench_ingest.py`` enforces.
* **Isolation.**  Registries are plain objects.  Each service instance
  (gateway, collector, one loadgen run) owns its own registry so tests
  and concurrent runs never share counters; library-level code
  (wire codec, encoder, unfolding) records into the process-default
  registry, swappable via :func:`set_registry` / :func:`use_registry`.

Naming convention (see ``docs/observability.md``): dotted lowercase
``<subsystem>.<metric>`` with a unit suffix — ``_total`` for counters,
``_seconds`` / ``_bytes`` for measured quantities.
"""

from __future__ import annotations

import bisect
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: Fixed histogram bucket boundaries (seconds), chosen to resolve both
#: sub-millisecond hot-path spans and multi-second period closes.  The
#: boundaries never adapt to data — determinism requires it.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Canonical label identity: sorted (key, value-as-string) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (events, bytes, responses)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        """One JSON-able row describing the current state."""
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """A value that can move both ways (queue depth, cache size)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by *amount*."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by *amount*."""
        self.value -= amount

    def snapshot(self) -> Dict[str, object]:
        """One JSON-able row describing the current state."""
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """A distribution over fixed, pre-declared bucket boundaries.

    ``counts[i]`` is the number of observations ``<= buckets[i]``
    (non-cumulative per bucket; the final slot counts the overflow
    beyond the last boundary).  Boundaries are frozen at creation so
    two runs observing the same values produce identical snapshots.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    kind = "histogram"

    def __init__(
        self, name: str, labels: LabelKey, buckets: Tuple[float, ...]
    ) -> None:
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ConfigurationError(
                f"histogram {name} needs strictly increasing bucket "
                f"boundaries, got {buckets!r}"
            )
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> Dict[str, object]:
        """One JSON-able row describing the current state."""
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "buckets": [
                [boundary, count]
                for boundary, count in zip(self.buckets, self.counts)
            ],
            "overflow": self.counts[-1],
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """A process-local collection of named instruments.

    Parameters
    ----------
    clock:
        Zero-argument monotonic time source used by :meth:`timer` (and
        by tracing spans bound to this registry).  Injectable so tests
        drive a fake clock and get deterministic histograms.
    """

    def __init__(
        self, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.clock = clock
        self._instruments: Dict[Tuple[str, LabelKey], object] = {}
        #: Bumped by :meth:`clear`.  Code that holds instrument handles
        #: across calls (the wire codec's frame counters) fetches them
        #: again when the registry or its generation changes.
        self.generation = 0

    # ------------------------------------------------------------------
    # Instrument access (create-on-first-use)
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: Dict[str, object], **extra):
        key = (str(name), _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(key[0], key[1], **extra)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise ConfigurationError(
                f"metric {name} already registered as "
                f"{type(instrument).kind}, not {cls.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter *name* (with optional labels), created if new."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge *name* (with optional labels), created if new."""
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        *,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """The histogram *name*; *buckets* only applies on creation."""
        return self._get(Histogram, name, labels, buckets=buckets)

    @contextmanager
    def timer(
        self,
        name: str,
        *,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Iterator[None]:
        """Time a block on this registry's clock into a histogram."""
        histogram = self.histogram(name, buckets=buckets, **labels)
        start = self.clock()
        try:
            yield
        finally:
            histogram.observe(self.clock() - start)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: object) -> float:
        """Current value of a counter/gauge (0.0 if never touched)."""
        instrument = self._instruments.get((str(name), _label_key(labels)))
        if instrument is None:
            return 0.0
        if isinstance(instrument, Histogram):
            raise ConfigurationError(
                f"metric {name} is a histogram; read .sum/.count instead"
            )
        return instrument.value

    def snapshot(self) -> List[Dict[str, object]]:
        """Every instrument as a JSON-able row, deterministically
        ordered by ``(name, labels)``."""
        return [
            self._instruments[key].snapshot()
            for key in sorted(self._instruments)
        ]

    def clear(self) -> None:
        """Drop every instrument (a fresh start for tests)."""
        self._instruments.clear()
        self.generation += 1

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"MetricsRegistry({len(self._instruments)} instruments)"


# ----------------------------------------------------------------------
# The process-default registry
# ----------------------------------------------------------------------
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-default registry (used by library-level code)."""
    return _DEFAULT_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-default registry; returns it."""
    global _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return registry


@contextmanager
def use_registry(registry: Optional[MetricsRegistry] = None) -> Iterator[
    MetricsRegistry
]:
    """Temporarily swap the process-default registry (fresh if None).

    The tool tests use to observe library-level metrics (wire codec,
    encoder, unfolding) without cross-test contamination.
    """
    registry = registry if registry is not None else MetricsRegistry()
    previous = get_registry()
    set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
