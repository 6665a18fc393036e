"""Per-layer tracing from outside the program.

A fixed table of *public* callables is wrapped in
:class:`repro.obs.Tracer` spans for the length of a ``with`` block and
restored afterwards; nothing under ``src/`` changes.  Methods are
patched on the class that defines them and functions in the module
that calls them (``repro.traffic.network_workload.assign_routes``, not
``repro.roadnet.routing.assign_routes``), so a span measures exactly
the calls the pipeline makes.  Only synchronous callables appear in
the table: a span body never awaits, so the tracer's plain stack stays
correct on the asyncio loop the live plane runs on.

Span names are the stage names an in-program span should later take,
so the per-layer metrics keep their meaning when ``src/`` grows its
own spans and the matching row here is deleted.

A layer's *self* time is its span's duration minus the durations of
the spans opened inside it.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs import MetricsRegistry, Span, Tracer, write_jsonl


@dataclass(frozen=True)
class Site:
    """One wrapped callable.

    *attr* is ``"function"`` or ``"Class.method"`` inside *module*.
    The span's self time is reported as *metric* (``<span>_s`` unless
    given).  *calls* names a metric counting the calls; *count* names a
    work counter and *counter* derives it from ``(args, result)``.
    """

    span: str
    module: str
    attr: str
    metric: str = ""
    calls: str = ""
    count: str = ""
    counter: Optional[Callable[[tuple, object], int]] = None

    @property
    def seconds_metric(self) -> str:
        return self.metric or f"{self.span}_s"


def _first_arg_len(args: tuple, result: object) -> int:
    return len(args[0])


def _result_len(args: tuple, result: object) -> int:
    return len(result)  # type: ignore[arg-type]


#: The batch pipeline, in the order ``run_od_matrix`` runs it.  In live
#: samples these are wrapped during set-up only (that is where the
#: deployment spec routes its day).
BATCH_SITES: Tuple[Site, ...] = (
    Site("scenarios.network", "repro.scenarios.base", "Scenario.network"),
    Site(
        "scenarios.trip_table",
        "repro.scenarios.builtin",
        "SiouxFallsScenario.trip_table",
    ),
    Site(
        "scenarios.trip_table",
        "repro.scenarios.builtin",
        "GridScenario.trip_table",
    ),
    Site(
        "routing.assign_routes",
        "repro.traffic.network_workload",
        "assign_routes",
        count="routing.od_routes",
        counter=_result_len,
    ),
    Site(
        "volumes.materialize",
        "repro.roadnet.volumes",
        "TrafficAssignment.materialize",
    ),
    Site(
        "volumes.passes_at",
        "repro.roadnet.volumes",
        "TrafficAssignment.passes_at",
        calls="volumes.passes_at_calls",
    ),
    Site(
        "volumes.node_volumes",
        "repro.traffic.network_workload",
        "node_volumes",
    ),
    Site(
        "volumes.pair_common_volumes",
        "repro.traffic.network_workload",
        "pair_common_volumes",
    ),
    Site(
        "core.encode",
        "repro.core.scheme",
        "encode_passes",
        count="core.encode_responses",
        counter=_first_arg_len,
    ),
    Site("baseline.encode", "repro.baseline.scheme", "FixedLengthScheme.encode"),
    Site(
        "core.estimate_matrix",
        "repro.core.decoder",
        "CentralDecoder.estimate_matrix",
        count="core.matrix_pairs",
        counter=_result_len,
    ),
    # Its self time is dispatch overhead plus whatever work inside the
    # two scheme tasks no row above covers.
    Site(
        "runtime.run_tasks",
        "repro.experiments.sioux_falls_matrix",
        "run_tasks",
        metric="runtime.run_tasks_self_s",
    ),
)

#: The measurement plane: ingest, period close, queries, federation.
LIVE_SITES: Tuple[Site, ...] = (
    Site("wire.batch_decode", "repro.service.wire", "ResponseBatch.decode"),
    Site("wire.encode_frame", "repro.service.wire", "encode_frame"),
    Site(
        "rsu.handle_wire_batch",
        "repro.vcps.rsu",
        "RoadsideUnit.handle_wire_batch",
    ),
    Site("server.receive_report", "repro.vcps.server", "CentralServer.receive_report"),
    Site(
        "streaming.observe_report",
        "repro.streaming",
        "StreamingDecoder.observe_report",
    ),
    Site("server.point_to_point", "repro.vcps.server", "CentralServer.point_to_point"),
    Site("federation.wal_append", "repro.federation.wal", "WriteAheadLog.append"),
    Site("federation.or_merge", "repro.core.bitarray", "BitArray.or_bytes"),
)


def _resolve(site: Site) -> Tuple[object, str, object]:
    """``(owner, name, raw attribute)`` for *site*; the raw attribute
    is read from the owner's own ``__dict__`` so classmethods stay
    recognisable and a row naming an inherited method fails loudly."""
    owner: object = importlib.import_module(site.module)
    *path, name = site.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


class Recorder:
    """Collects the spans of one sample process, tagged by phase."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(self.registry)
        #: Label given to spans as they close (``setup`` or ``rep``).
        self.phase = "setup"
        self.spans: List[Tuple[str, Span]] = []
        self._counts: Dict[Tuple[str, str], int] = defaultdict(int)

    def _wrap(self, site: Site, fn: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(site.span) as span:
                result = fn(*args, **kwargs)
            self.spans.append((self.phase, span))
            if site.counter is not None:
                self._counts[(self.phase, site.count)] += site.counter(
                    args, result
                )
            return result

        return traced

    @contextmanager
    def installed(self, sites: Iterable[Site]) -> Iterator[None]:
        """Wrap every site for the block, then restore the originals."""
        saved: List[Tuple[object, str, object]] = []
        try:
            for site in sites:
                owner, name, raw = _resolve(site)
                if isinstance(raw, classmethod):
                    patched: object = classmethod(self._wrap(site, raw.__func__))
                else:
                    patched = self._wrap(site, raw)  # type: ignore[arg-type]
                setattr(owner, name, patched)
                saved.append((owner, name, raw))
            yield
        finally:
            for owner, name, raw in reversed(saved):
                setattr(owner, name, raw)

    def _self_times(self) -> Dict[int, float]:
        inner: Dict[int, float] = defaultdict(float)
        for _, span in self.spans:
            if span.parent is not None:
                inner[id(span.parent)] += span.duration
        return {
            id(span): span.duration - inner[id(span)] for _, span in self.spans
        }

    def totals(self, sites: Iterable[Site]) -> Dict[str, Dict[str, float]]:
        """Per phase: every site's self seconds and counters, keyed by
        the metric names of the table."""
        site_of = {s.span: s for s in sites}
        own = self._self_times()
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for phase, span in self.spans:
            site = site_of[span.name]
            out[phase][site.seconds_metric] += own[id(span)]
            if site.calls:
                out[phase][site.calls] += 1
        for (phase, name), value in self._counts.items():
            out[phase][name] += value
        return {phase: dict(row) for phase, row in out.items()}

    def calls(self) -> Dict[str, int]:
        """How often each span name fired, over all phases."""
        counts: Dict[str, int] = defaultdict(int)
        for _, span in self.spans:
            counts[span.name] += 1
        return dict(counts)

    def covered(self, phase: str) -> float:
        """Seconds of *phase* inside some span (summed self time)."""
        own = self._self_times()
        return sum(own[id(span)] for p, span in self.spans if p == phase)

    def write(self, path: str, extra_rows: Iterable[dict] = ()) -> int:
        """Write the span histograms, *extra_rows* (other registries'
        snapshots) and one row per span as JSON lines."""
        own = self._self_times()
        index = {id(span): i for i, (_, span) in enumerate(self.spans)}
        span_rows = [
            {
                "type": "span",
                "id": i,
                "parent": index.get(id(span.parent)),
                "name": span.name,
                "phase": phase,
                "start": span.start,
                "end": span.end,
                "self": own[id(span)],
            }
            for i, (phase, span) in enumerate(self.spans)
        ]
        rows = [*self.registry.snapshot(), *extra_rows, *span_rows]
        with open(path, "w", encoding="utf-8") as stream:
            return write_jsonl(rows, stream)
