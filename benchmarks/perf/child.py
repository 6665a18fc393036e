"""One benchmark sample: a fresh process that sets up one workload,
times its reps, checks the outputs, and prints one JSON line.

``run.py`` starts one of these per sample with a scrubbed environment
(``REPRO_WORKERS=1 REPRO_EXECUTOR=serial``, no ``REPRO_ENGINE``) and
``PYTHONPATH`` pointing at ``src``.  By hand::

    PYTHONPATH=src python benchmarks/perf/child.py --workload live-sioux \\
        --spawned "$(date +%s.%N)" --smoke

Set-up (``setup_s``) runs from the moment the parent spawned this
process until the first timed rep can start: interpreter start, the
plane's imports, the scenario or deployment-spec build (routing, for
the live planes) and the first service start.  The host probe
(``probe.py``) ticks throughout; every timing is reported with the
mean tick over it, so the parent can put it at the reference speed.
Everything that only checks outputs runs after the timed reps and
outside any span.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import spans
from probe import HostProbe, mean_tick
from workloads import MIN_TRUTH, Workload, get_workload

#: Responses per ``ResponseBatch`` frame (the loadgen default).
WIRE_BATCH = 4096


def _sha(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _registry_total(registries, name: str) -> float:
    """Sum of counter/gauge values (histogram sums) named *name*, over
    every label set, across *registries*."""
    return sum(
        float(row["sum"] if row["type"] == "histogram" else row["value"])
        for registry in registries
        for row in registry.snapshot()
        if row["name"] == name
    )


def _median_error_pct(pairs) -> float:
    """Median relative error (%) over ``(estimate, truth)`` pairs."""
    errors = [abs(est - truth) / truth for est, truth in pairs]
    return 100.0 * float(np.median(errors)) if errors else float("nan")


class BatchPlane:
    """``run_od_matrix`` on a scenario, both schemes, serial."""

    def __init__(self, workload: Workload, seed: int, probe: HostProbe) -> None:
        self.workload = workload
        self.seed = seed
        self.probe = probe
        self.last = None

    # The planes import their entry points in setup() and keep them, so
    # that import cost counts in setup_s and the batch plane never
    # imports the services.
    async def setup(self) -> None:
        from repro.experiments.sioux_falls_matrix import run_od_matrix
        from repro.scenarios import get_scenario

        self.run_od_matrix = run_od_matrix
        self.get_scenario = get_scenario
        get_scenario(self.workload.scenario)  # an unknown spec fails here

    async def rep(self) -> Dict[str, object]:
        mark = self.probe.mark()
        start = time.perf_counter()
        result = self.run_od_matrix(
            scenario=self.workload.scenario,
            total_trips=self.workload.trips,
            min_truth=MIN_TRUTH,
            seed=self.seed,
        )
        matrix_s = time.perf_counter() - start
        ticks = self.probe.since(mark)
        self.last = result
        lines = [f"{result.load_factor!r} {result.baseline_m}"] + [
            f"{o.pair[0]} {o.pair[1]} {o.truth} {o.vlm_error!r} {o.baseline_error!r}"
            for o in result.outcomes
        ]
        broken = sum(
            1
            for o in result.outcomes
            if not (math.isfinite(o.vlm_error) and math.isfinite(o.baseline_error))
        )
        return {
            "matrix_s": matrix_s,
            "tick_s": mean_tick(ticks),
            "digest": _sha(lines),
            "attempted": len(result.outcomes),
            "failed": broken,
        }

    async def verify(self, full: bool) -> Dict[str, object]:
        """Accuracy always; with *full*, rebuild the workload once and
        check every scored pair against its point volumes."""
        outcomes = self.last.outcomes
        out: Dict[str, object] = {
            "err_pct": 100.0 * self.last.percentiles("vlm")["median"],
            "attempted": 0,
            "failed": 0,
            "problems": [],
        }
        if not full:
            return out
        workload = self.get_scenario(self.workload.scenario).workload(
            total_trips=self.workload.trips, seed=self.seed
        )
        volumes = workload.volumes()
        truth = workload.common_volumes()
        scored = sum(1 for t in truth.values() if t >= MIN_TRUTH)
        failed = abs(scored - len(outcomes))
        for o in outcomes:
            a, b = o.pair
            n_x, n_y = volumes[a], volumes[b]
            if not (
                truth.get(o.pair) == o.truth
                and o.truth <= min(n_x, n_y)
                and o.d == max(n_x, n_y) / min(n_x, n_y)
            ):
                failed += 1
        out["attempted"] = len(outcomes)
        out["failed"] = failed
        if failed:
            out["problems"] = [f"{failed} pairs break the ground-truth invariants"]
        return out

    async def close(self) -> None:
        pass


class LivePlane:
    """Unsharded gateway + collector; each rep replays the day into a
    fresh pair of services, then queries every pair."""

    def __init__(self, workload: Workload, seed: int, probe: HostProbe) -> None:
        self.workload = workload
        self.seed = seed
        self.probe = probe
        self.services = None

    async def setup(self) -> None:
        from repro.obs import MetricsRegistry, get_registry
        from repro.service.loadgen import replay_day, run_queries
        from repro.service.runtime import DeploymentSpec

        self.MetricsRegistry = MetricsRegistry
        self.default_registry = get_registry
        self.replay_day = replay_day
        self.run_queries = run_queries
        self.spec = DeploymentSpec(
            total_trips=self.workload.trips,
            seed=self.seed,
            scenario=self.workload.scenario,
        )
        volumes = self.spec.workload.volumes()
        self.rsus = len(self.spec.scheme.rsu_ids)
        self.expected = sum(volumes.values())
        self.batches = sum(math.ceil(v / WIRE_BATCH) for v in volumes.values())
        self.services = await self.start()

    async def start(self):
        from repro.service.runtime import start_services

        return await start_services(self.spec, gateway_port=0, collector_port=0)

    async def stop(self) -> None:
        gateway, collector = self.services
        await gateway.stop()
        await collector.stop()

    def gateway_registries(self) -> list:
        return [self.services[0].registry]

    def collector_registry(self):
        return self.services[1].registry

    async def stream(self, registry) -> Dict[str, object]:
        """Replay the day; returns what the stream delivered."""
        stats = await self.replay_day(
            self.spec, gateway_port=self.services[0].port, registry=registry
        )
        return {
            "responses": stats.sent,
            "stream_s": stats.elapsed,
            "snapshots_ok": stats.snapshots_acked == self.rsus,
            "faults": stats.nacks,
        }

    def collector_port(self) -> int:
        return self.services[1].port

    def wire_in(self) -> Dict[str, float]:
        registry = self.default_registry()
        return {
            "frames": registry.value("wire.frames_total", direction="in"),
            "bytes": registry.value("wire.bytes_total", direction="in"),
        }

    async def rep(self) -> Dict[str, object]:
        if self.services is None:
            self.services = await self.start()
        registry = self.MetricsRegistry()
        wire_before = self.wire_in()
        mark = self.probe.mark()
        streamed = await self.stream(registry)
        (
            latencies,
            _checked,
            mismatches,
            counters_checked,
            counter_mismatches,
            _query_reconnects,
        ) = await self.run_queries(
            self.spec, collector_port=self.collector_port(), registry=registry
        )
        ticks = self.probe.since(mark)
        wire_after = self.wire_in()
        gateways = self.gateway_registries()
        collector = self.collector_registry()
        await self.stop()
        self.services = None
        resent = registry.value("loadgen.batches_resent_total")
        received = _registry_total(gateways, "gateway.responses_received_total")
        recorded = _registry_total(gateways, "gateway.responses_recorded_total")
        failed = (
            len(mismatches)
            + len(counter_mismatches)
            + int(streamed["faults"])
            + int(resent)
            + int(streamed["responses"] != self.expected)
            + int(recorded != self.expected)
            + int(not streamed["snapshots_ok"])
        )
        return {
            "matrix_s": streamed["stream_s"] + float(latencies.sum()) / 1e3,
            "tick_s": mean_tick(ticks),
            "stream_s": streamed["stream_s"],
            "responses": streamed["responses"],
            "latencies_ms": latencies.tolist(),
            "attempted": self.batches + counters_checked + int(latencies.size),
            "failed": failed,
            "layers": {
                "wire.frames_in": wire_after["frames"] - wire_before["frames"],
                "wire.bytes_in": wire_after["bytes"] - wire_before["bytes"],
                "rsu.responses_recorded": recorded,
                "gateway.flush_s": _registry_total(
                    gateways, "gateway.ingest_flush_seconds"
                ),
                "gateway.period_close_s": _registry_total(
                    gateways, "gateway.period_close_seconds"
                ),
                "gateway.backpressure_stalls": _registry_total(
                    gateways, "gateway.backpressure_stalls_total"
                ),
                "gateway.recorded_frac": recorded / received if received else 0.0,
                "collector.query_s": _registry_total(
                    [collector], "collector.query_seconds"
                ),
                "federation.wal_bytes": _registry_total(
                    [collector], "federation.wal_bytes_total"
                ),
                "federation.snapshots_merged": _registry_total(
                    [collector], "federation.snapshots_merged_total"
                ),
                "loadgen.reconnects": registry.value("loadgen.reconnects_total")
                + registry.value("loadgen.query_reconnects_total"),
                "loadgen.batches_resent": resent,
                "loadgen.first_send_frac": self.batches / (self.batches + resent),
            },
        }

    async def verify(self, full: bool) -> Dict[str, object]:
        """Digest and accuracy of the matrix every live answer was
        checked against, bit for bit, during the reps."""
        matrix = self.spec.reference_decoder().estimate_matrix()
        truth = self.spec.workload.common_volumes()
        lines = [
            f"{a} {b} {est.value!r} {est.v_c!r} {est.n_x} {est.n_y}"
            for (a, b), est in sorted(matrix.items())
        ]
        scored = [
            (matrix[(a, b) if a < b else (b, a)].value, t)
            for (a, b), t in truth.items()
            if t >= MIN_TRUTH
        ]
        return {
            "digest": _sha(lines),
            "err_pct": _median_error_pct(scored),
            "attempted": 0,
            "failed": 0,
            "problems": [],
        }

    async def close(self) -> None:
        if self.services is not None:
            await self.stop()
            self.services = None


class FederatedPlane(LivePlane):
    """Gateway shards + OR-merge collector + WAL; each rep replays the
    day into a fresh federation with a mid-period rebalance."""

    def __init__(
        self, workload: Workload, seed: int, probe: HostProbe, scratch: Path
    ) -> None:
        super().__init__(workload, seed, probe)
        self.scratch = scratch
        self.wal_dir: Optional[tempfile.TemporaryDirectory] = None
        self.started = 0

    async def setup(self) -> None:
        from repro.federation.runtime import run_federated_loadgen

        self.run_federated_loadgen = run_federated_loadgen
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.wal_dir = tempfile.TemporaryDirectory(dir=self.scratch)
        await super().setup()

    async def start(self):
        from repro.federation.runtime import start_federation

        self.started += 1
        return await start_federation(
            self.spec,
            shards=self.workload.shards,
            wal_path=Path(self.wal_dir.name) / f"rep{self.started}.wal",
        )

    async def stop(self) -> None:
        await self.services.stop()

    def gateway_registries(self) -> list:
        return [shard.registry for shard in self.services.shards.values()]

    def collector_registry(self):
        return self.services.collector.registry

    def collector_port(self) -> int:
        return self.services.collector.port

    async def stream(self, registry) -> Dict[str, object]:
        # Pair queries are issued by the rep itself (run_queries, the
        # same call the federated loadgen makes) so that their
        # latencies are kept; max_queries=0 leaves only point checks.
        result = await self.run_federated_loadgen(
            self.spec,
            shards=self.workload.shards,
            shard_ports=list(self.services.shard_ports().values()),
            collector_port=self.services.collector.port,
            rebalance=self.workload.rebalance,
            max_queries=0,
            registry=registry,
        )
        return {
            "responses": result.responses_sent,
            "stream_s": result.stream_seconds,
            "snapshots_ok": result.snapshots_acked >= self.rsus,
            "faults": len(result.counter_mismatches) + len(result.pair_mismatches),
        }

    async def close(self) -> None:
        await super().close()
        if self.wal_dir is not None:
            self.wal_dir.cleanup()


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


async def sample(args: argparse.Namespace) -> Dict[str, object]:
    workload = get_workload(args.workload, args.smoke)
    probe = HostProbe()
    if workload.plane == "batch":
        plane = BatchPlane(workload, args.seed, probe)
    elif workload.plane == "live":
        plane = LivePlane(workload, args.seed, probe)
    else:
        plane = FederatedPlane(workload, args.seed, probe, Path(args.scratch))
    recorder = spans.Recorder() if args.trace else None
    all_sites = spans.BATCH_SITES + spans.LIVE_SITES
    rep_sites = spans.BATCH_SITES if workload.plane == "batch" else spans.LIVE_SITES
    probe.start()
    try:
        with recorder.installed(spans.BATCH_SITES) if recorder else nullcontext():
            await plane.setup()
        setup_s = time.time() - args.spawned
        setup_tick_s = mean_tick(probe.since(0))
        if recorder:
            recorder.phase = "rep"
        with recorder.installed(rep_sites) if recorder else nullcontext():
            reps = [await plane.rep() for _ in range(workload.reps)]
        peak_rss_mb = _peak_rss_mb()
        checked = await plane.verify(args.verify)
    finally:
        await plane.close()
        probe.stop()

    from repro.engine import default_backend_name
    from repro.engine.numba_backend import HAVE_NUMBA

    digests = {r.get("digest") for r in reps} - {None}
    problems = list(checked["problems"])
    if len(digests) > 1:
        problems.append(f"rep digests differ within one sample: {sorted(digests)}")
    result: Dict[str, object] = {
        "workload": workload.name,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "setup_tick_s": setup_tick_s,
        "tick_s": statistics.median(probe.ticks),
        "reps": reps,
        "digest": checked.get("digest") or min(digests),
        "err_pct": checked["err_pct"],
        "attempted": sum(r["attempted"] for r in reps) + checked["attempted"],
        "failed": sum(r["failed"] for r in reps) + checked["failed"],
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "host": {
            "engine_backend": default_backend_name(),
            "have_numba": bool(HAVE_NUMBA),
        },
    }
    if recorder is not None:
        result.update(_trace_summary(recorder, all_sites, workload, reps, args))
    return result


def _trace_summary(recorder, sites, workload, reps, args) -> Dict[str, object]:
    """Per-sample layer values: set-up spans once plus one rep's share
    of the rep spans and registry counters."""
    phases = recorder.totals(sites)
    setup, rep = phases.get("setup", {}), phases.get("rep", {})
    n = len(reps)
    layers = {k: setup.get(k, 0.0) + rep.get(k, 0.0) / n for k in {*setup, *rep}}
    for r in reps:
        for key, value in r.get("layers", {}).items():
            layers[key] = layers.get(key, 0.0) + value / n
    timed = sum(r["matrix_s"] for r in reps)
    trace_file = Path(args.scratch) / f"trace-{workload.name}-{args.index}.jsonl"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    from repro.obs import get_registry

    recorder.write(str(trace_file), get_registry().snapshot())
    return {
        "layers": layers,
        "span_calls": recorder.calls(),
        "unattributed_frac": 1.0 - recorder.covered("rep") / timed,
        "trace_file": str(trace_file),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument(
        "--scratch", default=str(Path(__file__).resolve().parent / "out")
    )
    args = parser.parse_args(argv)
    if get_workload(args.workload) is None:
        parser.error(f"unknown workload {args.workload!r}")
    print(json.dumps(asyncio.run(sample(args))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
