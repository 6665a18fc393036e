"""Streaming-ingest bench: per-batch cost is O(batch), not O(period).

Run: ``pytest benchmarks/bench_streaming.py --benchmark-only``
Artifacts: ``results/streaming.txt``, ``results/BENCH_streaming.json``

Absorbing one batch touches only the batch's indices: a gather against
the running array and a scatter of the newly set bits, so the ingest
cost stays flat as the period fills, while a fresh batch decode over
everything received so far grows with the period.  The bench streams a
Sioux Falls day in stages and probes both costs at each stage, next to
one ``live_matrix()`` query.  A live query is a batch decode of the
running arrays, so its column tracks the full re-decode column.

The period-close row seals the day's reports into a fresh streaming
decoder (``observe_report``: an OR and a popcount per report) next to
one batch ``estimate_matrix`` over the same reports; sealing must cost
no more than twice a batch decode.
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import host_metadata, publish
from repro.core.decoder import CentralDecoder
from repro.core.reports import RsuReport
from repro.core.bitarray import BitArray
from repro.obs import MetricsRegistry
from repro.service.runtime import DeploymentSpec
from repro.streaming import StreamingDecoder
from repro.utils import sorted_unique
from repro.utils.tables import AsciiTable

PROBE = 256  # responses per probe batch
STAGES = 6
REPEATS = 5


def _median_seconds(fn) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return sorted(samples)[len(samples) // 2]


def _accumulated_reports(spec, consumed):
    reports = []
    for rsu_id, taken in sorted(consumed.items()):
        size = spec.scheme.array_size(rsu_id)
        bits = BitArray(size)
        if taken.size:
            bits.set_bits(sorted_unique(taken))
        reports.append(
            RsuReport(
                rsu_id=rsu_id,
                counter=int(taken.size),
                bits=bits,
                period=0,
            )
        )
    return reports


def run_streaming_bench(total_trips: int = 60_000, seed: int = 13):
    spec = DeploymentSpec(total_trips=total_trips, seed=seed)
    decoder = StreamingDecoder(s=spec.s, policy=spec.policy)
    day = {
        rsu_id: spec.response_indices(rsu_id)
        for rsu_id in spec.scheme.rsu_ids
    }
    probe_rsu = max(day, key=lambda rsu_id: day[rsu_id].size)
    probe_size = spec.scheme.array_size(probe_rsu)
    rng = np.random.default_rng(seed)
    consumed = {rsu_id: np.zeros(0, dtype=np.int64) for rsu_id in day}
    for rsu_id in sorted(day):
        decoder.ingest(
            rsu_id,
            np.zeros(0, dtype=np.int64),
            size=spec.scheme.array_size(rsu_id),
        )

    rows = []
    for stage in range(1, STAGES + 1):
        # Fill the period up to stage/STAGES of the day.
        for rsu_id, indices in day.items():
            upto = (indices.size * stage) // STAGES
            fresh = indices[consumed[rsu_id].size : upto]
            if fresh.size:
                decoder.ingest(
                    rsu_id,
                    fresh,
                    size=spec.scheme.array_size(rsu_id),
                )
                consumed[rsu_id] = indices[:upto]
        period_responses = sum(v.size for v in consumed.values())

        # Probe 1: incremental ingest of one fixed-size batch.
        probe = rng.integers(0, probe_size, size=PROBE, dtype=np.int64)
        incr = _median_seconds(
            lambda: decoder.ingest(probe_rsu, probe, size=probe_size)
        )

        # Probe 2: fresh batch decode over everything so far.
        reports = _accumulated_reports(spec, consumed)

        def redecode():
            batch = CentralDecoder(spec.s, policy=spec.policy)
            batch.submit_many(reports)
            return batch.estimate_matrix(0)

        full = _median_seconds(redecode)
        live = _median_seconds(decoder.live_matrix)
        rows.append((period_responses, incr, full, live))

    # Period close: seal the whole day's reports into a fresh decoder.
    day_reports = _accumulated_reports(spec, day)

    def seal():
        sealed = StreamingDecoder(
            s=spec.s, policy=spec.policy, registry=MetricsRegistry()
        )
        for report in day_reports:
            sealed.observe_report(report)

    def batch_decode():
        batch = CentralDecoder(spec.s, policy=spec.policy)
        batch.submit_many(day_reports)
        return batch.estimate_matrix(0)

    # Alternate the two so host drift hits both alike.
    timings = {seal: [], batch_decode: []}
    for _ in range(REPEATS):
        for fn, samples in timings.items():
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
    seal_s, batch_s = (sorted(v)[len(v) // 2] for v in timings.values())

    table = AsciiTable(
        [
            "period responses",
            "incremental batch (ms)",
            "full re-decode (ms)",
            "live query (ms)",
            "speedup",
        ],
        title=(
            f"Streaming ingest cost, probe batch = {PROBE} responses "
            f"({len(day)} RSUs, {total_trips:,} trips)"
        ),
    )
    for period_responses, incr, full, live in rows:
        table.add_row(
            [
                f"{period_responses:,}",
                f"{incr * 1e3:.3f}",
                f"{full * 1e3:.3f}",
                f"{live * 1e3:.3f}",
                f"{full / incr:,.0f}x",
            ]
        )
    text = "\n".join(
        [
            table.render(),
            "",
            f"Period close ({len(day_reports)} reports, median of "
            f"{REPEATS}): seal {seal_s * 1e3:.3f} ms, one batch "
            f"estimate_matrix {batch_s * 1e3:.3f} ms "
            f"({seal_s / batch_s:.2f}x)",
        ]
    )
    data = {
        "host": host_metadata(),
        "total_trips": total_trips,
        "probe_batch": PROBE,
        "stages": [
            {
                "period_responses": period_responses,
                "incremental_batch_s": incr,
                "full_redecode_s": full,
                "live_query_s": live,
            }
            for period_responses, incr, full, live in rows
        ],
        "period_close": {
            "reports": len(day_reports),
            "seal_s": seal_s,
            "batch_decode_s": batch_s,
        },
    }
    return text, data


def test_incremental_cost_is_flat(benchmark):
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    trips = 12_000 if smoke else 60_000
    text, data = benchmark.pedantic(
        run_streaming_bench, args=(trips,), rounds=1, iterations=1
    )
    if not smoke:  # keep the checked-in artifact full-size
        publish("streaming", text, data=data)
    else:
        print()
        print(text)
    incr_times = [stage["incremental_batch_s"] for stage in data["stages"]]
    # O(batch), not O(period): with the period 6x fuller, the probe
    # batch must not cost an order of magnitude more...
    assert incr_times[-1] < 10 * min(incr_times)
    # ...and must beat re-decoding the whole period outright.
    assert incr_times[-1] < data["stages"][-1]["full_redecode_s"]
    # Sealing a day is an OR and a popcount per report: no dearer
    # than twice one batch decode of the same reports.
    close = data["period_close"]
    seal_s, batch_s = close["seal_s"], close["batch_decode_s"]
    assert seal_s <= 2 * batch_s, f"seal {seal_s:.4f}s vs {batch_s:.4f}s"
