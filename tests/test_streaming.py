"""Differential battery for the streaming incremental decoder.

The tentpole claim is exact: any prefix or window of a streaming
decode must be **bit-identical** to a batch decode over the same
responses — no tolerance, on both kernel sets (the word kernels and
the bool oracle's, ``tests/bit_oracle.py``).  Hypothesis drives
randomized response sequences and batch splits against that claim;
the remaining classes pin window-boundary semantics, out-of-order
arrival, period rotation, the federation OR-merge path (with WAL
replay), and a golden time-sliced matrix.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.estimator import ZeroFractionPolicy
from repro.core.reports import RsuReport
from repro.core.sizing import StaticSizing
from repro.errors import ConfigurationError
from repro.federation.wal import WriteAheadLog
from repro.obs import MetricsRegistry
from repro.runtime import run_tasks, task
from repro.service import wire
from repro.service.collector import CollectorService
from repro.streaming import StreamingDecoder, window_for
from repro.vcps.server import CentralServer
from tests.bit_oracle import KERNEL_SETS, kernels

DATA = pathlib.Path(__file__).parent / "data"


# ----------------------------------------------------------------------
# Scenario machinery
# ----------------------------------------------------------------------
def make_scenario(seed, *, rsus=3, windows=3, max_batch=40):
    """A deterministic random day: per-RSU sizes, index batches, and
    window tags, derived entirely from *seed*."""
    rng = np.random.default_rng(seed)
    sizes = {
        rsu_id: 1 << int(rng.integers(3, 8)) for rsu_id in range(1, rsus + 1)
    }
    batches = []
    for rsu_id, size in sizes.items():
        remaining = int(rng.integers(0, 120))
        while remaining > 0:
            count = int(min(remaining, rng.integers(1, max_batch + 1)))
            remaining -= count
            batches.append(
                (
                    rsu_id,
                    rng.integers(0, size, size=count, dtype=np.int64),
                    int(rng.integers(0, windows)),
                )
            )
    rng.shuffle(batches)
    return sizes, batches


def batch_reference(sizes, batches, *, s=2):
    """A fresh batch decode over exactly *batches* (the ground truth the
    streaming path must reproduce digit for digit)."""
    decoder = CentralDecoder(s, policy=ZeroFractionPolicy.CLAMP)
    decoder.submit_many(reference_reports(sizes, batches))
    return decoder.estimate_matrix(0)


def reference_reports(sizes, batches, *, period=0):
    """One whole-period report per RSU built from *batches*."""
    per_rsu = {rsu_id: [] for rsu_id in sizes}
    for rsu_id, idx, _window in batches:
        per_rsu[rsu_id].append(idx)
    reports = []
    for rsu_id, chunks in sorted(per_rsu.items()):
        bits = BitArray(sizes[rsu_id])
        counter = 0
        for idx in chunks:
            counter += int(idx.size)
            if idx.size:
                bits.set_bits(np.unique(idx))
        reports.append(
            RsuReport(
                rsu_id=rsu_id, counter=counter, bits=bits, period=period
            )
        )
    return reports


def expected_joint_zeros(sizes, batches):
    """Joint zeros per pair at the pair's common size, by brute force."""
    arrays = {
        rsu_id: np.zeros(size, dtype=bool) for rsu_id, size in sizes.items()
    }
    for rsu_id, idx, _window in batches:
        arrays[rsu_id][idx] = True
    ids = sorted(sizes)
    out = {}
    for i, x in enumerate(ids):
        for y in ids[i + 1 :]:
            target = max(sizes[x], sizes[y])
            tiled_x = np.tile(arrays[x], target // sizes[x])
            tiled_y = np.tile(arrays[y], target // sizes[y])
            out[(x, y)] = int(np.count_nonzero(~(tiled_x | tiled_y)))
    return out


def stream_scenario(sizes, batches, *, windows=3):
    """Ingest *batches* one by one into a fresh streaming decoder."""
    decoder = StreamingDecoder(
        s=2,
        policy=ZeroFractionPolicy.CLAMP,
        windows=windows,
        registry=MetricsRegistry(),
    )
    for rsu_id in sorted(sizes):
        decoder.ingest(
            rsu_id,
            np.zeros(0, dtype=np.int64),
            size=sizes[rsu_id],
        )
    for rsu_id, idx, window in batches:
        decoder.ingest(rsu_id, idx, window=window, size=sizes[rsu_id])
    return decoder


# ----------------------------------------------------------------------
# The differential suite (hypothesis)
# ----------------------------------------------------------------------
class TestDifferentialPrefix:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        engine=st.sampled_from(KERNEL_SETS),
        cut=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_any_prefix_is_bit_identical(self, seed, engine, cut):
        """Stop the stream at an arbitrary batch boundary: the live
        matrix equals a fresh batch decode over exactly that prefix."""
        sizes, batches = make_scenario(seed)
        prefix = batches[: int(round(cut * len(batches)))]
        with kernels(engine):
            decoder = stream_scenario(sizes, prefix)
            assert decoder.live_matrix() == batch_reference(sizes, prefix)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        engine=st.sampled_from(KERNEL_SETS),
    )
    @settings(max_examples=20, deadline=None)
    def test_running_joint_zeros_track_ground_truth(self, seed, engine):
        """The incremental per-pair counts equal brute-force tiling
        after every single batch, not just at the end."""
        sizes, batches = make_scenario(seed, rsus=3)
        with kernels(engine):
            decoder = stream_scenario(sizes, [])
            for stop in range(len(batches) + 1):
                if stop:
                    rsu_id, idx, window = batches[stop - 1]
                    decoder.ingest(
                        rsu_id, idx, window=window, size=sizes[rsu_id]
                    )
                assert decoder.joint_zeros() == expected_joint_zeros(
                    sizes, batches[:stop]
                )

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_backends_agree_exactly(self, seed):
        sizes, batches = make_scenario(seed)
        matrices = []
        for engine in KERNEL_SETS:
            with kernels(engine):
                matrices.append(stream_scenario(sizes, batches).live_matrix())
        assert matrices[0] == matrices[1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_differential_under_parallel_runtime(self, workers):
        """The whole differential check runs clean through run_tasks at
        1 and 2 workers — streaming state is per-task, never shared."""

        def check(seed):
            sizes, batches = make_scenario(seed)
            decoder = stream_scenario(sizes, batches)
            return decoder.live_matrix() == batch_reference(sizes, batches)

        tasks = [task(check, seed) for seed in range(12)]
        results = run_tasks(tasks, workers=workers, executor="thread")
        assert results == [True] * len(tasks)


# ----------------------------------------------------------------------
# Window semantics
# ----------------------------------------------------------------------
class TestWindowEdges:
    def test_boundary_instant_belongs_to_later_window(self):
        assert window_for(0.0, 10.0, 4) == 0
        assert window_for(9.999, 10.0, 4) == 0
        assert window_for(10.0, 10.0, 4) == 1  # exact boundary
        assert window_for(30.0, 10.0, 4) == 3

    def test_instants_past_period_end_clamp(self):
        assert window_for(40.0, 10.0, 4) == 3
        assert window_for(1e9, 10.0, 4) == 3

    def test_bad_instants_raise(self):
        with pytest.raises(ConfigurationError):
            window_for(-0.1, 10.0, 4)
        with pytest.raises(ConfigurationError):
            window_for(1.0, 0.0, 4)

    @pytest.mark.parametrize("engine", KERNEL_SETS)
    def test_empty_window_decodes_like_empty_reports(self, engine):
        sizes, batches = make_scenario(7, windows=3)
        only_w0 = [(r, idx, 0) for r, idx, _w in batches]
        with kernels(engine):
            decoder = stream_scenario(sizes, only_w0)
            empty = batch_reference(sizes, [])
            assert decoder.window_matrix(window=1) == empty
            assert decoder.window_matrix(window=2) == empty

    @pytest.mark.parametrize("engine", KERNEL_SETS)
    def test_out_of_order_windows_decode_identically(self, engine):
        """Late and out-of-order batches within a period change no
        answer — the running state is an OR."""
        sizes, batches = make_scenario(11, windows=3)
        shuffled = list(batches)
        np.random.default_rng(99).shuffle(shuffled)
        with kernels(engine):
            a = stream_scenario(sizes, batches)
            b = stream_scenario(sizes, shuffled)
            assert a.live_matrix() == b.live_matrix()
            for w in range(3):
                assert a.window_matrix(window=w) == b.window_matrix(window=w)
        assert a.joint_zeros() == b.joint_zeros()

    def test_window_prefix_equals_batch_of_those_windows(self):
        sizes, batches = make_scenario(23, windows=3)
        decoder = stream_scenario(sizes, batches)
        for w in range(3):
            covered = [b for b in batches if b[2] <= w]
            assert decoder.matrix_at(at=w) == batch_reference(sizes, covered)

    def test_seconds_form_quantizes_through_window_for(self):
        sizes, batches = make_scenario(5, windows=3)
        decoder = StreamingDecoder(
            s=2,
            policy=ZeroFractionPolicy.CLAMP,
            windows=3,
            window_s=60.0,
            registry=MetricsRegistry(),
        )
        for rsu_id, idx, window in batches:
            decoder.ingest(rsu_id, idx, window=window, size=sizes[rsu_id])
        reference = stream_scenario(sizes, batches)
        assert decoder.matrix_at(at=59.9) == reference.matrix_at(at=0)
        assert decoder.matrix_at(at=60.0) == reference.matrix_at(at=1)
        assert decoder.matrix_at(at=1e6) == reference.live_matrix()

    def test_ring_rotates_across_period_close(self):
        """Sealing period 0 with authoritative reports leaves its
        window slices intact; period 1 state starts independent."""
        sizes, batches = make_scenario(31, windows=2)
        decoder = stream_scenario(sizes, batches, windows=2)
        before = {
            w: decoder.window_matrix(period=0, window=w) for w in range(2)
        }
        for report in reference_reports(sizes, batches):
            decoder.observe_report(report)
        # Sealed counters are authoritative and match the replay.
        for report in reference_reports(sizes, batches):
            assert decoder.counter(report.rsu_id) == report.counter
        # Period 1 begins fresh without disturbing period 0's slices.
        next_batches = [
            (rsu_id, idx, w) for rsu_id, idx, w in make_scenario(32)[1][:4]
        ]
        for rsu_id, idx, w in next_batches:
            if rsu_id in sizes:
                decoder.ingest(
                    rsu_id, idx % sizes[rsu_id], period=1,
                    window=min(w, 1), size=sizes[rsu_id],
                )
        for w in range(2):
            assert decoder.window_matrix(period=0, window=w) == before[w]
        assert decoder.live_matrix(period=0) == batch_reference(sizes, batches)

    def test_conflicting_array_size_raises(self):
        decoder = StreamingDecoder(s=2, registry=MetricsRegistry())
        decoder.ingest(1, np.array([0]), size=16)
        with pytest.raises(ConfigurationError):
            decoder.ingest(1, np.array([0]), size=32)

    def test_first_batch_must_declare_size(self):
        decoder = StreamingDecoder(s=2, registry=MetricsRegistry())
        with pytest.raises(ConfigurationError):
            decoder.ingest(1, np.array([0]))


# ----------------------------------------------------------------------
# Golden time-sliced matrices
# ----------------------------------------------------------------------
def golden_payload():
    """The scenario pinned by tests/data/streaming_golden.json."""
    sizes, batches = make_scenario(1234, rsus=3, windows=3)
    decoder = stream_scenario(sizes, batches, windows=3)
    payload = {"sizes": {str(k): v for k, v in sorted(sizes.items())}}
    for w in range(3):
        matrix = decoder.window_matrix(window=w)
        payload[f"window_{w}"] = {
            f"{x}-{y}": {
                "value": est.value,
                "v_c": est.v_c,
                "n_x": est.n_x,
                "n_y": est.n_y,
            }
            for (x, y), est in sorted(matrix.items())
        }
    payload["live"] = {
        f"{x}-{y}": est.value
        for (x, y), est in sorted(decoder.live_matrix().items())
    }
    return payload


class TestGoldenWindows:
    def test_time_sliced_matrices_match_golden(self):
        """Exact float equality against the checked-in golden file
        (regenerate with tests/data/regen_streaming_golden.py)."""
        golden = json.loads((DATA / "streaming_golden.json").read_text())
        assert golden_payload() == golden


# ----------------------------------------------------------------------
# Federation: window-tagged shard partials
# ----------------------------------------------------------------------
def shard_partials(sizes, batches, *, shard_of, windows):
    """One WindowSnapshot per ingested batch, tagged with its shard."""
    partials = []
    for seq, (rsu_id, idx, window) in enumerate(batches, start=1):
        bits = BitArray(sizes[rsu_id])
        if idx.size:
            bits.set_bits(np.unique(idx))
        report = RsuReport(
            rsu_id=rsu_id, counter=int(idx.size), bits=bits, period=0
        )
        partials.append(
            wire.WindowSnapshot.from_report(
                report,
                window=window,
                shard_id=shard_of(rsu_id, seq),
                seq=seq,
            )
        )
    return partials


def make_server(windows=3):
    return CentralServer(
        2,
        StaticSizing(2.0),
        policy=ZeroFractionPolicy.CLAMP,
        windows=windows,
    )


def fresh_collector(tmp_path=None, name="stream.wal"):
    server = make_server()
    wal = None if tmp_path is None else WriteAheadLog(tmp_path / name)
    return CollectorService(
        server, registry=MetricsRegistry(), wal=wal
    )


class TestFederationStreaming:
    def test_sharded_partials_match_unsharded_live(self):
        """Window partials from two shards OR-merge to exactly the
        matrix an unsharded streaming decoder computes."""
        sizes, batches = make_scenario(55, rsus=4, windows=3)
        partials = shard_partials(
            sizes, batches, shard_of=lambda rsu, _seq: rsu % 2, windows=3
        )
        collector = CollectorService(
            make_server(), registry=MetricsRegistry()
        )
        for partial in partials:
            reply = collector._handle(partial)
            assert isinstance(reply, wire.SnapshotAck)
        reference = stream_scenario(sizes, batches, windows=3)
        assert collector.server.live_matrix() == reference.live_matrix()
        for w in range(3):
            assert collector.server.window_matrix(
                window=w
            ) == reference.window_matrix(window=w)

    def test_redelivered_partials_dedup(self):
        sizes, batches = make_scenario(56, rsus=3, windows=3)
        partials = shard_partials(
            sizes, batches, shard_of=lambda rsu, _seq: rsu % 2, windows=3
        )
        collector = CollectorService(
            make_server(), registry=MetricsRegistry()
        )
        for partial in partials:
            collector._handle(partial)
        for partial in partials:  # full redelivery, e.g. gateway retry
            reply = collector._handle(partial)
            assert isinstance(reply, wire.SnapshotAck)
        assert collector.window_partials_deduped == len(partials)
        reference = stream_scenario(sizes, batches, windows=3)
        assert collector.server.live_matrix() == reference.live_matrix()

    def test_mid_period_rebalance_keeps_exactness(self):
        """An RSU handed to another shard mid-period uploads later
        windows under a new shard_id; the merge stays exact."""
        sizes, batches = make_scenario(57, rsus=3, windows=3)

        def shard_of(rsu_id, seq):
            # Everyone starts on shard 0; halfway through the feed the
            # odd RSUs are rebalanced onto shard 1.
            return 1 if (seq > len(batches) // 2 and rsu_id % 2) else 0

        partials = shard_partials(
            sizes, batches, shard_of=shard_of, windows=3
        )
        collector = CollectorService(
            make_server(), registry=MetricsRegistry()
        )
        for partial in partials:
            collector._handle(partial)
        reference = stream_scenario(sizes, batches, windows=3)
        assert collector.server.live_matrix() == reference.live_matrix()

    def test_wal_replay_restores_live_matrix(self, tmp_path):
        sizes, batches = make_scenario(58, rsus=3, windows=3)
        partials = shard_partials(
            sizes, batches, shard_of=lambda rsu, _seq: rsu % 2, windows=3
        )
        collector = fresh_collector(tmp_path)
        for partial in partials:
            collector._handle(partial)
        live = collector.server.live_matrix()
        windows = {
            w: collector.server.window_matrix(window=w) for w in range(3)
        }
        collector.wal.close()

        recovered = fresh_collector()
        replayed = recovered.recover(tmp_path / "stream.wal")
        assert replayed == len(partials)
        assert recovered.server.live_matrix() == live
        for w in range(3):
            assert recovered.server.window_matrix(window=w) == windows[w]

    def test_wal_replay_dedups_against_later_uploads(self, tmp_path):
        """Recovery then redelivery of the same partials must not
        double-merge (counters would drift)."""
        sizes, batches = make_scenario(59, rsus=3, windows=3)
        partials = shard_partials(
            sizes, batches, shard_of=lambda rsu, _seq: rsu % 2, windows=3
        )
        collector = fresh_collector(tmp_path)
        for partial in partials:
            collector._handle(partial)
        collector.wal.close()

        recovered = fresh_collector(tmp_path, name="second.wal")
        recovered.recover(tmp_path / "stream.wal")
        for partial in partials:
            recovered._handle(partial)
        assert recovered.window_partials_deduped == len(partials)
        reference = stream_scenario(sizes, batches, windows=3)
        assert recovered.server.live_matrix() == reference.live_matrix()


# ----------------------------------------------------------------------
# Server query surface
# ----------------------------------------------------------------------
class TestServerSurface:
    def test_traffic_matrix_at_routes_to_streaming(self):
        sizes, batches = make_scenario(60, windows=3)
        server = make_server()
        for seq, (rsu_id, idx, window) in enumerate(batches, start=1):
            bits = BitArray(sizes[rsu_id])
            if idx.size:
                bits.set_bits(np.unique(idx))
            server.receive_window_partial(
                rsu_id,
                bits.to_bytes(),
                sizes[rsu_id],
                int(idx.size),
                window=window,
            )
        reference = stream_scenario(sizes, batches, windows=3)
        assert server.live_matrix() == reference.live_matrix()
        for w in range(3):
            assert server.traffic_matrix(at=w) == reference.matrix_at(at=w)

    def test_period_close_still_authoritative(self):
        """traffic_matrix() without at= is the batch decoder's answer
        and seals the streaming counters."""
        sizes, batches = make_scenario(61, windows=3)
        server = make_server()
        for report in reference_reports(sizes, batches):
            server.receive_report(report)
        assert server.traffic_matrix() == batch_reference(sizes, batches)
        assert server.live_matrix() == batch_reference(sizes, batches)


# ----------------------------------------------------------------------
# End to end over localhost sockets (slow tier)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestWindowedServiceEndToEnd:
    def test_windowed_loadgen_live_matches_batch(self):
        """A windowed replay through gateway+collector sockets leaves
        the collector's live matrix bit-identical to the in-process
        decode, and every window slice queryable."""
        import asyncio

        from repro.service.loadgen import run_loadgen
        from repro.service.runtime import DeploymentSpec, start_services

        spec = DeploymentSpec(total_trips=1_200, seed=13)
        windows = 2

        async def body():
            gateway, collector = await start_services(
                spec, gateway_port=0, collector_port=0, windows=windows
            )
            try:
                result = await run_loadgen(
                    spec,
                    gateway_port=gateway.port,
                    collector_port=collector.port,
                    windows=windows,
                )
                live = collector.server.live_matrix()
                sliced = {
                    w: collector.server.window_matrix(window=w)
                    for w in range(windows)
                }
                stats = {
                    "gateway_windows": gateway.windows_closed,
                    "window_uploads": gateway.window_partials_uploaded,
                    "collector_partials": collector.window_partials_received,
                }
            finally:
                await gateway.stop()
                await collector.stop()
            return result, live, sliced, stats

        result, live, sliced, stats = asyncio.run(body())
        assert result.bit_identical
        assert live == spec.reference_decoder().estimate_matrix(0)
        rsus = len(spec.scheme.rsu_ids)
        assert stats["gateway_windows"] == windows
        assert stats["window_uploads"] == windows * rsus
        assert stats["collector_partials"] == windows * rsus
        # Window counters partition the day's point volumes exactly.
        for pair in live:
            assert (
                sum(sliced[w][pair].n_x for w in range(windows))
                == live[pair].n_x
            )
            assert (
                sum(sliced[w][pair].n_y for w in range(windows))
                == live[pair].n_y
            )
