"""Differential battery for the streaming tier's period-close seal.

``observe_report`` and ``ingest_partial`` OR a whole array into the
running state and recount each of its pairs with word operations.
Every step of a random day must leave ``joint_zeros()`` equal to both
the per-bit gather the seal used to run (``tests/streaming_oracle.py``)
and a brute-force unfold + OR + count, and the live matrix equal to a
batch decode of the same arrays, key order included, on both kernel
sets (the word kernels and the bool oracle's, ``tests/bit_oracle.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.estimator import ZeroFractionPolicy
from repro.core.reports import RsuReport
from repro.errors import SaturatedArrayError
from repro.obs import MetricsRegistry
from repro.streaming import StreamingDecoder
from tests.bit_oracle import KERNEL_SETS, kernels
from tests.streaming_oracle import GatherOracle, tiled_joint_zeros

MODES = ["seal-only", "stream-then-seal", "partials", "resize"]


def random_day(seed, mode):
    """Operations for one period: index batches, window partials and
    period-close reports, in a random order derived from *seed*.

    Sizes are powers of two from 8 bits up with tile ratios up to 16;
    in ``resize`` mode some RSUs seal at a size other than the one
    they streamed at.
    """
    rng = np.random.default_rng(seed)
    base = int(rng.integers(3, 9))
    sizes = {
        rsu_id: 1 << (base + int(rng.integers(0, 5)))
        for rsu_id in range(1, int(rng.integers(2, 6)) + 1)
    }
    streamed = []
    if mode != "seal-only":
        for rsu_id, size in sizes.items():
            for _ in range(int(rng.integers(0, 4))):
                window = int(rng.integers(0, 2))
                if mode == "partials" and rng.random() < 0.6:
                    bits = rng.random(size) < rng.uniform(0.0, 0.5)
                    counter = int(bits.sum()) + int(rng.integers(0, 3))
                    streamed.append(("partial", rsu_id, bits, counter, window))
                else:
                    count = int(rng.integers(0, 2 * size))
                    idx = rng.integers(0, size, size=count, dtype=np.int64)
                    streamed.append(("ingest", rsu_id, idx, window))
        rng.shuffle(streamed)
    seals = []
    for rsu_id, size in sizes.items():
        if mode == "resize" and rng.random() < 0.5:
            size = size * 2 if rng.random() < 0.5 or size == 8 else size // 2
        bits = rng.random(size) < rng.choice([0.0, 0.2, 0.6, 1.0])
        seals.append(("seal", rsu_id, size, bits, int(bits.sum())))
    order = rng.permutation(len(seals))
    return sizes, streamed + [seals[i] for i in order]


def apply(op, decoder, oracle, sizes):
    """Run one operation on both sides; return (decoder, oracle) newly
    set bit counts."""
    kind, rsu_id = op[0], op[1]
    if kind == "ingest":
        _, _, idx, window = op
        if rsu_id not in oracle.arrays:
            oracle.start(rsu_id, sizes[rsu_id])
        bits = np.zeros(sizes[rsu_id], dtype=bool)
        bits[idx] = True
        got = decoder.ingest(rsu_id, idx, window=window, size=sizes[rsu_id])
        return got, oracle.merge(rsu_id, bits)
    if kind == "partial":
        _, _, bits, counter, window = op
        if rsu_id not in oracle.arrays:
            oracle.start(rsu_id, bits.size)
        got = decoder.ingest_partial(
            rsu_id,
            BitArray.from_bits(bits).to_bytes(),
            bits.size,
            counter,
            window=window,
        )
        return got, oracle.merge(rsu_id, bits)
    _, _, size, bits, counter = op
    current = oracle.arrays.get(rsu_id)
    if current is None or current.size != size:
        oracle.start(rsu_id, size)
    report = RsuReport(
        rsu_id=rsu_id,
        counter=counter,
        bits=BitArray.from_bits(bits),
        period=0,
    )
    return decoder.observe_report(report), oracle.merge(rsu_id, bits)


def batch_matrix(decoder, oracle):
    """A batch decode of the oracle's arrays with the decoder's
    counters."""
    batch = CentralDecoder(2, policy=ZeroFractionPolicy.CLAMP)
    for rsu_id, bits in oracle.arrays.items():
        batch.submit(
            RsuReport(
                rsu_id=rsu_id,
                counter=decoder.counter(rsu_id),
                bits=BitArray.from_bits(bits),
                period=0,
            )
        )
    return batch.estimate_matrix(0)


class TestSealDifferential:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        mode=st.sampled_from(MODES),
        engine=st.sampled_from(KERNEL_SETS),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_step_matches_the_gather_oracle(self, seed, mode, engine):
        sizes, ops = random_day(seed, mode)
        with kernels(engine):
            decoder = StreamingDecoder(
                s=2,
                policy=ZeroFractionPolicy.CLAMP,
                windows=2,
                registry=MetricsRegistry(),
            )
            oracle = GatherOracle()
            for op in ops:
                got, expected = apply(op, decoder, oracle, sizes)
                assert got == expected
                assert decoder.joint_zeros() == oracle.pairs
                assert oracle.pairs == tiled_joint_zeros(oracle.arrays)
            live = decoder.live_matrix()
            assert list(live.items()) == list(
                batch_matrix(decoder, oracle).items()
            )

    @pytest.mark.parametrize("engine", KERNEL_SETS)
    @pytest.mark.parametrize("peer_size", [16, 128])
    def test_many_smaller_peers(self, engine, peer_size):
        """More same-size smaller peers than tile repeats, at a word
        size and below one word."""
        rng = np.random.default_rng(peer_size)
        sizes = {rsu_id: peer_size for rsu_id in range(1, 7)}
        sizes[7] = 2 * peer_size
        sizes[8] = 16 * peer_size
        decoder = StreamingDecoder(
            s=2, policy="clamp", registry=MetricsRegistry()
        )
        oracle = GatherOracle()
        with kernels(engine):
            for rsu_id, size in sizes.items():
                bits = rng.random(size) < 0.4
                op = ("seal", rsu_id, size, bits, int(bits.sum()))
                apply(op, decoder, oracle, sizes)
            for rsu_id in (7, 8):  # re-seal the larger arrays with more bits
                bits = rng.random(sizes[rsu_id]) < 0.6
                op = ("seal", rsu_id, sizes[rsu_id], bits, int(bits.sum()))
                apply(op, decoder, oracle, sizes)
                assert decoder.joint_zeros() == oracle.pairs
        assert oracle.pairs == tiled_joint_zeros(oracle.arrays)

    @pytest.mark.parametrize("engine", KERNEL_SETS)
    def test_resealing_the_same_report_changes_nothing(self, engine):
        sizes, ops = random_day(5, "seal-only")
        decoder = StreamingDecoder(
            s=2, policy="clamp", registry=MetricsRegistry()
        )
        oracle = GatherOracle()
        with kernels(engine):
            for op in ops:
                apply(op, decoder, oracle, sizes)
            before = decoder.joint_zeros()
            for op in ops:
                got, _ = apply(op, decoder, oracle, sizes)
                assert got == 0
        assert decoder.joint_zeros() == before


class TestLiveMatrixSaturation:
    def _decoder(self, policy):
        decoder = StreamingDecoder(
            s=2, policy=policy, registry=MetricsRegistry()
        )
        full = np.ones(16, dtype=bool)
        half = np.zeros(16, dtype=bool)
        half[:8] = True
        for rsu_id, bits in ((1, half), (2, ~half), (3, full)):
            decoder.observe_report(
                RsuReport(rsu_id, 8, BitArray.from_bits(bits), period=0)
            )
        return decoder

    def test_raise_names_the_first_saturated_pair(self):
        """Pairs (1, 2), (1, 3) and (2, 3) all have saturated joints,
        but RSU 3 alone is saturated too: its own fraction is checked
        first, exactly as the batch decoder does."""
        decoder = self._decoder("raise")
        with pytest.raises(SaturatedArrayError, match="size 16"):
            decoder.live_matrix()

    def test_raise_on_joint_saturation_matches_batch(self):
        decoder = StreamingDecoder(s=2, policy="raise", registry=MetricsRegistry())
        batch = CentralDecoder(2, policy="raise")
        half = np.zeros(16, dtype=bool)
        half[:8] = True
        other = half.copy()
        other[4] = False
        for rsu_id, bits in ((1, half), (2, other), (3, ~half)):
            report = RsuReport(rsu_id, 8, BitArray.from_bits(bits), period=0)
            decoder.observe_report(report)
            batch.submit(report)
        with pytest.raises(SaturatedArrayError) as live_error:
            decoder.live_matrix()
        with pytest.raises(SaturatedArrayError) as batch_error:
            batch.estimate_matrix()
        assert str(live_error.value) == str(batch_error.value)
        assert "(1, 3)" in str(live_error.value)

    def test_clamp_substitutes_half_a_zero(self):
        decoder = self._decoder("clamp")
        matrix = decoder.live_matrix()
        assert matrix[(1, 2)].v_c == 0.5 / 16
        assert list(matrix) == [(1, 2), (1, 3), (2, 3)]
