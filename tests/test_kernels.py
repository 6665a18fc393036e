"""The word kernels of :mod:`repro.core.bitwords` against the bool oracle.

The encoder's scatter, the decoder's joint-zero and pairwise-OR counts,
streaming's window merges and federation's CRDT join all run on these
functions over raw ``uint64`` word vectors.  The Hypothesis battery
holds each one to exact agreement with ``tests/bit_oracle.py``, on the
``np.bitwise_count`` popcount and on the byte lookup table that numpy
< 2.0 installs use.  The ``BitArray`` entry points the kernels back
then run on both kernel sets (``legacy``: the bool kernels patched into
``bitwords``; ``packed``: the word kernels), which must agree bit for
bit; ``tests/test_engine.py`` runs a full Sioux Falls period on both.
"""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.engine as engine
from repro.core import bitwords
from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.encoder import RsuState
from repro.core.reports import RsuReport
from repro.errors import ConfigurationError
from repro.streaming import StreamingDecoder
from tests import bit_oracle
from tests.bit_oracle import (
    KERNEL_SETS,
    POPCOUNT_PATHS,
    BoolBits,
    kernels,
    popcount_path,
)

sizes = st.integers(min_value=1, max_value=520)


def _indices(data, size, max_factor=2):
    drawn = data.draw(
        st.lists(st.integers(0, size - 1), max_size=max_factor * size)
    )
    return np.asarray(drawn, dtype=np.int64)


def _filled(size, indices):
    """The same contents as words and as the bool oracle."""
    words = bitwords.zeros(size)
    if indices.size:
        bitwords.set_bits(words, size, indices)
    return words, BoolBits.from_indices(size, indices)


# ----------------------------------------------------------------------
# The kernel sets: what the legacy leg swaps, and that the library
# reaches the swapped kernels
# ----------------------------------------------------------------------
class TestKernelRegistry:
    def test_every_backend_has_a_table(self):
        # Every bitwords function is either a shared layout codec or a
        # kernel with a bool twin, so no kernel escapes the oracle.
        assert set(bitwords.__all__) == set(bit_oracle.LEGACY_KERNELS) | set(
            bit_oracle.CODECS
        )
        assert set(bit_oracle.PACKED_KERNELS) == set(bit_oracle.LEGACY_KERNELS)
        for name, function in bit_oracle.PACKED_KERNELS.items():
            assert function is getattr(bitwords, name)

    def test_resolution_paths(self):
        # BitArray, the decoder and streaming look each kernel up on
        # the module at call time, so the legacy leg really runs the
        # bool versions end to end.
        called = set()

        def spy(name, function):
            def wrapper(*args, **kwargs):
                called.add(name)
                return function(*args, **kwargs)

            return wrapper

        rng = np.random.default_rng(3)
        with kernels("legacy"), mock.patch.multiple(
            bitwords,
            **{
                name: spy(name, function)
                for name, function in bit_oracle.LEGACY_KERNELS.items()
            },
        ):
            decoder = CentralDecoder(2, policy="clamp")
            for rsu_id, size in ((1, 64), (2, 128), (3, 32)):
                bits = BitArray.from_indices(size, rng.integers(0, size, 9))
                bits.set_bit(0)
                decoder.submit(RsuReport(rsu_id, 9, bits))
            decoder.pair_estimate(1, 2)
            decoder.estimate_matrix()
            stream = StreamingDecoder(2, policy="clamp")
            for rsu_id in (1, 2, 3):
                stream.observe_report(decoder.report_for(rsu_id))
            merged = BitArray.or_reduce([bits, bits.fold(16).tile(2)])
            merged.or_bytes(merged.to_bytes())
            BitArray.from_bytes(merged.to_bytes(), merged.size)
            merged.get_bits([0, 1])
            assert merged[0] == 1
        assert called == set(bit_oracle.LEGACY_KERNELS)

    def test_unknown_backend_rejected(self):
        for name in ("vector512", "numba", "bool"):
            with pytest.raises(ValueError):
                with kernels(name):
                    pass

    def test_with_overrides_swaps_one_op(self):
        # The legacy set swaps each kernel and leaves the codecs; on
        # exit every original is back.
        codecs = {name: getattr(bitwords, name) for name in bit_oracle.CODECS}
        with kernels("legacy"):
            for name, function in bit_oracle.LEGACY_KERNELS.items():
                assert getattr(bitwords, name) is function
            for name, function in codecs.items():
                assert getattr(bitwords, name) is function
        for name, function in bit_oracle.PACKED_KERNELS.items():
            assert getattr(bitwords, name) is function

    def test_numba_gate_is_honest(self):
        from repro.engine import numba_backend

        # The numba backend is deleted; the flag stays for the
        # benchmark harness and says so truthfully.
        assert numba_backend.HAVE_NUMBA is False
        public = {name for name in vars(numba_backend) if not name.startswith("_")}
        assert public == {"HAVE_NUMBA"}
        assert "numba" not in KERNEL_SETS
        assert "numba" not in sys.modules
        assert engine.default_backend_name() == "packed"


# ----------------------------------------------------------------------
# Differential battery: every word kernel vs the bool oracle
# ----------------------------------------------------------------------
class TestKernelDifferential:
    @given(sizes, st.data())
    @settings(max_examples=60, deadline=None)
    def test_set_bits_and_popcount(self, size, data):
        words, oracle = _filled(size, _indices(data, size))
        assert bitwords.to_bytes(words, size) == oracle.to_bytes()
        assert np.array_equal(bitwords.to_bool(words, size), oracle.bits)
        assert bitwords.popcount(words) == oracle.count_ones()

    @given(sizes, st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_or_reduce(self, size, arrays, data):
        filled = [_filled(size, _indices(data, size, 1)) for _ in range(arrays)]
        inputs = [words.copy() for words, _ in filled]
        merged = bitwords.or_reduce(inputs, size)
        expected = bit_oracle.or_reduce([oracle for _, oracle in filled], size)
        assert bitwords.to_bytes(merged, size) == expected.to_bytes()
        # Inputs must not be mutated by the reduction.
        for words, (original, _) in zip(inputs, filled):
            assert np.array_equal(words, original)

    @given(st.integers(1, 40), st.integers(1, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_unfold(self, units, repeats, data):
        # Whole words tile as words, whole bytes as bytes, the rest
        # through bools: each path against the oracle.
        for multiple in (64, 8, 1):
            size = units * multiple
            if multiple != 64 and size % (8 * multiple) == 0:
                size += multiple
            words, oracle = _filled(size, _indices(data, size, 1))
            unfolded = bitwords.unfold(words, size, repeats)
            assert (
                bitwords.to_bytes(unfolded, size * repeats)
                == oracle.tile(repeats).to_bytes()
            ), size

    @given(sizes, st.data())
    @settings(max_examples=60, deadline=None)
    def test_or_bytes(self, size, data):
        words, oracle = _filled(size, _indices(data, size, 1))
        _, incoming = _filled(size, _indices(data, size, 1))
        bitwords.or_bytes(words, size, incoming.to_bytes())
        oracle.or_bytes(incoming.to_bytes())
        assert bitwords.to_bytes(words, size) == oracle.to_bytes()

    @given(sizes, st.data())
    @settings(max_examples=60, deadline=None)
    def test_get_bits(self, size, data):
        words, oracle = _filled(size, _indices(data, size, 1))
        probe = _indices(data, size)
        assert np.array_equal(
            bitwords.get_bits(words, probe), oracle.get_bits(probe)
        )
        for index in probe[:8].tolist():
            assert bitwords.get_bit(words, index) == int(oracle.bits[index])

    @given(sizes, st.data())
    @settings(max_examples=40, deadline=None)
    def test_joint_zero_counts(self, size, data):
        a, oracle_a = _filled(size, _indices(data, size, 1))
        b, oracle_b = _filled(size, _indices(data, size, 1))
        for lookup_table in POPCOUNT_PATHS:
            with popcount_path(lookup_table):
                ones = bitwords.popcount(a)
                zeros = bitwords.joint_zero_counts(a, size, b, size)
            assert ones == oracle_a.count_ones(), lookup_table
            assert zeros == bit_oracle.joint_zero_counts(
                oracle_a, oracle_b
            ), lookup_table

    @given(st.integers(3, 12), st.integers(3, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_tiled_joint_zero_counts(self, one, other, data):
        # Every pair of power-of-two sizes from 8 bits (below one word,
        # so unfolded) to 2^12, at every ratio from 1 to 2^9.
        small_size, large_size = 1 << min(one, other), 1 << max(one, other)
        small, oracle_small = _filled(small_size, _indices(data, small_size, 1))
        large, oracle_large = _filled(large_size, _indices(data, large_size, 1))
        expected = bit_oracle.joint_zero_counts(oracle_small, oracle_large)
        for lookup_table in POPCOUNT_PATHS:
            with popcount_path(lookup_table):
                zeros = bitwords.joint_zero_counts(
                    small, small_size, large, large_size
                )
            assert zeros == expected, lookup_table

    @given(sizes, st.integers(1, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_pairwise_or_popcount(self, size, rows, data):
        row, oracle_row = _filled(size, _indices(data, size, 1))
        others = [_filled(size, _indices(data, size, 1)) for _ in range(rows)]
        expected = bit_oracle.pairwise_or_popcount(
            oracle_row, [oracle for _, oracle in others]
        )
        stack = np.stack([words for words, _ in others])
        scratch = (
            np.empty(stack.size, dtype=np.uint64),
            np.empty(stack.size, dtype=np.uint8),
        )
        for lookup_table in POPCOUNT_PATHS:
            with popcount_path(lookup_table):
                counts = bitwords.pairwise_or_popcount(row, stack, scratch)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, expected), lookup_table

    @given(
        st.integers(1, 8), st.sampled_from([1, 2, 4, 8]), st.integers(1, 5), st.data()
    )
    @settings(max_examples=40, deadline=None)
    def test_pairwise_or_popcount_tiles_a_narrow_row(
        self, words, repeats, rows, data
    ):
        """A row of a divisor of the stack's width is its Eq. (3)
        tiling; scratch longer than the stack is used in part."""
        small, large = 64 * words, 64 * words * repeats
        row, oracle_row = _filled(small, _indices(data, small, 1))
        others = [_filled(large, _indices(data, large, 1)) for _ in range(rows)]
        expected = bit_oracle.pairwise_or_popcount(
            oracle_row.tile(repeats), [oracle for _, oracle in others]
        )
        stack = np.stack([words for words, _ in others])
        scratch = (
            np.empty(stack.size + 3, dtype=np.uint64),
            np.empty(stack.size + 5, dtype=np.uint8),
        )
        for lookup_table in POPCOUNT_PATHS:
            with popcount_path(lookup_table):
                counts = bitwords.pairwise_or_popcount(row, stack, scratch)
            assert np.array_equal(counts, expected), lookup_table


# ----------------------------------------------------------------------
# BitArray-level entry points the kernels back
# ----------------------------------------------------------------------
class TestBitArrayKernelSurface:
    @pytest.mark.parametrize("backend", KERNEL_SETS)
    def test_set_bits_unchecked_matches_set_bits(self, backend):
        rng = np.random.default_rng(5)
        indices = rng.integers(0, 300, size=64).astype(np.int64)
        with kernels(backend):
            checked = BitArray(300)
            trusted = BitArray(300)
            checked.set_bits(indices)
            trusted.set_bits_unchecked(indices)
            trusted.set_bits_unchecked(indices[:0])  # empty batch is a no-op
        assert checked == trusted
        assert checked.to_bytes() == trusted.to_bytes()
        assert checked.to_bytes() == BoolBits.from_indices(300, indices).to_bytes()

    @pytest.mark.parametrize("backend", KERNEL_SETS)
    def test_or_reduce_equals_pairwise_or(self, backend):
        rng = np.random.default_rng(7)
        with kernels(backend):
            arrays = [
                BitArray.from_indices(96, rng.integers(0, 96, size=20))
                for _ in range(5)
            ]
            merged = BitArray.or_reduce(arrays)
            expected = arrays[0]
            for other in arrays[1:]:
                expected = expected | other
        assert merged == expected

    def test_or_reduce_empty_and_mismatched(self):
        with pytest.raises(ConfigurationError):
            BitArray.or_reduce([])
        empty = BitArray.or_reduce([], size=32)
        assert empty.size == 32 and empty.count_ones() == 0
        with pytest.raises(ConfigurationError):
            BitArray.or_reduce(
                [BitArray(32), BitArray(64)],
            )
        with pytest.raises(ConfigurationError):
            BitArray.or_reduce([BitArray(32)], size=64)

    def test_or_reduce_converts_mixed_backends(self):
        # Arrays built on different kernel sets are the same words:
        # they merge in either order, on either set.
        with kernels("legacy"):
            a = BitArray.from_indices(40, [1, 7])
        with kernels("packed"):
            b = BitArray.from_indices(40, [7, 31])
        for name in KERNEL_SETS:
            for arrays in ([b, a], [a, b]):
                with kernels(name):
                    merged = BitArray.or_reduce(arrays)
                assert sorted(np.flatnonzero(merged.bits).tolist()) == [1, 7, 31]

    @pytest.mark.parametrize("backend", KERNEL_SETS)
    def test_record_trusted_matches_record_many(self, backend):
        rng = np.random.default_rng(11)
        indices = rng.integers(0, 128, size=50).astype(np.int64)
        with kernels(backend):
            checked = RsuState(rsu_id=1, array_size=128)
            trusted = RsuState(rsu_id=1, array_size=128)
            checked.record_many(indices)
            trusted.record_trusted(indices)
        assert checked.counter == trusted.counter == 50
        assert checked.bits == trusted.bits
