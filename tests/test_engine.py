"""The word ``BitArray`` against the bool oracle, and the all-pairs decode.

``BitArray`` keeps its bits in ``uint64`` words; ``tests/bit_oracle.py``
keeps one numpy bool per bit.  The Hypothesis battery drives both
through the same operations, for arbitrary (not just power-of-two)
sizes, and asserts equal bits, equal counts and equal bytes.  Tests
parametrized over the two kernel sets (``legacy``: the bool kernels
patched into :mod:`repro.core.bitwords`; ``packed``: the word kernels)
run the library end to end on each.  The vectorized
:meth:`~repro.core.decoder.CentralDecoder.estimate_matrix` must
reproduce the per-pair path bit for bit, and the wire goldens pin the
serialized bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.engine as engine
from repro.core import bitwords
from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.reports import RsuReport
from repro.errors import SaturatedArrayError
from tests.bit_oracle import KERNEL_SETS, BoolBits, kernels

sizes = st.integers(min_value=1, max_value=520)

#: The three unfolding granularities: whole words, whole bytes, bits.
word_sizes = st.integers(1, 8).map(lambda k: 64 * k)
byte_sizes = st.integers(1, 64).map(lambda k: 8 * k).filter(lambda m: m % 64)
odd_sizes = st.integers(1, 520).filter(lambda m: m % 8)


def _indices(data, size, max_size):
    return data.draw(st.lists(st.integers(0, size - 1), max_size=max_size))


def built(size, indices):
    """The same array as words and as the bool oracle."""
    return BitArray.from_indices(size, indices), BoolBits.from_indices(
        size, indices
    )


def assert_same(array, oracle):
    assert array.size == oracle.size
    assert array.to_bytes() == oracle.to_bytes()
    assert array.count_ones() == oracle.count_ones()
    assert array.count_zeros() == oracle.size - oracle.count_ones()
    assert np.array_equal(array.bits, oracle.bits)


def on_each_kernel_set(build):
    """``build()`` run once on each kernel set."""
    built = []
    for name in KERNEL_SETS:
        with kernels(name):
            built.append(build())
    return built


class TestRegistry:
    """The kernel sets the differential legs run on, and what is left
    of engine selection: one name, kept for the benchmark harness."""

    def test_available_backends(self):
        assert KERNEL_SETS == tuple(sorted(KERNEL_SETS))
        assert engine.default_backend_name() in KERNEL_SETS
        assert engine.__all__ == ["default_backend_name"]

    def test_unknown_backend_rejected(self):
        # The stub reports a name; it selects nothing and takes none.
        with pytest.raises(TypeError):
            engine.default_backend_name("vector512")
        with pytest.raises(ValueError):
            with kernels("vector512"):
                pass

    def test_env_override(self, monkeypatch):
        # REPRO_ENGINE is ignored: any value, valid once or never,
        # leaves the name, the storage and the bytes as they are.
        expected = BitArray.from_indices(77, [0, 13, 76])
        for value in ("legacy", "bogus"):
            monkeypatch.setenv("REPRO_ENGINE", value)
            assert engine.default_backend_name() == "packed"
            array = BitArray.from_indices(77, [0, 13, 76])
            assert array.words.dtype == np.uint64
            assert array.to_bytes() == expected.to_bytes()

    def test_use_backend_context(self):
        with kernels("legacy"):
            legacy_popcount = bitwords.popcount
            with kernels("packed"):
                assert bitwords.popcount is not legacy_popcount
                assert BitArray.from_indices(8, [1, 2]).count_ones() == 2
            assert bitwords.popcount is legacy_popcount
            assert BitArray.from_indices(8, [1, 2]).count_ones() == 2
        assert bitwords.popcount is not legacy_popcount

    def test_storage_density(self):
        # One bit per bit, against one byte per bit for bools.
        size = 1 << 16
        assert BitArray(size).storage_nbytes * 8 == BoolBits(size).bits.nbytes


class TestDifferential:
    """Every ``BitArray`` op equals the bool oracle's."""

    @given(st.integers(256, 4096), st.data())
    def test_sparse_scatter(self, size, data):
        # At most size / 256 indices: the bitwise_or.at path.
        indices = _indices(data, size, size >> 8)
        array, oracle = built(size, indices)
        assert_same(array, oracle)
        assert array.count_ones() == len(set(indices))
        # A second scatter ORs into the words, never overwrites.
        more = _indices(data, size, size >> 8)
        array.set_bits(more)
        oracle.set_bits(more)
        assert_same(array, oracle)

    @given(sizes, st.data())
    def test_dense_scatter(self, size, data):
        # More than size / 256 indices: the bool-scatter-then-pack path.
        indices = _indices(data, size, 2 * size)
        indices += [0] * ((size >> 8) + 1 - len(indices))
        array, oracle = built(size, indices)
        assert_same(array, oracle)
        more = _indices(data, size, 2 * size) + [size - 1] * ((size >> 8) + 1)
        array.set_bits(more)
        oracle.set_bits(more)
        assert_same(array, oracle)

    @given(sizes, st.data())
    def test_or_and(self, size, data):
        a, oracle_a = built(size, _indices(data, size, size))
        b, oracle_b = built(size, _indices(data, size, size))
        assert_same(a | b, oracle_a | oracle_b)
        assert_same(a & b, oracle_a & oracle_b)
        a |= b
        assert_same(a, oracle_a | oracle_b)

    @given(
        st.one_of(word_sizes, byte_sizes, odd_sizes), st.integers(1, 9), st.data()
    )
    def test_unfold_tile(self, size, repeats, data):
        array, oracle = built(size, _indices(data, size, size))
        tiled = array.tile(repeats)
        assert_same(tiled, oracle.tile(repeats))
        # Zero fraction is preserved — the unfolding invariant.
        assert tiled.count_zeros() * size == array.count_zeros() * tiled.size

    @given(sizes, st.data())
    def test_bytes_round_trip_cross_backend(self, size, data):
        array, oracle = built(size, _indices(data, size, size))
        wire = array.to_bytes()
        assert wire == oracle.to_bytes()
        for restored in on_each_kernel_set(
            lambda: BitArray.from_bytes(wire, size)
        ):
            assert restored == array
            assert_same(restored, BoolBits.from_bytes(wire, size))

    @given(sizes, st.data())
    def test_get_bits(self, size, data):
        array, oracle = built(size, _indices(data, size, size))
        probe = _indices(data, size, 2 * size)
        assert np.array_equal(array.get_bits(probe), oracle.get_bits(probe))

    @given(sizes, st.data())
    def test_getitem_wraps_like_a_sequence(self, size, data):
        array, oracle = built(size, _indices(data, size, size))
        index = data.draw(st.integers(-size, size - 1))
        assert array[index] == int(oracle.bits[index])
        assert array[np.int64(index)] == int(oracle.bits[index])

    @given(sizes, st.data())
    def test_single_bit_ops(self, size, data):
        index = data.draw(st.integers(0, size - 1))
        array = BitArray(size)
        array.set_bit(index)
        assert_same(array, BoolBits.from_indices(size, [index]))
        assert array[index] == array[index - size] == 1
        array.clear()
        assert array.count_ones() == 0

    @given(sizes, st.data())
    def test_set_bits_count_and_bytes(self, size, data):
        indices = _indices(data, size, 2 * size)
        oracle = BoolBits.from_indices(size, indices)
        for array in on_each_kernel_set(
            lambda: BitArray.from_indices(size, indices)
        ):
            assert_same(array, oracle)
            assert array.count_ones() == len(set(indices))

    def test_dense_scatter_path(self):
        # Above the sparse threshold (indices.size > size >> 8) the
        # words take the bool-scatter route; both routes must agree
        # with the oracle.
        size = 1 << 12
        rng = np.random.default_rng(5)
        dense = rng.integers(0, size, size=size // 2)
        sparse = rng.integers(0, size, size=3)
        for indices in (dense, sparse):
            array, oracle = built(size, indices)
            assert_same(array, oracle)

    def test_with_backend_conversion(self):
        # Arrays built on either kernel set are the same words and
        # combine freely.
        with kernels("legacy"):
            source = BitArray.from_indices(77, [0, 13, 76])
        with kernels("packed"):
            target = BitArray(77)
        target |= source
        assert target == source
        assert BitArray.or_reduce([target, source]) == source
        assert_same(target, BoolBits.from_indices(77, [0, 13, 76]))


def _loaded_decoder(*, policy="raise", k=8, seed=3):
    """A decoder holding *k* random reports."""
    rng = np.random.default_rng(seed)
    decoder = CentralDecoder(2, policy=policy)
    for rsu_id in range(1, k + 1):
        size = 1 << (6 + rsu_id % 4)
        bits = rng.random(size) < 0.35
        decoder.submit(
            RsuReport(rsu_id, int(bits.sum()), BitArray.from_bits(bits))
        )
    return decoder


class TestEstimateMatrix:
    @pytest.mark.parametrize("backend", KERNEL_SETS)
    def test_matches_all_pairs_bit_identical(self, backend):
        with kernels(backend):
            decoder = _loaded_decoder()
            scalar = decoder.all_pairs()
            batched = decoder.estimate_matrix()
        assert set(scalar) == set(batched)
        for key in scalar:
            # PairEstimate is a frozen dataclass: == compares every
            # field (value, v_c, v_x, v_y, m_x, m_y, n_x, n_y, s)
            # exactly — no approx.
            assert scalar[key] == batched[key], key

    def test_backends_agree(self):
        legacy, packed = on_each_kernel_set(
            lambda: _loaded_decoder().estimate_matrix()
        )
        assert legacy == packed

    def test_empty_and_single(self):
        decoder = CentralDecoder(2)
        assert decoder.estimate_matrix() == {}
        decoder.submit(RsuReport(1, 2, BitArray.from_indices(8, [1, 2])))
        assert decoder.estimate_matrix() == {}

    def test_rsu_subset(self):
        decoder = _loaded_decoder()
        subset = decoder.estimate_matrix(rsu_ids=[1, 3, 5])
        assert set(subset) == {(1, 3), (1, 5), (3, 5)}
        assert subset[(1, 3)] == decoder.pair_estimate(1, 3)

    def test_saturated_raises(self):
        decoder = CentralDecoder(2, policy="raise")
        for rsu_id in (1, 2):
            decoder.submit(
                RsuReport(
                    rsu_id, 8, BitArray.from_indices(8, range(8))
                )
            )
        with pytest.raises(SaturatedArrayError):
            decoder.estimate_matrix()

    def test_saturated_clamp_matches_scalar(self):
        decoder = CentralDecoder(2, policy="clamp")
        ref = CentralDecoder(2, policy="clamp")
        for d in (decoder, ref):
            d.submit(RsuReport(1, 8, BitArray.from_indices(8, range(8))))
            d.submit(
                RsuReport(2, 20, BitArray.from_indices(32, range(0, 32, 2)))
            )
        assert decoder.estimate_matrix() == {
            (1, 2): ref.pair_estimate(1, 2)
        }

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_matrix_identity_random_loads(self, seed):
        decoder = _loaded_decoder(policy="clamp", k=5, seed=seed)
        assert decoder.estimate_matrix() == decoder.all_pairs()


class TestSiouxFallsPeriod:
    """A real day: every report equals the oracle's scatter of the same
    hashed indices, estimate_matrix equals per-pair estimate(), and the
    day encoded and decoded on the bool kernels equals it bit for bit."""

    @staticmethod
    def _run_day(name):
        import repro

        workload = repro.get_scenario("sioux-falls").workload(
            total_trips=12_000, seed=11
        )
        scheme = repro.VlmScheme(
            workload.volumes(),
            s=2,
            load_factor=3.0,
            hash_seed=7,
            policy="clamp",
        )
        passes = workload.passes()
        with kernels(name):
            scheme.run_period(passes)
        return scheme, passes

    @pytest.fixture(scope="class")
    def day(self):
        return self._run_day("packed")

    @pytest.fixture(scope="class")
    def schemes(self, day):
        """The same day, encoded once more on the bool kernels."""
        legacy, _ = self._run_day("legacy")
        return {"legacy": legacy, "packed": day[0]}

    def test_reports_equal_the_oracle_scatter(self, day):
        from repro.hashing.logical_bitarray import select_indices

        scheme, passes = day
        params = scheme.params
        for rsu_id, (ids, keys) in passes.items():
            size = scheme.array_size(rsu_id)
            logical = select_indices(
                np.asarray(ids, dtype=np.uint64),
                np.asarray(keys, dtype=np.uint64),
                rsu_id,
                params.salts,
                params.m_o,
                seed=params.hash_seed,
            )
            oracle = BoolBits.from_indices(size, logical % size)
            report = scheme.decoder.report_for(rsu_id)
            assert report.bits.to_bytes() == oracle.to_bytes(), rsu_id

    def test_matrix_equals_per_pair(self, day):
        scheme, _ = day
        decoder = scheme.decoder
        matrix = decoder.estimate_matrix()
        ids = decoder.rsu_ids()
        assert len(matrix) == len(ids) * (len(ids) - 1) // 2
        for (a, b), batched in matrix.items():
            assert batched == decoder.pair_estimate(a, b), (a, b)

    def test_wire_bytes_identical_across_backends(self, schemes):
        legacy, packed = (schemes[name].decoder for name in KERNEL_SETS)
        assert legacy.rsu_ids() == packed.rsu_ids()
        for rsu_id in legacy.rsu_ids():
            assert (
                legacy.report_for(rsu_id).bits.to_bytes()
                == packed.report_for(rsu_id).bits.to_bytes()
            ), rsu_id

    def test_estimates_bit_identical_across_backends(self, schemes):
        matrices = []
        for name in KERNEL_SETS:
            with kernels(name):
                matrices.append(schemes[name].decoder.estimate_matrix())
        assert matrices[0] == matrices[1]


class TestWireGolden:
    """Golden snapshot: the serialized report bytes are pinned, so a
    storage change can never silently alter the wire format."""

    def test_encode_golden_bytes(self):
        from repro.core.encoder import encode_passes
        from repro.core.parameters import SchemeParameters

        params = SchemeParameters(s=2, load_factor=3.0, m_o=64, hash_seed=9)
        ids = np.arange(40, dtype=np.uint64)
        keys = ids * np.uint64(2654435761) + np.uint64(7)
        report = encode_passes(ids, keys, 3, 64, params)
        # Pinned bytes: computed once from the seed-stable hash chain.
        assert report.bits.to_bytes().hex() == "9d23075cbe010c37"

    def test_bitarray_golden_bytes(self):
        array_bits = np.zeros(21, dtype=bool)
        array_bits[[0, 5, 8, 13, 20]] = True
        assert BitArray.from_bits(array_bits).to_bytes().hex() == "848408"
        assert BoolBits(21, array_bits).to_bytes().hex() == "848408"
