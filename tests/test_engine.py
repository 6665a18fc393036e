"""Differential and registry tests for the pluggable bit-engine.

The ``packed`` backend must agree with the ``legacy`` bool backend on
every operation, for arbitrary (not just power-of-two) sizes, and the
vectorized :meth:`~repro.core.decoder.CentralDecoder.estimate_matrix`
must reproduce the per-pair path bit for bit on a realistic workload.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.engine as engine
from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.reports import RsuReport
from repro.errors import ConfigurationError, SaturatedArrayError

BACKENDS = ("legacy", "packed")

sizes = st.integers(min_value=1, max_value=520)


def on_each_backend(build):
    """``build()`` run once inside each backend's scope."""
    built = []
    for backend in BACKENDS:
        with engine.use_backend(backend):
            built.append(build())
    return built


def pair_of_arrays(size, indices_a, indices_b):
    a = on_each_backend(
        lambda: BitArray.from_indices(size, [i % size for i in indices_a])
    )
    b = on_each_backend(
        lambda: BitArray.from_indices(size, [i % size for i in indices_b])
    )
    return a, b


class TestRegistry:
    def test_available_backends(self):
        # The builtin pair is always present; optional backends (e.g.
        # numba, registered only when importable) may extend the tuple.
        available = engine.available_backends()
        assert set(available) >= {"legacy", "packed"}
        assert available == tuple(sorted(available))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            engine.get_backend("vector512")
        with pytest.raises(ConfigurationError):
            with engine.use_backend("nope"):
                pass

    def test_instance_passthrough(self):
        backend = engine.get_backend("packed")
        assert engine.get_backend(backend) is backend

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(engine.ENV_VAR, "legacy")
        assert engine.default_backend_name() == "legacy"
        assert BitArray(8).backend == "legacy"
        monkeypatch.setenv(engine.ENV_VAR, "bogus")
        with pytest.raises(ConfigurationError):
            engine.default_backend_name()

    def test_programmatic_default_beats_env(self, monkeypatch):
        monkeypatch.setenv(engine.ENV_VAR, "legacy")
        with engine.use_backend("packed"):
            assert engine.default_backend_name() == "packed"
            assert BitArray(8).backend == "packed"
        assert engine.default_backend_name() == "legacy"

    def test_use_backend_context(self):
        before = engine.default_backend_name()
        with engine.use_backend("legacy") as backend:
            assert backend.name == "legacy"
            assert BitArray(8).backend == "legacy"
            with engine.use_backend("packed"):
                assert BitArray(8).backend == "packed"
            assert BitArray(8).backend == "legacy"
        assert engine.default_backend_name() == before

    def test_storage_density(self):
        legacy, packed = on_each_backend(lambda: BitArray(1 << 16))
        assert legacy.storage_nbytes == 8 * packed.storage_nbytes


class TestDifferential:
    """packed vs legacy on every primitive, arbitrary sizes."""

    @given(sizes, st.data())
    def test_set_bits_count_and_bytes(self, size, data):
        indices = data.draw(
            st.lists(st.integers(0, size - 1), max_size=2 * size)
        )
        legacy, packed = on_each_backend(
            lambda: BitArray.from_indices(size, indices)
        )
        assert legacy.count_ones() == packed.count_ones() == len(set(indices))
        assert legacy.count_zeros() == packed.count_zeros()
        assert legacy.to_bytes() == packed.to_bytes()
        assert np.array_equal(legacy.bits, packed.bits)
        assert legacy == packed and packed == legacy

    @given(sizes, st.data())
    def test_or_and(self, size, data):
        ia = data.draw(st.lists(st.integers(0, size - 1), max_size=size))
        ib = data.draw(st.lists(st.integers(0, size - 1), max_size=size))
        (al, ap), (bl, bp) = pair_of_arrays(size, ia, ib)
        assert (al | bl).to_bytes() == (ap | bp).to_bytes()
        assert (al & bl).to_bytes() == (ap & bp).to_bytes()
        # Mixed-backend operands coerce to the left operand's backend.
        mixed = al | bp
        assert mixed.backend == "legacy"
        assert mixed.to_bytes() == (ap | bp).to_bytes()

    @given(sizes, st.integers(min_value=1, max_value=9), st.data())
    def test_unfold_tile(self, size, repeats, data):
        indices = data.draw(st.lists(st.integers(0, size - 1), max_size=size))
        expected = np.zeros(size, dtype=bool)
        if indices:
            expected[indices] = True
        expected = np.tile(expected, repeats)
        for array in on_each_backend(
            lambda: BitArray.from_indices(size, indices)
        ):
            tiled = array.tile(repeats)
            assert tiled.size == size * repeats
            assert np.array_equal(tiled.bits, expected), array.backend
            # Zero fraction is preserved — the unfolding invariant.
            assert tiled.count_zeros() * size == array.count_zeros() * tiled.size

    @given(sizes, st.data())
    def test_bytes_round_trip_cross_backend(self, size, data):
        indices = data.draw(st.lists(st.integers(0, size - 1), max_size=size))
        with engine.use_backend("packed"):
            source = BitArray.from_indices(size, indices)
        wire = source.to_bytes()
        for restored in on_each_backend(
            lambda: BitArray.from_bytes(wire, size)
        ):
            assert restored == source
            assert restored.to_bytes() == wire

    @given(sizes, st.data())
    def test_single_bit_ops(self, size, data):
        index = data.draw(st.integers(0, size - 1))
        legacy, packed = on_each_backend(lambda: BitArray(size))
        for array in (legacy, packed):
            array.set_bit(index)
        assert legacy[index] == packed[index] == 1
        assert legacy.to_bytes() == packed.to_bytes()
        for array in (legacy, packed):
            array.clear()
        assert legacy.count_ones() == packed.count_ones() == 0

    def test_with_backend_conversion(self):
        # Arrays built under different scopes still combine: the right
        # operand is converted to the left one's backend.
        with engine.use_backend("legacy"):
            source = BitArray.from_indices(77, [0, 13, 76])
        with engine.use_backend("packed"):
            target = BitArray(77)
        target |= source
        assert target.backend == "packed"
        assert target == source
        merged = BitArray.or_reduce([target, source])
        assert merged.backend == "packed"
        assert merged == source

    def test_dense_scatter_path(self):
        # Above the sparse threshold (indices.size > size >> 8) the
        # packed backend takes the bool-scatter route; both routes must
        # agree with legacy.
        size = 1 << 12
        rng = np.random.default_rng(5)
        dense = rng.integers(0, size, size=size // 2)
        sparse = rng.integers(0, size, size=3)
        for indices in (dense, sparse):
            legacy, packed = on_each_backend(
                lambda: BitArray.from_indices(size, indices)
            )
            assert legacy.to_bytes() == packed.to_bytes()


def _loaded_decoder(*, policy="raise", k=8, seed=3):
    """A decoder holding *k* random reports on the current backend."""
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
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_all_pairs_bit_identical(self, backend):
        with engine.use_backend(backend):
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
        legacy, packed = on_each_backend(
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
    """estimate_matrix equals per-pair estimate() on a real workload."""

    @pytest.fixture(scope="class")
    def schemes(self):
        import repro

        workload = repro.get_scenario("sioux-falls").workload(
            total_trips=12_000, seed=11
        )
        built = {}
        for backend in BACKENDS:
            scheme = repro.VlmScheme(
                workload.volumes(),
                s=2,
                load_factor=3.0,
                hash_seed=7,
                policy="clamp",
            )
            with engine.use_backend(backend):
                scheme.run_period(workload.passes())
            built[backend] = scheme
        return built

    def test_wire_bytes_identical_across_backends(self, schemes):
        legacy, packed = (schemes[b].decoder for b in BACKENDS)
        for rsu_id in legacy.rsu_ids():
            assert (
                legacy.report_for(rsu_id).bits.to_bytes()
                == packed.report_for(rsu_id).bits.to_bytes()
            )

    def test_matrix_equals_per_pair(self, schemes):
        for backend in BACKENDS:
            decoder = schemes[backend].decoder
            with engine.use_backend(backend):
                matrix = decoder.estimate_matrix()
            ids = decoder.rsu_ids()
            assert len(matrix) == len(ids) * (len(ids) - 1) // 2
            for (a, b), batched in matrix.items():
                assert batched == decoder.pair_estimate(a, b), (backend, a, b)

    def test_estimates_bit_identical_across_backends(self, schemes):
        legacy, packed = (
            schemes[b].decoder.report_for(1).bits.backend for b in BACKENDS
        )
        assert (legacy, packed) == BACKENDS
        matrices = []
        for backend in BACKENDS:
            with engine.use_backend(backend):
                matrices.append(schemes[backend].decoder.estimate_matrix())
        assert matrices[0] == matrices[1]


class TestWireGolden:
    """Golden snapshot: the serialized report bytes are pinned, so a
    backend change can never silently alter the wire format."""

    def test_encode_golden_bytes(self):
        from repro.core.encoder import encode_passes
        from repro.core.parameters import SchemeParameters

        params = SchemeParameters(s=2, load_factor=3.0, m_o=64, hash_seed=9)
        ids = np.arange(40, dtype=np.uint64)
        keys = ids * np.uint64(2654435761) + np.uint64(7)
        expected = None
        for report in on_each_backend(
            lambda: encode_passes(ids, keys, 3, 64, params)
        ):
            wire = report.bits.to_bytes()
            if expected is None:
                expected = wire
            assert wire == expected
        # Pinned bytes: computed once from the seed-stable hash chain.
        assert expected.hex() == "9d23075cbe010c37"

    def test_bitarray_golden_bytes(self):
        array_bits = np.zeros(21, dtype=bool)
        array_bits[[0, 5, 8, 13, 20]] = True
        for array in on_each_backend(lambda: BitArray.from_bits(array_bits)):
            assert array.to_bytes().hex() == "848408"
