"""The kernel dispatch layer: registry contract and a differential
battery proving every registered backend bit-identical on all six ops.

:mod:`repro.engine.kernels` is the single hot-path surface — the
encoder's scatter, the decoder's joint-zero and pairwise-OR counts,
streaming's window merges, and federation's CRDT join all dispatch
through one :class:`~repro.engine.kernels.KernelTable` per backend.
These tests run the whole battery over ``engine.available_backends()``
(so an optional backend like numba is swept automatically when its
import gate opens), with the ``legacy`` bool backend as the oracle,
and finish with a full Sioux Falls period whose wire bytes and
estimates must agree across every backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.engine as engine
from repro.core.bitarray import BitArray
from repro.core.encoder import RsuState
from repro.engine import kernels
from repro.errors import ConfigurationError

ALL_BACKENDS = engine.available_backends()
ORACLE = "legacy"

sizes = st.integers(min_value=1, max_value=520)


def _indices(data, size, max_factor=2):
    drawn = data.draw(
        st.lists(st.integers(0, size - 1), max_size=max_factor * size)
    )
    return np.asarray(drawn, dtype=np.int64)


def _filled(backend_name, size, indices):
    backend = engine.get_backend(backend_name)
    storage = backend.zeros(size)
    if indices.size:
        kernels.get_kernels(backend_name).set_bits(storage, size, indices)
    return backend, storage


# ----------------------------------------------------------------------
# Registry and dispatch contract
# ----------------------------------------------------------------------
class TestKernelRegistry:
    def test_every_backend_has_a_table(self):
        assert kernels.registered_kernels() == ALL_BACKENDS
        for name in ALL_BACKENDS:
            table = kernels.get_kernels(name)
            assert table.backend == name
            assert set(table.ops()) == set(kernels.KERNEL_OPS)

    def test_resolution_paths(self):
        table = kernels.get_kernels("packed")
        assert kernels.get_kernels(table) is table
        assert kernels.get_kernels(engine.get_backend("packed")) is table
        assert kernels.get_kernels(None).backend == engine.default_backend_name()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            kernels.get_kernels("vector512")

    def test_with_overrides_rejects_unknown_op(self):
        table = kernels.get_kernels("packed")
        with pytest.raises(ConfigurationError):
            table.with_overrides(frobnicate=lambda: None)

    def test_with_overrides_swaps_one_op(self):
        table = kernels.get_kernels("packed")
        patched = table.with_overrides(popcount=lambda s, n: 42)
        assert patched.popcount(None, 0) == 42
        assert patched.set_bits is table.set_bits
        # The registered table is untouched.
        assert kernels.get_kernels("packed") is table

    def test_duplicate_registration_rejected(self):
        table = kernels.get_kernels("packed")
        with pytest.raises(ConfigurationError):
            kernels.register_kernels(table)
        kernels.register_kernels(table, replace=True)
        assert kernels.get_kernels("packed") is table

    def test_register_backend_validates(self):
        with pytest.raises(ConfigurationError):
            engine.register_backend(object())
        packed = engine.get_backend("packed")
        with pytest.raises(ConfigurationError):
            engine.register_backend(packed)
        with pytest.raises(ConfigurationError):
            engine.register_backend(
                packed,
                kernel_table=kernels.get_kernels("legacy"),
                replace=True,
            )
        # Replacing with itself is a no-op that must keep the registry
        # consistent.
        engine.register_backend(packed, replace=True)
        assert engine.get_backend("packed") is packed
        assert kernels.get_kernels("packed").backend == "packed"

    def test_numba_gate_is_honest(self):
        from repro.engine import numba_backend

        if numba_backend.HAVE_NUMBA:  # pragma: no cover - numba CI leg
            assert "numba" in ALL_BACKENDS
            assert numba_backend.NumbaWordBackend is not None
        else:
            assert "numba" not in ALL_BACKENDS
            assert numba_backend.NumbaWordBackend is None
            with pytest.raises(ImportError):
                numba_backend.kernel_table(engine.get_backend("packed"))


# ----------------------------------------------------------------------
# Differential battery: every registered backend vs the legacy oracle
# ----------------------------------------------------------------------
class TestKernelDifferential:
    """All six ops, arbitrary sizes, every registered backend."""

    @given(sizes, st.data())
    @settings(max_examples=60, deadline=None)
    def test_set_bits_and_popcount(self, size, data):
        indices = _indices(data, size)
        reference = None
        for name in ALL_BACKENDS:
            backend, storage = _filled(name, size, indices)
            as_bytes = backend.to_bytes(storage, size)
            if reference is None:
                reference = as_bytes
            assert as_bytes == reference, name
            count = kernels.get_kernels(name).popcount(storage, size)
            assert count == len(set(indices.tolist())), name

    @given(sizes, st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_or_reduce(self, size, arrays, data):
        index_sets = [_indices(data, size, 1) for _ in range(arrays)]
        union = set()
        for idx in index_sets:
            union.update(idx.tolist())
        reference = None
        for name in ALL_BACKENDS:
            backend = engine.get_backend(name)
            storages = [_filled(name, size, idx)[1] for idx in index_sets]
            table = kernels.get_kernels(name)
            merged = table.or_reduce(storages, size)
            as_bytes = backend.to_bytes(merged, size)
            if reference is None:
                reference = as_bytes
            assert as_bytes == reference, name
            assert table.popcount(merged, size) == len(union), name
            # Inputs must not be mutated by the reduction.
            for storage, idx in zip(storages, index_sets):
                assert table.popcount(storage, size) == len(
                    set(idx.tolist())
                ), name

    @given(sizes, st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unfold(self, size, repeats, data):
        indices = _indices(data, size, 1)
        expected = np.zeros(size, dtype=bool)
        expected[indices] = True
        expected = np.tile(expected, repeats)
        reference = None
        for name in ALL_BACKENDS:
            backend, storage = _filled(name, size, indices)
            unfolded = kernels.get_kernels(name).unfold(
                storage, size, repeats
            )
            as_bytes = backend.to_bytes(unfolded, size * repeats)
            if reference is None:
                reference = as_bytes
            assert as_bytes == reference, name
            assert np.array_equal(
                backend.to_bool(unfolded, size * repeats), expected
            ), name

    @given(sizes, st.data())
    @settings(max_examples=60, deadline=None)
    def test_joint_zero_counts(self, size, data):
        ia, ib = _indices(data, size, 1), _indices(data, size, 1)
        expected = size - len(set(ia.tolist()) | set(ib.tolist()))
        for name in ALL_BACKENDS:
            _, a = _filled(name, size, ia)
            _, b = _filled(name, size, ib)
            zeros = kernels.get_kernels(name).joint_zero_counts(a, b, size)
            assert zeros == expected, name

    @given(sizes, st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pairwise_or_popcount(self, size, rows, data):
        row_idx = _indices(data, size, 1)
        other_idx = [_indices(data, size, 1) for _ in range(rows)]
        expected = np.asarray(
            [
                len(set(row_idx.tolist()) | set(idx.tolist()))
                for idx in other_idx
            ],
            dtype=np.int64,
        )
        for name in ALL_BACKENDS:
            backend, row = _filled(name, size, row_idx)
            stacked = backend.stack(
                [_filled(name, size, idx)[1] for idx in other_idx], size
            )
            counts = kernels.get_kernels(name).pairwise_or_popcount(
                row, stacked, size
            )
            assert counts.dtype == np.int64, name
            assert np.array_equal(counts, expected), name


# ----------------------------------------------------------------------
# BitArray-level entry points the kernels back
# ----------------------------------------------------------------------
class TestBitArrayKernelSurface:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_set_bits_unchecked_matches_set_bits(self, backend):
        rng = np.random.default_rng(5)
        indices = rng.integers(0, 300, size=64).astype(np.int64)
        with engine.use_backend(backend):
            checked = BitArray(300)
            trusted = BitArray(300)
        checked.set_bits(indices)
        trusted.set_bits_unchecked(indices)
        trusted.set_bits_unchecked(indices[:0])  # empty batch is a no-op
        assert checked == trusted
        assert checked.to_bytes() == trusted.to_bytes()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_or_reduce_equals_pairwise_or(self, backend):
        rng = np.random.default_rng(7)
        with engine.use_backend(backend):
            arrays = [
                BitArray.from_indices(96, rng.integers(0, 96, size=20))
                for _ in range(5)
            ]
        merged = BitArray.or_reduce(arrays)
        expected = arrays[0]
        for other in arrays[1:]:
            expected = expected | other
        assert merged == expected
        assert merged.backend == backend

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
        with engine.use_backend("legacy"):
            a = BitArray.from_indices(40, [1, 7])
        with engine.use_backend("packed"):
            b = BitArray.from_indices(40, [7, 31])
        # The result takes the first array's backend.
        for arrays, backend in (([b, a], "packed"), ([a, b], "legacy")):
            merged = BitArray.or_reduce(arrays)
            assert merged.backend == backend
            assert sorted(np.flatnonzero(merged.bits).tolist()) == [1, 7, 31]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_record_trusted_matches_record_many(self, backend):
        rng = np.random.default_rng(11)
        indices = rng.integers(0, 128, size=50).astype(np.int64)
        with engine.use_backend(backend):
            checked = RsuState(rsu_id=1, array_size=128)
            trusted = RsuState(rsu_id=1, array_size=128)
        assert checked.bits.backend == trusted.bits.backend == backend
        checked.record_many(indices)
        trusted.record_trusted(indices)
        assert checked.counter == trusted.counter == 50
        assert checked.bits == trusted.bits


# ----------------------------------------------------------------------
# A full Sioux Falls period, bit-identical on every registered backend
# ----------------------------------------------------------------------
class TestSiouxFallsAcrossAllBackends:
    @pytest.fixture(scope="class")
    def schemes(self):
        import repro

        workload = repro.get_scenario("sioux-falls").workload(
            total_trips=12_000, seed=11
        )
        built = {}
        for backend in ALL_BACKENDS:
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
        oracle = schemes[ORACLE].decoder
        for backend in ALL_BACKENDS:
            decoder = schemes[backend].decoder
            for rsu_id in oracle.rsu_ids():
                assert (
                    decoder.report_for(rsu_id).bits.to_bytes()
                    == oracle.report_for(rsu_id).bits.to_bytes()
                ), (backend, rsu_id)

    def test_estimates_bit_identical_across_backends(self, schemes):
        with engine.use_backend(ORACLE):
            oracle = schemes[ORACLE].decoder.estimate_matrix()
        for backend in ALL_BACKENDS:
            with engine.use_backend(backend):
                matrix = schemes[backend].decoder.estimate_matrix()
            assert matrix == oracle, backend
