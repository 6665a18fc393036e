"""The blocked Eq. (2) kernels against the unblocked oracle.

``splitmix64``, ``hash_u64`` and ``select_indices`` run in place over
blocks of ``_BLOCK`` words; ``tests/hash_oracle.py`` allocates every
step over the whole array.  The battery holds them to exact agreement,
value, dtype and shape, at the lengths where blocking could go wrong
(empty, one word, either side of a block boundary, a ragged tail),
over the full ``uint64`` domain, every slot reduction (``& (s - 1)``
for power-of-two ``s``, ``%`` otherwise), negative and out-of-range
seeds, strided and ``int64`` inputs, and a scalar key broadcast
against an id array.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.hashing import SaltArray, hash_u64, select_indices, splitmix64
from repro.hashing.hashfn import _BLOCK
from repro.hashing.logical_bitarray import LogicalBitArray
from tests import hash_oracle

B = _BLOCK
LENGTHS = (0, 1, B - 1, B, B + 1, 2 * B + 3)
U64_MAX = 2**64 - 1

words = st.integers(0, U64_MAX)
seeds = st.one_of(
    st.integers(0, 2**63 - 1),
    st.integers(-(2**64), -1),
    st.integers(2**63, 2**65),
)
slot_counts = st.sampled_from((1, 2, 3, 5, 10, 16))
array_sizes = st.integers(1, 30).map(lambda k: 1 << k)
layouts = st.sampled_from(("contiguous", "strided", "int64"))


@st.composite
def u64_arrays(draw, length=None):
    """A ``uint64`` array of one of :data:`LENGTHS` (or *length*): numpy
    draws over the full domain, with Hypothesis-chosen words at both
    ends and at the first block boundary."""
    n = draw(st.sampled_from(LENGTHS)) if length is None else length
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = rng.integers(0, U64_MAX, size=n, dtype=np.uint64, endpoint=True)
    for position in {0, n - 1, min(B, n - 1)} if n else ():
        out[position] = draw(words)
    return out


def _lay_out(values: np.ndarray, layout: str) -> np.ndarray:
    """*values* as a stride-2 view, an ``int64`` reinterpretation, or
    as they are."""
    if layout == "strided":
        spaced = np.zeros(2 * values.size, dtype=np.uint64)
        spaced[::2] = values
        return spaced[::2]
    if layout == "int64":
        return values.view(np.int64)
    return values


def _same(got, want) -> None:
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


class TestMixer:
    @settings(max_examples=40, deadline=None)
    @given(values=u64_arrays(), layout=layouts)
    def test_splitmix64_matches_oracle(self, values, layout):
        values = _lay_out(values, layout)
        _same(splitmix64(values), hash_oracle.splitmix64(values))

    @settings(max_examples=60, deadline=None)
    @given(values=u64_arrays(), seed=seeds, layout=layouts)
    def test_hash_u64_matches_oracle(self, values, seed, layout):
        values = _lay_out(values, layout)
        _same(hash_u64(values, seed=seed), hash_oracle.hash_u64(values, seed=seed))

    @given(value=words, seed=seeds)
    def test_scalars_stay_scalars(self, value, seed):
        _same(hash_u64(value, seed=seed), hash_oracle.hash_u64(value, seed=seed))
        _same(splitmix64(value), hash_oracle.splitmix64(value))

    def test_two_dimensional_input_keeps_its_shape(self):
        values = np.arange(3 * (B + 1), dtype=np.uint64).reshape(3, B + 1)
        _same(hash_u64(values, seed=5), hash_oracle.hash_u64(values, seed=5))
        _same(hash_u64(values.T, seed=5), hash_oracle.hash_u64(values.T, seed=5))


class TestSelectIndices:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        s=slot_counts,
        m_o=array_sizes,
        seed=seeds,
        rsu_id=st.integers(0, 2**31),
        layout=layouts,
        salt_seed=st.integers(0, 2**32),
    )
    def test_matches_oracle(self, data, s, m_o, seed, rsu_id, layout, salt_seed):
        ids = data.draw(u64_arrays())
        keys = data.draw(u64_arrays(length=ids.size))
        ids, keys = _lay_out(ids, layout), _lay_out(keys, layout)
        salts = SaltArray(s, seed=salt_seed)
        _same(
            select_indices(ids, keys, rsu_id, salts, m_o, seed=seed),
            hash_oracle.select_indices(ids, keys, rsu_id, salts, m_o, seed=seed),
        )

    @settings(max_examples=30, deadline=None)
    @given(ids=u64_arrays(), key=words, s=slot_counts, m_o=array_sizes, seed=seeds)
    def test_scalar_key_broadcasts(self, ids, key, s, m_o, seed):
        salts = SaltArray(s, seed=1)
        for k in (key, np.uint64(key)):
            _same(
                select_indices(ids, k, 9, salts, m_o, seed=seed),
                hash_oracle.select_indices(ids, k, 9, salts, m_o, seed=seed),
            )

    @given(v=words, k=words, s=slot_counts, m_o=array_sizes, seed=seeds)
    def test_scalar_vehicle(self, v, k, s, m_o, seed):
        salts = SaltArray(s, seed=2)
        got = select_indices(v, k, 4, salts, m_o, seed=seed)
        _same(got, hash_oracle.select_indices(v, k, 4, salts, m_o, seed=seed))
        # The object API selects the same logical bit.
        vehicle = LogicalBitArray(v, k, salts, m_o, seed=seed)
        assert vehicle.bit_for_rsu(4, m_o) == int(got)

    def test_mismatched_shapes_raise(self):
        salts = SaltArray(2)
        with pytest.raises(ValueError):
            select_indices(np.arange(3), np.arange(4), 1, salts, 8)

    def test_non_power_of_two_m_o_rejected(self):
        with pytest.raises(ConfigurationError):
            select_indices(np.arange(3), np.arange(3), 1, SaltArray(2), 12)
