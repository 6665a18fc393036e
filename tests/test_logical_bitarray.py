"""Tests for repro.hashing.logical_bitarray — the per-vehicle masking
core the whole scheme rests on."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hashing.hashfn import hash_to_range
from repro.hashing.logical_bitarray import LogicalBitArray, salt_slot, select_indices
from repro.hashing.salts import SaltArray


@pytest.fixture
def salts():
    return SaltArray(4, seed=0)


class TestSaltSlot:
    def test_range(self):
        ids = np.arange(10_000, dtype=np.uint64)
        keys = np.zeros(10_000, dtype=np.uint64)
        slots = salt_slot(ids, keys, 3, 4)
        assert slots.min() >= 0 and slots.max() < 4

    def test_uniform_over_slots(self):
        ids = np.arange(40_000, dtype=np.uint64)
        keys = ids * np.uint64(3)
        slots = salt_slot(ids, keys, rsu_id=9, s=4)
        counts = np.bincount(slots, minlength=4)
        assert abs(counts.max() - counts.min()) < 600  # ~6 sigma at n=40k

    def test_collision_probability_is_one_over_s(self):
        """A vehicle picks the same slot at two distinct RSUs w.p. 1/s —
        the statistical heart of Eq. (6)."""
        n, s = 50_000, 5
        ids = np.arange(n, dtype=np.uint64)
        keys = np.full(n, 77, dtype=np.uint64)
        a = salt_slot(ids, keys, 101, s)
        b = salt_slot(ids, keys, 202, s)
        rate = float((a == b).mean())
        assert rate == pytest.approx(1.0 / s, abs=0.01)

    def test_deterministic_per_vehicle_rsu(self):
        assert int(salt_slot(5, 9, 3, 4)) == int(salt_slot(5, 9, 3, 4))

    def test_invalid_s(self):
        with pytest.raises(ConfigurationError):
            salt_slot(1, 1, 1, 0)


class TestSelectIndices:
    def test_range(self, salts):
        ids = np.arange(1000, dtype=np.uint64)
        keys = ids + np.uint64(1)
        out = select_indices(ids, keys, 7, salts, 1 << 10)
        assert out.min() >= 0 and out.max() < 1 << 10

    def test_requires_power_of_two(self, salts):
        with pytest.raises(ConfigurationError):
            select_indices(np.array([1], dtype=np.uint64),
                           np.array([1], dtype=np.uint64), 7, salts, 1000)

    def test_matches_object_api(self, salts):
        """Vectorized selection must agree with the per-vehicle
        LogicalBitArray (modulo the final m_x reduction)."""
        m_o = 1 << 12
        ids = np.arange(64, dtype=np.uint64)
        keys = ids * np.uint64(5) + np.uint64(3)
        rsu_id = 42
        bulk = select_indices(ids, keys, rsu_id, salts, m_o)
        for i in (0, 13, 63):
            agent = LogicalBitArray(int(ids[i]), int(keys[i]), salts, m_o)
            assert agent.bit_for_rsu(rsu_id, m_o) == int(bulk[i])

    def test_key_changes_index(self, salts):
        a = select_indices(np.array([5], dtype=np.uint64),
                           np.array([1], dtype=np.uint64), 7, salts, 1 << 16)
        b = select_indices(np.array([5], dtype=np.uint64),
                           np.array([2], dtype=np.uint64), 7, salts, 1 << 16)
        assert int(a[0]) != int(b[0])


class TestLogicalBitArray:
    def test_indices_shape_and_range(self, salts):
        lb = LogicalBitArray(3, 9, salts, 1 << 10)
        idx = lb.indices()
        assert idx.shape == (salts.size,)
        assert idx.min() >= 0 and idx.max() < 1 << 10

    def test_s_property(self, salts):
        assert LogicalBitArray(1, 2, salts, 64).s == salts.size

    def test_bit_for_rsu_reduces_logical_bit(self, salts):
        m_o, m_x = 1 << 12, 1 << 6
        lb = LogicalBitArray(7, 11, salts, m_o)
        bit = lb.bit_for_rsu(5, m_x)
        assert bit in (int(v) % m_x for v in lb.indices())

    def test_bit_for_rsu_deterministic(self, salts):
        lb = LogicalBitArray(7, 11, salts, 1 << 12)
        assert lb.bit_for_rsu(5, 64) == lb.bit_for_rsu(5, 64)

    def test_rejects_oversized_rsu_array(self, salts):
        lb = LogicalBitArray(7, 11, salts, 64)
        with pytest.raises(ConfigurationError):
            lb.bit_for_rsu(5, 128)

    def test_rejects_non_power_of_two(self, salts):
        lb = LogicalBitArray(7, 11, salts, 64)
        with pytest.raises(ConfigurationError):
            lb.bit_for_rsu(5, 48)

    def test_same_logical_bit_consistency(self, salts):
        """When the slots at two RSUs coincide, the reported indices are
        congruent (the collision the estimator counts)."""
        m_o = 1 << 12
        m_x, m_y = 1 << 6, 1 << 10
        found = False
        for vid in range(200):
            lb = LogicalBitArray(vid, 1000 + vid, salts, m_o)
            slot_a = int(salt_slot(vid, 1000 + vid, 1, salts.size))
            slot_b = int(salt_slot(vid, 1000 + vid, 2, salts.size))
            if slot_a == slot_b:
                found = True
                bit_x = lb.bit_for_rsu(1, m_x)
                bit_y = lb.bit_for_rsu(2, m_y)
                assert bit_y % m_x == bit_x
        assert found, "no slot collision in 200 vehicles (p < 1e-25)"


@pytest.mark.parametrize("s", [1, 2, 7, 64])
@pytest.mark.parametrize("seed", [0, 5, 0x5EED])
def test_select_indices_equals_the_gather_form(s, seed):
    """``select_indices`` indexes the salts at ``salt_slot``'s slots,
    which are already in ``[0, s)``; the result equals Eq. (2) through
    ``SaltArray.gather``, which reduces modulo ``s`` again."""
    rng = np.random.default_rng(seed + s)
    ids = rng.integers(0, 2**63, 5_000, dtype=np.uint64)
    keys = rng.integers(0, 2**63, 5_000, dtype=np.uint64)
    salts = SaltArray(s, seed=seed)
    m_o = 1 << 16
    for rsu_id in (0, 3, 1_000_003):
        slots = salt_slot(ids, keys, rsu_id, s, seed=seed)
        expected = hash_to_range(ids ^ keys ^ salts.gather(slots), m_o, seed=seed)
        got = select_indices(ids, keys, rsu_id, salts, m_o, seed=seed)
        assert np.array_equal(got, expected)
