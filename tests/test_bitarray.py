"""Unit and property tests for repro.core.bitarray."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.bitarray import BitArray
from repro.errors import ConfigurationError, ReproError, ValidationError


class TestConstruction:
    def test_starts_all_zero(self):
        array = BitArray(16)
        assert array.count_zeros() == 16
        assert array.count_ones() == 0

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            BitArray(0)

    def test_from_bits_copies(self):
        bits = np.zeros(8, dtype=bool)
        array = BitArray.from_bits(bits)
        bits[0] = True
        assert array[0] == 0

    def test_from_indices(self):
        array = BitArray.from_indices(8, [1, 3, 3])
        assert array.count_ones() == 2
        assert array[1] == 1 and array[3] == 1

    def test_bits_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            BitArray(8, np.zeros(4, dtype=bool))


class TestMutation:
    def test_set_bit(self):
        array = BitArray(8)
        array.set_bit(3)
        assert array[3] == 1

    def test_set_bit_out_of_range(self):
        array = BitArray(8)
        with pytest.raises(IndexError):
            array.set_bit(8)
        with pytest.raises(IndexError):
            array.set_bit(-1)

    def test_set_bits_vectorized_and_idempotent(self):
        array = BitArray(32)
        array.set_bits(np.array([0, 5, 5, 31]))
        assert array.count_ones() == 3
        array.set_bits(np.array([5]))
        assert array.count_ones() == 3

    def test_set_bits_empty(self):
        array = BitArray(8)
        array.set_bits(np.array([], dtype=np.int64))
        assert array.count_ones() == 0

    def test_set_bits_bounds(self):
        array = BitArray(8)
        with pytest.raises(IndexError):
            array.set_bits([7, 8])

    def test_set_bits_raises_catchable_validation_error(self):
        """Out-of-range wire input must surface as a library error a
        gateway can catch (not a raw numpy IndexError) — and still be
        an IndexError for callers guarding the historical behaviour."""
        array = BitArray(8)
        with pytest.raises(ValidationError):
            array.set_bits([3, 100])
        with pytest.raises(ReproError):
            array.set_bits([-5])
        with pytest.raises(ValidationError):
            array.set_bit(8)
        assert array.count_ones() == 0

    def test_set_bits_rejects_non_integral(self):
        array = BitArray(8)
        with pytest.raises(ValidationError):
            array.set_bits(np.array([1.5, 2.0]))
        with pytest.raises(ValidationError):
            array.set_bits(["not", "indices"])
        # Exactly-integral floats are accepted (numpy promotion).
        array.set_bits(np.array([1.0, 2.0]))
        assert array.count_ones() == 2

    def test_clear(self):
        array = BitArray.from_indices(8, [0, 1])
        array.clear()
        assert array.count_ones() == 0



class TestNonIntegral:
    """Sizes, counts and indices are never truncated: ``2.5`` is not
    ``2``.  Every index entry point rejects exactly as ``set_bits``
    does, with the same message."""

    @staticmethod
    def set_bits_message(indices, size=8):
        with pytest.raises(ValidationError) as caught:
            BitArray(size).set_bits(indices)
        return str(caught.value)

    def test_size(self):
        for build in (
            lambda: BitArray(2.5),
            lambda: BitArray.from_bytes(b"\x00", 2.5),
            lambda: BitArray.or_reduce([], size=2.5),
            lambda: BitArray("8"),
        ):
            with pytest.raises(ConfigurationError, match="must be integral"):
                build()
        assert BitArray(np.int64(8)).size == BitArray(8.0).size == 8

    def test_tile_repeats(self):
        with pytest.raises(ConfigurationError, match="must be integral"):
            BitArray.from_indices(8, [1]).tile(2.5)
        assert BitArray.from_indices(8, [1]).tile(2.0).size == 16

    def test_set_bit_matches_set_bits(self):
        array = BitArray(8)
        for index in (1.5, 8, -1, "x"):
            with pytest.raises(ValidationError) as caught:
                array.set_bit(index)
            assert str(caught.value) == self.set_bits_message([index])
        assert array.count_ones() == 0
        array.set_bit(np.int64(3))
        array.set_bit(2.0)
        assert np.flatnonzero(array.bits).tolist() == [2, 3]

    def test_getitem_and_get_bits_match_set_bits(self):
        array = BitArray.from_indices(8, [1, 7])
        with pytest.raises(ValidationError) as caught:
            array[1.7]
        assert str(caught.value) == self.set_bits_message([1.7])
        with pytest.raises(ValidationError) as caught:
            array.get_bits([1.7])
        assert str(caught.value) == self.set_bits_message([1.7])
        with pytest.raises(ValidationError) as caught:
            array.get_bits([8])
        assert str(caught.value) == self.set_bits_message([8])
        # Reads wrap negative indices; the range message says so.
        assert array[-1] == array[7] == 1 and array[np.int64(-7)] == 1
        with pytest.raises(IndexError, match=r"\[-8, 8\); got range \[-9, -9\]"):
            array[-9]
        with pytest.raises(IndexError, match=r"got range \[8, 8\]"):
            array[8]

    @given(
        st.one_of(
            st.integers(-20, 20),
            st.floats(-20, 20, allow_nan=False),
            st.integers(-20, 20).map(np.int64),
        )
    )
    def test_set_bit_is_set_bits_of_one(self, index):
        """The scalar entry point (with its plain-int shortcut) accepts,
        rejects and sets exactly as the batch entry point."""
        one, batch = BitArray(16), BitArray(16)
        try:
            batch.set_bits([index])
        except ValidationError as expected:
            with pytest.raises(ValidationError) as caught:
                one.set_bit(index)
            assert str(caught.value) == str(expected)
        else:
            one.set_bit(index)
        assert one == batch

    def test_payload_checks_are_shared(self):
        # from_bytes and or_bytes reject the same payloads, alike.
        for data in (b"\x00", b"\x00\x00\x00", b"\xff\xf8"):
            with pytest.raises(ValidationError) as built:
                BitArray.from_bytes(data, 12)
            target = BitArray(12)
            with pytest.raises(ValidationError) as merged:
                target.or_bytes(data)
            assert str(built.value) == str(merged.value)
            assert target.count_ones() == 0

class TestStatistics:
    def test_zero_fraction(self):
        array = BitArray.from_indices(10, [0, 1, 2])
        assert array.zero_fraction() == pytest.approx(0.7)

    def test_saturated(self):
        array = BitArray.from_indices(4, [0, 1, 2, 3])
        assert array.is_saturated()
        assert not BitArray(4).is_saturated()


class TestCombination:
    def test_or(self):
        a = BitArray.from_indices(8, [0, 1])
        b = BitArray.from_indices(8, [1, 2])
        c = a | b
        assert c.count_ones() == 3
        # operands untouched
        assert a.count_ones() == 2 and b.count_ones() == 2

    def test_or_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            BitArray(8) | BitArray(16)

    def test_eq(self):
        assert BitArray.from_indices(8, [1]) == BitArray.from_indices(8, [1])
        assert BitArray.from_indices(8, [1]) != BitArray.from_indices(8, [2])
        assert BitArray(8) != BitArray(16)
        assert BitArray(8).__eq__(42) is NotImplemented

    def test_copy_independent(self):
        a = BitArray(8)
        b = a.copy()
        b.set_bit(0)
        assert a[0] == 0


class TestSerialization:
    @given(st.integers(min_value=1, max_value=200), st.data())
    def test_bytes_round_trip(self, size, data):
        indices = data.draw(
            st.lists(st.integers(min_value=0, max_value=size - 1), max_size=size)
        )
        array = BitArray.from_indices(size, indices) if indices else BitArray(size)
        restored = BitArray.from_bytes(array.to_bytes(), size)
        assert restored == array

    def test_byte_length(self):
        assert len(BitArray(12).to_bytes()) == 2
        assert len(BitArray(16).to_bytes()) == 2
        assert len(BitArray(17).to_bytes()) == 3

    def test_from_bytes_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            BitArray.from_bytes(b"\x00", 12)  # needs 2 bytes
        with pytest.raises(ValidationError):
            BitArray.from_bytes(b"\x00\x00\x00", 12)  # 1 byte too many

    def test_from_bytes_rejects_nonzero_padding(self):
        """A set bit past the logical size means sender and receiver
        disagree about the array length; it must not be silently
        dropped into the zero-bit statistics (regression: previously
        accepted)."""
        # size=12: low 4 bits of the second byte are padding.
        BitArray.from_bytes(b"\xff\xf0", 12)  # all 12 bits set: fine
        with pytest.raises(ValidationError):
            BitArray.from_bytes(b"\xff\xf8", 12)
        with pytest.raises(ValidationError):
            BitArray.from_bytes(b"\x00\x01", 12)
        # size=5: low 3 bits of the single byte are padding.
        with pytest.raises(ValidationError):
            BitArray.from_bytes(b"\x07", 5)
        # Whole-byte sizes have no padding to reject.
        assert BitArray.from_bytes(b"\xff", 8).count_ones() == 8

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=255),
    )
    def test_from_bytes_padding_property(self, size, last_byte):
        """from_bytes accepts a final byte iff its padding bits are 0."""
        nbytes = (size + 7) // 8
        data = b"\x00" * (nbytes - 1) + bytes([last_byte])
        pad = (1 << (8 - size % 8)) - 1 if size % 8 else 0
        if last_byte & pad:
            with pytest.raises(ValidationError):
                BitArray.from_bytes(data, size)
        else:
            restored = BitArray.from_bytes(data, size)
            assert restored.to_bytes() == data


class TestProperties:
    @given(
        st.integers(min_value=1, max_value=512),
        st.lists(st.integers(min_value=0, max_value=10_000), max_size=300),
    )
    def test_ones_plus_zeros_is_size(self, size, raw_indices):
        indices = [i % size for i in raw_indices]
        array = BitArray.from_indices(size, indices) if indices else BitArray(size)
        assert array.count_ones() + array.count_zeros() == array.size
        assert array.count_ones() == len(set(indices))

    @given(st.integers(min_value=1, max_value=256))
    def test_or_identity_and_idempotence(self, size):
        zero = BitArray(size)
        full = BitArray.from_indices(size, list(range(size)))
        assert (zero | zero) == zero
        assert (full | zero) == full
        assert (full | full) == full
