"""Word-packed bit storage: ``uint64`` words with vectorized popcount.

Layout
------
Logical bit ``i`` lives in word ``i // 64`` at bit position
``63 - (i % 64)`` (most-significant bit first).  That is exactly the
big-endian byte-and-bit order of ``np.packbits``, so serializing a word
vector is a byteswap-view — ``to_bytes`` stays **byte-identical** to
the legacy bool backend and to every wire snapshot already persisted.

Bits past the logical size in the final word are *always zero* (the
padding invariant): construction masks them out and OR/AND/scatter can
never set them, so popcount and serialization need no read-side
masking.

Costs
-----
* resident memory: ``ceil(m / 64) * 8`` bytes — 8x denser than one
  numpy bool per bit;
* OR / AND: one vectorized word op over ``m / 64`` words;
* zero count: vectorized popcount (``np.bitwise_count`` where numpy
  provides it, a byte lookup table otherwise);
* unfold (Eq. 3): word tile when ``m % 64 == 0``, byte tile when
  ``m % 8 == 0``, bool round-trip for odd ablation sizes;
* index scatter (Eq. 2): ``bitwise_or.at`` for sparse batches, a
  bool-scatter-then-pack pass for dense ones.
"""

from __future__ import annotations

import numpy as np

from repro.engine.backend import BitBackend

__all__ = ["PackedWordBackend"]

_WORD_BITS = 64

#: Big-endian uint64: byte 0 of the serialized form is the most
#: significant byte, putting logical bit 0 at word bit 63.
_BE_U64 = np.dtype(">u8")

_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Per-byte popcount lookup table (fallback for numpy < 2.0).
_POPCOUNT_TABLE = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)


def _popcount_sum(words: np.ndarray) -> int:
    """Total set bits across a word vector."""
    if _HAVE_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum())
    return int(_POPCOUNT_TABLE[words.view(np.uint8)].sum())


def _popcount_row_sums(matrix: np.ndarray) -> np.ndarray:
    """Set bits per row of a 2-D word matrix (``int64`` vector)."""
    if _HAVE_BITWISE_COUNT:
        # Accumulate in the narrowest type a full row cannot overflow:
        # numpy sums uint8 into uint16/uint32 several times faster
        # than into int64.
        bound = matrix.shape[1] * _WORD_BITS
        acc = (
            np.uint16
            if bound < 1 << 16
            else np.uint32 if bound < 1 << 32 else np.int64
        )
        counts = np.bitwise_count(matrix).sum(axis=1, dtype=acc)
        return counts.astype(np.int64)
    as_bytes = matrix.view(np.uint8).reshape(matrix.shape[0], -1)
    return _POPCOUNT_TABLE[as_bytes].sum(axis=1, dtype=np.int64)


def _word_count(size: int) -> int:
    return (int(size) + _WORD_BITS - 1) // _WORD_BITS


class PackedWordBackend(BitBackend):
    """``uint64``-word storage with word-parallel operations."""

    name = "packed"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def zeros(self, size: int) -> np.ndarray:
        """All-zero word vector covering *size* bits."""
        return np.zeros(_word_count(size), dtype=np.uint64)

    def _from_packed_bytes(self, data: np.ndarray, size: int) -> np.ndarray:
        """Words from a big-endian packed ``uint8`` array (zero-padded
        up to the word boundary)."""
        padded = np.zeros(_word_count(size) * 8, dtype=np.uint8)
        padded[: data.size] = data
        return padded.view(_BE_U64).astype(np.uint64)

    def from_bool(self, bits: np.ndarray) -> np.ndarray:
        """Pack a boolean vector into words."""
        bits = np.asarray(bits, dtype=bool)
        return self._from_packed_bytes(np.packbits(bits), bits.size)

    def from_bytes(self, data: bytes, size: int) -> np.ndarray:
        """Words from serialized bytes (length/padding pre-validated)."""
        return self._from_packed_bytes(
            np.frombuffer(data, dtype=np.uint8), size
        )

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def to_bool(self, storage: np.ndarray, size: int) -> np.ndarray:
        """Materialize the logical contents as a fresh bool vector."""
        as_bytes = storage.astype(_BE_U64).view(np.uint8)
        return np.unpackbits(as_bytes, count=int(size)).astype(bool)

    def to_bytes(self, storage: np.ndarray, size: int) -> bytes:
        """Big-endian serialization, byte-identical to ``np.packbits``."""
        nbytes = (int(size) + 7) // 8
        return storage.astype(_BE_U64).view(np.uint8)[:nbytes].tobytes()

    def get_bit(self, storage: np.ndarray, size: int, index: int) -> int:
        """Single-bit read via shift and mask."""
        word = int(storage[index >> 6])
        return (word >> (_WORD_BITS - 1 - (index & 63))) & 1

    def get_bits(
        self, storage: np.ndarray, size: int, indices: np.ndarray
    ) -> np.ndarray:
        """Vectorized multi-bit gather: word fetch, shift, mask."""
        words = storage[indices >> 6]
        shifts = (_WORD_BITS - 1 - (indices & 63)).astype(np.uint64)
        return ((words >> shifts) & np.uint64(1)).astype(bool)

    def count_ones(self, storage: np.ndarray, size: int) -> int:
        """Vectorized popcount (padding bits are guaranteed zero)."""
        return _popcount_sum(storage)

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Word-wise equality (valid because padding is canonical)."""
        return bool(np.array_equal(a, b))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def set_index(self, storage: np.ndarray, index: int) -> None:
        """Set one bit: one word OR."""
        storage[index >> 6] |= np.uint64(
            1 << (_WORD_BITS - 1 - (index & 63))
        )

    def set_indices(
        self, storage: np.ndarray, size: int, indices: np.ndarray
    ) -> None:
        """Scatter a validated index batch into the words.

        Sparse batches use ``np.bitwise_or.at`` (unbuffered, so
        duplicate indices accumulate correctly); batches dense relative
        to the array take a bool-scatter-then-pack pass instead, which
        is O(m) but avoids ``ufunc.at``'s per-element cost.
        """
        if indices.size > (int(size) >> 8):
            bits = np.zeros(int(size), dtype=bool)
            bits[indices] = True
            storage |= self.from_bool(bits)
            return
        masks = np.left_shift(
            np.uint64(1),
            (_WORD_BITS - 1 - (indices & 63)).astype(np.uint64),
        )
        np.bitwise_or.at(storage, indices >> 6, masks)

    def clear(self, storage: np.ndarray) -> None:
        """Zero every word."""
        storage[:] = 0

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    def copy(self, storage: np.ndarray) -> np.ndarray:
        """Independent word copy."""
        return storage.copy()

    def or_(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Word-wise OR (padding stays zero)."""
        return a | b

    def or_bytes(self, storage: np.ndarray, size: int, data: bytes) -> None:
        """OR serialized snapshot bytes straight into the words.

        When the payload is word-aligned (every power-of-two size from
        64 bits up), the incoming buffer is *viewed* as big-endian
        words in place — no bool materialization, no zero-padding copy
        — and merged with one vectorized OR.  Shorter payloads fall
        back to the padded :meth:`from_bytes` path.
        """
        buf = np.frombuffer(data, dtype=np.uint8)
        if buf.size == storage.size * 8:
            np.bitwise_or(
                storage, buf.view(_BE_U64).astype(np.uint64), out=storage
            )
            return
        self.or_inplace(storage, self._from_packed_bytes(buf, size))

    def and_(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Word-wise AND (padding stays zero)."""
        return a & b

    def tile(
        self, storage: np.ndarray, size: int, repeats: int
    ) -> np.ndarray:
        """Content duplication (Eq. 3) at the widest exact granularity."""
        size = int(size)
        repeats = int(repeats)
        if size % _WORD_BITS == 0:
            return np.tile(storage, repeats)
        if size % 8 == 0:
            packed = storage.astype(_BE_U64).view(np.uint8)[: size // 8]
            return self._from_packed_bytes(
                np.tile(packed, repeats), size * repeats
            )
        # Odd (non-multiple-of-8) ablation sizes: bit-level round trip.
        return self.from_bool(np.tile(self.to_bool(storage, size), repeats))

    # ------------------------------------------------------------------
    # Batched all-pairs decode
    # ------------------------------------------------------------------
    def stack(self, storages, size: int) -> np.ndarray:
        """One word matrix, row per array."""
        return np.stack(list(storages), axis=0)

    def or_zero_counts(
        self, row: np.ndarray, rows: np.ndarray, size: int
    ) -> np.ndarray:
        """``size - popcount(row | rows[j])`` per row, on words."""
        joint = row[None, :] | rows
        return int(size) - _popcount_row_sums(joint)
