"""The word layout of a bit array and every operation on it.

:class:`~repro.core.bitarray.BitArray` stores its bits in a ``uint64``
vector; this module is the one place that knows how.  The functions
take and return raw word vectors plus, where the words alone cannot
recover it, the logical size in bits.  Index arguments are
pre-validated ``int64``: nothing here re-validates, that is the
caller's job (``BitArray`` for untrusted input, the zero-copy wire
ingest for its own fused pass).

Layout
------
Logical bit ``i`` lives in word ``i // 64`` at bit position
``63 - (i % 64)`` (most-significant bit first).  That is exactly the
big-endian byte-and-bit order of ``np.packbits``, so serializing a word
vector is a byteswap view, and the bytes are those of one numpy bool
per bit packed with ``np.packbits``.

Bits past the logical size in the final word are *always zero* (the
padding invariant): construction masks them out and OR/AND/scatter can
never set them, so popcount and serialization need no read-side
masking.

Costs
-----
* resident memory: ``ceil(m / 64) * 8`` bytes, 8x denser than one
  numpy bool per bit;
* OR / AND: one vectorized word op over ``m / 64`` words;
* zero count: vectorized popcount (``np.bitwise_count`` where numpy
  provides it, a byte lookup table otherwise);
* joint zero count (``U_c``): the larger array viewed in chunks of the
  smaller one's words, ORed and counted; only sizes below 64 bits are
  unfolded first;
* unfold (Eq. 3): word tile when ``m % 64 == 0``, byte tile when
  ``m % 8 == 0``, bool round trip for odd ablation sizes;
* fold, the dual of unfold: the ``m / t`` consecutive ``t``-bit chunks
  ORed into one ``t``-bit array, as one ``bitwise_or.reduce`` over a
  word reshape when ``t % 64 == 0``, a byte reshape when ``t % 8 ==
  0``, a bool round trip otherwise.  It costs one read of the ``m``
  bits: far less than hashing the passes again, which is why the
  fixed-length baseline folds the VLM arrays instead of re-encoding;
* index scatter (Eq. 2): ``bitwise_or.at`` for sparse batches, a
  bool-scatter-then-pack pass for dense ones.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "WORD_BITS",
    "fold",
    "from_bool",
    "from_bytes",
    "get_bit",
    "get_bits",
    "joint_zero_counts",
    "or_bytes",
    "or_reduce",
    "pairwise_or_popcount",
    "popcount",
    "set_bit",
    "set_bits",
    "to_bool",
    "to_bytes",
    "unfold",
    "zeros",
]

#: Logical bits per storage word.
WORD_BITS = 64

#: Big-endian uint64: byte 0 of the serialized form is the most
#: significant byte, putting logical bit 0 at word bit 63.
_BE_U64 = np.dtype(">u8")

_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Per-byte popcount lookup table: the only popcount on numpy < 2.0,
#: which ``pyproject.toml`` still allows.
_POPCOUNT_TABLE = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)


def _word_count(size: int) -> int:
    return (int(size) + WORD_BITS - 1) // WORD_BITS


# ----------------------------------------------------------------------
# Construction and serialization
# ----------------------------------------------------------------------
def zeros(size: int) -> np.ndarray:
    """All-zero words covering *size* bits."""
    return np.zeros(_word_count(size), dtype=np.uint64)


def _from_packed(data: np.ndarray, size: int) -> np.ndarray:
    """Words from a big-endian packed ``uint8`` array (zero-padded up
    to the word boundary)."""
    padded = np.zeros(_word_count(size) * 8, dtype=np.uint8)
    padded[: data.size] = data
    return padded.view(_BE_U64).astype(np.uint64)


def from_bool(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean vector into words."""
    bits = np.asarray(bits, dtype=bool)
    return _from_packed(np.packbits(bits), bits.size)


def from_bytes(data: bytes, size: int) -> np.ndarray:
    """Words from ``ceil(size / 8)`` serialized bytes (length and zero
    padding already validated)."""
    return _from_packed(np.frombuffer(data, dtype=np.uint8), size)


def to_bool(words: np.ndarray, size: int) -> np.ndarray:
    """The logical contents as a fresh bool vector of *size*."""
    as_bytes = words.astype(_BE_U64).view(np.uint8)
    return np.unpackbits(as_bytes, count=int(size)).astype(bool)


def to_bytes(words: np.ndarray, size: int) -> bytes:
    """``ceil(size / 8)`` bytes, big-endian bit order (``np.packbits``)."""
    nbytes = (int(size) + 7) // 8
    return words.astype(_BE_U64).view(np.uint8)[:nbytes].tobytes()


# ----------------------------------------------------------------------
# Bit access
# ----------------------------------------------------------------------
def get_bit(words: np.ndarray, index: int) -> int:
    """The bit at *index* as 0/1: one word fetch, shift and mask."""
    return (int(words[index >> 6]) >> (WORD_BITS - 1 - (index & 63))) & 1


def get_bits(words: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The bits at *indices* as a bool vector (vectorized gather)."""
    shifts = (WORD_BITS - 1 - (indices & 63)).astype(np.uint64)
    return ((words[indices >> 6] >> shifts) & np.uint64(1)).astype(bool)


def set_bit(words: np.ndarray, index: int) -> None:
    """Set one bit in place: one word OR."""
    words[index >> 6] |= np.uint64(1 << (WORD_BITS - 1 - (index & 63)))


def set_bits(words: np.ndarray, size: int, indices: np.ndarray) -> None:
    """Scatter *indices* into *words* in place (duplicates idempotent).

    Sparse batches use ``np.bitwise_or.at`` (unbuffered, so duplicate
    indices accumulate correctly); batches denser than ``size / 256``
    take a bool-scatter-then-pack pass instead, which is O(size) but
    avoids ``ufunc.at``'s per-element cost.
    """
    if indices.size > (int(size) >> 8):
        bits = np.zeros(int(size), dtype=bool)
        bits[indices] = True
        words |= from_bool(bits)
        return
    masks = np.left_shift(
        np.uint64(1), (WORD_BITS - 1 - (indices & 63)).astype(np.uint64)
    )
    np.bitwise_or.at(words, indices >> 6, masks)


# ----------------------------------------------------------------------
# Counting
# ----------------------------------------------------------------------
def popcount(words: np.ndarray) -> int:
    """Total set bits (padding bits are zero, so no masking)."""
    if _HAVE_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum())
    return int(_POPCOUNT_TABLE[words.view(np.uint8)].sum())


def _popcount_rows(matrix: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Set bits per row of a 2-D word matrix (``int64`` vector); the
    per-word counts go to *counts*, a ``uint8`` vector of at least
    ``matrix.size`` entries."""
    if _HAVE_BITWISE_COUNT:
        # Accumulate in the narrowest type a full row cannot overflow:
        # numpy sums uint8 into uint16/uint32 several times faster
        # than into int64.
        bound = matrix.shape[1] * WORD_BITS
        acc = (
            np.uint16
            if bound < 1 << 16
            else np.uint32 if bound < 1 << 32 else np.int64
        )
        counts = counts[: matrix.size].reshape(matrix.shape)
        np.bitwise_count(matrix, out=counts)
        return counts.sum(axis=1, dtype=acc).astype(np.int64)
    as_bytes = matrix.view(np.uint8).reshape(matrix.shape[0], -1)
    return _POPCOUNT_TABLE[as_bytes].sum(axis=1, dtype=np.int64)


def _tiling(small: np.ndarray, small_size: int, large_size: int) -> np.ndarray:
    """The row whose repeats tile *small* out to *large_size* bits: its
    own words when *small_size* is a whole number of words, else (sizes
    below 64 bits) the full unfolding, one repeat."""
    if int(small_size) % WORD_BITS:
        return unfold(small, small_size, int(large_size) // int(small_size))
    return small


def joint_zero_counts(
    small: np.ndarray, small_size: int, large: np.ndarray, large_size: int
) -> int:
    """One pair's ``U_c``: zero bits of ``unfold(small) | large``.

    ``unfold(small)[i] = small[i mod m_small]`` (Eq. 3), so the joint
    array is *large* cut into ``m_large / m_small`` chunks of *small*'s
    word length, each ORed with *small*: a reshape view, no unfolded
    copy.  *small_size* must divide *large_size* (equal sizes are one
    OR); the inputs are untouched.
    """
    row = _tiling(small, small_size, large_size)
    return int(large_size) - popcount(large.reshape(-1, row.size) | row)


def pairwise_or_popcount(
    row: np.ndarray, rows: np.ndarray, scratch: Tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Set bits of ``row | rows[j]`` for every row *j* of a 2-D word
    stack (``int64``): the broadcast heart of the all-pairs decode.

    *row* holds ``rows.shape[1]`` words, or a divisor of that many that
    repeats across the width (Eq. 3's unfolding, broadcast rather than
    copied).  *scratch*, a ``uint64`` and a ``uint8`` vector of at least
    ``rows.size`` entries each, takes the OR and the per-word counts, so
    a caller sweeping many tiles allocates them once.
    """
    height, width = rows.shape
    joint, counts = scratch[0][: rows.size].reshape(rows.shape), scratch[1]
    if row.size == width:
        np.bitwise_or(rows, row, out=joint)
    else:
        chunks = (height, width // row.size, row.size)
        np.bitwise_or(rows.reshape(chunks), row, out=joint.reshape(chunks))
    return _popcount_rows(joint, counts)


# ----------------------------------------------------------------------
# Combination
# ----------------------------------------------------------------------
def or_reduce(vectors: Sequence[np.ndarray], size: int) -> np.ndarray:
    """OR-fold equal-size word vectors into a **new** vector (Eq. 4 and
    the CRDT join); all zeros when *vectors* is empty."""
    if not vectors:
        return zeros(size)
    out = vectors[0].copy()
    for words in vectors[1:]:
        np.bitwise_or(out, words, out=out)
    return out


def or_bytes(words: np.ndarray, size: int, data: bytes) -> None:
    """OR serialized bytes (:func:`to_bytes` form, validated) into
    *words* in place.

    When the payload is word-aligned (every power-of-two size from 64
    bits up) the buffer is *viewed* as big-endian words, with no bool
    vector and no zero-padding copy, and merged with one vectorized
    OR.  Shorter payloads take the padded :func:`from_bytes` path.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.size == words.size * 8:
        np.bitwise_or(words, buf.view(_BE_U64).astype(np.uint64), out=words)
        return
    np.bitwise_or(words, _from_packed(buf, size), out=words)


def unfold(words: np.ndarray, size: int, repeats: int) -> np.ndarray:
    """The contents tiled *repeats* times (Eq. 3), at the widest exact
    granularity; the result covers ``size * repeats`` bits."""
    size = int(size)
    repeats = int(repeats)
    if size % WORD_BITS == 0:
        return np.tile(words, repeats)
    if size % 8 == 0:
        packed = words.astype(_BE_U64).view(np.uint8)[: size // 8]
        return _from_packed(np.tile(packed, repeats), size * repeats)
    # Odd (non-multiple-of-8) ablation sizes: bit-level round trip.
    return from_bool(np.tile(to_bool(words, size), repeats))


def fold(words: np.ndarray, size: int, target: int) -> np.ndarray:
    """The ``size / target`` consecutive *target*-bit chunks ORed into
    one **new** *target*-bit vector: the dual of :func:`unfold`.

    Bit ``i`` of the result is set iff some bit ``i + k * target`` is,
    so the fold of an array scattered at indices ``b`` equals the array
    scattered at ``b mod target``.  *target* must divide *size*.
    """
    size = int(size)
    target = int(target)
    if target % WORD_BITS == 0:
        return np.bitwise_or.reduce(words.reshape(-1, target // WORD_BITS), axis=0)
    if target % 8 == 0:
        packed = words.astype(_BE_U64).view(np.uint8)[: size // 8]
        chunks = packed.reshape(-1, target // 8)
        return _from_packed(np.bitwise_or.reduce(chunks, axis=0), target)
    # Odd (non-multiple-of-8) sizes: bit-level round trip.
    return from_bool(to_bool(words, size).reshape(-1, target).any(axis=0))
