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
* unfold (Eq. 3): word tile when ``m % 64 == 0``, byte tile when
  ``m % 8 == 0``, bool round trip for odd ablation sizes;
* index scatter (Eq. 2): ``bitwise_or.at`` for sparse batches, a
  bool-scatter-then-pack pass for dense ones.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "WORD_BITS",
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


def _popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Set bits per row of a 2-D word matrix (``int64`` vector)."""
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
        counts = np.bitwise_count(matrix).sum(axis=1, dtype=acc)
        return counts.astype(np.int64)
    as_bytes = matrix.view(np.uint8).reshape(matrix.shape[0], -1)
    return _POPCOUNT_TABLE[as_bytes].sum(axis=1, dtype=np.int64)


def joint_zero_counts(a: np.ndarray, b: np.ndarray, size: int) -> int:
    """Zero bits of ``a | b``: one pair's ``U_c``, inputs untouched."""
    return int(size) - popcount(a | b)


def pairwise_or_popcount(row: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Set bits of ``row | rows[j]`` for every row *j* of a 2-D word
    stack (``int64``): the broadcast heart of the all-pairs decode."""
    return _popcount_rows(row[None, :] | rows)


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
