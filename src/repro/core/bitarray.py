"""The physical bit array ``B_x`` maintained by each RSU.

A thin, explicit wrapper with exactly the operations the scheme needs:
set bits by index (online coding), count zeros / fraction of zeros (the
``U``/``V`` statistics of Section IV-C), bitwise OR, and compact byte
(de)serialization for the RSU-to-server report.  Lengths are *not*
restricted to powers of two here — that constraint belongs to the
scheme's sizing rule — so the ablation experiments can also exercise
arbitrary lengths.

The bits live in ``uint64`` words (8x denser than one numpy bool per
bit, with word-parallel OR/unfold and vectorized popcount);
:mod:`repro.core.bitwords` owns that layout.  Serialization is
big-endian bit order, byte-identical to ``np.packbits`` of the bits.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from repro.core import bitwords
from repro.errors import ConfigurationError, ValidationError

__all__ = ["BitArray"]

IndexLike = Union[int, Iterable[int], np.ndarray]


def _whole(value, what: str) -> int:
    """*value* as an ``int``; a non-integral size or count is a
    :class:`~repro.errors.ConfigurationError`, never truncated."""
    try:
        whole = int(value)
        integral = whole == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ConfigurationError(f"{what} must be integral, got {value!r}")
    return whole


def _check_payload(data: bytes, size: int) -> None:
    """Validate a serialized array of *size* bits (:meth:`BitArray.to_bytes`
    form): exactly ``ceil(size / 8)`` bytes, with zero padding bits.

    A nonzero padding bit means the sender and receiver disagree about
    the array length (or the payload was corrupted), which would
    silently skew the zero-bit statistics if accepted.
    """
    expected = (size + 7) // 8
    if len(data) != expected:
        raise ValidationError(
            f"bit array of size {size} needs exactly {expected} bytes, "
            f"got {len(data)}"
        )
    tail_bits = size % 8
    if tail_bits and data[-1] & ((1 << (8 - tail_bits)) - 1):
        raise ValidationError(
            f"nonzero padding bits in the final byte of a size-{size} "
            f"bit array (last byte 0x{data[-1]:02x}); the sender "
            "disagrees about the array length"
        )


class BitArray:
    """A fixed-length array of bits with vectorized operations.

    Parameters
    ----------
    size:
        Number of bits ``m``.
    bits:
        Optional initial contents (boolean array of length *size*); the
        array is copied.
    """

    __slots__ = ("_size", "_words")

    def __init__(
        self,
        size: int,
        bits: np.ndarray = None,
    ) -> None:
        size = _whole(size, "bit array size")
        if size <= 0:
            raise ConfigurationError(f"bit array size must be positive, got {size}")
        self._size = size
        if bits is None:
            self._words = bitwords.zeros(size)
        else:
            bits = np.asarray(bits, dtype=bool)
            if bits.shape != (size,):
                raise ConfigurationError(
                    f"bits shape {bits.shape} does not match size {size}"
                )
            self._words = bitwords.from_bool(bits)

    @classmethod
    def _wrap(cls, size: int, words: np.ndarray) -> "BitArray":
        """Adopt *words* without copying — internal fast constructor."""
        array = cls.__new__(cls)
        array._size = int(size)
        array._words = words
        return array

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "BitArray":
        """Wrap (a copy of) a boolean vector."""
        bits = np.asarray(bits, dtype=bool)
        return cls(bits.size, bits)

    @classmethod
    def from_indices(cls, size: int, indices: IndexLike) -> "BitArray":
        """Create an array of *size* bits with *indices* set to 1."""
        array = cls(size)
        array.set_bits(indices)
        return array

    @classmethod
    def from_bytes(cls, data: bytes, size: int) -> "BitArray":
        """Inverse of :meth:`to_bytes`.

        *data* must be exactly ``ceil(size / 8)`` bytes, and any padding
        bits past *size* in the final byte must be zero; either
        violation raises :class:`~repro.errors.ValidationError`.
        """
        size = _whole(size, "bit array size")
        if size <= 0:
            raise ConfigurationError(f"bit array size must be positive, got {size}")
        _check_payload(data, size)
        return cls._wrap(size, bitwords.from_bytes(data, size))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of bits ``m``."""
        return self._size

    @property
    def words(self) -> np.ndarray:
        """The live ``uint64`` word vector (layout in
        :mod:`repro.core.bitwords`).  Read it, never write it: the
        decoders pass it to the word kernels without a copy."""
        return self._words

    @property
    def storage_nbytes(self) -> int:
        """Resident bytes of the word vector (``ceil(m / 64) * 8``)."""
        return int(self._words.nbytes)

    @property
    def bits(self) -> np.ndarray:
        """The logical contents as a read-only boolean vector
        (materialized on access: a snapshot, not a view)."""
        view = bitwords.to_bool(self._words, self._size)
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int) -> int:
        """The bit at *index* (negative counts from the end)."""
        return bitwords.get_bit(self._words, self._index(index, -self._size))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self._size == other._size and bool(
            np.array_equal(self._words, other._words)
        )

    def __hash__(self) -> int:  # BitArrays are mutable; identity hash only
        return id(self)

    # ------------------------------------------------------------------
    # Index validation
    # ------------------------------------------------------------------
    def _indices(self, indices: IndexLike, low: int = 0) -> np.ndarray:
        """*indices* as an ``int64`` vector, each in ``[low, size)``.

        The one index check: out-of-range or non-integral indices
        raise :class:`~repro.errors.ValidationError`, so a batch
        assembled from untrusted wire input can never corrupt the
        array or crash the caller with a raw numpy error.  Exactly
        integral floats are accepted (numpy promotion).
        """
        try:
            idx = np.atleast_1d(np.asarray(indices))
            if idx.size and not np.issubdtype(idx.dtype, np.integer):
                cast = idx.astype(np.int64)
                if not np.array_equal(cast, idx):
                    raise ValidationError(
                        f"bit indices must be integral, got dtype {idx.dtype}"
                    )
                idx = cast
            idx = idx.astype(np.int64, copy=False)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bit indices are not index-like: {exc}") from exc
        if idx.size and (idx.min() < low or idx.max() >= self._size):
            raise ValidationError(
                f"bit indices must lie in [{low}, {self._size}); got range "
                f"[{idx.min()}, {idx.max()}]"
            )
        return idx

    def _index(self, index: int, low: int = 0) -> int:
        """One index through :meth:`_indices`, negative ones wrapped
        into ``[0, size)``.  An in-range ``int`` skips numpy: the
        per-message RSU path sets one bit per call."""
        if type(index) is not int or not low <= index < self._size:
            idx = self._indices(index, low)
            if idx.size != 1:
                raise ValidationError(f"expected one bit index, got {idx.size}")
            index = int(idx[0])
        return index % self._size

    # ------------------------------------------------------------------
    # Mutation (online coding phase)
    # ------------------------------------------------------------------
    def set_bit(self, index: int) -> None:
        """Set a single bit (one vehicle report, paper Eq. 2)."""
        bitwords.set_bit(self._words, self._index(index))

    def set_bits(self, indices: IndexLike) -> None:
        """Set many bits at once (vectorized online coding).

        Duplicate indices are idempotent, exactly as repeated vehicle
        reports to the same position are in the real protocol.
        Out-of-range or non-integral indices raise
        :class:`~repro.errors.ValidationError`.
        """
        self.set_bits_unchecked(self._indices(indices))

    def set_bits_unchecked(self, indices: np.ndarray) -> None:
        """Trusted scatter: set pre-validated ``int64`` indices.

        Skips :meth:`set_bits`'s dtype and bounds checks — the
        zero-copy wire ingest path calls this after its own fused
        validity pass, and the streaming decoder after a validated
        gather.  Out-of-range input here is undefined behaviour (it
        can corrupt the array or raise a raw numpy error), so only
        call it with indices some earlier pass already proved to lie
        in ``[0, size)``.
        """
        if indices.size:
            bitwords.set_bits(self._words, self._size, indices)

    def clear(self) -> None:
        """Reset all bits to zero (start of a measurement period)."""
        self._words[:] = 0

    def get_bits(self, indices: IndexLike) -> np.ndarray:
        """The bits at *indices* as a boolean vector (gather).

        The read-side dual of :meth:`set_bits`, with the same
        validation.  The streaming decoder uses this to split an
        ingest batch into already-set and newly-set bits without
        materializing the whole array.
        """
        return bitwords.get_bits(self._words, self._indices(indices))

    # ------------------------------------------------------------------
    # Statistics (offline decoding phase)
    # ------------------------------------------------------------------
    def count_ones(self) -> int:
        """Number of set bits."""
        return bitwords.popcount(self._words)

    def count_zeros(self) -> int:
        """The ``U`` statistic: number of zero bits."""
        return self._size - self.count_ones()

    def zero_fraction(self) -> float:
        """The ``V`` statistic: fraction of zero bits (``U / m``)."""
        return self.count_zeros() / self._size

    def is_saturated(self) -> bool:
        """``True`` iff every bit is set (``V = 0``; estimator undefined)."""
        return self.count_zeros() == 0

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    def _same_size(self, other: "BitArray", verb: str) -> None:
        if other._size != self._size:
            raise ConfigurationError(
                f"cannot {verb} bit arrays of different sizes "
                f"({self._size} vs {other._size}); unfold the smaller one first"
            )

    def __or__(self, other: "BitArray") -> "BitArray":
        """Bitwise OR of two equal-length arrays (paper Eq. 4)."""
        if not isinstance(other, BitArray):
            return NotImplemented
        self._same_size(other, "OR")
        return BitArray._wrap(self._size, self._words | other._words)

    def __ior__(self, other: "BitArray") -> "BitArray":
        """In-place OR-merge of an equal-length array (CRDT join).

        Mutates this array's words directly — the federated
        collector's merge path, which absorbs shard partials without
        allocating per merge.
        """
        if not isinstance(other, BitArray):
            return NotImplemented
        self._same_size(other, "OR")
        np.bitwise_or(self._words, other._words, out=self._words)
        return self

    def or_bytes(self, data: bytes) -> None:
        """OR a serialized equal-length array (:meth:`to_bytes` form)
        into this one, in place.

        The zero-copy wire-merge path: a word-aligned payload is viewed
        as words and ORed directly, never unpacked to bools.  *data* is
        validated exactly like :meth:`from_bytes` (byte length, zero
        padding), so untrusted snapshot payloads cannot corrupt the
        padding invariant.
        """
        _check_payload(data, self._size)
        bitwords.or_bytes(self._words, self._size, data)

    def __and__(self, other: "BitArray") -> "BitArray":
        """Bitwise AND of two equal-length arrays."""
        if not isinstance(other, BitArray):
            return NotImplemented
        self._same_size(other, "AND")
        return BitArray._wrap(self._size, self._words & other._words)

    def tile(self, repeats: int) -> "BitArray":
        """Content duplicated *repeats* times — the storage-level form
        of unfolding (Eq. 3); prefer :func:`repro.core.unfolding.unfold`
        which validates the scheme's size constraints."""
        repeats = _whole(repeats, "repeats")
        if repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
        return BitArray._wrap(
            self._size * repeats,
            bitwords.unfold(self._words, self._size, repeats),
        )

    @classmethod
    def or_reduce(
        cls, arrays: Sequence["BitArray"], *, size: int = None
    ) -> "BitArray":
        """OR-fold many equal-length arrays in one kernel call.

        The n-ary form of Eq. (4) and the CRDT join: the federated
        collector merges shard partials and the streaming decoder
        collapses window rings through this instead of a Python-level
        ``|=`` loop.  With an empty *arrays*, *size* is required and an
        all-zero array is returned.
        """
        arrays = list(arrays)
        if not arrays:
            if size is None:
                raise ConfigurationError(
                    "or_reduce of no arrays needs an explicit size"
                )
            return cls(size)
        target = (
            arrays[0]._size if size is None else _whole(size, "bit array size")
        )
        for array in arrays:
            if array._size != target:
                raise ConfigurationError(
                    "cannot OR bit arrays of different sizes "
                    f"({target} vs {array._size}); unfold the smaller "
                    "one first"
                )
        merged = bitwords.or_reduce([array._words for array in arrays], target)
        return cls._wrap(target, merged)

    def copy(self) -> "BitArray":
        """An independent copy."""
        return BitArray._wrap(self._size, self._words.copy())

    # ------------------------------------------------------------------
    # Serialization (RSU -> server report)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Pack into ``ceil(m / 8)`` bytes (big-endian bit order)."""
        return bitwords.to_bytes(self._words, self._size)

    def __repr__(self) -> str:
        return f"BitArray(size={self.size}, ones={self.count_ones()})"
