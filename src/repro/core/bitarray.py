"""The physical bit array ``B_x`` maintained by each RSU.

A thin, explicit wrapper with exactly the operations the scheme needs:
set bits by index (online coding), count zeros / fraction of zeros (the
``U``/``V`` statistics of Section IV-C), bitwise OR, and compact byte
(de)serialization for the RSU-to-server report.  Lengths are *not*
restricted to powers of two here — that constraint belongs to the
scheme's sizing rule — so the ablation experiments can also exercise
arbitrary lengths.

*How* the bits are stored is delegated to a pluggable backend from
:mod:`repro.engine`: the default ``"packed"`` backend keeps them in
``uint64`` words (8x denser than the bool representation, with
word-parallel OR/unfold and vectorized popcount), while ``"legacy"``
keeps the original numpy bool vector for differential testing.  Both
serialize byte-identically, so the choice never leaks onto the wire.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from repro import engine
from repro.engine import kernels as engine_kernels
from repro.errors import ConfigurationError, ValidationError

__all__ = ["BitArray"]

IndexLike = Union[int, Iterable[int], np.ndarray]


class BitArray:
    """A fixed-length array of bits with vectorized operations.

    Parameters
    ----------
    size:
        Number of bits ``m``.
    bits:
        Optional initial contents (boolean array of length *size*); the
        array is copied.

    The storage backend is the one current at construction (see
    :mod:`repro.engine`, "Selecting a backend") and never changes.
    """

    __slots__ = ("_size", "_backend", "_storage")

    def __init__(
        self,
        size: int,
        bits: np.ndarray = None,
    ) -> None:
        if size <= 0:
            raise ConfigurationError(f"bit array size must be positive, got {size}")
        self._size = int(size)
        self._backend = engine.get_backend()
        if bits is None:
            self._storage = self._backend.zeros(self._size)
        else:
            bits = np.asarray(bits, dtype=bool)
            if bits.shape != (self._size,):
                raise ConfigurationError(
                    f"bits shape {bits.shape} does not match size {size}"
                )
            self._storage = self._backend.from_bool(bits)

    @classmethod
    def _wrap(cls, size: int, storage: np.ndarray, backend) -> "BitArray":
        """Adopt *storage* (already in *backend*'s representation)
        without copying — internal fast constructor."""
        array = cls.__new__(cls)
        array._size = int(size)
        array._backend = backend
        array._storage = storage
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
        bits past *size* in the final byte must be zero — a nonzero
        padding bit means the sender and receiver disagree about the
        array length (or the payload was corrupted), which would
        silently skew the zero-bit statistics if accepted.  Raises
        :class:`~repro.errors.ValidationError` on either violation.
        """
        if size <= 0:
            raise ConfigurationError(f"bit array size must be positive, got {size}")
        size = int(size)
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
        backend = engine.get_backend()
        return cls._wrap(size, backend.from_bytes(data, size), backend)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of bits ``m``."""
        return self._size

    @property
    def backend(self) -> str:
        """Name of the bit-storage backend holding this array."""
        return self._backend.name

    @property
    def storage_nbytes(self) -> int:
        """Resident bytes of the underlying storage buffer (8x smaller
        under the packed backend than under legacy)."""
        return self._backend.nbytes(self._storage)

    @property
    def bits(self) -> np.ndarray:
        """The logical contents as a read-only boolean vector.

        Under the legacy backend this is a view of live storage; under
        the packed backend it is materialized on access (a snapshot).
        Either way, treat it as read-only.
        """
        view = self._backend.to_bool(self._storage, self._size).view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int) -> int:
        index = int(index)
        original = index
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError(
                f"bit index {original} out of range for size {self._size}"
            )
        return self._backend.get_bit(self._storage, self._size, index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        if self._size != other._size:
            return False
        if self._backend is other._backend:
            return self._backend.equal(self._storage, other._storage)
        # Mixed backends: compare the canonical serialization.
        return self.to_bytes() == other.to_bytes()

    def __hash__(self) -> int:  # BitArrays are mutable; identity hash only
        return id(self)

    # ------------------------------------------------------------------
    # Mutation (online coding phase)
    # ------------------------------------------------------------------
    def set_bit(self, index: int) -> None:
        """Set a single bit (one vehicle report, paper Eq. 2)."""
        if not 0 <= index < self._size:
            raise ValidationError(
                f"bit index {index} out of range [0, {self._size})"
            )
        self._backend.set_index(self._storage, int(index))

    def set_bits(self, indices: IndexLike) -> None:
        """Set many bits at once (vectorized online coding).

        Duplicate indices are idempotent, exactly as repeated vehicle
        reports to the same position are in the real protocol.
        Out-of-range or non-integral indices raise
        :class:`~repro.errors.ValidationError` so a batch assembled
        from untrusted wire input can never corrupt the array or crash
        the caller with a raw numpy error.
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
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self._size:
            raise ValidationError(
                f"bit indices must lie in [0, {self._size}); got range "
                f"[{idx.min()}, {idx.max()}]"
            )
        engine_kernels.get_kernels(self._backend).set_bits(
            self._storage, self._size, idx
        )

    def set_bits_unchecked(self, indices: np.ndarray) -> None:
        """Trusted scatter: set pre-validated ``int64`` indices.

        Skips :meth:`set_bits`'s dtype and bounds checks and goes
        straight to the backend's scatter kernel — the zero-copy wire
        ingest path calls this after its own fused validity pass, and
        the streaming decoder after a validated gather.  Out-of-range
        input here is undefined behaviour (it can corrupt the array or
        raise a raw numpy error), so only call it with indices some
        earlier pass already proved to lie in ``[0, size)``.
        """
        if indices.size:
            engine_kernels.get_kernels(self._backend).set_bits(
                self._storage, self._size, indices
            )

    def clear(self) -> None:
        """Reset all bits to zero (start of a measurement period)."""
        self._backend.clear(self._storage)

    def get_bits(self, indices: IndexLike) -> np.ndarray:
        """The bits at *indices* as a boolean vector (gather).

        The read-side dual of :meth:`set_bits`, with the same
        validation: out-of-range or non-integral indices raise
        :class:`~repro.errors.ValidationError`.  The streaming decoder
        uses this to split an ingest batch into already-set and
        newly-set bits without materializing the whole array.
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
        if idx.size == 0:
            return np.zeros(0, dtype=bool)
        if idx.min() < 0 or idx.max() >= self._size:
            raise ValidationError(
                f"bit indices must lie in [0, {self._size}); got range "
                f"[{idx.min()}, {idx.max()}]"
            )
        return self._backend.get_bits(self._storage, self._size, idx)

    # ------------------------------------------------------------------
    # Statistics (offline decoding phase)
    # ------------------------------------------------------------------
    def count_ones(self) -> int:
        """Number of set bits."""
        return engine_kernels.get_kernels(self._backend).popcount(
            self._storage, self._size
        )

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
    def __or__(self, other: "BitArray") -> "BitArray":
        """Bitwise OR of two equal-length arrays (paper Eq. 4).

        The result uses the left operand's backend; a mixed-backend
        right operand is converted first.
        """
        if not isinstance(other, BitArray):
            return NotImplemented
        if other._size != self._size:
            raise ConfigurationError(
                "cannot OR bit arrays of different sizes "
                f"({self._size} vs {other._size}); unfold the smaller one first"
            )
        other_storage = other._storage_as(self._backend)
        return BitArray._wrap(
            self._size,
            self._backend.or_(self._storage, other_storage),
            self._backend,
        )

    def __ior__(self, other: "BitArray") -> "BitArray":
        """In-place OR-merge of an equal-length array (CRDT join).

        Mutates this array's storage directly — the federated
        collector's merge path, which absorbs shard partials without
        allocating per merge.  A mixed-backend right operand is
        converted first.
        """
        if not isinstance(other, BitArray):
            return NotImplemented
        if other._size != self._size:
            raise ConfigurationError(
                "cannot OR bit arrays of different sizes "
                f"({self._size} vs {other._size}); unfold the smaller one first"
            )
        self._backend.or_inplace(
            self._storage, other._storage_as(self._backend)
        )
        return self

    def or_bytes(self, data: bytes) -> None:
        """OR a serialized equal-length array (:meth:`to_bytes` form)
        into this one, in place.

        The zero-copy wire-merge path: under the packed backend a
        word-aligned payload is viewed as words and ORed directly,
        never unpacking to bools.  *data* is validated exactly like
        :meth:`from_bytes` (byte length, zero padding), so untrusted
        snapshot payloads cannot corrupt the padding invariant.
        """
        expected = (self._size + 7) // 8
        if len(data) != expected:
            raise ValidationError(
                f"bit array of size {self._size} needs exactly {expected} "
                f"bytes, got {len(data)}"
            )
        tail_bits = self._size % 8
        if tail_bits and data[-1] & ((1 << (8 - tail_bits)) - 1):
            raise ValidationError(
                f"nonzero padding bits in the final byte of a size-"
                f"{self._size} bit array (last byte 0x{data[-1]:02x}); "
                "the sender disagrees about the array length"
            )
        self._backend.or_bytes(self._storage, self._size, data)

    def __and__(self, other: "BitArray") -> "BitArray":
        """Bitwise AND of two equal-length arrays."""
        if not isinstance(other, BitArray):
            return NotImplemented
        if other._size != self._size:
            raise ConfigurationError(
                "cannot AND bit arrays of different sizes "
                f"({self._size} vs {other._size}); unfold the smaller one first"
            )
        other_storage = other._storage_as(self._backend)
        return BitArray._wrap(
            self._size,
            self._backend.and_(self._storage, other_storage),
            self._backend,
        )

    def tile(self, repeats: int) -> "BitArray":
        """Content duplicated *repeats* times — the storage-level form
        of unfolding (Eq. 3); prefer :func:`repro.core.unfolding.unfold`
        which validates the scheme's size constraints."""
        if repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
        return BitArray._wrap(
            self._size * int(repeats),
            engine_kernels.get_kernels(self._backend).unfold(
                self._storage, self._size, int(repeats)
            ),
            self._backend,
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
        all-zero array is returned.  The result takes the first
        array's backend (the current one when empty); mixed-backend
        inputs are converted first.
        """
        arrays = list(arrays)
        if not arrays:
            if size is None:
                raise ConfigurationError(
                    "or_reduce of no arrays needs an explicit size"
                )
            return cls(size)
        resolved = arrays[0]._backend
        target = arrays[0]._size if size is None else int(size)
        for array in arrays:
            if array._size != target:
                raise ConfigurationError(
                    "cannot OR bit arrays of different sizes "
                    f"({target} vs {array._size}); unfold the smaller "
                    "one first"
                )
        merged = engine_kernels.get_kernels(resolved).or_reduce(
            [array._storage_as(resolved) for array in arrays], target
        )
        return cls._wrap(target, merged, resolved)

    def copy(self) -> "BitArray":
        """An independent copy."""
        return BitArray._wrap(
            self._size, self._backend.copy(self._storage), self._backend
        )

    def _storage_as(self, backend) -> np.ndarray:
        """This array's storage in *backend*'s representation (no copy
        when it already matches)."""
        if backend is self._backend:
            return self._storage
        return backend.from_bool(
            self._backend.to_bool(self._storage, self._size)
        )

    # ------------------------------------------------------------------
    # Serialization (RSU -> server report)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Pack into ``ceil(m / 8)`` bytes (big-endian bit order).

        Byte-identical across backends, so wire frames and persisted
        reports never depend on the storage representation.
        """
        return self._backend.to_bytes(self._storage, self._size)

    def __repr__(self) -> str:
        return (
            f"BitArray(size={self.size}, ones={self.count_ones()}, "
            f"backend={self.backend!r})"
        )
