"""The abstract bit-storage backend interface.

A backend owns one *storage* representation of a fixed-length bit
vector (the opaque numpy array :class:`~repro.core.bitarray.BitArray`
holds) and implements exactly the primitives the VLM scheme needs:
index scatter (online coding, Eq. 2), OR (Eq. 4), content tiling
(unfolding, Eq. 3), zero counting (the ``U``/``V`` statistics), and
big-endian byte (de)serialization for the RSU report.

Every method takes the logical ``size`` in bits where the storage alone
cannot recover it.  Implementations must maintain the invariant that
any padding capacity beyond ``size`` stays zero, so counting and
serialization never need masking on the read side.

The batch hooks :meth:`stack` and :meth:`or_zero_counts` power the
decoder's vectorized all-pairs path
(:meth:`repro.core.decoder.CentralDecoder.estimate_matrix`): all
unfolded arrays of a period become one 2-D matrix and every pairwise
``U_c`` falls out of broadcast OR + popcount instead of a Python-level
pair loop.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["BitBackend"]


class BitBackend(abc.ABC):
    """Storage-representation strategy behind ``BitArray``.

    Stateless: instances carry no per-array data, so one shared
    instance per backend name serves the whole process.
    """

    #: Registry name (``"legacy"`` / ``"packed"``).
    name: str = "abstract"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def zeros(self, size: int) -> np.ndarray:
        """Fresh all-zero storage for *size* bits."""

    @abc.abstractmethod
    def from_bool(self, bits: np.ndarray) -> np.ndarray:
        """Storage holding the boolean vector *bits* (copied)."""

    @abc.abstractmethod
    def from_bytes(self, data: bytes, size: int) -> np.ndarray:
        """Storage from ``ceil(size / 8)`` big-endian-bit-order bytes.

        The caller (``BitArray.from_bytes``) has already validated the
        byte length and that padding bits are zero.
        """

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def to_bool(self, storage: np.ndarray, size: int) -> np.ndarray:
        """The logical contents as a boolean vector of length *size*.

        May be a view of live storage or a materialized copy; callers
        must treat it as read-only.
        """

    @abc.abstractmethod
    def to_bytes(self, storage: np.ndarray, size: int) -> bytes:
        """Pack into ``ceil(size / 8)`` bytes (big-endian bit order,
        identical to ``np.packbits``)."""

    @abc.abstractmethod
    def get_bit(self, storage: np.ndarray, size: int, index: int) -> int:
        """The bit at *index* (already bounds-normalized) as 0/1."""

    def get_bits(
        self, storage: np.ndarray, size: int, indices: np.ndarray
    ) -> np.ndarray:
        """The bits at *indices* (already bounds-normalized) as a bool
        vector of ``indices.size``.

        The gather dual of :meth:`set_indices`, added for the streaming
        decoder: an incremental pair update needs to know which bits of
        a batch are *newly* set, and which positions of the peer array
        are still zero, without materializing the whole array.  The
        default routes through :meth:`to_bool`; backends override with
        a vectorized gather.
        """
        return np.asarray(self.to_bool(storage, size)[indices], dtype=bool)

    @abc.abstractmethod
    def count_ones(self, storage: np.ndarray, size: int) -> int:
        """Number of set bits."""

    @abc.abstractmethod
    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Whether two same-size, same-backend storages hold the same
        bits."""

    def nbytes(self, storage: np.ndarray) -> int:
        """Resident bytes of the storage buffer."""
        return int(storage.nbytes)

    def unit_bits(self) -> int:
        """Logical bits per storage element (64 for ``uint64`` words,
        1 for bools).  An array whose size is a multiple of it tiles
        (Eq. 3) element by element."""
        return 64 // self.zeros(64).size

    # ------------------------------------------------------------------
    # Mutation (online coding)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def set_index(self, storage: np.ndarray, index: int) -> None:
        """Set one bit in place (*index* already bounds-checked)."""

    @abc.abstractmethod
    def set_indices(
        self, storage: np.ndarray, size: int, indices: np.ndarray
    ) -> None:
        """Set a validated batch of bits in place (duplicates
        idempotent)."""

    @abc.abstractmethod
    def clear(self, storage: np.ndarray) -> None:
        """Reset every bit to zero in place."""

    # ------------------------------------------------------------------
    # Combination (offline decoding)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def copy(self, storage: np.ndarray) -> np.ndarray:
        """An independent copy of the storage."""

    @abc.abstractmethod
    def or_(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise OR of two equal-size storages (new storage)."""

    def or_inplace(self, storage: np.ndarray, other: np.ndarray) -> None:
        """OR *other* into *storage* in place (equal-size storages).

        The CRDT merge primitive of the federated collector: a shard's
        partial snapshot is absorbed without allocating a third array.
        ``np.bitwise_or`` acts as logical OR on bool storage and as
        word-wise OR on packed words, so one default serves both
        backends; the padding invariant is preserved because *other*
        already honours it.
        """
        np.bitwise_or(storage, other, out=storage)

    def or_bytes(self, storage: np.ndarray, size: int, data: bytes) -> None:
        """OR a serialized bit array (``to_bytes`` form) into *storage*.

        The wire-to-merge fast path: backends may override to consume
        the bytes directly (the packed backend ORs the payload's word
        view without materializing a bool vector).  The caller has
        already validated the byte length and zero padding, exactly as
        for :meth:`from_bytes`.
        """
        self.or_inplace(storage, self.from_bytes(data, size))

    @abc.abstractmethod
    def and_(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise AND of two equal-size storages (new storage)."""

    @abc.abstractmethod
    def tile(
        self, storage: np.ndarray, size: int, repeats: int
    ) -> np.ndarray:
        """Content duplicated *repeats* times — the unfolding of Eq. (3)
        at the storage level.  Result holds ``size * repeats`` bits."""

    # ------------------------------------------------------------------
    # Batched all-pairs decode
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def stack(self, storages, size: int) -> np.ndarray:
        """Stack equal-size storages into one 2-D matrix (row per
        array)."""

    @abc.abstractmethod
    def or_zero_counts(
        self, row: np.ndarray, rows: np.ndarray, size: int
    ) -> np.ndarray:
        """Zero-bit count of ``row | rows[j]`` for every row *j*.

        *row* is one storage vector, *rows* a 2-D stack from
        :meth:`stack`; returns an ``int64`` vector of per-pair ``U_c``
        statistics, the broadcast heart of the all-pairs decode.
        """

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(name={self.name!r})"
