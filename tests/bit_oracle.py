"""One numpy bool per bit: the bit array before it was packed into words.

``BitArray`` keeps its bits in ``uint64`` words and does its work with
word-parallel OR, shifts and popcount.  This module keeps the original
bool semantics, unoptimized, as the differential oracle every word
operation must match: scatter is fancy-index assignment, OR and AND are
elementwise, unfolding is ``np.tile``, counting is a sum, and the bytes
are ``np.packbits``.

:func:`kernels` runs the whole library on those semantics: inside
``kernels("legacy")`` every word kernel of :mod:`repro.core.bitwords`
is swapped for a bool version that unpacks the words, does the bool
operation and packs the result back, so a test parametrized over
:data:`KERNEL_SETS` checks the word kernels against the oracle through
the encoder, the decoder and streaming, not only one call at a time.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence
from unittest import mock

import numpy as np

from repro.core import bitwords


class BoolBits:
    """A bit array of *size* bits held as a numpy bool vector."""

    def __init__(self, size: int, bits: np.ndarray = None) -> None:
        self.bits = (
            np.zeros(int(size), dtype=bool)
            if bits is None
            else np.asarray(bits, dtype=bool).copy()
        )
        assert self.bits.shape == (int(size),)

    @classmethod
    def from_indices(cls, size: int, indices: Iterable[int]) -> "BoolBits":
        oracle = cls(size)
        oracle.set_bits(indices)
        return oracle

    @classmethod
    def from_bytes(cls, data: bytes, size: int) -> "BoolBits":
        unpacked = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=size)
        return cls(size, unpacked.astype(bool))

    @property
    def size(self) -> int:
        return int(self.bits.size)

    def set_bits(self, indices: Iterable[int]) -> None:
        self.bits[np.asarray(list(indices), dtype=np.int64)] = True

    def get_bits(self, indices: Iterable[int]) -> np.ndarray:
        return self.bits[np.asarray(list(indices), dtype=np.int64)]

    def count_ones(self) -> int:
        return int(self.bits.sum())

    def __or__(self, other: "BoolBits") -> "BoolBits":
        return BoolBits(self.size, self.bits | other.bits)

    def __and__(self, other: "BoolBits") -> "BoolBits":
        return BoolBits(self.size, self.bits & other.bits)

    def tile(self, repeats: int) -> "BoolBits":
        return BoolBits(self.size * repeats, np.tile(self.bits, repeats))

    def or_bytes(self, data: bytes) -> None:
        self.bits |= BoolBits.from_bytes(data, self.size).bits

    def to_bytes(self) -> bytes:
        return np.packbits(self.bits.astype(np.uint8)).tobytes()


def or_reduce(arrays: Sequence[BoolBits], size: int) -> BoolBits:
    """Eq. (4) over many arrays: all zeros when there are none."""
    merged = BoolBits(size)
    for array in arrays:
        merged = merged | array
    return merged


def joint_zero_counts(a: BoolBits, b: BoolBits) -> int:
    """Zero bits of ``a | b``: one pair's ``U_c``."""
    return a.size - (a | b).count_ones()


def pairwise_or_popcount(row: BoolBits, rows: Sequence[BoolBits]) -> np.ndarray:
    """Set bits of ``row | rows[j]`` for every *j*."""
    return np.array([(row | other).count_ones() for other in rows], dtype=np.int64)


# ----------------------------------------------------------------------
# The bool semantics as drop-in word kernels
# ----------------------------------------------------------------------
#: The layout codecs, captured before any patching: the bool kernels
#: read and write words only through these.
_to_bool = bitwords.to_bool
_from_bool = bitwords.from_bool


def _bools(words: np.ndarray, size: int = None) -> np.ndarray:
    if size is None:
        size = words.size * bitwords.WORD_BITS
    return _to_bool(words, size)


def _bool_set_bit(words, index):
    bits = _bools(words)
    bits[index] = True
    words[:] = _from_bool(bits)


def _bool_set_bits(words, size, indices):
    bits = _bools(words, size)
    bits[indices] = True
    words[:] = _from_bool(bits)


def _bool_get_bit(words, index):
    return int(_bools(words)[index])


def _bool_get_bits(words, indices):
    return _bools(words)[indices]


def _bool_popcount(words):
    return int(_bools(words).sum())


def _bool_joint_zero_counts(a, b, size):
    return int(size) - int((_bools(a, size) | _bools(b, size)).sum())


def _bool_pairwise_or_popcount(row, rows):
    own = _bools(row)
    return np.array(
        [int((own | _bools(other)).sum()) for other in rows], dtype=np.int64
    )


def _bool_or_reduce(vectors, size):
    merged = np.zeros(int(size), dtype=bool)
    for words in vectors:
        merged |= _bools(words, size)
    return _from_bool(merged)


def _bool_or_bytes(words, size, data):
    incoming = BoolBits.from_bytes(data, size).bits
    words[:] = _from_bool(_bools(words, size) | incoming)


def _bool_unfold(words, size, repeats):
    return _from_bool(np.tile(_bools(words, size), int(repeats)))


def _bool_from_bytes(data, size):
    return _from_bool(BoolBits.from_bytes(data, size).bits)


def _bool_to_bytes(words, size):
    return BoolBits(size, _bools(words, size)).to_bytes()


#: Every word kernel of :mod:`repro.core.bitwords`, per kernel set.
#: ``packed`` holds the shipped functions (captured at import, so it
#: restores them even inside a ``legacy`` block); ``legacy`` holds the
#: bool versions above.  ``zeros``, ``from_bool`` and ``to_bool`` are
#: the layout codecs both sets share.
LEGACY_KERNELS = {
    "from_bytes": _bool_from_bytes,
    "get_bit": _bool_get_bit,
    "get_bits": _bool_get_bits,
    "joint_zero_counts": _bool_joint_zero_counts,
    "or_bytes": _bool_or_bytes,
    "or_reduce": _bool_or_reduce,
    "pairwise_or_popcount": _bool_pairwise_or_popcount,
    "popcount": _bool_popcount,
    "set_bit": _bool_set_bit,
    "set_bits": _bool_set_bits,
    "to_bytes": _bool_to_bytes,
    "unfold": _bool_unfold,
}
PACKED_KERNELS = {name: getattr(bitwords, name) for name in LEGACY_KERNELS}
CODECS = ("WORD_BITS", "from_bool", "to_bool", "zeros")

#: The kernel sets a differential test sweeps; ``packed`` is the name
#: ``repro.engine.default_backend_name()`` still reports.
KERNEL_SETS = ("legacy", "packed")


@contextmanager
def kernels(name: str) -> Iterator[None]:
    """Run the block on the *name* kernel set (blocks nest)."""
    table = {"legacy": LEGACY_KERNELS, "packed": PACKED_KERNELS}.get(name)
    if table is None:
        raise ValueError(
            f"unknown kernel set {name!r}; expected one of {KERNEL_SETS}"
        )
    with mock.patch.multiple(bitwords, **table):
        yield
