"""The "unfolding" technique (paper Section IV-C, Eq. 3).

To compare two bit arrays of different sizes, the central server
expands the smaller array ``B_x`` (size ``m_x``) to the size ``m_y`` of
the larger one by duplicating its content ``m_y / m_x`` times:

    ``B_x^u[i] = B_x[i mod m_x]``  for all ``i in [0, m_y)``.

Because both sizes are powers of two, the ratio is an exact integer and
the unfolded array preserves the zero-bit *fraction* of the original —
the property the estimator relies on ("the fraction of zero bits in
``B_x^u`` is the same as ``B_x``").

The duplication itself happens on the words
(:meth:`~repro.core.bitarray.BitArray.tile`): whole ``uint64`` words
when the size is a multiple of 64 bits, whole bytes when it is a
multiple of 8 (:func:`repro.core.bitwords.unfold`).
"""

from __future__ import annotations

from repro.core.bitarray import BitArray
from repro.errors import ConfigurationError
from repro.obs import get_registry

__all__ = ["unfold", "unfolded_or"]


def unfold(array: BitArray, target_size: int) -> BitArray:
    """Expand *array* to *target_size* bits by content duplication.

    *target_size* must be an exact multiple of ``array.size`` (the
    scheme guarantees this by restricting sizes to powers of two).
    Unfolding to the array's own size returns a copy.
    """
    if target_size < array.size:
        raise ConfigurationError(
            f"cannot unfold to a smaller size ({array.size} -> {target_size})"
        )
    if target_size % array.size != 0:
        raise ConfigurationError(
            f"target size {target_size} is not a multiple of source size "
            f"{array.size}; the scheme requires power-of-two lengths"
        )
    repeats = target_size // array.size
    get_registry().counter("core.unfold_total").inc()
    return array.tile(repeats)


def unfolded_or(smaller: BitArray, larger: BitArray) -> BitArray:
    """Compute ``B_c = unfold(B_x) OR B_y`` (paper Eqs. 3-4).

    Arguments may be passed in either order; the smaller array is
    unfolded to the larger size.
    """
    if smaller.size > larger.size:
        smaller, larger = larger, smaller
    get_registry().counter("core.unfolded_or_total").inc()
    return unfold(smaller, larger.size) | larger
