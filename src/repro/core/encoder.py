"""Online coding phase (paper Section IV-B, Eqs. 1-2).

Two granularities are provided:

* :class:`RsuState` — per-RSU mutable state (counter + bit array) with
  a per-vehicle ``record`` method, used by the agent-based VCPS
  simulation in :mod:`repro.vcps`;
* :func:`encode_passes` — a vectorized bulk encoder that processes an
  entire vehicle population against one RSU in a single numpy pass,
  used by the experiment harness where millions of reports are
  simulated.

Both produce byte-identical bit arrays for the same inputs (tested in
``tests/test_encoder.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bitarray import BitArray
from repro.core.parameters import SchemeParameters
from repro.core.reports import RsuReport
from repro.errors import ConfigurationError
from repro.hashing.logical_bitarray import select_indices
from repro.obs import get_registry
from repro.utils.validation import check_power_of_two

__all__ = ["RsuState", "encode_passes"]


@dataclass
class RsuState:
    """Mutable per-RSU measurement state for one period.

    Parameters
    ----------
    rsu_id:
        Identifier ``R_x``.
    array_size:
        Bit array length ``m_x`` (power of two, from the sizing rule).
    """

    rsu_id: int
    array_size: int
    counter: int = 0
    bits: BitArray = field(default=None)
    period: int = 0

    def __post_init__(self) -> None:
        check_power_of_two(self.array_size, "array_size")
        if self.bits is None:
            self.bits = BitArray(self.array_size)
        elif self.bits.size != self.array_size:
            raise ConfigurationError(
                f"bit array size {self.bits.size} != array_size {self.array_size}"
            )

    def record(self, bit_index: int) -> None:
        """Process one vehicle response (paper Eqs. 1-2).

        Increments the counter ``n_x`` and sets bit *bit_index* in
        ``B_x``.  The index must already be reduced to ``[0, m_x)`` by
        the vehicle (the RSU trusts but bounds-checks it).
        """
        if not 0 <= bit_index < self.array_size:
            raise ConfigurationError(
                f"reported bit index {bit_index} outside [0, {self.array_size})"
            )
        self.counter += 1
        self.bits.set_bit(bit_index)

    def record_many(self, bit_indices: np.ndarray) -> None:
        """Vectorized :meth:`record` for a batch of responses."""
        idx = np.atleast_1d(np.asarray(bit_indices, dtype=np.int64))
        if idx.size and (idx.min() < 0 or idx.max() >= self.array_size):
            raise ConfigurationError(
                f"reported bit indices outside [0, {self.array_size})"
            )
        self.counter += int(idx.size)
        self.bits.set_bits(idx)

    def record_trusted(self, bit_indices: np.ndarray) -> None:
        """:meth:`record_many` minus the re-validation, for callers
        that already proved every index lies in ``[0, array_size)``.

        The gateway's zero-copy wire ingest runs one fused bounds/MAC
        pass over the decoded frame views and then records through
        here, so the batch is bounds-checked exactly once instead of
        three times (see
        :meth:`~repro.core.bitarray.BitArray.set_bits_unchecked` for
        the trust contract).  *bit_indices* must be an ``int64`` array.
        """
        self.counter += int(bit_indices.size)
        self.bits.set_bits_unchecked(bit_indices)

    def reset(self, period: int = None) -> None:
        """Start a new measurement period: zero counter and bits."""
        self.counter = 0
        self.bits.clear()
        if period is not None:
            self.period = period

    def report(self) -> RsuReport:
        """Snapshot the current period's report (bit array copied)."""
        return RsuReport(
            rsu_id=self.rsu_id,
            counter=self.counter,
            bits=self.bits.copy(),
            period=self.period,
        )


def encode_passes(
    vehicle_ids: np.ndarray,
    vehicle_keys: np.ndarray,
    rsu_id: int,
    array_size: int,
    params: SchemeParameters,
    *,
    period: int = 0,
) -> RsuReport:
    """Encode an entire vehicle population passing one RSU.

    Computes every vehicle's reported index
    ``H(v XOR K_v XOR X[j]) mod m_x`` (paper Eq. 2), with the slot
    ``j = H(v XOR K_v XOR H(R_x)) mod s``, in one vectorized pass and
    returns the RSU's period report.

    Parameters
    ----------
    vehicle_ids, vehicle_keys:
        Parallel integer arrays: identities ``v`` and private keys
        ``K_v`` of the vehicles that passed this RSU during the period.
    rsu_id:
        The RSU identity ``R_x`` (hashed to select the salt slot).
    array_size:
        The RSU's bit array size ``m_x``; must be a power of two and
        must not exceed ``params.m_o``.
    params:
        Global scheme parameters (``s``, salts, hash seed, ``m_o``).
    """
    array_size = check_power_of_two(array_size, "array_size")
    if array_size > params.m_o:
        raise ConfigurationError(
            f"array_size {array_size} exceeds the largest array m_o={params.m_o}"
        )
    ids = np.asarray(vehicle_ids, dtype=np.uint64)
    keys = np.asarray(vehicle_keys, dtype=np.uint64)
    if ids.shape != keys.shape:
        raise ConfigurationError(
            f"vehicle_ids shape {ids.shape} != vehicle_keys shape {keys.shape}"
        )
    logical = select_indices(
        ids, keys, rsu_id, params.salts, params.m_o, seed=params.hash_seed
    )
    # Power-of-two reduction in place: b_x = b mod m_x.
    logical &= array_size - 1
    bits = BitArray.from_indices(array_size, logical)
    registry = get_registry()
    registry.counter("core.encode_calls_total").inc()
    registry.counter("core.encode_responses_total").inc(int(ids.size))
    return RsuReport(
        rsu_id=rsu_id, counter=int(ids.size), bits=bits, period=period
    )
