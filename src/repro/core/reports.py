"""The per-period report an RSU sends to the central server.

At the end of each measurement period every RSU ships its counter
``n_x`` and bit array ``B_x`` (paper Section IV-C).  The report is the
*only* interface between the online coding phase and the offline
decoding phase, so the decoder can be exercised against reports from
the agent-based VCPS simulation, the vectorized encoder, or synthetic
constructions interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bitarray import BitArray
from repro.errors import ConfigurationError

__all__ = ["RsuReport"]


@dataclass
class RsuReport:
    """Counter and bit array reported by one RSU for one period.

    Parameters
    ----------
    rsu_id:
        Identifier of the reporting RSU.
    counter:
        The point traffic volume ``n_x`` (number of vehicle passes
        recorded this period).
    bits:
        The bit array ``B_x`` after the period's online coding.
    period:
        Index of the measurement period the report covers.
    """

    rsu_id: int
    counter: int
    bits: BitArray
    period: int = 0

    def __post_init__(self) -> None:
        if self.counter < 0:
            raise ConfigurationError(f"counter must be >= 0, got {self.counter}")

    @property
    def array_size(self) -> int:
        """Size ``m_x`` of the reported bit array."""
        return self.bits.size

    @property
    def zero_fraction(self) -> float:
        """The ``V_x`` statistic of the reported array."""
        return self.bits.zero_fraction()

    @property
    def fill_load(self) -> float:
        """Realized load factor ``m_x / n_x`` (``inf`` for an idle RSU)."""
        if self.counter == 0:
            return float("inf")
        return self.array_size / self.counter
