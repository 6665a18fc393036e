"""Validated scheme-wide parameters.

One :class:`SchemeParameters` instance captures everything the three
entity groups (vehicles, RSUs, central server) must agree on out of
band: the logical bit array size ``s``, the global load factor ``f̄``,
the largest physical array size ``m_o``, and the shared hash seed
(standing in for the publicly agreed hash function ``H`` and salt
array ``X``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.hashing.salts import SaltArray
from repro.utils.validation import check_power_of_two

__all__ = ["SchemeParameters"]

#: Default logical bit array size used by the paper's headline results.
DEFAULT_S = 2

#: A load factor inside the paper's empirically optimal band f* in [2, 4].
DEFAULT_LOAD_FACTOR = 3.0


@dataclass(frozen=True)
class SchemeParameters:
    """Global configuration of the VLM scheme.

    Parameters
    ----------
    s:
        Number of bits in each vehicle's logical bit array (paper uses
        2, 5, 10).  Must satisfy ``1 <= s < m_o``.
    load_factor:
        The global load factor ``f̄`` applied by every RSU's sizing
        rule.
    m_o:
        Size of the largest physical bit array among all RSUs; logical
        bit positions are drawn from ``[0, m_o)``.  Power of two.
    hash_seed:
        Shared seed selecting the concrete hash function ``H`` and salt
        array ``X``.
    """

    s: int = DEFAULT_S
    load_factor: float = DEFAULT_LOAD_FACTOR
    m_o: int = 1 << 20
    hash_seed: int = 0
    _salts: SaltArray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if int(self.s) != self.s or self.s < 1:
            raise ConfigurationError(f"s must be a positive integer, got {self.s!r}")
        if self.load_factor <= 0:
            raise ConfigurationError(
                f"load_factor must be > 0, got {self.load_factor!r}"
            )
        check_power_of_two(self.m_o, "m_o")
        if self.s >= self.m_o:
            raise ConfigurationError(
                f"s ({self.s}) must be smaller than m_o ({self.m_o}); the "
                "estimator denominator of Eq. (5) degenerates otherwise"
            )
        object.__setattr__(
            self, "_salts", SaltArray(int(self.s), seed=int(self.hash_seed))
        )

    @property
    def salts(self) -> SaltArray:
        """The global salt array ``X`` derived from ``(s, hash_seed)``."""
        return self._salts
