"""Concrete vehicle populations.

A :class:`VehicleFleet` owns the identity material (ids ``v`` and
private keys ``K_v``) for a set of vehicles; a :class:`PairPopulation`
partitions a fleet across two RSUs into the three sets the paper's
analysis names — ``S_x ∩ S_y``, ``S_x − S_y``, ``S_y − S_x`` — and
exposes the per-RSU pass arrays the encoders consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.arrays import sorted_unique
from repro.utils.rng import SeedLike, as_generator

__all__ = ["VehicleFleet", "PairPopulation"]


@dataclass(frozen=True)
class VehicleFleet:
    """Identity material for a set of vehicles.

    Vehicle ids model VINs — globally unique and *never transmitted*;
    private keys are uniform 63-bit integers a vehicle generates for
    itself (paper Section IV-B).
    """

    ids: np.ndarray
    keys: np.ndarray

    def __post_init__(self) -> None:
        if self.ids.shape != self.keys.shape or self.ids.ndim != 1:
            raise ConfigurationError(
                "ids and keys must be 1-D arrays of equal length"
            )

    @classmethod
    def random(cls, size: int, *, seed: SeedLike = None) -> "VehicleFleet":
        """Generate *size* vehicles with unique ids and random keys."""
        rng = as_generator(seed)
        # Unique ids without a giant permutation: random 62-bit draws
        # collide with probability ~size^2 / 2^62, negligible; we
        # nevertheless deduplicate deterministically.
        ids = rng.integers(0, 2**62, size=int(size * 1.01) + 8, dtype=np.int64)
        ids = sorted_unique(ids)[:size]
        while ids.size < size:  # pragma: no cover - astronomically rare
            extra = rng.integers(0, 2**62, size=size, dtype=np.int64)
            ids = sorted_unique(np.concatenate([ids, extra]))[:size]
        keys = rng.integers(0, 2**63 - 1, size=size, dtype=np.int64)
        return cls(ids=ids.astype(np.uint64), keys=keys.astype(np.uint64))

    def __len__(self) -> int:
        return int(self.ids.size)

    def slice(self, start: int, stop: int) -> "VehicleFleet":
        """Sub-fleet ``[start, stop)`` (views, zero-copy)."""
        return VehicleFleet(self.ids[start:stop], self.keys[start:stop])

    def concat(self, other: "VehicleFleet") -> "VehicleFleet":
        """Union of two disjoint fleets."""
        return VehicleFleet(
            np.concatenate([self.ids, other.ids]),
            np.concatenate([self.keys, other.keys]),
        )

    def passes(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(ids, keys)`` pair the encoders accept."""
        return self.ids, self.keys


@dataclass(frozen=True)
class PairPopulation:
    """Traffic at a pair of RSUs, partitioned the way the analysis is.

    Attributes
    ----------
    common:
        Vehicles in ``S_x ∩ S_y`` (cardinality ``n_c``).
    only_x:
        Vehicles in ``S_x − S_y``.
    only_y:
        Vehicles in ``S_y − S_x``.
    rsu_x, rsu_y:
        The RSU identifiers.
    """

    common: VehicleFleet
    only_x: VehicleFleet
    only_y: VehicleFleet
    rsu_x: int = 1
    rsu_y: int = 2

    def __post_init__(self) -> None:
        if self.rsu_x == self.rsu_y:
            raise ConfigurationError("a pair population needs two distinct RSUs")

    @property
    def n_x(self) -> int:
        """Point volume at ``R_x``: ``|S_x|``."""
        return len(self.common) + len(self.only_x)

    @property
    def n_y(self) -> int:
        """Point volume at ``R_y``: ``|S_y|``."""
        return len(self.common) + len(self.only_y)

    @property
    def n_c(self) -> int:
        """Ground-truth point-to-point volume ``|S_x ∩ S_y|``."""
        return len(self.common)

    def passes_at_x(self) -> Tuple[np.ndarray, np.ndarray]:
        """All vehicles that pass ``R_x`` (common + only-x)."""
        fleet = self.common.concat(self.only_x)
        return fleet.passes()

    def passes_at_y(self) -> Tuple[np.ndarray, np.ndarray]:
        """All vehicles that pass ``R_y`` (common + only-y)."""
        fleet = self.common.concat(self.only_y)
        return fleet.passes()

    def passes(self) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Mapping ``rsu_id -> (ids, keys)`` for ``Scheme.encode``."""
        return {self.rsu_x: self.passes_at_x(), self.rsu_y: self.passes_at_y()}

    def volumes(self) -> Dict[int, int]:
        """Mapping ``rsu_id -> point volume`` (for sizing rules)."""
        return {self.rsu_x: self.n_x, self.rsu_y: self.n_y}
