"""Per-vehicle logical bit arrays (paper Section IV-B).

Each vehicle ``v`` owns a *logical bit array* ``LB_v`` of ``s`` virtual
bits.  The ``i``-th logical bit is the physical position
``H(v XOR K_v XOR X[i])`` in the largest RSU bit array (size ``m_o``).
When the vehicle passes RSU ``R_x`` it picks the logical bit at
position ``j = H(R_x) mod s`` and reports
``b_x = LB_v[j] mod m_x`` — one bit index, no identifier.

The key privacy property engineered here: a vehicle passing two RSUs
selects the *same* logical bit with probability exactly ``1/s``,
independently per vehicle — the collision model the MLE estimator of
Eq. (5) inverts.

Fidelity note
-------------
Read literally, the paper's slot expression ``H(R_x) mod s`` is a
per-RSU *constant*: for a fixed RSU pair either every common vehicle
would select the same logical slot or none would, contradicting the
paper's own analysis ("for any vehicle, it has the same probability
1/s to select any bit", Eq. 6) and making the estimator degenerate for
any specific pair.  We therefore implement the analysis-consistent
variant: the slot is ``H(v XOR K_v XOR H(R_x)) mod s`` — deterministic
per (vehicle, RSU) so repeated queries are idempotent, uniform over
``[0, s)`` per vehicle, and independent across distinct RSUs.  This is
also what makes the reproduced Figs. 4/5 and Table I match the paper.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.hashfn import hash_to_range, hash_u64
from repro.hashing.salts import SaltArray
from repro.utils.validation import check_power_of_two

__all__ = ["LogicalBitArray", "select_indices", "salt_slot"]

IntOrArray = Union[int, np.ndarray]


def salt_slot(
    vehicle_ids: IntOrArray,
    vehicle_keys: IntOrArray,
    rsu_id: IntOrArray,
    s: int,
    *,
    seed: int = 0,
) -> np.ndarray:
    """Which logical bit slot each vehicle probes at RSU *rsu_id*.

    Computes ``H(v XOR K_v XOR H(R_x)) mod s`` (see the module-level
    fidelity note): uniform on ``[0, s)`` per vehicle, deterministic
    per (vehicle, RSU), independent across distinct RSUs.
    """
    if s < 1:
        raise ConfigurationError(f"s must be >= 1, got {s}")
    # Domain-separate the RSU word from the vehicle-side material.
    rsu_word = hash_u64(rsu_id, seed=seed ^ 0x52535500)
    with np.errstate(over="ignore"):
        material = (
            np.asarray(vehicle_ids, dtype=np.uint64)
            ^ np.asarray(vehicle_keys, dtype=np.uint64)
            ^ rsu_word
        )
    words = hash_u64(material, seed=seed ^ 0x534C4F54)
    return (words % np.uint64(s)).astype(np.int64)


def select_indices(
    vehicle_ids: IntOrArray,
    vehicle_keys: IntOrArray,
    rsu_id: int,
    salts: SaltArray,
    m_o: int,
    *,
    seed: int = 0,
) -> np.ndarray:
    """Vectorized bit selection for many vehicles passing one RSU.

    Implements paper Eq. (2)'s index computation
    ``H(v XOR K_v XOR X[H(R_x) mod s])`` with range ``[0, m_o)``.
    The caller reduces modulo the RSU's own ``m_x`` afterwards (see
    :func:`repro.core.encoder.encode_passes`).
    """
    m_o = check_power_of_two(m_o, "m_o")
    ids = np.asarray(vehicle_ids, dtype=np.uint64)
    keys = np.asarray(vehicle_keys, dtype=np.uint64)
    # salt_slot already reduced the slots into [0, s).
    slots = salt_slot(ids, keys, rsu_id, salts.size, seed=seed)
    with np.errstate(over="ignore"):
        material = ids ^ keys ^ salts.values[slots]
    return hash_to_range(material, m_o, seed=seed)


class LogicalBitArray:
    """The logical bit array ``LB_v`` of a single vehicle.

    This object-level API mirrors the paper's description for clarity
    and for the agent-based VCPS simulation; bulk experiments use the
    vectorized :func:`select_indices` instead.

    Parameters
    ----------
    vehicle_id:
        Integer identity ``v`` (never transmitted).
    private_key:
        The vehicle's private key ``K_v``.
    salts:
        The global salt array ``X`` (its ``size`` is ``s``).
    m_o:
        Size of the largest physical bit array among all RSUs; all
        logical bits live in ``[0, m_o)``.
    seed:
        Global hash-function seed.
    """

    def __init__(
        self,
        vehicle_id: int,
        private_key: int,
        salts: SaltArray,
        m_o: int,
        *,
        seed: int = 0,
    ) -> None:
        self.vehicle_id = int(vehicle_id)
        self._private_key = int(private_key)
        self.salts = salts
        self.m_o = check_power_of_two(m_o, "m_o")
        self.seed = int(seed)

    @property
    def s(self) -> int:
        """Number of logical bits."""
        return self.salts.size

    def indices(self) -> np.ndarray:
        """All ``s`` logical bit positions in ``[0, m_o)``.

        ``indices()[i]`` is ``H(v XOR K_v XOR X[i]) mod m_o``.
        """
        with np.errstate(over="ignore"):
            material = (
                np.uint64(self.vehicle_id & 0xFFFFFFFFFFFFFFFF)
                ^ np.uint64(self._private_key & 0xFFFFFFFFFFFFFFFF)
                ^ self.salts.values
            )
        return hash_to_range(material, self.m_o, seed=self.seed)

    def bit_for_rsu(self, rsu_id: int, m_x: int) -> int:
        """The index this vehicle reports to RSU *rsu_id* (paper Eq. 2).

        Selects this vehicle's logical slot for the RSU (uniform on
        ``[0, s)``; see the module fidelity note) and reduces the
        logical position modulo the RSU's array size ``m_x``.
        """
        m_x = check_power_of_two(m_x, "m_x")
        if m_x > self.m_o:
            raise ConfigurationError(
                f"RSU array size {m_x} exceeds the largest array m_o={self.m_o}"
            )
        slot = int(
            salt_slot(
                self.vehicle_id, self._private_key, rsu_id, self.s, seed=self.seed
            )
        )
        logical = int(self.indices()[slot])
        return logical % m_x

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"LogicalBitArray(vehicle_id={self.vehicle_id}, s={self.s}, "
            f"m_o={self.m_o})"
        )
