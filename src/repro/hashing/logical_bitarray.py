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
from repro.hashing.hashfn import (
    _BLOCK,
    _mix,
    _seed_word,
    _unwrap,
    hash_to_range,
    hash_u64,
)
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
    ``H(v XOR K_v XOR X[j])`` with range ``[0, m_o)``, where the slot
    ``j = H(v XOR K_v XOR H(R_x)) mod s`` is :func:`salt_slot`'s (see
    the module-level fidelity note).  The caller reduces modulo the
    RSU's own ``m_x`` afterwards (see
    :func:`repro.core.encoder.encode_passes`).

    All of Eq. (2) runs in one loop over blocks of ``_BLOCK`` vehicles:
    ``v XOR K_v`` once, the slot hash, the salt gather, the word hash
    and the ``m_o`` mask, each in place, so a block stays in cache from
    its first step to its last.  A power-of-two ``s`` reduces the slot
    with ``& (s - 1)``, which equals ``% s``.
    """
    m_o = check_power_of_two(m_o, "m_o")
    s = salts.size
    ids, keys = np.broadcast_arrays(
        np.asarray(vehicle_ids, dtype=np.uint64),
        np.asarray(vehicle_keys, dtype=np.uint64),
    )
    # salt_slot's hash of v ^ K_v ^ H(R_x) is keyed by the slot seed;
    # folding H(R_x) into that key leaves one XOR per vehicle.
    slot_key = hash_u64(rsu_id, seed=seed ^ 0x52535500) ^ _seed_word(
        seed ^ 0x534C4F54
    )
    # The word hash's key folded into the salts: one XOR per vehicle
    # gives v ^ K_v ^ X[j] ^ key.
    keyed_salts = salts.values ^ _seed_word(seed)
    s_mask = np.uint64(s - 1) if s & (s - 1) == 0 else None
    m_mask = np.uint64(m_o - 1)
    out = np.empty(ids.shape, dtype=np.int64)
    flat_ids, flat_keys = ids.reshape(-1), keys.reshape(-1)
    # The int64 output doubles as the uint64 working block: the final
    # mask leaves every word below m_o, the same value in either type.
    words = out.reshape(-1).view(np.uint64)
    size = min(words.size, _BLOCK)
    slot_buffer, scratch = np.empty(size, np.uint64), np.empty(size, np.uint64)
    for start in range(0, words.size, _BLOCK):
        stop = min(start + _BLOCK, words.size)
        block = words[start:stop]
        slots, spare = slot_buffer[: stop - start], scratch[: stop - start]
        np.bitwise_xor(flat_ids[start:stop], flat_keys[start:stop], out=block)
        np.bitwise_xor(block, slot_key, out=slots)
        _mix(slots, spare)
        if s_mask is None:
            np.remainder(slots, np.uint64(s), out=slots)
        else:
            slots &= s_mask
        # Every slot already lies in [0, s): "clip" never fires, and it
        # spares the buffered copy the default "raise" mode makes.
        np.take(keyed_salts, slots.view(np.int64), out=spare, mode="clip")
        block ^= spare
        _mix(block, spare)
        block &= m_mask
    return _unwrap(out)


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
