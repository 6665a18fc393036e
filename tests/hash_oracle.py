"""Eq. (2) hashing with one fresh array per step: the unblocked oracle.

:mod:`repro.hashing.hashfn` and :func:`repro.hashing.select_indices`
run splitmix64 in place over fixed-size blocks and fuse the whole of
Eq. (2) into one block loop.  This module keeps the straightforward
form those kernels must match bit for bit: every splitmix64 step
allocates its result, the slot is reduced with ``%`` whatever ``s``
is, and ``select_indices`` hashes the slot and the word as two whole-
array calls.  ``tests/test_hash_kernels.py`` is the differential
battery.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64
_GOLDEN = U64(0x9E3779B97F4A7C15)
_MIX1 = U64(0xBF58476D1CE4E5B9)
_MIX2 = U64(0x94D049BB133111EB)


def splitmix64(value):
    """The splitmix64 finalization, one temporary per step."""
    with np.errstate(over="ignore"):
        z = np.asarray(value, dtype=np.uint64) + _GOLDEN
        z = (z ^ (z >> U64(30))) * _MIX1
        z = (z ^ (z >> U64(27))) * _MIX2
        z = z ^ (z >> U64(31))
    return z


def hash_u64(value, *, seed=0):
    """``splitmix64(value ^ splitmix64(seed mod 2**64))``."""
    with np.errstate(over="ignore"):
        mixed = np.asarray(value, dtype=np.uint64) ^ splitmix64(
            U64(seed & 0xFFFFFFFFFFFFFFFF)
        )
    return splitmix64(mixed)


def select_indices(vehicle_ids, vehicle_keys, rsu_id, salts, m_o, *, seed=0):
    """``H(v ^ K_v ^ X[H(v ^ K_v ^ H(R_x)) % s]) & (m_o - 1)`` as int64."""
    ids = np.asarray(vehicle_ids, dtype=np.uint64)
    keys = np.asarray(vehicle_keys, dtype=np.uint64)
    rsu_word = hash_u64(rsu_id, seed=seed ^ 0x52535500)
    with np.errstate(over="ignore"):
        slot_words = hash_u64(ids ^ keys ^ rsu_word, seed=seed ^ 0x534C4F54)
    slots = (slot_words % U64(salts.size)).astype(np.int64)
    with np.errstate(over="ignore"):
        material = ids ^ keys ^ salts.values[slots]
    words = hash_u64(material, seed=seed)
    return (words & (U64(m_o) - U64(1))).astype(np.int64)
