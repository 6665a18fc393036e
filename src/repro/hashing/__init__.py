"""Hashing substrate for the masking schemes.

The paper's online coding phase (Section IV-B) derives all reported bit
indices from a hash function ``H`` over ``v XOR K_v XOR X[j]``, where
``v`` is the vehicle id, ``K_v`` its private key, and ``X`` an array of
public random salt constants.  This package provides:

* :mod:`repro.hashing.hashfn` — a vectorized 64-bit mixer (splitmix64
  finalization) used as ``H``;
* :mod:`repro.hashing.salts` — generation of the global salt array ``X``;
* :mod:`repro.hashing.logical_bitarray` — the per-vehicle logical bit
  array ``LB_v`` and the bit-selection rule for a given RSU.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "splitmix64": ".hashfn",
        "hash_u64": ".hashfn",
        "hash_to_range": ".hashfn",
        "SaltArray": ".salts",
        "LogicalBitArray": ".logical_bitarray",
        "select_indices": ".logical_bitarray",
    },
)
