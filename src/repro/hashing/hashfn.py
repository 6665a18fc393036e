"""Deterministic, vectorized 64-bit hash function ``H``.

The paper only requires ``H`` to map its input uniformly onto
``[0, m_o)``.  We use the splitmix64 finalization function — a
well-studied bijective mixer with excellent avalanche behaviour — and
reduce modulo a power of two.  All operations are numpy ``uint64``
arithmetic so millions of vehicle reports hash in a single call.

The mixer runs in place over fixed blocks of :data:`_BLOCK` words, one
scratch buffer beside the output, so a million-word call never leaves
cache between its nine steps.  splitmix64 is elementwise, so blocking
cannot change a bit of the result.
"""

from __future__ import annotations

import functools
from typing import Union

import numpy as np

__all__ = ["splitmix64", "hash_u64", "hash_to_range"]

U64 = np.uint64
_GOLDEN = U64(0x9E3779B97F4A7C15)
_MIX1 = U64(0xBF58476D1CE4E5B9)
_MIX2 = U64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Words per block of the in-place kernels: 512 KiB, so a block, its
#: scratch and the caller's inputs stay resident in a 2 MiB L2.
_BLOCK = 1 << 16

IntOrArray = Union[int, np.ndarray]


def _as_u64(value: IntOrArray) -> np.ndarray:
    """Coerce *value* (scalar or array of Python ints) to ``uint64``."""
    return np.asarray(value, dtype=np.uint64)


def _mix(z: np.ndarray, scratch: np.ndarray) -> None:
    """The splitmix64 finalization, in place on the array *z*;
    *scratch* is an array of the same length that the shifts write
    into.  Array arithmetic wraps modulo ``2**64`` without a warning."""
    z += _GOLDEN
    np.right_shift(z, U64(30), out=scratch)
    z ^= scratch
    z *= _MIX1
    np.right_shift(z, U64(27), out=scratch)
    z ^= scratch
    z *= _MIX2
    np.right_shift(z, U64(31), out=scratch)
    z ^= scratch


def _unwrap(out: np.ndarray):
    """A 0-d result as a numpy scalar (what elementwise ufuncs give)."""
    return out if out.ndim else out[()]


def _hash_blocks(value: IntOrArray, key) -> np.ndarray:
    """``splitmix64(value ^ key)`` elementwise, one block at a time."""
    words = _as_u64(value)
    out = np.empty(words.shape, dtype=np.uint64)
    flat_in, flat_out = words.reshape(-1), out.reshape(-1)
    scratch = np.empty(min(flat_out.size, _BLOCK), dtype=np.uint64)
    for start in range(0, flat_out.size, _BLOCK):
        block = flat_out[start : start + _BLOCK]
        np.bitwise_xor(flat_in[start : start + _BLOCK], key, out=block)
        _mix(block, scratch[: block.size])
    return _unwrap(out)


def splitmix64(value: IntOrArray) -> np.ndarray:
    """Apply the splitmix64 finalization mix to *value* elementwise.

    This is a bijection on 64-bit words, so distinct inputs never
    collide before the final range reduction.
    """
    return _hash_blocks(value, U64(0))


@functools.lru_cache(maxsize=64)
def _seed_word(seed: int) -> np.uint64:
    """The word ``splitmix64(seed)`` that keys :func:`hash_u64`
    (*seed* taken modulo ``2**64``); a deployment uses a handful of
    seeds, so each is mixed once."""
    return splitmix64(U64(seed & _MASK64))


def hash_u64(value: IntOrArray, *, seed: int = 0) -> np.ndarray:
    """Hash *value* to a full 64-bit word, keyed by *seed*.

    The seed models the global choice of hash function made once by the
    system operator; all entities (vehicles, RSUs, server) share it.
    """
    return _hash_blocks(value, _seed_word(seed))


def hash_to_range(value: IntOrArray, modulus: int, *, seed: int = 0) -> np.ndarray:
    """Hash *value* into ``[0, modulus)``.

    For power-of-two moduli (the only case the scheme uses — array
    lengths are ``2**k``) this is an exact uniform reduction via
    masking; other moduli fall back to ``%`` whose bias is negligible
    for ``modulus << 2**64``.
    """
    if modulus <= 0:
        raise ValueError(f"modulus must be positive, got {modulus}")
    words = hash_u64(value, seed=seed)
    m = np.uint64(modulus)
    if modulus & (modulus - 1) == 0:
        return (words & (m - np.uint64(1))).astype(np.int64)
    return (words % m).astype(np.int64)
