"""Word kernel + zero-copy wire ingest benchmarks.

Two sections, one artifact:

* **Kernel micro-benches** — every hot-path word kernel of
  :mod:`repro.core.bitwords`, timed on a ``2^20``-bit array, and the
  encoder's Eq. (2) hashing (``hash_u64``, ``select_indices`` at
  ``m_o = 2^20``) over as many responses as indices.  A second
  table splits ``set_bits`` into its three steps: a dense batch (more
  than ``m / 256`` indices) scatters into a bool vector, then packs
  the bools into words and ORs them in.  Reported, not gated.
* **Ingest comparison** — the gateway's old validated admission path
  (``index_batch_ingest`` below, a copy of the deleted
  ``RoadsideUnit.handle_index_batch``, which byteswap-copies the
  big-endian wire views and re-validates twice more downstream) versus
  the zero-copy path
  (:meth:`~repro.vcps.rsu.RoadsideUnit.handle_wire_batch`) on the
  same decoded frame views.  The issue's acceptance bar: the
  zero-copy path is >= 1.5x faster at ``m = 2^20``.

Run: ``pytest benchmarks/bench_kernels.py --benchmark-only``
Artifacts: ``results/kernels.txt``, ``results/BENCH_kernels.json``
"""

import os
import time

import numpy as np

from conftest import host_metadata, publish
from repro.core import bitwords
from repro.hashing import SaltArray, hash_u64, select_indices
from repro.utils.tables import AsciiTable
from repro.vcps.ids import locally_administered_mask, random_macs
from repro.vcps.pki import CertificateAuthority
from repro.vcps.rsu import RoadsideUnit

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
M = 1 << 20
BATCH = (1 << 16) if SMOKE else (1 << 19)
ROUNDS = 2 if SMOKE else 5
OR_ARRAYS = 16
PAIR_ROWS = 8 if SMOKE else 32


def _best(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def index_batch_ingest(rsu, macs, indices):
    """The validated array admission ``handle_wire_batch`` replaced:
    native-dtype copies of both arrays, a filter, and a re-validating
    ``record_many`` (the baseline the zero-copy floor compares to)."""
    macs = np.asarray(macs, dtype=np.uint64)
    indices = np.asarray(indices, dtype=np.int64)
    m = rsu._state.array_size
    valid = (indices >= 0) & (indices < m) & locally_administered_mask(macs)
    rejected = int(indices.size - int(valid.sum()))
    if rejected:
        rsu._rejected += rejected
        indices = indices[valid]
    rsu._state.record_many(indices)
    return int(indices.size)


def _kernel_timings(rng):
    """Per-op best-of-N wall times of the word kernels."""
    indices = rng.integers(0, M, size=BATCH, dtype=np.int64)
    filled = bitwords.zeros(M)
    bitwords.set_bits(filled, M, indices)
    others = []
    for _ in range(OR_ARRAYS):
        words = bitwords.zeros(M)
        bitwords.set_bits(
            words, M, rng.integers(0, M, size=BATCH // 8, dtype=np.int64)
        )
        others.append(words)
    rows = np.stack(others[:PAIR_ROWS])
    scratch = (np.empty(rows.size, np.uint64), np.empty(rows.size, np.uint8))
    small = bitwords.zeros(M // 16)
    bitwords.set_bits(
        small, M // 16, rng.integers(0, M // 16, size=256, dtype=np.int64)
    )
    ids = rng.integers(0, 2**64, size=BATCH, dtype=np.uint64, endpoint=False)
    keys = rng.integers(0, 2**64, size=BATCH, dtype=np.uint64, endpoint=False)
    salts = SaltArray(2, seed=3)
    return {
        "set_bits": _best(
            lambda: bitwords.set_bits(bitwords.zeros(M), M, indices)
        ),
        "or_reduce": _best(lambda: bitwords.or_reduce(others, M)),
        "popcount": _best(lambda: bitwords.popcount(filled)),
        "unfold": _best(lambda: bitwords.unfold(small, M // 16, 16)),
        "joint_zero_counts": _best(
            lambda: bitwords.joint_zero_counts(filled, M, others[0], M)
        ),
        "pairwise_or_popcount": _best(
            lambda: bitwords.pairwise_or_popcount(filled, rows, scratch)
        ),
        "hash_u64": _best(lambda: hash_u64(ids, seed=7)),
        "select_indices": _best(
            lambda: select_indices(ids, keys, 17, salts, M, seed=7)
        ),
    }


def _set_bits_split(rng):
    """Best-of-N seconds of each step of the dense ``set_bits`` path:
    the bool scatter, the pack to words, the OR."""
    indices = rng.integers(0, M, size=BATCH, dtype=np.int64)
    storage = bitwords.zeros(M)

    def scatter():
        bits = np.zeros(M, dtype=bool)
        bits[indices] = True
        return bits

    bits = scatter()
    words = bitwords.from_bool(bits)
    return {
        "bool_scatter": _best(scatter),
        "pack": _best(lambda: bitwords.from_bool(bits)),
        "or": _best(lambda: np.bitwise_or(storage, words, out=storage)),
    }


def test_kernel_ops_and_zero_copy_ingest():
    """Time every word kernel, then gate the ingest speedup."""
    rng = np.random.default_rng(29)
    kernels = _kernel_timings(rng)
    split = _set_bits_split(np.random.default_rng(31))

    # The ingest comparison starts from identical wire-decoded views:
    # big-endian >u8 MACs and >u4 indices, exactly what a
    # ResponseBatch.decode yields over the frame payload.
    macs = random_macs(BATCH, seed=rng)
    indices = rng.integers(0, M, size=BATCH, dtype=np.uint32)
    macs_be = macs.astype(">u8")
    indices_be = indices.astype(">u4")
    authority = CertificateAuthority(seed=3)

    def make_rsu():
        return RoadsideUnit(1, M, authority.issue(1))

    reference = make_rsu()
    index_batch_ingest(reference, macs_be, indices_be)
    check = make_rsu()
    check.handle_wire_batch(macs_be, indices_be)
    assert check.counter == reference.counter == BATCH
    assert check._state.bits == reference._state.bits

    def run_index():
        index_batch_ingest(make_rsu(), macs_be, indices_be)

    def run_wire():
        make_rsu().handle_wire_batch(macs_be, indices_be)

    index_s = _best(run_index)
    wire_s = _best(run_wire)
    speedup = index_s / wire_s

    table = AsciiTable(
        ["op", "ms"],
        title=(
            f"word kernels and Eq. 2 hashing, best-of-{ROUNDS} "
            f"(m = {M:,} bits, {BATCH:,} indices)"
        ),
    )
    for op, seconds in kernels.items():
        table.add_row([op, f"{seconds * 1e3:.3f}"])
    steps = AsciiTable(
        list(split) + ["sum"],
        title=f"set_bits, dense path, best-of-{ROUNDS} ms (not gated)",
    )
    steps.add_row(
        [f"{seconds * 1e3:.3f}" for seconds in split.values()]
        + [f"{sum(split.values()) * 1e3:.3f}"]
    )
    ingest = AsciiTable(
        ["path", "time (ms)", "responses/sec"],
        title=(
            f"wire ingest ({BATCH:,} responses, m = {M:,}): "
            f"zero-copy is {speedup:.2f}x"
        ),
    )
    ingest.add_row(
        ["index_batch_ingest", f"{index_s * 1e3:.2f}", f"{BATCH / index_s:,.0f}"]
    )
    ingest.add_row(
        ["handle_wire_batch", f"{wire_s * 1e3:.2f}", f"{BATCH / wire_s:,.0f}"]
    )
    publish(
        "kernels",
        "\n\n".join(t.render() for t in (table, steps, ingest)),
        data={
            "host": host_metadata(),
            "m": M,
            "batch": BATCH,
            "rounds": ROUNDS,
            "kernel_seconds": kernels,
            "set_bits_split_seconds": split,
            "ingest": {
                "index_batch_seconds": index_s,
                "wire_batch_seconds": wire_s,
                "speedup": speedup,
            },
        },
    )

    floor = 1.0 if SMOKE else 1.5
    assert speedup >= floor, (
        f"zero-copy ingest only {speedup:.2f}x over index_batch_ingest "
        f"(floor {floor}x)"
    )
