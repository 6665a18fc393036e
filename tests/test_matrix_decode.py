"""The size-blocked all-pairs decode against the per-pair reference.

``CentralDecoder.estimate_matrix`` counts every pair's joint zeros at
the pair's own size, in column tiles gathered from native-size
words; ``all_pairs`` unfolds and ORs one pair at a time.  The two
must return equal dicts in equal key order, on fleets whose sizes span
several column tiles, sizes below one word, and sizes that
tile without being powers of two.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.decoder as decoder_module
from repro.core import bitwords
from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder, joint_zero_matrix
from repro.errors import ConfigurationError, SaturatedArrayError
from repro.core.reports import RsuReport
from tests.bit_oracle import KERNEL_SETS, POPCOUNT_PATHS, kernels, popcount_path
from tests.streaming_oracle import tiled_joint_zeros

#: Several column tiles, one word, and sub-word sizes.
SPANNING = [1 << 18, 1 << 17, 1 << 17, 1 << 16, 1 << 12, 64, 32, 16, 8, 1 << 18]
#: Sizes that tile but are not powers of two (widths that neither
#: divide nor are divided by the tile width).
THREES = [3 << 16, 3 << 15, 3 << 10, 192, 48, 24, 3 << 16, 3 << 14]
#: Power-of-two rows against stacks that are not: the 1,536-word stack
#: is wider than the pre-tiling width without being a multiple of it.
MIXED = [3 << 16, 3 << 15, 3 << 12, 3 << 16, 1 << 12, 1 << 10, 64, 8, 1 << 12]


def fleet(sizes, seed, *, policy="clamp"):
    """A decoder holding one random report per size, under shuffled
    RSU ids so key order and the smaller-first swap both matter."""
    rng = np.random.default_rng(seed)
    decoder = CentralDecoder(2, policy=policy)
    ids = rng.permutation(len(sizes)) * 3 + 1
    for rsu_id, size in zip(ids.tolist(), sizes):
        bits = rng.random(size) < rng.uniform(0.05, 0.95)
        decoder.submit(
            RsuReport(
                rsu_id,
                int(bits.sum()) + int(rng.integers(0, 50)),
                BitArray.from_bits(bits),
            )
        )
    return decoder


@pytest.mark.parametrize("engine", KERNEL_SETS)
@pytest.mark.parametrize(
    "sizes", [SPANNING, THREES, MIXED], ids=["pow2", "threes", "mixed"]
)
def test_matrix_equals_all_pairs_in_key_order(engine, sizes):
    with kernels(engine):
        decoder = fleet(sizes, seed=len(sizes))
        assert list(decoder.estimate_matrix().items()) == list(
            decoder.all_pairs().items()
        )


def _brute_force(arrays):
    return list(tiled_joint_zeros(dict(enumerate(arrays))).values())


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    engine=st.sampled_from(KERNEL_SETS),
    lookup_table=st.sampled_from(POPCOUNT_PATHS),
    budget=st.sampled_from([1, 2, 16, 1 << 10, 1 << 16]),
    span=st.sampled_from([64, 128, 1 << 10, 1 << 16]),
)
@settings(max_examples=60, deadline=None)
def test_joint_zeros_equal_brute_force_at_any_tile_width(
    seed, engine, lookup_table, budget, span
):
    """Any class tile budget and pre-tiling span; size mixes draw
    one-member classes as often as crowded ones, and power-of-two
    sizes beside sizes of three times a power of two."""
    rng = np.random.default_rng(seed)
    base = int(rng.integers(2, 9))
    exponents = np.sort(base + rng.integers(0, 6, size=int(rng.integers(2, 9))))
    # The smallest `ones` sizes are powers of two, the rest three times
    # one: every size still divides every larger one.
    ones = int(rng.integers(0, exponents.size + 1))
    sizes = [
        (1 if rank < ones else 3) << int(exponent)
        for rank, exponent in enumerate(exponents)
    ]
    sizes = [sizes[i] for i in rng.permutation(len(sizes))]
    arrays = [rng.random(size) < rng.uniform(0.0, 1.0) for size in sizes]
    with kernels(engine), popcount_path(lookup_table), mock.patch.multiple(
        decoder_module, TILE_WORDS=budget, MIN_ROW_BITS=span
    ):
        got = joint_zero_matrix([BitArray.from_bits(bits) for bits in arrays])
    assert got.tolist() == _brute_force(arrays)


#: One member per class, so each class is swept in one tile as wide as
#: its arrays: up to 2**18 bits, four times the uint16 accumulator's
#: reach.
LONE_CLASSES = [1 << 18, 1 << 17, 1 << 16, 1 << 12, 64, 16]


@pytest.mark.parametrize("engine", KERNEL_SETS)
@pytest.mark.parametrize("lookup_table", POPCOUNT_PATHS)
@pytest.mark.parametrize("sizes", [LONE_CLASSES, LONE_CLASSES + [1 << 18]])
def test_dense_tiles_wider_than_two_to_the_sixteen_bits(engine, lookup_table, sizes):
    """Near-full arrays: a joint of 2**17 or 2**18 set bits in one
    tile overflows any accumulator narrower than the tile's width."""
    rng = np.random.default_rng(len(sizes))
    arrays = [rng.random(size) < 0.97 for size in sizes]
    with kernels(engine), popcount_path(lookup_table):
        got = joint_zero_matrix([BitArray.from_bits(bits) for bits in arrays])
    assert got.tolist() == _brute_force(arrays)


def test_sizes_that_do_not_tile_are_rejected():
    decoder = fleet([48, 64], seed=1)
    with pytest.raises(ConfigurationError, match="not a multiple"):
        decoder.estimate_matrix()


def test_raise_names_the_first_saturated_pair():
    decoder = CentralDecoder(2, policy="raise")
    low = np.zeros(64, dtype=bool)
    low[:32] = True
    for rsu_id, bits in ((1, low), (2, low), (3, ~low), (4, ~low)):
        decoder.submit(RsuReport(rsu_id, 32, BitArray.from_bits(bits)))
    with pytest.raises(
        SaturatedArrayError,
        match=r"joint array for RSU pair \(1, 3\) is saturated",
    ):
        decoder.estimate_matrix()


def test_invalid_scheme_size_raises_like_the_pair_path():
    """``s >= m_y`` fails in Eq. (5)'s denominator for the first pair,
    with the pair path's error."""
    decoder = fleet([8, 16, 64], seed=2)
    decoder.s = 16
    with pytest.raises(ConfigurationError) as matrix_error:
        decoder.estimate_matrix()
    with pytest.raises(ConfigurationError) as pair_error:
        decoder.all_pairs()
    assert str(matrix_error.value) == str(pair_error.value)


@pytest.mark.parametrize("words", [1023, 1024, 4096])
def test_full_rows_do_not_overflow_the_popcount_accumulator(words):
    """All-ones rows either side of the uint16 accumulator's reach."""
    size = 64 * words
    row = np.full(words, np.iinfo(np.uint64).max, dtype=np.uint64)
    rows = np.stack([row, np.zeros(words, dtype=np.uint64)])
    scratch = (np.empty(rows.size, np.uint64), np.empty(rows.size, np.uint8))
    counts = bitwords.pairwise_or_popcount(row, rows, scratch)
    assert counts.tolist() == [size, size]
