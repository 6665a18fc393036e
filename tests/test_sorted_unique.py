"""``repro.utils.sorted_unique`` against ``np.unique``, and a guard
that the library's hot paths do not go back to ``np.unique``."""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils import sorted_unique

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def assert_same(values):
    expected = np.unique(values)
    got = sorted_unique(values)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


@given(
    values=st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1))
)
@settings(max_examples=100, deadline=None)
def test_random_int64(values):
    assert_same(np.array(values, dtype=np.int64))


@pytest.mark.parametrize(
    "values",
    [
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.uint64),
        np.array([7], dtype=np.int64),
        np.full(1000, 42, dtype=np.int64),
        np.array([2**64 - 1, 0, 2**63, 2**64 - 1, 5], dtype=np.uint64),
        np.random.default_rng(3).integers(0, 2**62, 50_000, dtype=np.int64),
        np.random.default_rng(4).integers(0, 300, 50_000, dtype=np.int64),
    ],
    ids=["empty", "empty-u64", "one", "all-dup", "u64", "ids", "bits"],
)
def test_edge_inputs(values):
    assert_same(values)


def test_input_is_not_modified():
    values = np.array([3, 1, 2, 1], dtype=np.int64)
    sorted_unique(values)
    np.testing.assert_array_equal(values, [3, 1, 2, 1])


def test_no_np_unique_in_the_library():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "np.unique(" in path.read_text()
    ]
    assert offenders == []
