"""``PairMatrix``, the columnar all-pairs result, against the dict of
per-pair estimates it replaced.

Every all-pairs decode returns a :class:`~repro.core.estimator.PairMatrix`.
Read as a mapping it must be the ``{(x, y): PairEstimate}`` dict that
``CentralDecoder.all_pairs`` builds pair by pair: the same keys in the
same order, every field equal and of the same Python type, the same
error for the same first pair, and ``== {}`` below two RSUs.
"""

import pickle

import numpy as np
import pytest

from repro.baseline.scheme import FixedLengthScheme
from repro.core import PairMatrix
from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.estimator import (
    PairEstimate,
    ZeroFractionPolicy,
    estimate_from_fractions,
    estimate_pair_matrix,
)
from repro.core.reports import RsuReport
from repro.core.scheme import VlmScheme
from repro.errors import SaturatedArrayError
from repro.scenarios import get_scenario

FIELDS = ("value", "v_c", "v_x", "v_y", "m_x", "m_y", "n_x", "n_y", "s")


@pytest.fixture(scope="module")
def workload():
    return get_scenario("sioux-falls").workload(total_trips=20_000, seed=5)


def _decoder(kind, workload):
    if kind == "vlm":
        scheme = VlmScheme(
            workload.volumes(),
            s=2,
            load_factor=2.0,
            hash_seed=7,
            policy=ZeroFractionPolicy.CLAMP,
        )
    else:
        scheme = FixedLengthScheme(1 << 12, s=2, hash_seed=7)
    scheme.run_period(workload.passes())
    return scheme.decoder


def random_fleet(sizes, seed, *, policy="clamp", fill=(0.05, 0.95)):
    rng = np.random.default_rng(seed)
    decoder = CentralDecoder(2, policy=policy)
    ids = rng.permutation(len(sizes)) * 5 + 2
    for rsu_id, size in zip(ids.tolist(), sizes):
        bits = rng.random(size) < rng.uniform(*fill)
        decoder.submit(
            RsuReport(rsu_id, int(bits.sum()) + 3, BitArray.from_bits(bits))
        )
    return decoder


def assert_same_as_dict(matrix, expected):
    assert isinstance(matrix, PairMatrix)
    assert list(matrix) == list(expected)
    assert list(matrix.keys()) == list(expected.keys())
    for (key, got), (want_key, want) in zip(matrix.items(), expected.items()):
        assert key == want_key and got == want
        for name in FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a == b and type(a) is type(b), (key, name)
        assert repr(got) == repr(want)
        assert matrix[key] == want
    assert list(matrix.values()) == list(expected.values())
    assert len(matrix) == len(expected)
    assert matrix == expected and expected == matrix


@pytest.mark.parametrize("kind", ["vlm", "baseline"])
def test_fleet_matrix_reads_as_the_per_pair_dict(kind, workload):
    decoder = _decoder(kind, workload)
    assert_same_as_dict(decoder.estimate_matrix(), decoder.all_pairs())


def test_sizes_below_one_word():
    decoder = random_fleet([8, 16, 32, 64, 128, 32, 8], seed=3)
    assert_same_as_dict(decoder.estimate_matrix(), decoder.all_pairs())


def _saturating_fleet(policy):
    decoder = CentralDecoder(2, policy=policy)
    low = np.zeros(128, dtype=bool)
    low[:64] = True
    for rsu_id, bits in ((4, low), (9, ~low), (11, low), (12, ~low)):
        decoder.submit(RsuReport(rsu_id, 64, BitArray.from_bits(bits)))
    return decoder


def test_saturated_joint_array_under_clamp():
    decoder = _saturating_fleet("clamp")
    matrix = decoder.estimate_matrix()
    assert matrix[(4, 9)].v_c == 0.5 / 128
    assert_same_as_dict(matrix, decoder.all_pairs())


def test_raise_names_the_same_first_pair():
    """Under RAISE the matrix fails on the first saturated pair in key
    order, the pair the per-pair loop fails on first."""
    decoder = _saturating_fleet("raise")
    with pytest.raises(SaturatedArrayError, match=r"RSU pair \(4, 9\)"):
        decoder.estimate_matrix()
    with pytest.raises(SaturatedArrayError):
        decoder.all_pairs()
    with pytest.raises(SaturatedArrayError):
        decoder.pair_estimate(4, 9)
    decoder.pair_estimate(4, 11)


@pytest.mark.parametrize("count", [0, 1])
def test_fewer_than_two_rsus_is_empty(count):
    decoder = random_fleet([64] * count, seed=1)
    matrix = decoder.estimate_matrix()
    assert isinstance(matrix, PairMatrix)
    assert matrix == {} and {} == matrix and len(matrix) == 0
    assert list(matrix) == [] and matrix == decoder.all_pairs()
    assert matrix == PairMatrix.empty(decoder.s)


def test_rsu_id_subsets_and_pickle(workload):
    decoder = _decoder("vlm", workload)
    every = decoder.rsu_ids()
    for subset in (every[::3], every[5:9], [every[-1], every[0]]):
        matrix = decoder.estimate_matrix(rsu_ids=subset)
        assert_same_as_dict(matrix, decoder.all_pairs(rsu_ids=subset))
        restored = pickle.loads(pickle.dumps(matrix))
        assert restored == matrix and list(restored) == list(matrix)
        assert not restored.value.flags.writeable


def test_index_matches_dict_positions(workload):
    decoder = _decoder("vlm", workload)
    matrix = decoder.estimate_matrix()
    expected = decoder.all_pairs()
    positions = {key: p for p, key in enumerate(expected)}
    rng = np.random.default_rng(0)
    keys = list(expected)
    picked = [keys[t] for t in rng.integers(0, len(keys), 200).tolist()]
    a = np.array([x for x, _ in picked])
    b = np.array([y for _, y in picked])
    assert matrix.index(a, b).tolist() == [positions[key] for key in picked]
    assert matrix.value[matrix.index(a, b)].tolist() == [
        expected[key].value for key in picked
    ]
    x, y = matrix.pair_ids()
    assert list(zip(x.tolist(), y.tolist())) == keys


def test_reversed_and_unknown_keys():
    matrix = random_fleet([64, 128, 256], seed=4).estimate_matrix()
    (x, y) = next(iter(matrix))
    for key in ((y, x), (x, x), (x, 10_000), (x,), "xy", 3):
        assert key not in matrix
        with pytest.raises(KeyError):
            matrix[key]
    assert matrix.get((y, x)) is None
    with pytest.raises(KeyError):
        matrix.index([y], [x])
    assert matrix.index([y, x], [x, y], strict=False).tolist() == [-1, 0]


def test_read_only_mapping():
    matrix = random_fleet([64, 128, 256], seed=4).estimate_matrix()
    assert not isinstance(matrix, dict)
    for name in ("copy", "pop", "update", "__setitem__", "__or__"):
        assert not hasattr(matrix, name)
    with pytest.raises(ValueError):
        matrix.value[0] = 0.0


def test_matrices_compare_by_their_arrays():
    decoder = random_fleet([64, 128, 256, 64], seed=6)
    matrix = decoder.estimate_matrix()
    assert matrix == decoder.estimate_matrix()
    other = random_fleet([64, 128, 256, 64], seed=7).estimate_matrix()
    assert matrix != other
    assert (matrix == other) == (dict(matrix.items()) == dict(other.items()))


def test_columns_follow_the_dataclass_fields():
    matrix = random_fleet([64, 128, 32], seed=8).estimate_matrix()
    columns = matrix.columns()
    assert tuple(columns) == FIELDS
    assert tuple(columns) == tuple(PairEstimate.__dataclass_fields__)
    rows = zip(*(column.tolist() for column in columns.values()))
    assert [PairEstimate(*row) for row in rows] == list(matrix.values())


def test_finisher_equals_scalar_eq5_on_random_inputs():
    """The finisher takes ``math.log`` once per distinct ``V_c`` and
    gathers.  On 10**5 random pairs every value is bit-equal to Eq. (5)
    applied pair by pair with ``math.log``."""
    rng = np.random.default_rng(11)
    k = 448  # 100,128 pairs
    sizes = (1 << rng.integers(6, 22, k)).tolist()
    counters = rng.integers(0, 10**6, k).tolist()
    fractions = rng.uniform(0.01, 1.0, k).tolist()
    rows, cols = np.triu_indices(k, 1)
    m = np.array(sizes)
    m_y = np.maximum(m[rows], m[cols])
    zeros = rng.integers(1, m_y + 1)
    matrix = estimate_pair_matrix(
        list(range(k)), sizes, counters, fractions, zeros, 2, ZeroFractionPolicy.RAISE
    )
    expected = []
    pairs = zip(rows.tolist(), cols.tolist(), zeros.tolist(), m_y.tolist())
    for i, j, u_c, size in pairs:
        x, y = (j, i) if sizes[i] > sizes[j] else (i, j)
        expected.append(
            estimate_from_fractions(u_c / size, fractions[x], fractions[y], size, 2)
        )
    assert len(matrix) == rows.size == 100_128
    assert matrix.value.tobytes() == np.array(expected).tobytes()
    assert matrix.v_c.tolist() == (zeros / m_y).tolist()
