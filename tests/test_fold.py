"""OR-folding: the ``bitwords.fold`` kernel and the fixed-length
baseline's reports folded from the VLM ones.

Eq. (2) reduces every logical index by a power of two, so an array
scattered at indices ``b`` folds to the array scattered at ``b mod t``.
The battery holds each of the kernel's three tiers (word reshape for
``t % 64 == 0``, byte reshape for ``t % 8 == 0``, bools otherwise) to
that identity, to the bool oracle and to ``fold(unfold(x)) == x``.
The scheme tests hold :meth:`FixedLengthScheme.encode` of a folded
report to the bytes the passes themselves encode to.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.baseline.scheme import FixedLengthScheme
from repro.core import bitwords
from repro.core.bitarray import BitArray
from repro.core.encoder import encode_passes
from repro.core.parameters import SchemeParameters
from repro.errors import ConfigurationError
from repro.experiments import sioux_falls_matrix
from repro.experiments.sioux_falls_matrix import run_od_matrix
from repro.experiments.table1 import run_table1
from repro.obs import MetricsRegistry, use_registry
from repro.traffic.scenarios import TABLE1_PAIRS
from tests.bit_oracle import BoolBits

#: Power-of-two fold targets: the bool tier (2, 4), the byte tier (8,
#: 16, 32) and the word tier (64 and up).
pow2_targets = st.sampled_from([2, 8, 16, 64]) | st.integers(1, 10).map(
    lambda k: 1 << k
)


def _indices(data, size):
    drawn = data.draw(st.lists(st.integers(0, size - 1), max_size=2 * size))
    return np.asarray(drawn, dtype=np.int64)


class TestFoldKernel:
    @given(pow2_targets, st.integers(1, 16), st.data())
    @settings(max_examples=120, deadline=None)
    def test_fold_of_a_scatter_is_the_reduced_scatter(self, target, repeats, data):
        size = target * repeats
        indices = _indices(data, size)
        folded = BitArray.from_indices(size, indices).fold(target)
        # Equal words, padding included.
        assert folded == BitArray.from_indices(target, indices & (target - 1))

    @given(pow2_targets, st.integers(1, 16), st.data())
    @settings(max_examples=120, deadline=None)
    def test_fold_undoes_unfold(self, target, repeats, data):
        array = BitArray.from_indices(target, _indices(data, target))
        assert array.tile(repeats).fold(target) == array

    @given(st.integers(1, 200), st.integers(1, 8), st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_divisor_matches_the_oracle(self, target, repeats, data):
        # Targets that are not powers of two reach every tier too
        # (3, 24, 192, ...).
        size = target * repeats
        indices = _indices(data, size)
        words = BitArray.from_indices(size, indices).words
        folded = bitwords.fold(words, size, target)
        expected = BoolBits.from_indices(size, indices).fold(target)
        assert folded.size == -(-target // bitwords.WORD_BITS)
        assert bitwords.to_bytes(folded, target) == expected.to_bytes()
        assert np.array_equal(folded, bitwords.from_bool(expected.bits))

    @pytest.mark.parametrize("target", [3, 8, 64, 128])
    def test_result_is_a_fresh_array(self, target):
        for repeats in (1, 4):
            source = BitArray.from_indices(target * repeats, [0, target - 1])
            before = source.to_bytes()
            folded = source.fold(target)
            folded.set_bits(list(range(target)))
            assert source.to_bytes() == before

    def test_identity_at_the_same_size(self):
        array = BitArray.from_indices(96, [0, 40, 95])
        assert array.fold(96) == array

    @pytest.mark.parametrize("target", [0, -8, 3, 48, 128, 2.5])
    def test_a_size_that_does_not_divide_is_refused(self, target):
        with pytest.raises(ConfigurationError):
            BitArray(64).fold(target)


def _fleet(n, seed):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 2**63, n, dtype=np.uint64)
    keys = rng.integers(0, 2**63, n, dtype=np.uint64)
    return ids, keys


def _as_bytes(report):
    return (
        report.rsu_id,
        report.counter,
        report.period,
        report.array_size,
        report.bits.to_bytes(),
    )


class TestBaselineFoldsReports:
    @pytest.mark.parametrize("s", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("m, m_x", [(4096, 4096), (4096, 65536), (64, 1024)])
    def test_folded_report_equals_the_encoded_passes(self, s, m, m_x):
        source = SchemeParameters(s=s, m_o=1 << 17, hash_seed=11)
        ids, keys = _fleet(5_000, seed=s)
        report = encode_passes(ids, keys, 7, m_x, source, period=2)
        base = FixedLengthScheme(m, s=s, hash_seed=11)
        folded = base.encode({7: report}, period=2, source=source)[7]
        hashed = base.encode({7: (ids, keys)}, period=2)[7]
        assert _as_bytes(folded) == _as_bytes(hashed)

    @given(
        st.sampled_from([1, 2, 3, 5, 10]),
        st.integers(2, 8),
        st.integers(0, 6),
        st.integers(0, 300),
        st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_sub_word_sizes(self, s, m_bits, extra_bits, n, seed):
        # m from 4 bits: the bool and byte tiers of the fold.
        m = 1 << m_bits
        assume(s < m)
        m_x = m << extra_bits
        source = SchemeParameters(s=s, m_o=max(m_x, 1 << 10), hash_seed=seed)
        ids, keys = _fleet(n, seed)
        report = encode_passes(ids, keys, 3, m_x, source)
        base = FixedLengthScheme(m, s=s, hash_seed=seed)
        folded = base.encode({3: report}, source=source)[3]
        assert _as_bytes(folded) == _as_bytes(base.encode_rsu(3, ids, keys))

    def test_run_period_mixes_reports_and_passes(self):
        source = SchemeParameters(s=2, m_o=1 << 14, hash_seed=5)
        fleets = {rsu: _fleet(2_000, rsu) for rsu in (1, 2, 3)}
        base = FixedLengthScheme(1024, s=2, hash_seed=5)
        inputs = {
            1: encode_passes(*fleets[1], 1, 1 << 14, source),
            2: fleets[2],
            3: encode_passes(*fleets[3], 3, 1024, source),
        }
        reports = base.run_period(inputs, source=source)
        expected = base.encode(fleets)
        assert {k: _as_bytes(r) for k, r in reports.items()} == {
            k: _as_bytes(r) for k, r in expected.items()
        }
        assert base.decoder.rsu_ids() == [1, 2, 3]

    def test_folded_report_does_not_share_bits(self):
        source = SchemeParameters(s=2, m_o=4096, hash_seed=5)
        report = encode_passes(*_fleet(100, 1), 1, 1024, source)
        folded = FixedLengthScheme(1024, s=2, hash_seed=5).encode(
            {1: report}, source=source
        )[1]
        before = folded.bits.to_bytes()
        report.bits.set_bits(list(range(1024)))
        assert folded.bits.to_bytes() == before

    def test_a_fold_is_not_an_encode(self):
        source = SchemeParameters(s=2, m_o=4096, hash_seed=5)
        report = encode_passes(*_fleet(100, 1), 1, 4096, source)
        with use_registry(MetricsRegistry()) as registry:
            FixedLengthScheme(1024, s=2, hash_seed=5).encode(
                {1: report}, source=source
            )
        assert registry.counter("core.encode_calls_total").value == 0
        assert registry.counter("core.encode_responses_total").value == 0

    def test_a_size_m_does_not_divide_is_refused(self):
        source = SchemeParameters(s=2, m_o=4096, hash_seed=5)
        report = encode_passes(*_fleet(100, 1), 1, 512, source)
        base = FixedLengthScheme(1024, s=2, hash_seed=5)
        with pytest.raises(ConfigurationError, match="does not fold"):
            base.encode({1: report}, source=source)

    @pytest.mark.parametrize(
        "source",
        [
            SchemeParameters(s=3, m_o=4096, hash_seed=5),
            SchemeParameters(s=2, m_o=4096, hash_seed=6),
            None,
        ],
        ids=["salts", "seed", "missing"],
    )
    def test_other_parameters_are_refused(self, source):
        report = encode_passes(
            *_fleet(100, 1), 1, 4096, source or SchemeParameters(m_o=4096)
        )
        with pytest.raises(ConfigurationError):
            FixedLengthScheme(1024, s=2, hash_seed=5).encode(
                {1: report}, source=source
            )

    def test_another_rsus_report_is_refused(self):
        source = SchemeParameters(s=2, m_o=4096, hash_seed=5)
        report = encode_passes(*_fleet(100, 1), 1, 4096, source)
        with pytest.raises(ConfigurationError, match="RSU 1"):
            FixedLengthScheme(1024, s=2, hash_seed=5).encode(
                {2: report}, source=source
            )


@pytest.fixture
def baseline_hashes(monkeypatch):
    """The RSUs the fixed-length baseline hashes passes for."""
    hashed = []

    def counting(*args, **kwargs):
        hashed.append(args[2])
        return encode_passes(*args, **kwargs)

    monkeypatch.setattr("repro.baseline.scheme.encode_passes", counting)
    return hashed


class TestExperimentsFold:
    def test_run_od_matrix_hashes_no_pass_twice(self, baseline_hashes):
        # m = 2^floor(log2(f n_min)) divides every m_x = 2^ceil(log2(f
        # n_x)), so the baseline folds every report and hashes nothing.
        run_od_matrix(scenario="grid-4x6", total_trips=24_000, min_truth=50)
        assert baseline_hashes == []

    def test_table1_hashes_no_pass_twice(self, baseline_hashes):
        # Table I's baseline m (262,144) divides every VLM size there.
        run_table1(pairs=TABLE1_PAIRS[:2], repetitions=2)
        assert baseline_hashes == []

    def test_mismatched_parameters_are_refused(self, monkeypatch):
        # A baseline hashed with another seed cannot take VLM reports.
        class OtherSeed(FixedLengthScheme):
            def __init__(self, array_size, *, s, hash_seed):
                super().__init__(array_size, s=s, hash_seed=hash_seed + 1)

        monkeypatch.setattr(sioux_falls_matrix, "FixedLengthScheme", OtherSeed)
        with pytest.raises(ConfigurationError):
            run_od_matrix(scenario="grid-4x6", total_trips=24_000, min_truth=50)
