"""Differential battery for :class:`CentralDecoder`'s per-report cache.

The decoder keeps each stored report's zero count between queries and
drops it in ``submit``.  Every answer must still equal
:func:`estimate_intersection` on the reports stored at that moment,
field for field and error for error, through re-submits, in-place
OR-merges followed by a re-submit (the federated collector's
``_apply_partial``), resizes, and both key orders.
"""

import numpy as np
import pytest

from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.estimator import estimate_intersection
from repro.core.reports import RsuReport
from repro.errors import ReproError

S = 2
SIZES = (16, 64, 128, 256, 512)
RSUS = (1, 2, 3, 4)


def _bits(rng, size, density):
    return BitArray.from_bits(rng.random(size) < density)


def _report(rng, rsu_id, size, period=0):
    # Now and then a saturated array, so RAISE's errors are compared.
    density = 1.0 if rng.random() < 0.05 else rng.uniform(0.05, 0.9)
    return RsuReport(rsu_id, int(rng.integers(0, 500)), _bits(rng, size, density), period)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ReproError as exc:
        return type(exc), str(exc)


def _reference(decoder, x, y):
    return _outcome(
        estimate_intersection,
        decoder.report_for(x),
        decoder.report_for(y),
        decoder.s,
        policy=decoder.policy,
    )


def _check_pair(decoder, x, y):
    assert _outcome(decoder.pair_estimate, x, y) == _reference(decoder, x, y)


def _merge_in_place(rng, decoder, rsu_id):
    """OR a partial into the stored bits, then re-submit the merged
    report, as ``CollectorService._apply_partial`` does."""
    stored = decoder.report_for(rsu_id)
    partial = _bits(rng, stored.bits.size, rng.uniform(0.05, 0.5))
    stored.bits.or_bytes(partial.to_bytes())
    decoder.submit(
        RsuReport(rsu_id, stored.counter + 1, stored.bits, stored.period)
    )


@pytest.mark.parametrize("policy", ["raise", "clamp"])
@pytest.mark.parametrize("seed", range(12))
def test_random_sequences_match_reference(seed, policy):
    rng = np.random.default_rng(seed)
    decoder = CentralDecoder(S, policy=policy)
    for rsu_id in RSUS:
        decoder.submit(_report(rng, rsu_id, int(rng.choice(SIZES))))
    for _ in range(80):
        op = rng.random()
        rsu_id = int(rng.choice(RSUS))
        if op < 0.15:  # re-submit the same key with new bits, same size
            size = decoder.report_for(rsu_id).bits.size
            decoder.submit(_report(rng, rsu_id, size))
        elif op < 0.3:  # in-place OR-merge, then re-submit
            _merge_in_place(rng, decoder, rsu_id)
        elif op < 0.4:  # resize
            decoder.submit(_report(rng, rsu_id, int(rng.choice(SIZES))))
        elif op < 0.45:  # the batch path reads the same cache
            fresh = CentralDecoder(S, policy=policy)
            fresh.submit_many(decoder.report_for(r) for r in RSUS)
            matrix = _outcome(decoder.estimate_matrix)
            assert matrix == _outcome(fresh.estimate_matrix)
            if not isinstance(matrix, tuple):
                for (x, y), estimate in matrix.items():
                    assert estimate == _reference(decoder, x, y)
        else:  # a pair query, in either key order
            x, y = (int(v) for v in rng.choice(RSUS, size=2, replace=False))
            _check_pair(decoder, x, y)


def test_in_place_merge_after_a_cached_query():
    rng = np.random.default_rng(7)
    decoder = CentralDecoder(S, policy="clamp")
    decoder.submit(RsuReport(1, 10, _bits(rng, 256, 0.2)))
    decoder.submit(RsuReport(2, 10, _bits(rng, 256, 0.2)))
    before = decoder.pair_estimate(1, 2)
    _merge_in_place(rng, decoder, 1)
    after = decoder.pair_estimate(1, 2)
    assert after.v_x < before.v_x
    assert after == _reference(decoder, 1, 2)


def test_resubmit_and_resize_after_a_cached_query():
    rng = np.random.default_rng(8)
    decoder = CentralDecoder(S, policy="clamp")
    decoder.submit(RsuReport(1, 10, _bits(rng, 128, 0.3)))
    decoder.submit(RsuReport(2, 10, _bits(rng, 512, 0.3)))
    _check_pair(decoder, 1, 2)
    decoder.submit(RsuReport(1, 11, _bits(rng, 128, 0.7)))
    _check_pair(decoder, 1, 2)
    decoder.submit(RsuReport(1, 12, _bits(rng, 1024, 0.1)))
    _check_pair(decoder, 1, 2)
    _check_pair(decoder, 2, 1)


def test_equal_sizes_higher_id_first():
    rng = np.random.default_rng(9)
    decoder = CentralDecoder(S, policy="clamp")
    decoder.submit(RsuReport(3, 40, _bits(rng, 256, 0.2)))
    decoder.submit(RsuReport(8, 70, _bits(rng, 256, 0.6)))
    for x, y in ((8, 3), (3, 8), (8, 3)):
        estimate = decoder.pair_estimate(x, y)
        assert estimate == _reference(decoder, x, y)
        assert estimate.n_x == decoder.point_volume(x)
