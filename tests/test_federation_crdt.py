"""Property tests: shard partials form a state-based CRDT.

The federation's correctness argument rests on two algebraic facts,
checked here with Hypothesis rather than hand-picked examples:

* word-wise OR over bit arrays is commutative, associative and
  idempotent, and disjoint partial counters are additive — so
  :func:`~repro.federation.collector.merge_partial_reports` reaches the
  same state regardless of delivery order or duplication;
* **any** partition of a period's responses across any number of
  shards OR-merges to the bit-identical unsharded array, so the
  decoded estimate matrix cannot depend on the sharding.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitarray import BitArray
from repro.core.reports import RsuReport
from repro.vcps.ids import random_macs
from repro.vcps.pki import CertificateAuthority
from repro.vcps.rsu import RoadsideUnit

ARRAY_BITS = 256

AUTHORITY = CertificateAuthority(seed=7)


def make_rsu():
    return RoadsideUnit(1, ARRAY_BITS, AUTHORITY.issue(1))


def make_partial(bits_on, counter):
    """An RsuReport whose array has exactly the given bits set."""
    array = BitArray(ARRAY_BITS)
    array.set_bits(sorted(bits_on))
    return RsuReport(rsu_id=1, counter=counter, bits=array, period=0)


partials = st.lists(
    st.builds(
        make_partial,
        st.sets(st.integers(0, ARRAY_BITS - 1), max_size=40),
        st.integers(0, 1_000),
    ),
    min_size=1,
    max_size=6,
)


def merged_key(report):
    return (report.counter, report.bits.to_bytes())


class TestOrMergeLaws:
    @given(partials)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, reports):
        from repro.federation import merge_partial_reports

        forward = merge_partial_reports(reports)
        backward = merge_partial_reports(list(reversed(reports)))
        assert merged_key(forward) == merged_key(backward)

    @given(partials, partials)
    @settings(max_examples=60, deadline=None)
    def test_associative(self, left, right):
        from repro.federation import merge_partial_reports

        stepwise = merge_partial_reports(
            [merge_partial_reports(left), merge_partial_reports(right)]
        )
        flat = merge_partial_reports(left + right)
        assert merged_key(stepwise) == merged_key(flat)

    @given(partials)
    @settings(max_examples=60, deadline=None)
    def test_bits_idempotent(self, reports):
        """Re-merging an already-merged array changes no bits.  (The
        counter is deliberately NOT idempotent — the wire layer dedups
        on (shard, seq) so each partial's counter is added once.)"""
        from repro.federation import merge_partial_reports

        once = merge_partial_reports(reports)
        replay = make_partial((), 0)
        replay.bits |= once.bits
        again = merge_partial_reports([once, replay])
        assert again.bits.to_bytes() == once.bits.to_bytes()
        assert again.bits.count_ones() == once.bits.count_ones()

    @given(partials)
    @settings(max_examples=60, deadline=None)
    def test_counter_is_additive(self, reports):
        from repro.federation import merge_partial_reports

        merged = merge_partial_reports(reports)
        assert merged.counter == sum(r.counter for r in reports)


class TestPartitionInvariance:
    """Splitting one RSU's day across shards decodes identically."""

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=5),
        st.lists(
            st.integers(min_value=0, max_value=4),
            min_size=0,
            max_size=120,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_partition_matches_unsharded(
        self, seed, shard_count, assignment
    ):
        from repro.federation import merge_partial_reports

        count = len(assignment)
        macs = random_macs(count, seed=seed)
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, ARRAY_BITS, size=count)
        owners = np.asarray(assignment, dtype=np.int64) % shard_count

        # Unsharded golden: one RSU sees every response.
        golden = make_rsu()
        golden.handle_wire_batch(macs, indices)
        golden_report = golden.end_period()

        # Sharded: responses partitioned by the arbitrary assignment,
        # each shard owning an independent zeroed replica.
        replicas = [make_rsu() for _ in range(shard_count)]
        for shard, replica in enumerate(replicas):
            mine = owners == shard
            replica.handle_wire_batch(macs[mine], indices[mine])
        merged = merge_partial_reports(
            [replica.end_period() for replica in replicas]
        )

        assert merged.bits.to_bytes() == golden_report.bits.to_bytes()
        assert merged.counter == golden_report.counter
        assert (
            merged.bits.count_ones() == golden_report.bits.count_ones()
        )
