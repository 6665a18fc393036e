"""Streaming incremental decode: live OD matrices at any instant.

The paper's decoder answers only at period close: every RSU ships its
full bit array, the server unfolds, ORs, and counts zeros.  This
package makes the same estimates available *while the period is still
open*, at per-batch cost proportional to the batch — never to the
period:

* :class:`StreamingDecoder` maintains, per period, one running bit
  array per RSU **and one running joint-zero count per RSU pair**.
  When a batch of response indices arrives it finds the batch's
  *newly set* bits with one vectorized gather
  (:meth:`repro.core.bitarray.BitArray.get_bits`), and for each pair
  subtracts exactly the joint positions those bits just killed.  A
  whole array (a period-close report or a window partial) is ORed in
  and each of its pairs recounted with word-level OR + popcount at
  the pair size.  A :meth:`live_matrix`
  query then needs no unfold, no OR, and no popcount over pairs — the
  counts are already sitting there.
* A ring of ``W`` sub-period **window** arrays per RSU slices the
  period into time intervals (rush hour vs off-peak):
  :meth:`window_matrix` decodes one window,
  :meth:`matrix_at` decodes the prefix of windows covering an instant
  ``t`` (quantized by ``window_s``), and per-vehicle-**class** arrays
  give the interval x class query surface of the trajectory tools the
  ROADMAP points at.

Exactness
---------
The incremental path is not an approximation.  Writing ``T`` for the
pair's common (larger) size, every newly set bit ``i`` of ``B_x``
turns the joint positions ``{i + j * m_x : 0 <= j < T / m_x}`` from
``B_y``'s tiled value into 1 — so the running count equals the
batch-computed ``U_c`` after every batch, exactly; a recount is that
``U_c`` by definition.  The batch decoder counts each pair at ``T``
too, and both hand their counts to one finisher
(:func:`repro.core.estimator.estimate_pair_matrix`), so
``tests/test_streaming.py`` can pin ``live_matrix()`` bit-identical
to a fresh :meth:`repro.core.decoder.CentralDecoder.estimate_matrix`
over the same prefix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core import bitwords
from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.estimator import (
    PairEstimate,
    _observed_fraction,
    estimate_pair_matrix,
)
from repro.core.reports import RsuReport
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, get_registry
from repro.utils.arrays import sorted_unique

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import PolicyLike, SchemeConfig

__all__ = ["StreamingDecoder", "window_for"]


def window_for(at: float, window_s: float, windows: int) -> int:
    """The window index covering instant *at* (seconds into the period).

    Windows are half-open: ``[w * window_s, (w + 1) * window_s)``, so a
    response landing exactly on a boundary belongs to the *later*
    window.  Instants at or past the period's end clamp to the final
    window.
    """
    if at < 0:
        raise ConfigurationError(f"instant must be >= 0, got {at}")
    if window_s <= 0:
        raise ConfigurationError(f"window_s must be > 0, got {window_s}")
    return min(int(at // window_s), int(windows) - 1)


class _RsuStream:
    """Running per-(period, RSU) streaming state."""

    __slots__ = (
        "rsu_id",
        "size",
        "bits",
        "ones",
        "running_counter",
        "sealed_counter",
        "window_bits",
        "window_counters",
        "class_bits",
        "class_counters",
    )

    def __init__(self, rsu_id: int, size: int, bits: BitArray) -> None:
        self.rsu_id = rsu_id
        self.size = size
        self.bits = bits
        #: Set bits of ``bits``, kept by the two paths that write it.
        self.ones = bits.count_ones()
        self.running_counter = 0
        self.sealed_counter: Optional[int] = None
        self.window_bits: Dict[int, BitArray] = {}
        self.window_counters: Dict[int, int] = {}
        self.class_bits: Dict[str, BitArray] = {}
        self.class_counters: Dict[str, int] = {}

    @property
    def counter(self) -> int:
        """The live point volume: the authoritative period-close value
        once sealed, the running ingest total before that."""
        if self.sealed_counter is not None:
            return self.sealed_counter
        return self.running_counter


class StreamingDecoder:
    """Incremental all-pairs decoder with sub-period windows.

    Parameters
    ----------
    s:
        Logical bit array size (as for
        :class:`~repro.core.decoder.CentralDecoder`).
    policy:
        Saturation handling for live queries.
    config:
        A :class:`~repro.core.config.SchemeConfig` providing defaults;
        explicit arguments override it.
    windows:
        Number of sub-period windows ``W`` (>= 1).  With ``W == 1`` no
        window ring is kept — :meth:`window_matrix` answers from the
        running arrays.
    window_s:
        Wall-clock seconds per window; enables the ``at=`` seconds form
        of :meth:`matrix_at` (without it, *at* is a window index).
    registry:
        Metrics sink for the ``stream.*`` series; defaults to the
        process registry at call time.
    """

    def __init__(
        self,
        s: Optional[int] = None,
        *,
        policy: Optional["PolicyLike"] = None,
        config: Optional["SchemeConfig"] = None,
        windows: int = 1,
        window_s: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        from repro.core.config import resolve_config

        resolved = resolve_config(config, s=s, policy=policy)
        self.s = int(resolved.s)
        self.policy = resolved.policy
        if int(windows) < 1:
            raise ConfigurationError(f"windows must be >= 1, got {windows}")
        self.windows = int(windows)
        if window_s is not None and float(window_s) <= 0:
            raise ConfigurationError(f"window_s must be > 0, got {window_s}")
        self.window_s = None if window_s is None else float(window_s)
        self._registry = registry
        # period -> rsu_id -> stream state
        self._streams: Dict[int, Dict[int, _RsuStream]] = {}
        # period -> (rsu_x, rsu_y) [x < y] -> running joint-zero count
        # at the pair's common size max(m_x, m_y)
        self._pair_zeros: Dict[int, Dict[Tuple[int, int], int]] = {}

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _reg(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def periods(self) -> List[int]:
        """Periods with streaming state, sorted."""
        return sorted(self._streams)

    def rsu_ids(self, period: int = 0) -> List[int]:
        """RSUs with streaming state in *period*, sorted."""
        return sorted(self._streams.get(period, {}))

    def counter(self, rsu_id: int, period: int = 0) -> int:
        """The live point volume ``n_x`` of one RSU."""
        try:
            return self._streams[period][rsu_id].counter
        except KeyError:
            raise ConfigurationError(
                f"no streaming state for RSU {rsu_id} in period {period}"
            ) from None

    def joint_zeros(self, period: int = 0) -> Dict[Tuple[int, int], int]:
        """Copy of the running per-pair joint-zero counts (each at the
        pair's common size ``max(m_x, m_y)``)."""
        return dict(self._pair_zeros.get(period, {}))

    def classes(self, period: int = 0) -> List[str]:
        """Vehicle-class labels seen in *period*, sorted."""
        labels = set()
        for state in self._streams.get(period, {}).values():
            labels.update(state.class_bits)
        return sorted(labels)

    def evict_period(self, period: int) -> None:
        """Drop all streaming state for *period* (retention hook)."""
        self._streams.pop(period, None)
        self._pair_zeros.pop(period, None)

    def _drop_rsu(self, period: int, rsu_id: int) -> None:
        """Forget one RSU's streaming state (pre-resize replacement)."""
        self._streams.get(period, {}).pop(rsu_id, None)
        pairs = self._pair_zeros.get(period)
        if pairs is not None:
            for key in [k for k in pairs if rsu_id in k]:
                del pairs[key]
            self._reg().gauge("stream.tracked_pairs").set(len(pairs))

    def _state(
        self, period: int, rsu_id: int, size: Optional[int]
    ) -> _RsuStream:
        streams = self._streams.setdefault(period, {})
        state = streams.get(rsu_id)
        if state is not None:
            if size is not None and int(size) != state.size:
                raise ConfigurationError(
                    f"RSU {rsu_id} streamed with array size {state.size} in "
                    f"period {period}; got conflicting size {size}"
                )
            return state
        if size is None:
            raise ConfigurationError(
                f"first batch for RSU {rsu_id} in period {period} must "
                "declare its array size"
            )
        size = int(size)
        state = _RsuStream(rsu_id, size, BitArray(size))
        pairs = self._pair_zeros.setdefault(period, {})
        for other in streams.values():
            target = max(size, other.size)
            if target % min(size, other.size):
                raise ConfigurationError(
                    f"array sizes {other.size} and {size} do not tile; "
                    "the unfolding of Eq. (3) needs an integer ratio"
                )
            # The newcomer's array is all zero, so the pair's joint
            # zeros are wherever the peer's tiled array is zero.
            zeros = target - other.ones * (
                target // other.size
            )
            pairs[_pair_key(rsu_id, other.rsu_id)] = int(zeros)
        streams[rsu_id] = state
        self._reg().gauge("stream.tracked_pairs").set(len(pairs))
        return state

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(
        self,
        rsu_id: int,
        indices: np.ndarray,
        *,
        period: int = 0,
        window: int = 0,
        size: Optional[int] = None,
        vclass: Optional[str] = None,
    ) -> int:
        """Absorb one batch of response bit indices for *rsu_id*.

        Mirrors :meth:`repro.core.encoder.RsuState.record_many`: the
        counter grows by the full batch (duplicates included) while the
        scatter itself is idempotent.  Returns the number of bits the
        batch newly set.  *window* tags the batch's sub-period window;
        late or out-of-order windows are fine — the running state is an
        OR, so arrival order never changes any answer.
        """
        if not 0 <= int(window) < self.windows:
            raise ConfigurationError(
                f"window {window} out of range [0, {self.windows})"
            )
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        state = self._state(int(period), int(rsu_id), size)
        state.running_counter += int(idx.size)
        newly = self._absorb(int(period), state, idx)
        if self.windows > 1:
            ring = state.window_bits.get(int(window))
            if ring is None:
                ring = BitArray(state.size)
                state.window_bits[int(window)] = ring
            if idx.size:
                ring.set_bits(sorted_unique(idx))
            state.window_counters[int(window)] = (
                state.window_counters.get(int(window), 0) + int(idx.size)
            )
        if vclass is not None:
            label = str(vclass)
            slot = state.class_bits.get(label)
            if slot is None:
                slot = BitArray(state.size)
                state.class_bits[label] = slot
            if idx.size:
                slot.set_bits(sorted_unique(idx))
            state.class_counters[label] = (
                state.class_counters.get(label, 0) + int(idx.size)
            )
        registry = self._reg()
        registry.counter("stream.batches_ingested_total").inc()
        registry.counter("stream.responses_ingested_total").inc(
            int(idx.size)
        )
        registry.counter("stream.new_bits_total").inc(newly)
        return newly

    def ingest_partial(
        self,
        rsu_id: int,
        data: bytes,
        size: int,
        counter: int,
        *,
        period: int = 0,
        window: int = 0,
    ) -> int:
        """OR a serialized window partial (``to_bytes`` form) into the
        running and window state.

        The collector's merge path for window-tagged shard snapshots:
        idempotent on bits, additive on counters (the caller dedups
        redeliveries).  Returns the number of bits newly set.
        """
        if not 0 <= int(window) < self.windows:
            raise ConfigurationError(
                f"window {window} out of range [0, {self.windows})"
            )
        partial = BitArray.from_bytes(data, int(size))
        state = self._state(int(period), int(rsu_id), int(size))
        newly = self._merge(int(period), state, partial)
        state.running_counter += int(counter)
        if self.windows > 1:
            ring = state.window_bits.get(int(window))
            if ring is None:
                state.window_bits[int(window)] = partial
            else:
                ring |= partial
            state.window_counters[int(window)] = (
                state.window_counters.get(int(window), 0) + int(counter)
            )
        self._reg().counter("stream.partials_merged_total").inc()
        return newly

    def observe_report(self, report: RsuReport) -> int:
        """Absorb an authoritative period-close report.

        ORs the report's bits into the running state (bringing the live
        matrix up to the period-close answer even when no window feed
        ran) and *seals* the counter: from here on the RSU's live point
        volume is the report's exact ``n_x``, immune to any late window
        partial double-count.  A report whose size conflicts with
        streamed state replaces it — the authoritative report wins,
        mirroring the batch decoder's overwrite semantics when an RSU
        is rebuilt at a new size (Section IV-C resizing).  Returns the
        number of bits newly set.
        """
        existing = self._streams.get(report.period, {}).get(report.rsu_id)
        if existing is not None and existing.size != report.array_size:
            self._drop_rsu(report.period, report.rsu_id)
        state = self._state(report.period, report.rsu_id, report.array_size)
        newly = self._merge(report.period, state, report.bits)
        state.sealed_counter = int(report.counter)
        self._reg().counter("stream.reports_sealed_total").inc()
        return newly

    def _merge(
        self, period: int, state: _RsuStream, incoming: BitArray
    ) -> int:
        """OR a whole array into *state*'s running array and recount
        every pair it joins; returns the number of bits newly set.

        The period-close seal: the pair counts are recomputed with
        word-level OR + popcount at each pair size ``max(m_x, m_y)``,
        so the cost is O(peers x pair size / word) however many bits
        the array sets.
        """
        before = state.ones
        state.bits |= incoming
        state.ones = state.bits.count_ones()
        newly = state.ones - before
        if not newly:
            return 0
        own = state.bits.words
        peers_by_size: Dict[int, List[_RsuStream]] = {}
        for other in self._streams[period].values():
            if other is not state:
                peers_by_size.setdefault(other.size, []).append(other)
        pairs = self._pair_zeros[period]
        peers = 0
        for size, group in peers_by_size.items():
            storages = [other.bits.words for other in group]
            if size >= state.size:
                # The merging array, unfolded to the pair size once,
                # against a stack of the peers: one kernel call.
                row = own
                if size > state.size:
                    row = bitwords.unfold(own, state.size, size // state.size)
                ones = bitwords.pairwise_or_popcount(
                    row, np.stack(storages)
                ).tolist()
            else:
                ones = _tiled_peer_popcounts(storages, size, own, state.size)
            target = max(state.size, size)
            for other, count in zip(group, ones):
                pairs[_pair_key(state.rsu_id, other.rsu_id)] = target - count
            peers += len(group)
        self._reg().counter("stream.pair_updates_total").inc(peers)
        return newly

    def _absorb(
        self, period: int, state: _RsuStream, indices: np.ndarray
    ) -> int:
        """Set *indices* in the running array, updating every pair's
        joint-zero count for the bits that were still zero.

        The index-batch path: the batch is deduplicated and gathered
        against the running array, then each pair loses exactly the
        joint positions the newly set bits cover, in
        O(batch x peers x tile ratio) work.
        """
        if indices.size == 0:
            return 0
        unique = sorted_unique(indices)
        newly = unique[~state.bits.get_bits(unique)]
        if newly.size == 0:
            return 0
        streams = self._streams[period]
        pairs = self._pair_zeros[period]
        registry = self._reg()
        for other in streams.values():
            if other is state:
                continue
            target = max(state.size, other.size)
            if state.size == target:
                positions = newly
            else:
                # Every newly set bit i of the smaller array occupies
                # positions i + j * m_x of its tiling at the common
                # size (Eq. 3) — all distinct, so no double counting.
                offsets = (
                    np.arange(target // state.size, dtype=np.int64)
                    * state.size
                )
                positions = (newly[None, :] + offsets[:, None]).ravel()
            peer_bits = other.bits.get_bits(positions % other.size)
            killed = int(positions.size) - int(peer_bits.sum())
            pairs[_pair_key(state.rsu_id, other.rsu_id)] -= killed
            registry.counter("stream.pair_updates_total").inc()
        # Indices were already proven in-range by the gather above, so
        # scatter through the trusted kernel path without re-validating.
        state.bits.set_bits_unchecked(newly)
        state.ones += int(newly.size)
        return int(newly.size)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def live_matrix(
        self, period: int = 0
    ) -> Dict[Tuple[int, int], PairEstimate]:
        """The all-pairs OD matrix over everything streamed so far.

        Bit-identical to
        :meth:`~repro.core.decoder.CentralDecoder.estimate_matrix`
        over reports built from the same responses: the running
        joint-zero count at the pair size ``T`` yields the identical
        IEEE ``V_c`` (see the module docstring), and the per-RSU
        fractions come from the same running arrays through the same
        :func:`~repro.core.estimator._observed_fraction`.
        """
        streams = self._streams.get(period, {})
        ids = sorted(streams)
        if len(ids) < 2:
            return {}
        states = [streams[rsu_id] for rsu_id in ids]
        pairs = self._pair_zeros[period]
        zeros = [
            pairs[(rsu_x, rsu_y)]
            for i, rsu_x in enumerate(ids)
            for rsu_y in ids[i + 1 :]
        ]
        results = estimate_pair_matrix(
            ids,
            [state.size for state in states],
            [state.counter for state in states],
            [_observed_fraction(state.bits, self.policy) for state in states],
            np.array(zeros, dtype=np.int64),
            self.s,
            self.policy,
        )
        self._reg().counter("stream.live_queries_total").inc()
        return results

    def _decode_reports(
        self, period: int, reports: List[RsuReport]
    ) -> Dict[Tuple[int, int], PairEstimate]:
        """Batch-decode ad-hoc reports through the vectorized path."""
        decoder = CentralDecoder(self.s, policy=self.policy)
        decoder.submit_many(reports)
        return decoder.estimate_matrix(period)

    def _window_report(
        self, state: _RsuStream, period: int, lo: int, hi: int
    ) -> RsuReport:
        """One RSU's report over windows ``lo..hi`` inclusive."""
        rings = [
            ring
            for ring in (
                state.window_bits.get(w) for w in range(lo, hi + 1)
            )
            if ring is not None
        ]
        bits = BitArray.or_reduce(rings, size=state.size)
        counter = sum(
            state.window_counters.get(w, 0) for w in range(lo, hi + 1)
        )
        return RsuReport(
            rsu_id=state.rsu_id, counter=counter, bits=bits, period=period
        )

    def window_matrix(
        self, period: int = 0, window: int = 0
    ) -> Dict[Tuple[int, int], PairEstimate]:
        """The OD matrix of a single sub-period window.

        An RSU with no responses in the window contributes an all-zero
        array and a zero counter; with ``windows == 1`` the running
        state *is* the single window.
        """
        if not 0 <= int(window) < self.windows:
            raise ConfigurationError(
                f"window {window} out of range [0, {self.windows})"
            )
        streams = self._streams.get(period, {})
        if self.windows == 1:
            return self.live_matrix(period)
        reports = [
            self._window_report(state, period, int(window), int(window))
            for state in streams.values()
        ]
        self._reg().counter("stream.window_queries_total").inc()
        return self._decode_reports(period, reports)

    def matrix_at(
        self, period: int = 0, at: float = 0.0
    ) -> Dict[Tuple[int, int], PairEstimate]:
        """The OD matrix as of instant *at* within the period.

        With ``window_s`` configured, *at* is seconds into the period
        and quantizes to a window prefix (boundary instants belong to
        the later window); otherwise *at* is a window index.  Decodes
        the OR of windows ``0..w`` — exactly the batch decode over the
        responses those windows received.
        """
        if self.window_s is not None:
            w = window_for(float(at), self.window_s, self.windows)
        else:
            w = int(at)
            if not 0 <= w < self.windows:
                raise ConfigurationError(
                    f"window {w} out of range [0, {self.windows})"
                )
        streams = self._streams.get(period, {})
        if self.windows == 1 or w == self.windows - 1:
            # The full prefix is the whole period streamed so far.
            return self.live_matrix(period)
        reports = [
            self._window_report(state, period, 0, w)
            for state in streams.values()
        ]
        self._reg().counter("stream.window_queries_total").inc()
        return self._decode_reports(period, reports)

    def class_matrix(
        self, period: int = 0, vclass: str = ""
    ) -> Dict[Tuple[int, int], PairEstimate]:
        """The OD matrix of one vehicle class (trajectory-path slices).

        Decodes only the responses ingested with ``vclass=<label>``; an
        RSU that saw none of the class contributes an all-zero array.
        """
        streams = self._streams.get(period, {})
        label = str(vclass)
        reports = []
        for state in streams.values():
            bits = state.class_bits.get(label)
            reports.append(
                RsuReport(
                    rsu_id=state.rsu_id,
                    counter=state.class_counters.get(label, 0),
                    bits=(
                        bits.copy()
                        if bits is not None
                        else BitArray(state.size)
                    ),
                    period=period,
                )
            )
        self._reg().counter("stream.window_queries_total").inc()
        return self._decode_reports(period, reports)


def _tiled_peer_popcounts(storages, size, large, large_size):
    """Set bits of ``unfold(peer) | large`` for each same-size peer
    smaller than the ``large`` array, without unfolding the peers.

    ``unfold(peer) | large`` is ``peer | chunk`` summed over the
    ``large_size / size`` chunks of ``large``.  With the peer size a
    whole number of words, the chunks are rows of a reshape view, and
    the kernel calls run over whichever of peers or chunks is fewer.
    Otherwise each peer is unfolded.
    """
    repeats = large_size // size
    if size % bitwords.WORD_BITS:
        return [
            large_size
            - bitwords.joint_zero_counts(
                bitwords.unfold(storage, size, repeats), large, large_size
            )
            for storage in storages
        ]
    chunks = large.reshape(repeats, -1)
    if len(storages) <= repeats:
        return [
            int(bitwords.pairwise_or_popcount(storage, chunks).sum())
            for storage in storages
        ]
    stack = np.stack(storages)
    total = bitwords.pairwise_or_popcount(chunks[0], stack)
    for chunk in chunks[1:]:
        total = total + bitwords.pairwise_or_popcount(chunk, stack)
    return total.tolist()


def _pair_key(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a < b else (b, a)
