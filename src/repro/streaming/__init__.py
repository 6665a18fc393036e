"""Streaming decode: live OD matrices at any instant.

The paper's decoder answers only at period close: every RSU ships its
full bit array, the server unfolds, ORs, and counts zeros.  This
package makes the same estimates available *while the period is still
open*, at per-batch cost proportional to the batch — never to the
period:

* :class:`StreamingDecoder` keeps, per period, one running bit array
  and counter per RSU.  A batch of response indices is deduplicated,
  gathered against the running array
  (:meth:`repro.core.bitarray.BitArray.get_bits`) and its newly set
  bits scattered in; a whole array (a period-close report or a window
  partial) is ORed in.  A :meth:`live_matrix` query hands the running
  arrays and counters to the batch decoder as one report each.
* A ring of ``W`` sub-period **window** arrays per RSU slices the
  period into time intervals (rush hour vs off-peak):
  :meth:`window_matrix` decodes one window,
  :meth:`matrix_at` decodes the prefix of windows covering an instant
  ``t`` (quantized by ``window_s``), and per-vehicle-**class** arrays
  give the interval x class query surface of the trajectory tools the
  ROADMAP points at.

Exactness
---------
Every query is a batch decode
(:meth:`repro.core.decoder.CentralDecoder.estimate_matrix`) of one
report per RSU.  The running array is the OR of everything the RSU
streamed, and OR is order-free and idempotent, so it equals the array
a batch encoder would have built from the same responses; the counter
is the ingest total until the period-close report seals it.  The same
arrays and counters reach the same decoder, so ``tests/test_streaming.py``
can pin ``live_matrix()`` bit-identical to a fresh
:meth:`repro.core.decoder.CentralDecoder.estimate_matrix` over the same
prefix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.estimator import PairMatrix
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
        "running_counter",
        "sealed_counter",
        "window_bits",
        "window_counters",
        "class_bits",
        "class_counters",
    )

    def __init__(self, rsu_id: int, size: int) -> None:
        self.rsu_id = rsu_id
        self.size = size
        self.bits = BitArray(size)
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
    """Streaming all-pairs decoder with sub-period windows.

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

    def classes(self, period: int = 0) -> List[str]:
        """Vehicle-class labels seen in *period*, sorted."""
        labels = set()
        for state in self._streams.get(period, {}).values():
            labels.update(state.class_bits)
        return sorted(labels)

    def evict_period(self, period: int) -> None:
        """Drop all streaming state for *period* (retention hook)."""
        self._streams.pop(period, None)

    def _check_window(self, window: int) -> None:
        if not 0 <= int(window) < self.windows:
            raise ConfigurationError(
                f"window {window} out of range [0, {self.windows})"
            )

    def _check_size(
        self, period: int, rsu_id: int, size: Optional[int]
    ) -> Optional[_RsuStream]:
        """The RSU's stream state, or None for a newcomer.

        Raises :class:`~repro.errors.ConfigurationError` when *size*
        conflicts with the state's size or, for a newcomer, is missing
        or does not tile a peer's size.
        """
        streams = self._streams.get(period, {})
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
        for other in streams.values():
            if max(size, other.size) % min(size, other.size):
                raise ConfigurationError(
                    f"array sizes {other.size} and {size} do not tile; "
                    "the unfolding of Eq. (3) needs an integer ratio"
                )
        return None

    def _state(
        self, period: int, rsu_id: int, size: Optional[int]
    ) -> _RsuStream:
        state = self._check_size(period, rsu_id, size)
        if state is None:
            state = _RsuStream(rsu_id, int(size))
            self._streams.setdefault(period, {})[rsu_id] = state
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
        self._check_window(window)
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        state = self._state(int(period), int(rsu_id), size)
        state.running_counter += int(idx.size)
        unique = sorted_unique(idx)
        newly = self._absorb(state, unique)
        if self.windows > 1:
            ring = state.window_bits.get(int(window))
            if ring is None:
                ring = BitArray(state.size)
                state.window_bits[int(window)] = ring
            if unique.size:
                ring.set_bits(unique)
            state.window_counters[int(window)] = (
                state.window_counters.get(int(window), 0) + int(idx.size)
            )
        if vclass is not None:
            label = str(vclass)
            slot = state.class_bits.get(label)
            if slot is None:
                slot = BitArray(state.size)
                state.class_bits[label] = slot
            if unique.size:
                slot.set_bits(unique)
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

    def check_partial(
        self, rsu_id: int, size: int, *, period: int = 0, window: int = 0
    ) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` if
        :meth:`ingest_partial` would refuse a *size*-bit partial for
        this RSU and window; changes no state."""
        self._check_window(window)
        self._check_size(int(period), int(rsu_id), int(size))

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
        self.check_partial(rsu_id, size, period=period, window=window)
        partial = BitArray.from_bytes(data, int(size))
        state = self._state(int(period), int(rsu_id), int(size))
        newly = self._merge(state, partial)
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
        streams = self._streams.get(report.period, {})
        existing = streams.get(report.rsu_id)
        if existing is not None and existing.size != report.array_size:
            del streams[report.rsu_id]
        state = self._state(report.period, report.rsu_id, report.array_size)
        newly = self._merge(state, report.bits)
        state.sealed_counter = int(report.counter)
        self._reg().counter("stream.reports_sealed_total").inc()
        return newly

    @staticmethod
    def _merge(state: _RsuStream, incoming: BitArray) -> int:
        """OR a whole array into *state*'s running array; returns the
        number of bits newly set."""
        before = state.bits.count_ones()
        state.bits |= incoming
        return state.bits.count_ones() - before

    @staticmethod
    def _absorb(state: _RsuStream, unique: np.ndarray) -> int:
        """Set the sorted distinct *unique* indices in *state*'s running
        array; returns how many were still zero.

        The gather validates the indices, so the scatter of the newly
        set ones takes the trusted kernel path.
        """
        if unique.size == 0:
            return 0
        newly = unique[~state.bits.get_bits(unique)]
        state.bits.set_bits_unchecked(newly)
        return int(newly.size)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def live_matrix(self, period: int = 0) -> PairMatrix:
        """The all-pairs OD matrix over everything streamed so far.

        A batch decode of one report per RSU: the running array and
        the live counter.  So it is bit-identical to
        :meth:`~repro.core.decoder.CentralDecoder.estimate_matrix`
        over reports built from the same responses.
        """
        reports = [
            RsuReport(
                rsu_id=state.rsu_id,
                counter=state.counter,
                bits=state.bits,
                period=period,
            )
            for state in self._streams.get(period, {}).values()
        ]
        matrix = self._decode_reports(period, reports)
        self._reg().counter("stream.live_queries_total").inc()
        return matrix

    def _decode_reports(
        self, period: int, reports: List[RsuReport]
    ) -> PairMatrix:
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

    def window_matrix(self, period: int = 0, window: int = 0) -> PairMatrix:
        """The OD matrix of a single sub-period window.

        An RSU with no responses in the window contributes an all-zero
        array and a zero counter; with ``windows == 1`` the running
        state *is* the single window.
        """
        self._check_window(window)
        streams = self._streams.get(period, {})
        if self.windows == 1:
            return self.live_matrix(period)
        reports = [
            self._window_report(state, period, int(window), int(window))
            for state in streams.values()
        ]
        self._reg().counter("stream.window_queries_total").inc()
        return self._decode_reports(period, reports)

    def matrix_at(self, period: int = 0, at: float = 0.0) -> PairMatrix:
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
            self._check_window(w)
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

    def class_matrix(self, period: int = 0, vclass: str = "") -> PairMatrix:
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
