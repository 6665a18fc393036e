"""The roadside unit agent (paper Sections II-A and IV-B).

An RSU broadcasts queries on a fixed interval, admits vehicle
responses (bounds-checking the reported index and the one-time MAC
shape), maintains the period counter ``n_x`` and bit array ``B_x``,
and ships an :class:`~repro.core.reports.RsuReport` to the central
server at the end of each measurement period.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.encoder import RsuState
from repro.core.reports import RsuReport
from repro.errors import ProtocolError
from repro.vcps.ids import locally_administered_mask
from repro.vcps.messages import Query, Response
from repro.vcps.pki import Certificate

__all__ = ["RoadsideUnit"]


class RoadsideUnit:
    """One RSU with its certificate and measurement state.

    Parameters
    ----------
    rsu_id:
        The RID.
    array_size:
        Bit array length ``m_x`` from the sizing rule.
    certificate:
        Certificate issued by the trusted authority, included in every
        query broadcast.
    query_interval:
        Ticks between broadcasts (paper: "pre-set intervals (e.g.,
        once a second)").
    """

    def __init__(
        self,
        rsu_id: int,
        array_size: int,
        certificate: Certificate,
        *,
        query_interval: int = 1,
    ) -> None:
        if certificate.rsu_id != int(rsu_id):
            raise ProtocolError(
                f"certificate subject {certificate.rsu_id} does not match "
                f"RSU id {rsu_id}"
            )
        if query_interval < 1:
            raise ProtocolError(f"query_interval must be >= 1, got {query_interval}")
        self.rsu_id = int(rsu_id)
        self.certificate = certificate
        self.query_interval = int(query_interval)
        self._state = RsuState(rsu_id=self.rsu_id, array_size=int(array_size))
        self._window_state: Optional[RsuState] = None
        self._rejected = 0

    # ------------------------------------------------------------------
    # Broadcast side
    # ------------------------------------------------------------------
    def should_broadcast(self, now: int) -> bool:
        """Whether a query goes out at tick *now*."""
        return now % self.query_interval == 0

    def make_query(self, now: int = 0) -> Query:
        """The broadcast query: RID, certificate, array size."""
        return Query(
            rsu_id=self.rsu_id,
            certificate=self.certificate,
            array_size=self._state.array_size,
            timestamp=int(now),
        )

    # ------------------------------------------------------------------
    # Collection side
    # ------------------------------------------------------------------
    def handle_response(self, response: Response) -> None:
        """Admit one vehicle response (paper Eqs. 1-2).

        Malformed responses are rejected (counted, not recorded) — the
        RSU never lets an out-of-range index corrupt its array.
        """
        try:
            response.validate_for(self._state.array_size)
        except ProtocolError:
            self._rejected += 1
            raise
        self._state.record(response.bit_index)

    def handle_responses(self, responses: Sequence[Response]) -> int:
        """Admit a whole batch of responses in one vectorized pass.

        Builds the ``(macs, indices)`` arrays and hands them to
        :meth:`handle_wire_batch`, the one array ingest path.  Unlike
        :meth:`handle_response`, malformed entries do not raise — they
        are dropped and counted in :attr:`rejected_responses`, so one
        bad message can never poison the rest of its batch.  Returns
        the number of responses actually recorded.
        """
        count = len(responses)
        macs = np.fromiter(
            (r.mac for r in responses), dtype=np.uint64, count=count
        )
        indices = np.fromiter(
            (r.bit_index for r in responses), dtype=np.int64, count=count
        )
        return self.handle_wire_batch(macs, indices)

    def handle_wire_batch(
        self, macs: np.ndarray, indices: np.ndarray
    ) -> int:
        """Admit parallel ``(macs, indices)`` arrays: the one array
        ingest path.

        Takes native arrays or the views a
        :class:`~repro.service.wire.ResponseBatch` decode yields —
        big-endian ``>u8`` MAC and ``>u4`` index views straight over
        the frame payload — and fuses the whole admission into one
        pass: MAC validity via a strided byte read (no byteswap copy;
        see :func:`~repro.vcps.ids.locally_administered_mask`), one
        bounds compare, one widening ``astype`` to ``int64``, and a
        trusted scatter
        (:meth:`~repro.core.encoder.RsuState.record_trusted`).
        Malformed entries are dropped and counted, never raised;
        returns the number recorded.  ``tests/rsu_oracle.py`` keeps the
        earlier validated array path as the differential oracle, and
        ``benchmarks/bench_kernels.py`` gates the speedup over it.
        """
        macs = np.asarray(macs)
        indices = np.asarray(indices)
        if macs.shape != indices.shape:
            raise ProtocolError(
                f"mac batch shape {macs.shape} != index batch shape "
                f"{indices.shape}"
            )
        m = self._state.array_size
        valid = locally_administered_mask(macs)
        idx = indices.astype(np.int64)  # one fused byteswap + widen
        valid &= idx < m
        if not np.issubdtype(indices.dtype, np.unsignedinteger):
            valid &= idx >= 0
        recorded = int(valid.sum())
        rejected = idx.size - recorded
        if rejected:
            # Only a batch with rejects pays for the filter copy.
            self._rejected += rejected
            idx = idx[valid]
        self._state.record_trusted(idx)
        if self._window_state is not None:
            self._window_state.record_trusted(idx)
        return recorded

    @property
    def counter(self) -> int:
        """Current period's vehicle count ``n_x``."""
        return self._state.counter

    @property
    def array_size(self) -> int:
        """Bit array length ``m_x``."""
        return self._state.array_size

    @property
    def period(self) -> int:
        """The measurement period currently being accumulated."""
        return self._state.period

    @property
    def rejected_responses(self) -> int:
        """Number of malformed responses dropped this lifetime."""
        return self._rejected

    # ------------------------------------------------------------------
    # Sub-period windows (streaming tier)
    # ------------------------------------------------------------------
    @property
    def tracking_windows(self) -> bool:
        """Whether a sub-period window accumulator is active."""
        return self._window_state is not None

    def track_windows(self) -> None:
        """Start accumulating a second, window-scoped bit array.

        Idempotent.  From here on every admitted batch is recorded in
        both the period state and the current window's accumulator;
        :meth:`close_window` snapshots and resets the latter.  The
        period state is untouched, so window partials are an overlay on
        the authoritative period report, never a replacement.
        """
        if self._window_state is None:
            self._window_state = RsuState(
                rsu_id=self.rsu_id,
                array_size=self._state.array_size,
                period=self._state.period,
            )

    def close_window(self) -> RsuReport:
        """Snapshot the current window's partial and reset the
        accumulator for the next window (same period)."""
        if self._window_state is None:
            raise ProtocolError(
                f"RSU {self.rsu_id} is not tracking windows; call "
                "track_windows() first"
            )
        report = self._window_state.report()
        self._window_state.reset(period=self._state.period)
        return report

    # ------------------------------------------------------------------
    # Adaptive re-sizing (between periods; docs/adaptive.md)
    # ------------------------------------------------------------------
    def resize(self, array_size: int) -> bool:
        """Adopt a new logical array length for the *current* period.

        Called between periods when a size announcement arrives (after
        :meth:`end_period` reset the state for the new period).  The
        counter and bits start fresh at the new size while the period
        number, certificate, and query interval are preserved — unlike
        rebuilding the RSU, which would restart its period at 0 and
        collide with already-reported periods.  Returns True when the
        size actually changed.  Re-sizing mid-period (after responses
        were admitted) raises: recorded indices were hashed for the old
        length and cannot be reinterpreted.
        """
        array_size = int(array_size)
        if array_size == self._state.array_size:
            return False
        if self._state.counter or (
            self._window_state is not None and self._window_state.counter
        ):
            raise ProtocolError(
                f"RSU {self.rsu_id} cannot resize mid-period: "
                f"{self._state.counter} responses already recorded"
            )
        period = self._state.period
        self._state = RsuState(
            rsu_id=self.rsu_id, array_size=array_size, period=period
        )
        if self._window_state is not None:
            self._window_state = RsuState(
                rsu_id=self.rsu_id, array_size=array_size, period=period
            )
        return True

    # ------------------------------------------------------------------
    # Reporting side
    # ------------------------------------------------------------------
    def end_period(self) -> RsuReport:
        """Snapshot this period's report and reset for the next one."""
        report = self._state.report()
        self._state.reset(period=self._state.period + 1)
        if self._window_state is not None:
            # The window ring rotates with the period: a fresh period
            # starts with a fresh, empty current window.
            self._window_state.reset(period=self._state.period)
        return report

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RoadsideUnit(id={self.rsu_id}, m={self.array_size}, "
            f"n={self.counter})"
        )
