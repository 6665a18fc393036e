"""Offline decoding pipeline at the central server (paper Section IV-C).

The :class:`CentralDecoder` collects per-period RSU reports and answers
point-to-point queries between arbitrary RSU pairs.  It is the
measurement back end used by :class:`repro.vcps.server.CentralServer`;
it has no networking concerns of its own so the experiment harness can
drive it directly.

Two decode paths produce bit-identical :class:`PairEstimate` values:

* :meth:`CentralDecoder.pair_estimate` / :meth:`CentralDecoder.all_pairs`
  — the scalar reference path, one unfold-OR-count per pair;
* :meth:`CentralDecoder.estimate_matrix` — the vectorized path: the
  pairs are blocked by their size ``m_y``, each block's arrays are
  stacked at native size, and every pair's ``U_c`` at ``m_y`` falls
  out of broadcast OR + popcount over cache-sized column tiles
  (:func:`joint_zero_matrix`).  The counts are the per-pair path's
  integers, so the MLE is unchanged, digit for digit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core import bitwords
from repro.core.bitarray import BitArray
from repro.core.estimator import (
    PairEstimate,
    _observed_fraction,
    estimate_pair_matrix,
)
from repro.core.reports import RsuReport
from repro.core.unfolding import unfold
from repro.errors import ConfigurationError, EstimationError
from repro.obs import get_registry
from repro.utils.arrays import sorted_unique

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import PolicyLike, SchemeConfig

__all__ = ["CentralDecoder", "joint_zero_matrix"]

#: Default bound on memoized unfolded arrays (see ``memo_capacity``).
DEFAULT_MEMO_CAPACITY = 128

#: Column tile of :func:`joint_zero_matrix`, in bits: 1,024 packed
#: words, 8 KiB a row, so a tile of a few dozen rows plus its
#: broadcast temporary fit in L2.
TILE_BITS = 1 << 16


class CentralDecoder:
    """Stores RSU reports and computes pairwise intersection estimates.

    Repeated pair queries re-unfold each array once per *target size*
    rather than once per pair: unfolded arrays are memoized per
    ``(period, rsu_id, size)`` in a small LRU (capacity
    ``memo_capacity``), which turns the ``O(k² · m)`` matrix pass into
    ``O(k² · m)`` ORs plus only ``O(k · log(sizes) · m)`` unfolds.
    Evictions are visible as the ``core.decoder_memo_evictions_total``
    counter.  For the full matrix, prefer :meth:`estimate_matrix`,
    which batches the per-pair work into a handful of vectorized numpy
    passes (``benchmarks/bench_matrix.py`` measures both paths).

    Parameters
    ----------
    s:
        The logical bit array size the vehicle fleet uses.
    policy:
        Saturation handling passed through to the estimator.
    config:
        A :class:`~repro.core.config.SchemeConfig` providing defaults
        for ``s`` and ``policy``; explicit arguments
        override it.
    memo_capacity:
        Maximum number of unfolded arrays kept in the LRU memo.
    """

    def __init__(
        self,
        s: Optional[int] = None,
        *,
        policy: Optional["PolicyLike"] = None,
        config: Optional["SchemeConfig"] = None,
        memo_capacity: int = DEFAULT_MEMO_CAPACITY,
    ) -> None:
        from repro.core.config import resolve_config

        resolved = resolve_config(config, s=s, policy=policy)
        self.s = int(resolved.s)
        self.policy = resolved.policy
        if memo_capacity < 1:
            raise ConfigurationError(
                f"memo_capacity must be >= 1, got {memo_capacity}"
            )
        self.memo_capacity = int(memo_capacity)
        # (period, rsu_id) -> report
        self._reports: Dict[Tuple[int, int], RsuReport] = {}
        # (period, rsu_id, target_size) -> unfolded bit array, LRU order
        self._unfold_cache: "OrderedDict[Tuple[int, int, int], BitArray]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    # Report ingestion
    # ------------------------------------------------------------------
    def submit(self, report: RsuReport) -> None:
        """Store one RSU's report for its period (latest wins)."""
        self._reports[(report.period, report.rsu_id)] = report
        # A replaced report invalidates its cached unfoldings.
        stale = [
            key
            for key in self._unfold_cache
            if key[0] == report.period and key[1] == report.rsu_id
        ]
        for key in stale:
            del self._unfold_cache[key]

    def _unfolded(self, report: RsuReport, target_size: int) -> BitArray:
        """Memoized ``unfold(report.bits, target_size)`` (bounded LRU)."""
        if target_size == report.array_size:
            return report.bits
        key = (report.period, report.rsu_id, target_size)
        cached = self._unfold_cache.get(key)
        if cached is None:
            get_registry().counter("decoder.unfold_cache_misses_total").inc()
            cached = unfold(report.bits, target_size)
            self._unfold_cache[key] = cached
            while len(self._unfold_cache) > self.memo_capacity:
                self._unfold_cache.popitem(last=False)
                get_registry().counter(
                    "core.decoder_memo_evictions_total"
                ).inc()
        else:
            get_registry().counter("decoder.unfold_cache_hits_total").inc()
            self._unfold_cache.move_to_end(key)
        return cached

    def submit_many(self, reports: Iterable[RsuReport]) -> None:
        """Store a batch of reports."""
        for report in reports:
            self.submit(report)

    def report_for(self, rsu_id: int, period: int = 0) -> RsuReport:
        """Fetch a stored report or raise :class:`EstimationError`."""
        try:
            return self._reports[(period, rsu_id)]
        except KeyError:
            raise EstimationError(
                f"no report stored for RSU {rsu_id} in period {period}"
            ) from None

    def rsu_ids(self, period: int = 0) -> List[int]:
        """All RSUs that reported in *period*, sorted."""
        return sorted(rid for (p, rid) in self._reports if p == period)

    def __len__(self) -> int:
        return len(self._reports)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def point_volume(self, rsu_id: int, period: int = 0) -> int:
        """The exact point volume ``n_x`` from the RSU counter."""
        return self.report_for(rsu_id, period).counter

    def pair_estimate(
        self, rsu_x: int, rsu_y: int, period: int = 0
    ) -> PairEstimate:
        """Estimate the point-to-point volume between two RSUs (Eq. 5)."""
        if rsu_x == rsu_y:
            raise EstimationError(
                "point-to-point volume requires two distinct RSUs; the point "
                "volume of a single RSU is its counter"
            )
        report_x = self.report_for(rsu_x, period)
        report_y = self.report_for(rsu_y, period)
        if report_x.array_size > report_y.array_size:
            report_x, report_y = report_y, report_x
        # Same computation as estimate_intersection, but the unfolding
        # of the smaller array is memoized across queries and the joint
        # statistic comes from one fused OR+popcount kernel — no joint
        # BitArray is materialized.
        from repro.core.estimator import (
            ZeroFractionPolicy,
            estimate_from_fractions,
        )
        from repro.errors import SaturatedArrayError

        unfolded = self._unfolded(report_x, report_y.array_size)
        m_y = report_y.array_size
        zeros = bitwords.joint_zero_counts(
            unfolded.words, report_y.bits.words, m_y
        )
        if zeros == 0:
            if self.policy is ZeroFractionPolicy.RAISE:
                raise SaturatedArrayError(
                    f"bit array of size {m_y} is saturated (no zero bits)"
                )
            v_c = 0.5 / m_y
        else:
            v_c = zeros / m_y
        v_x = _observed_fraction(report_x.bits, self.policy)
        v_y = _observed_fraction(report_y.bits, self.policy)
        n_c_hat = estimate_from_fractions(
            v_c, v_x, v_y, report_y.array_size, self.s
        )
        return PairEstimate(
            value=n_c_hat,
            v_c=v_c,
            v_x=v_x,
            v_y=v_y,
            m_x=report_x.array_size,
            m_y=report_y.array_size,
            n_x=report_x.counter,
            n_y=report_y.counter,
            s=self.s,
        )

    def all_pairs(
        self, period: int = 0, *, rsu_ids: Optional[List[int]] = None
    ) -> Dict[Tuple[int, int], PairEstimate]:
        """Estimates for every unordered RSU pair in *period*.

        The scalar reference path: one :meth:`pair_estimate` per pair,
        ``O(m_y)`` each as analyzed in paper Section IV-E.
        :meth:`estimate_matrix` computes the same dictionary (bit for
        bit) with vectorized batch work and should be preferred for
        full-matrix consumers.
        """
        ids = self.rsu_ids(period) if rsu_ids is None else sorted(rsu_ids)
        results: Dict[Tuple[int, int], PairEstimate] = {}
        for i, rsu_x in enumerate(ids):
            for rsu_y in ids[i + 1 :]:
                results[(rsu_x, rsu_y)] = self.pair_estimate(rsu_x, rsu_y, period)
        return results

    def estimate_matrix(
        self, period: int = 0, *, rsu_ids: Optional[List[int]] = None
    ) -> Dict[Tuple[int, int], PairEstimate]:
        """Vectorized all-pairs decode (bit-identical to :meth:`all_pairs`).

        Every pair's ``U_c`` is counted at the pair's own size
        ``m_y = max(m_x, m_y)``, as Section IV-E prescribes, by
        :func:`joint_zero_matrix`; the shared finisher
        :func:`~repro.core.estimator.estimate_pair_matrix` turns the
        counts into estimates.  The counts, the fractions and so the
        :class:`PairEstimate` fields match the per-pair path digit for
        digit.  The unfold memo is not used.
        """
        ids = self.rsu_ids(period) if rsu_ids is None else sorted(rsu_ids)
        if len(ids) < 2:
            return {}
        reports = [self.report_for(rsu_id, period) for rsu_id in ids]
        zeros = joint_zero_matrix([report.bits for report in reports])
        # Per-report statistics are shared by every pair they join.
        fractions = [
            _observed_fraction(report.bits, self.policy) for report in reports
        ]
        get_registry().counter("decoder.matrix_pairs_total").inc(
            int(zeros.size)
        )
        return estimate_pair_matrix(
            ids,
            [report.array_size for report in reports],
            [report.counter for report in reports],
            fractions,
            zeros,
            self.s,
            self.policy,
        )


def joint_zero_matrix(arrays: Sequence[BitArray]) -> np.ndarray:
    """Every pair's ``U_c``, each at the pair's own size.

    Returns ``size - popcount(unfold(B_x) | B_y)`` for every pair of
    *arrays*, at ``size = max(m_x, m_y)``, in
    ``np.triu_indices(len(arrays), 1)`` order.  The sizes must tile
    (each divides every larger one, as powers of two do).

    The pairs are blocked by that size ``S``: for each distinct size,
    one stack holds the size-``S`` arrays at native size, and every
    array no larger than ``S`` is ORed against it with
    :func:`~repro.core.bitwords.pairwise_or_popcount`.  The stack is
    swept in column tiles of :data:`TILE_BITS` bits, so a tile of the
    stack and the broadcast temporary stay in cache across the rows.
    A smaller array is not unfolded to ``S``: the tile ``[c0, c1)`` of
    its tiling is its own words from ``c0`` modulo its length (an
    array shorter than a tile is tiled to the tile width once).  Only
    an array whose size is not a whole number of words (sizes below
    64 bits), or whose length and the tile width do not divide one
    another, is unfolded to ``S``.
    """
    unit = bitwords.WORD_BITS
    storages = [array.words for array in arrays]
    sizes = np.array([array.size for array in arrays], dtype=np.int64)
    k = len(arrays)
    # ones[i, j]: set bits of the joint of pair {i, j}, filled on
    # exactly one of (i, j) and (j, i).
    ones = np.zeros((k, k), dtype=np.int64)
    for size in sorted_unique(sizes).tolist():
        members = np.flatnonzero(sizes == size)
        block = np.stack([storages[j] for j in members])
        units = block.shape[1]
        step = min(units, max(1, TILE_BITS // unit))
        rows, row_ids = [], []
        for i in np.flatnonzero(sizes <= size).tolist():
            # A same-size row pairs only with the members after it.
            first = (
                int(np.searchsorted(members, i, side="right"))
                if sizes[i] == size
                else 0
            )
            if first == members.size:
                continue
            storage, m_i = storages[i], int(sizes[i])
            if size % m_i:
                raise ConfigurationError(
                    f"target size {size} is not a multiple of source size "
                    f"{m_i}; the scheme requires power-of-two lengths"
                )
            width = storage.shape[0]
            if width * unit != m_i or (width % step and step % width):
                storage = bitwords.unfold(storage, m_i, size // m_i)
            elif width < step:
                # Shorter than a tile: pre-tile once to the tile width.
                storage = bitwords.unfold(storage, m_i, step // width)
            rows.append((storage, first))
            row_ids.append(i)
        acc = np.zeros((len(rows), members.size), dtype=np.int64)
        for c0 in range(0, units, step):
            c1 = min(units, c0 + step)
            tile = block[:, c0:c1]
            for r, (storage, first) in enumerate(rows):
                # The tile [c0, c1) of a row's tiling to `size`.
                start = c0 % storage.shape[0]
                acc[r, first:] += bitwords.pairwise_or_popcount(
                    storage[start : start + c1 - c0], tile[first:]
                )
        ones[np.ix_(row_ids, members)] = acc
    upper, lower = np.triu_indices(k, 1)
    pair_sizes = np.maximum(sizes[upper], sizes[lower])
    return pair_sizes - (ones[upper, lower] + ones[lower, upper])
