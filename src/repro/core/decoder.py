"""Offline decoding pipeline at the central server (paper Section IV-C).

The :class:`CentralDecoder` collects per-period RSU reports and answers
point-to-point queries between arbitrary RSU pairs.  It is the
measurement back end used by :class:`repro.vcps.server.CentralServer`;
it has no networking concerns of its own so the experiment harness can
drive it directly.

Two decode paths produce bit-identical :class:`PairEstimate` values:

* :meth:`CentralDecoder.pair_estimate` / :meth:`CentralDecoder.all_pairs`
  — the scalar path, one tiled OR-count per pair, field for field
  what :func:`~repro.core.estimator.estimate_intersection` gives on
  the two stored reports;
* :meth:`CentralDecoder.estimate_matrix` — the vectorized path: the
  pairs are blocked by their size ``m_y``, each block's arrays are
  stacked at native size, and every pair's ``U_c`` at ``m_y`` falls
  out of broadcast OR + popcount over cache-sized column tiles
  (:func:`joint_zero_matrix`).  The counts are the per-pair path's
  integers, so the MLE is unchanged, digit for digit.

:meth:`CentralDecoder.query_pair` serves a stream of pair queries from
both: the scalar path answers a period's first ``k - 1`` queries after
a submit (``k`` RSUs reported), the period's batch decode every later
one.
"""

from __future__ import annotations

import math
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
    PairMatrix,
    _zero_fraction,
    estimate_from_fractions,
    estimate_pair_matrix,
)
from repro.core.reports import RsuReport
from repro.errors import ConfigurationError, EstimationError, ReproError
from repro.obs import get_registry
from repro.utils.arrays import sorted_unique

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import PolicyLike, SchemeConfig

__all__ = ["CentralDecoder", "joint_zero_matrix"]

_DISTINCT_RSUS = (
    "point-to-point volume requires two distinct RSUs; the point "
    "volume of a single RSU is its counter"
)

#: Words of a size class's stack that one column tile of
#: :func:`joint_zero_matrix` spans: a class of ``n`` arrays is swept in
#: tiles of ``TILE_WORDS / n`` words (to the nearest power of two),
#: about 512 KiB of stack per tile whatever ``n``, so the tile and the
#: OR scratch sized to it stay in L2.
TILE_WORDS = 1 << 16

#: Rows narrower than this many bits are tiled out once (to the widest
#: width up to it that divides the tile), so no broadcast OR runs over
#: a handful of words: 1,024 words, 8 KiB a row.
MIN_ROW_BITS = 1 << 16


class CentralDecoder:
    """Stores RSU reports and computes pairwise intersection estimates.

    A pair query is :func:`~repro.core.estimator.estimate_intersection`
    over the two stored reports, field for field: one reshape-tiled
    OR + popcount over the larger array's words, with nothing
    unfolded.  The one thing kept between queries is each stored
    report's zero count ``U``, taken on the report's first use and
    dropped when :meth:`submit` replaces (or re-submits) it, so a
    query pays only its joint-zero count and Eq. (5).  Code that
    changes a stored report's bits in place must re-submit it, as
    the federated collector does after each OR-merge.  For the full
    matrix, prefer :meth:`estimate_matrix`, which batches the per-pair
    work into a handful of vectorized numpy passes
    (``benchmarks/bench_matrix.py`` measures both paths).

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
    """

    def __init__(
        self,
        s: Optional[int] = None,
        *,
        policy: Optional["PolicyLike"] = None,
        config: Optional["SchemeConfig"] = None,
    ) -> None:
        from repro.core.config import resolve_config

        resolved = resolve_config(config, s=s, policy=policy)
        self.s = int(resolved.s)
        self.policy = resolved.policy
        # (period, rsu_id) -> report
        self._reports: Dict[Tuple[int, int], RsuReport] = {}
        # (period, rsu_id) -> zero count of the stored report's bits,
        # filled on first use and dropped by submit().
        self._zeros: Dict[Tuple[int, int], int] = {}
        # period -> scalar pair queries left before query_pair switches
        # to the batch decode, and that decode (None if it raised);
        # both dropped by submit().
        self._scalar_left: Dict[int, int] = {}
        self._matrices: Dict[int, Optional[PairMatrix]] = {}

    # ------------------------------------------------------------------
    # Report ingestion
    # ------------------------------------------------------------------
    def submit(self, report: RsuReport) -> None:
        """Store one RSU's report for its period (latest wins).

        Also the way to tell the decoder that a stored report's bits
        changed in place: its cached zero count, and the period's batch
        decode for :meth:`query_pair`, are dropped either way.
        """
        key = (report.period, report.rsu_id)
        self._reports[key] = report
        self._zeros.pop(key, None)
        self._scalar_left.pop(report.period, None)
        self._matrices.pop(report.period, None)

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

    def _fraction(self, report: RsuReport) -> float:
        """The observed ``V`` of a stored *report* under the policy;
        its zero count is taken once per :meth:`submit`."""
        key = (report.period, report.rsu_id)
        zeros = self._zeros.get(key)
        if zeros is None:
            zeros = self._zeros[key] = report.bits.count_zeros()
        return _zero_fraction(zeros, report.bits.size, self.policy)

    def rsu_ids(self, period: int = 0) -> List[int]:
        """All RSUs that reported in *period*, sorted."""
        return sorted(rid for (p, rid) in self._reports if p == period)

    def __len__(self) -> int:
        return len(self._reports)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _query_ids(
        self, period: int, rsu_ids: Optional[List[int]]
    ) -> List[int]:
        """The sorted RSUs a matrix query covers: *rsu_ids*, or every
        reporter in *period*.  A repeated id would be a self-pair."""
        if rsu_ids is None:
            return self.rsu_ids(period)
        ids = sorted(rsu_ids)
        if any(a == b for a, b in zip(ids, ids[1:])):
            raise EstimationError(_DISTINCT_RSUS)
        return ids

    def point_volume(self, rsu_id: int, period: int = 0) -> int:
        """The exact point volume ``n_x`` from the RSU counter."""
        return self.report_for(rsu_id, period).counter

    def pair_estimate(
        self, rsu_x: int, rsu_y: int, period: int = 0
    ) -> PairEstimate:
        """Estimate the point-to-point volume between two RSUs (Eq. 5).

        Equal, field for field and error for error, to
        :func:`~repro.core.estimator.estimate_intersection` on the two
        stored reports, with each report's ``V`` read from the cache.
        """
        if rsu_x == rsu_y:
            raise EstimationError(_DISTINCT_RSUS)
        report_x = self.report_for(rsu_x, period)
        report_y = self.report_for(rsu_y, period)
        if report_x.array_size > report_y.array_size:
            report_x, report_y = report_y, report_x
        m_x, m_y = report_x.array_size, report_y.array_size
        if m_y % m_x:
            raise ConfigurationError(
                f"target size {m_y} is not a multiple of source size "
                f"{m_x}; the scheme requires power-of-two lengths"
            )
        zeros = bitwords.joint_zero_counts(
            report_x.bits.words, m_x, report_y.bits.words, m_y
        )
        v_c = _zero_fraction(zeros, m_y, self.policy)
        v_x = self._fraction(report_x)
        v_y = self._fraction(report_y)
        return PairEstimate(
            value=estimate_from_fractions(v_c, v_x, v_y, m_y, self.s),
            v_c=v_c,
            v_x=v_x,
            v_y=v_y,
            m_x=m_x,
            m_y=m_y,
            n_x=report_x.counter,
            n_y=report_y.counter,
            s=self.s,
        )

    def query_pair(
        self, rsu_x: int, rsu_y: int, period: int = 0
    ) -> PairEstimate:
        """One pair query of a stream: :meth:`pair_estimate`'s answer,
        field for field and error for error.

        The period's first ``k - 1`` queries since its last
        :meth:`submit` (``k`` RSUs reported) run :meth:`pair_estimate`;
        the next one builds the period's :meth:`estimate_matrix`, and
        it answers every later query.  Querying every pair therefore
        costs ``k - 1`` scalar decodes and one batch decode, while a
        lone query never pays for the batch decode; queries that
        interleave with submits cost at most one batch decode per
        submit.  A pair the matrix holds no answer for (an unknown
        RSU, a self pair) and every pair of a period whose batch
        decode raised (sizes that do not tile, a saturated array
        under ``RAISE``) goes to :meth:`pair_estimate`, which raises
        what it always raised.
        """
        matrix = self._matrices.get(period)
        if matrix is None and period not in self._matrices:
            left = self._scalar_left.get(period)
            if left is None:
                # At least one: a lone query never builds the matrix.
                left = max(len(self.rsu_ids(period)) - 1, 1)
            if left:
                self._scalar_left[period] = left - 1
                return self.pair_estimate(rsu_x, rsu_y, period)
            try:
                matrix = self.estimate_matrix(period)
            except ReproError:
                matrix = None
            self._matrices[period] = matrix
        if matrix is not None:
            key = (rsu_x, rsu_y) if rsu_x < rsu_y else (rsu_y, rsu_x)
            try:
                estimate = matrix[key]
            except KeyError:
                pass
            else:
                if rsu_x < rsu_y or estimate.m_x != estimate.m_y:
                    return estimate
                # Two arrays of one size: pair_estimate keeps its
                # first RSU as x, and Eq. (5) subtracts ln V_x first.
                v_c, v_x, v_y = estimate.v_c, estimate.v_y, estimate.v_x
                return PairEstimate(
                    value=estimate_from_fractions(v_c, v_x, v_y, estimate.m_y, self.s),
                    v_c=v_c,
                    v_x=v_x,
                    v_y=v_y,
                    m_x=estimate.m_x,
                    m_y=estimate.m_y,
                    n_x=estimate.n_y,
                    n_y=estimate.n_x,
                    s=self.s,
                )
        return self.pair_estimate(rsu_x, rsu_y, period)

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
        ids = self._query_ids(period, rsu_ids)
        results: Dict[Tuple[int, int], PairEstimate] = {}
        for i, rsu_x in enumerate(ids):
            for rsu_y in ids[i + 1 :]:
                results[(rsu_x, rsu_y)] = self.pair_estimate(rsu_x, rsu_y, period)
        return results

    def estimate_matrix(
        self, period: int = 0, *, rsu_ids: Optional[List[int]] = None
    ) -> PairMatrix:
        """Vectorized all-pairs decode (bit-identical to :meth:`all_pairs`).

        Every pair's ``U_c`` is counted at the pair's own size
        ``m_y = max(m_x, m_y)``, as Section IV-E prescribes, by
        :func:`joint_zero_matrix`; the shared finisher
        :func:`~repro.core.estimator.estimate_pair_matrix` turns the
        counts into a :class:`~repro.core.estimator.PairMatrix`.  The
        counts, the fractions and so every :class:`PairEstimate` the
        matrix yields match the per-pair path digit for digit.
        """
        ids = self._query_ids(period, rsu_ids)
        if len(ids) < 2:
            return PairMatrix.empty(self.s)
        reports = [self.report_for(rsu_id, period) for rsu_id in ids]
        zeros = joint_zero_matrix([report.bits for report in reports])
        # Per-report statistics are shared by every pair they join.
        fractions = [self._fraction(report) for report in reports]
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
    swept in column tiles sized to its class (:data:`TILE_WORDS`), a
    tile narrower than the stack copied contiguous once, so the tile
    and the OR scratch stay in cache across the rows.  A smaller array
    is not unfolded to ``S``: the tile ``[c0, c1)`` of its tiling is its
    own words from ``c0`` modulo its length, or its words broadcast
    across the tile when it is shorter (an array shorter than
    :data:`MIN_ROW_BITS` is tiled once to the widest width up to that
    which divides the tile).  Only an array whose size is not a whole number of
    words (sizes below 64 bits), or whose length and the tile width do
    not divide one another, is unfolded to ``S``.
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
        # The power of two nearest TILE_WORDS / members, cut to divide units.
        budget = 1 << max(0, round(math.log2(TILE_WORDS / members.size)))
        step = units if units <= budget else math.gcd(units, budget)
        # A width that divides the tile: a row pre-tiled to it broadcasts.
        span = math.gcd(step, max(1, MIN_ROW_BITS // unit))
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
            if (
                width * unit != m_i
                or (width % step and step % width)
                or (width < span and span % width)
            ):
                storage = bitwords.unfold(storage, m_i, size // m_i)
            elif width < span:
                storage = bitwords.unfold(storage, m_i, span // width)
            rows.append((storage, first))
            row_ids.append(i)
        acc = np.zeros((len(rows), members.size), dtype=np.int64)
        scratch = (
            np.empty(members.size * step, dtype=np.uint64),
            np.empty(members.size * step, dtype=np.uint8),
        )
        contiguous = (
            np.empty((members.size, step), dtype=np.uint64) if step < units else None
        )
        for c0 in range(0, units, step):
            tile = block[:, c0 : c0 + step]
            if contiguous is not None:
                np.copyto(contiguous, tile)
                tile = contiguous
            for r, (storage, first) in enumerate(rows):
                # The tile [c0, c0 + step) of a row's tiling to `size`:
                # a slice of a wider row, a narrower row as it is.
                start = c0 % storage.shape[0]
                acc[r, first:] += bitwords.pairwise_or_popcount(
                    storage[start : start + step], tile[first:], scratch
                )
        ones[np.ix_(row_ids, members)] = acc
    upper, lower = np.triu_indices(k, 1)
    pair_sizes = np.maximum(sizes[upper], sizes[lower])
    return pair_sizes - (ones[upper, lower] + ones[lower, upper])
