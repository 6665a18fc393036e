"""Zero-bit occupancy model and the MLE estimator (paper Section IV-C/D).

The central quantities are the fractions of zero bits

* ``V_x`` in ``B_x``, ``V_y`` in ``B_y`` and ``V_c`` in
  ``B_c = unfold(B_x) OR B_y``,

whose expectations under the occupancy model are (Eqs. 9-11):

* ``q(n_x) = (1 - 1/m_x)**n_x``
* ``q(n_y) = (1 - 1/m_y)**n_y``
* ``q(n_c) = q(n_x) * q(n_y) * rho**n_c`` with
  ``rho = (1 - (s-1)/(s m_y)) / (1 - 1/m_y)``.

Maximizing the binomial likelihood of observing ``U_c`` zero bits in
``B_c`` yields the closed-form MLE (Eq. 5):

    ``n̂_c = [ln V_c - ln V_x - ln V_y] / ln(rho)``.

All computations run in log space so they remain exact at the paper's
largest scales (``n = 5*10**5``, ``m = 2**21``).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from repro.core import bitwords
from repro.core.bitarray import BitArray
from repro.core.reports import RsuReport
from repro.core.results import Estimate
from repro.errors import ConfigurationError, EstimationError, SaturatedArrayError
from repro.utils.arrays import sorted_unique, triu_position
from repro.utils.mathx import log_pow_one_minus

__all__ = [
    "ZeroFractionPolicy",
    "PairEstimate",
    "PairMatrix",
    "q_point",
    "q_intersection",
    "log_collision_ratio",
    "estimate_from_fractions",
    "estimate_pair_matrix",
    "estimate_intersection",
    "estimate_point_volume",
]

ArrayLike = Union[float, np.ndarray]


class ZeroFractionPolicy(enum.Enum):
    """What to do when a bit array is saturated (no zero bits).

    ``RAISE``
        Raise :class:`~repro.errors.SaturatedArrayError` — the honest
        choice for analysis code.
    ``CLAMP``
        Substitute half a zero bit (``V = 0.5/m``), the standard
        bitmap-estimator continuity correction, so sweeps over extreme
        load factors still return finite numbers.
    """

    RAISE = "raise"
    CLAMP = "clamp"


def q_point(volume: ArrayLike, array_size: float) -> ArrayLike:
    """Expected zero-bit fraction after *volume* single-bit inserts.

    Paper Eqs. (10)/(11): ``q(n) = (1 - 1/m)**n``.
    """
    if np.any(np.asarray(array_size) <= 1):
        raise ConfigurationError(f"array_size must be > 1, got {array_size}")
    return np.exp(log_pow_one_minus(1.0 / np.asarray(array_size, float), volume))


def log_collision_ratio(s: int, m_y: float) -> float:
    """Return ``ln(rho)`` with ``rho = (1 - (s-1)/(s m_y))/(1 - 1/m_y)``.

    This is the (positive) denominator of Eq. (5): the per-common-car
    log-odds by which the joint array ``B_c`` keeps more zeros than two
    independent populations would.
    """
    if s < 1:
        raise ConfigurationError(f"s must be >= 1, got {s}")
    if m_y <= 1:
        raise ConfigurationError(f"m_y must be > 1, got {m_y}")
    if s >= m_y:
        raise ConfigurationError(
            f"s ({s}) must be < m_y ({m_y}); the MLE derivative degenerates"
        )
    return math.log1p(-(s - 1) / (s * m_y)) - math.log1p(-1.0 / m_y)


def q_intersection(
    n_x: ArrayLike,
    n_y: ArrayLike,
    n_c: ArrayLike,
    m_x: float,
    m_y: float,
    s: int,
) -> ArrayLike:
    """Expected zero-bit fraction of the joint array ``B_c`` (Eq. 9)."""
    log_q = (
        log_pow_one_minus(1.0 / m_x, n_x)
        + log_pow_one_minus(1.0 / m_y, n_y)
        + np.asarray(n_c, float) * log_collision_ratio(s, m_y)
    )
    return np.exp(log_q)


def estimate_from_fractions(
    v_c: float, v_x: float, v_y: float, m_y: float, s: int
) -> float:
    """Apply Eq. (5) to observed zero-bit fractions.

    ``n̂_c = [ln V_c - ln V_x - ln V_y] / ln(rho)``.

    Raises :class:`SaturatedArrayError` if any fraction is zero.
    """
    for name, value in (("V_c", v_c), ("V_x", v_x), ("V_y", v_y)):
        if value <= 0.0:
            raise SaturatedArrayError(
                f"{name} = 0: a bit array is saturated, the MLE of Eq. (5) "
                "is undefined; increase the load factor or use CLAMP"
            )
        if value > 1.0:
            raise EstimationError(f"{name} = {value} is not a fraction in (0, 1]")
    return (math.log(v_c) - math.log(v_x) - math.log(v_y)) / log_collision_ratio(
        s, m_y
    )


def estimate_pair_matrix(
    rsu_ids: Sequence[int],
    sizes: Sequence[int],
    counters: Sequence[int],
    fractions: Sequence[float],
    joint_zeros: np.ndarray,
    s: int,
    policy: ZeroFractionPolicy,
) -> "PairMatrix":
    """Apply Eq. (5) to every RSU pair at once.

    The shared finisher of the batch and streaming all-pairs decoders.
    *rsu_ids* are sorted and the per-RSU sequences align with them;
    *fractions* are the observed ``V`` of each array (already policy
    adjusted).  *joint_zeros* holds each pair's ``U_c`` at the pair's
    own size ``max(m_x, m_y)``, in ``np.triu_indices(len(rsu_ids), 1)``
    order, which is also the key order of the returned
    :class:`PairMatrix`.

    Every field equals what :func:`estimate_from_fractions` gives pair
    by pair: ``V_c`` and Eq. (5)'s subtractions and division are
    elementwise float64 numpy ops, IEEE-identical to the Python float
    ones, and each ``ln V_c`` still comes from :func:`math.log` (once
    per distinct ``V_c``).  A
    saturated joint array under ``RAISE``, an out-of-range fraction or
    an invalid ``(s, m_y)`` raises the same error, for the same first
    pair, as the pair-by-pair loop.
    """
    rows, cols = np.triu_indices(len(rsu_ids), 1)
    m = np.asarray(sizes, dtype=np.int64)
    # v_x is always the smaller array's; ties keep the first RSU as x.
    swap = m[rows] > m[cols]
    small = np.where(swap, cols, rows)
    large = np.where(swap, rows, cols)
    m_y = m[large]
    zeros = np.asarray(joint_zeros, dtype=np.int64)
    saturated = zeros == 0
    v_c = np.where(saturated, 0.5, zeros) / m_y
    v = np.asarray(fractions, dtype=np.float64)
    v_x, v_y = v[small], v[large]

    # ln(rho) once per distinct m_y; NaN marks an (s, m_y) it rejects.
    distinct = sorted_unique(m_y)
    ratios = np.empty(distinct.size, dtype=np.float64)
    for slot, size in enumerate(distinct.tolist()):
        try:
            ratios[slot] = log_collision_ratio(s, size)
        except ConfigurationError:
            ratios[slot] = np.nan
    log_rho = ratios[np.searchsorted(distinct, m_y)]

    invalid = np.isnan(log_rho)
    for fraction in (v_c, v_x, v_y):
        invalid |= (fraction <= 0.0) | (fraction > 1.0)
    if policy is ZeroFractionPolicy.RAISE:
        invalid |= saturated
    if invalid.any():
        first = int(np.argmax(invalid))
        if saturated[first] and policy is ZeroFractionPolicy.RAISE:
            raise SaturatedArrayError(
                f"joint array for RSU pair ({rsu_ids[rows[first]]}, "
                f"{rsu_ids[cols[first]]}) is saturated (no zero bits)"
            )
        estimate_from_fractions(  # raises the pair-by-pair error
            float(v_c[first]),
            float(v_x[first]),
            float(v_y[first]),
            int(m_y[first]),
            s,
        )

    log_v = np.array([math.log(f) for f in fractions], dtype=np.float64)
    # math.log once per distinct V_c (U_c / m_y takes few values), then
    # gathered: np.log is not bit-identical to math.log.
    levels = sorted_unique(v_c)
    log_v_c = np.array([math.log(f) for f in levels.tolist()], dtype=np.float64)
    log_v_c = log_v_c[np.searchsorted(levels, v_c)]
    values = (log_v_c - log_v[small] - log_v[large]) / log_rho
    return PairMatrix(rsu_ids, sizes, counters, fractions, values, v_c, s)


def _zero_fraction(zeros: int, size: int, policy: ZeroFractionPolicy) -> float:
    """``zeros / size``, applying the saturation *policy* at zero."""
    if zeros == 0:
        if policy is ZeroFractionPolicy.RAISE:
            raise SaturatedArrayError(
                f"bit array of size {size} is saturated (no zero bits)"
            )
        return 0.5 / size
    return zeros / size


def _observed_fraction(bits: BitArray, policy: ZeroFractionPolicy) -> float:
    """Zero fraction of *bits*, applying the saturation *policy*."""
    return _zero_fraction(bits.count_zeros(), bits.size, policy)


@dataclass(frozen=True)
class PairEstimate(Estimate):
    """Result of decoding one RSU pair.

    Attributes
    ----------
    value:
        The point-to-point traffic volume estimate ``n̂_c`` (Eq. 5).
    v_c, v_x, v_y:
        Observed zero-bit fractions that produced the estimate
        (``v_x`` always refers to the *smaller* array).
    m_x, m_y:
        Array sizes after the canonical ordering ``m_x <= m_y``.
    n_x, n_y:
        Reported counters under the same ordering.
    s:
        Logical bit array size used.
    """

    v_c: float
    v_x: float
    v_y: float
    m_x: int
    m_y: int
    n_x: int
    n_y: int
    s: int

    @property
    def stderr(self) -> float:
        """Plug-in standard error from the Section V variance (Eq. 34
        machinery), evaluated at the estimate clamped into the feasible
        range ``[1, min(n_x, n_y)]``."""
        from repro.accuracy.variance import estimator_variance

        plug_in = min(max(self.value, 1.0), float(min(self.n_x, self.n_y)))
        variance = estimator_variance(
            self.n_x,
            self.n_y,
            int(round(plug_in)),
            self.m_x,
            self.m_y,
            self.s,
        )
        return math.sqrt(max(variance, 0.0))

    @property
    def params(self) -> Dict[str, object]:
        """Scheme parameters: ``s`` and the ordered array sizes."""
        return {"s": self.s, "m_x": self.m_x, "m_y": self.m_y}

    @property
    def meta(self) -> Dict[str, object]:
        """Observed zero fractions and reported counters."""
        return {
            "v_c": self.v_c,
            "v_x": self.v_x,
            "v_y": self.v_y,
            "n_x": self.n_x,
            "n_y": self.n_y,
        }


#: The arrays of a :class:`PairMatrix`, in constructor order.
_COLUMNS = ("rsu_ids", "sizes", "counters", "fractions", "value", "v_c")


class PairMatrix(Mapping):
    """Every RSU pair's estimate of one decode, stored as columns.

    What :func:`estimate_pair_matrix` returns, and so every all-pairs
    decode (:meth:`~repro.core.decoder.CentralDecoder.estimate_matrix`,
    the streaming ``live_matrix``/``matrix_at``/``window_matrix`` and
    :meth:`~repro.vcps.server.CentralServer.traffic_matrix`).

    Attributes
    ----------
    rsu_ids:
        The RSUs, sorted (``int64``).
    sizes, counters, fractions:
        Per-RSU ``m``, ``n`` and observed ``V``, aligned with
        *rsu_ids* and stored once, not per pair.
    value, v_c:
        Per-pair ``n̂_c`` and ``V_c`` (``float64``) in
        ``np.triu_indices(len(rsu_ids), 1)`` order.
    s:
        The logical bit array size.

    The arrays are read-only.  As a read-only :class:`Mapping` it
    reads like the ``{(x, y): PairEstimate}`` dict of every pair
    ``x < y``, in the same key order: ``matrix[(x, y)]`` builds the
    :class:`PairEstimate` on demand, with Python ``float``/``int``
    fields whose small/large side comes from *sizes* (a tie keeps
    ``x``).  A reversed or unknown key raises :class:`KeyError`.  Two
    matrices compare by their arrays; against any other mapping,
    ``==`` compares pair by pair.
    """

    __slots__ = (*_COLUMNS, "s", "_rank")

    def __init__(
        self,
        rsu_ids: Sequence[int],
        sizes: Sequence[int],
        counters: Sequence[int],
        fractions: Sequence[float],
        value: Sequence[float],
        v_c: Sequence[float],
        s: int,
    ) -> None:
        columns = {
            "rsu_ids": np.array(rsu_ids, dtype=np.int64),
            "sizes": np.array(sizes, dtype=np.int64),
            "counters": np.array(counters, dtype=np.int64),
            "fractions": np.array(fractions, dtype=np.float64),
            "value": np.array(value, dtype=np.float64),
            "v_c": np.array(v_c, dtype=np.float64),
        }
        k = columns["rsu_ids"].size
        for name, column in columns.items():
            expected = k * (k - 1) // 2 if name in ("value", "v_c") else k
            if column.shape != (expected,):
                raise ConfigurationError(
                    f"{name} has shape {column.shape}, expected ({expected},) "
                    f"for {k} RSUs"
                )
            column.flags.writeable = False
            setattr(self, name, column)
        self.s = int(s)
        self._rank = {rsu_id: i for i, rsu_id in enumerate(self.rsu_ids.tolist())}

    @classmethod
    def empty(cls, s: int) -> "PairMatrix":
        """The matrix of fewer than two RSUs: no pairs."""
        return cls([], [], [], [], [], [], s)

    def __reduce__(self):
        return (PairMatrix, (*(getattr(self, name) for name in _COLUMNS), self.s))

    # -- positions ----------------------------------------------------
    def index(
        self, a: Sequence[int], b: Sequence[int], *, strict: bool = True
    ) -> np.ndarray:
        """Triu positions of the pairs ``(a[t], b[t])`` (``int64``).

        Gathers the per-pair columns: ``matrix.value[matrix.index(a,
        b)]``.  A pair that is not a key (an unknown RSU, or ``a >=
        b``) raises :class:`KeyError` naming the first one, or with
        *strict* false gets position ``-1``.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        ids = self.rsu_ids
        i = np.searchsorted(ids, a)
        j = np.searchsorted(ids, b)
        found = (i < j) & (j < ids.size)
        if ids.size:
            last = ids.size - 1
            found &= ids[np.minimum(i, last)] == a
            found &= ids[np.minimum(j, last)] == b
        if strict and not found.all():
            first = int(np.argmin(found))
            raise KeyError((int(a[first]), int(b[first])))
        return np.where(found, triu_position(i, j, ids.size), -1)

    def pair_ids(self) -> Tuple[np.ndarray, np.ndarray]:
        """The keys as two ``int64`` columns ``(x, y)``, in key order."""
        rows, cols = np.triu_indices(self.rsu_ids.size, 1)
        return self.rsu_ids[rows], self.rsu_ids[cols]

    def columns(self) -> Dict[str, np.ndarray]:
        """Every :class:`PairEstimate` field as a per-pair column, in
        the dataclass's field order and the key order."""
        rows, cols = np.triu_indices(self.rsu_ids.size, 1)
        swap = self.sizes[rows] > self.sizes[cols]
        small = np.where(swap, cols, rows)
        large = np.where(swap, rows, cols)
        return {
            "value": self.value,
            "v_c": self.v_c,
            "v_x": self.fractions[small],
            "v_y": self.fractions[large],
            "m_x": self.sizes[small],
            "m_y": self.sizes[large],
            "n_x": self.counters[small],
            "n_y": self.counters[large],
            "s": np.full(rows.size, self.s, dtype=np.int64),
        }

    # -- the Mapping --------------------------------------------------
    def __len__(self) -> int:
        return self.value.size

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        ids = self.rsu_ids.tolist()
        for i, x in enumerate(ids):
            for y in ids[i + 1 :]:
                yield (x, y)

    def __getitem__(self, key: Tuple[int, int]) -> PairEstimate:
        if not (isinstance(key, tuple) and len(key) == 2):
            raise KeyError(key)
        i, j = self._rank.get(key[0]), self._rank.get(key[1])
        if i is None or j is None or i >= j:
            raise KeyError(key)
        p = triu_position(i, j, self.rsu_ids.size)
        x, y = (j, i) if self.sizes[i] > self.sizes[j] else (i, j)
        return PairEstimate(
            value=float(self.value[p]),
            v_c=float(self.v_c[p]),
            v_x=float(self.fractions[x]),
            v_y=float(self.fractions[y]),
            m_x=int(self.sizes[x]),
            m_y=int(self.sizes[y]),
            n_x=int(self.counters[x]),
            n_y=int(self.counters[y]),
            s=self.s,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PairMatrix):
            if not (len(self) or len(other)):
                return True
            return self.s == other.s and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in _COLUMNS
            )
        return Mapping.__eq__(self, other)

    def __repr__(self) -> str:
        return (
            f"PairMatrix({self.rsu_ids.size} RSUs, {len(self)} pairs, s={self.s})"
        )


def estimate_intersection(
    report_x: RsuReport,
    report_y: RsuReport,
    s: int,
    *,
    policy: ZeroFractionPolicy = ZeroFractionPolicy.RAISE,
) -> PairEstimate:
    """Decode a pair of RSU reports into ``n̂_c`` (paper Eqs. 3-5).

    Orders the reports so the first has the smaller array, counts the
    zeros of its unfolding ORed with the larger one
    (:func:`repro.core.bitwords.joint_zero_counts`, no joint array is
    built), and applies the MLE.

    Parameters
    ----------
    report_x, report_y:
        The two per-period RSU reports (any order, any power-of-two
        sizes).
    s:
        The logical bit array size the vehicles used.
    policy:
        Saturation handling; see :class:`ZeroFractionPolicy`.
    """
    if report_x.period != report_y.period:
        raise EstimationError(
            f"reports cover different periods ({report_x.period} vs "
            f"{report_y.period}); point-to-point volume is per-period"
        )
    if report_x.array_size > report_y.array_size:
        report_x, report_y = report_y, report_x
    m_x, m_y = report_x.array_size, report_y.array_size
    if m_y % m_x:
        raise ConfigurationError(
            f"target size {m_y} is not a multiple of source size {m_x}; "
            "the scheme requires power-of-two lengths"
        )
    zeros = bitwords.joint_zero_counts(
        report_x.bits.words, m_x, report_y.bits.words, m_y
    )
    v_c = _zero_fraction(zeros, m_y, policy)
    v_x = _observed_fraction(report_x.bits, policy)
    v_y = _observed_fraction(report_y.bits, policy)
    n_c_hat = estimate_from_fractions(v_c, v_x, v_y, m_y, s)
    return PairEstimate(
        value=n_c_hat,
        v_c=v_c,
        v_x=v_x,
        v_y=v_y,
        m_x=m_x,
        m_y=m_y,
        n_x=report_x.counter,
        n_y=report_y.counter,
        s=s,
    )


def estimate_point_volume(
    report: RsuReport,
    *,
    policy: ZeroFractionPolicy = ZeroFractionPolicy.RAISE,
) -> float:
    """Bitmap ("linear counting") estimate of a single RSU's volume.

    Inverts Eq. (10): ``n̂ = ln(V) / ln(1 - 1/m)``.  The scheme itself
    carries the exact counter ``n_x``, but this estimator lets the
    server cross-check counters against bit arrays (e.g. to detect a
    faulty RSU whose counter drifted from its array) and is used by the
    consistency checks in :mod:`repro.vcps.server`.
    """
    v = _observed_fraction(report.bits, policy)
    return math.log(v) / math.log1p(-1.0 / report.array_size)
