"""Three-point trajectory volume estimation (future-work extension).

The paper measures pairs.  Transportation studies also want *three
point* trajectory flows (e.g. how many vehicles pass A, then the
bridge B, then downtown C).  The scheme's data structures already
support it: unfold all three arrays to the largest size, OR, count
zeros, and invert the three-way occupancy model.

Model
-----
Order the sizes ``m_x ≤ m_y ≤ m_z`` (powers of two, so congruence
classes nest).  For a bit ``b`` of
``B_t = unfold(B_x) | unfold(B_y) | B_z`` the per-vehicle avoidance
probability depends on which RSUs the vehicle visits:

* one RSU ``a``: ``1 − 1/m_a``;
* two RSUs ``a, b`` (``m_a ≤ m_b``): reuse (prob ``1/s``) collides via
  the coarser class only — ``A_ab = (1 − 1/m_a)(1 − (s−1)/(s·m_b))``,
  the familiar Eq. (6) factor;
* all three: condition on the slot pattern of ``(j_x, j_y, j_z)``:
  all equal (``1/s²``) → ``1 − 1/m_x``; exactly one pair equal
  (``(s−1)/s²`` each, three patterns) → the pair collapses onto its
  coarser class; all distinct → independent draws.

Writing ``L_a = log(1 − 1/m_a)``, ``D_ab = log A_ab − L_a − L_b``
(exactly the pairwise estimator denominator ``ln rho``), and ``D_3``
for the analogous triple excess, the log zero-fraction of ``B_t`` is
*linear* in the population sizes:

``ln q_t = Σ_a n_a L_a + Σ_ab n_ab D_ab + n_xyz D_3``

so given the counters, the three pairwise estimates and the observed
``V_t``, the triple volume has the closed-form estimator implemented
by :func:`estimate_triple`.  Validated against simulation in
``tests/test_multiway.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.core.bitarray import BitArray
from repro.core.estimator import (
    ZeroFractionPolicy,
    estimate_intersection,
)
from repro.core.reports import RsuReport
from repro.core.results import Estimate
from repro.core.unfolding import unfold
from repro.errors import ConfigurationError, EstimationError, SaturatedArrayError

__all__ = [
    "TripleEstimate",
    "estimate_triple",
    "log_q_triple_coefficients",
    "MultiwayEstimate",
    "estimate_multiway",
    "log_avoid_visiting",
    "mobius_coefficient",
]


def _log1m(inverse: float) -> float:
    return math.log1p(-inverse)


def _log_pair_avoid(m_small: float, m_large: float, s: int) -> float:
    """``log A_ab`` for a vehicle visiting two RSUs (Eq. 6 factor)."""
    return _log1m(1.0 / m_small) + _log1m((s - 1) / (s * m_large))


def _log_triple_avoid(m_x: float, m_y: float, m_z: float, s: int) -> float:
    """``log`` of the per-vehicle avoidance for an all-three vehicle.

    Slot-pattern conditioning (see module docstring); sizes ordered
    ``m_x ≤ m_y ≤ m_z``.
    """
    p_all = 1.0 / s**2
    p_pair = (s - 1) / s**2  # for each of the three specific patterns
    p_distinct = (s - 1) * (s - 2) / s**2
    ax, ay, az = 1 - 1 / m_x, 1 - 1 / m_y, 1 - 1 / m_z
    value = (
        p_all * ax                     # one draw, coarsest class wins
        + p_pair * ax * az             # j_x = j_y: shared draw hits class_x
        + p_pair * ax * ay             # j_x = j_z: shared draw hits class_x
        + p_pair * ay * ax             # j_y = j_z: shared draw hits class_y
        + p_distinct * ax * ay * az    # three independent draws
    )
    return math.log(value)


def log_q_triple_coefficients(
    m_x: int, m_y: int, m_z: int, s: int
) -> Tuple[float, float, float, float]:
    """The linear model's coefficients ``(D_xy, D_xz, D_yz, D_3)``.

    ``ln q_t = n_x L_x + n_y L_y + n_z L_z + n_xy D_xy + n_xz D_xz +
    n_yz D_yz + n_xyz D_3`` with sizes ordered ``m_x ≤ m_y ≤ m_z``.
    """
    if not m_x <= m_y <= m_z:
        raise ConfigurationError("sizes must be ordered m_x <= m_y <= m_z")
    if s < 2:
        raise ConfigurationError(
            "triple estimation needs s >= 2 (s = 1 makes every pairwise "
            "and triple term collinear)"
        )
    l_x, l_y, l_z = _log1m(1 / m_x), _log1m(1 / m_y), _log1m(1 / m_z)
    d_xy = _log_pair_avoid(m_x, m_y, s) - l_x - l_y
    d_xz = _log_pair_avoid(m_x, m_z, s) - l_x - l_z
    d_yz = _log_pair_avoid(m_y, m_z, s) - l_y - l_z
    d_3 = (
        _log_triple_avoid(m_x, m_y, m_z, s)
        - l_x - l_y - l_z
        - d_xy - d_xz - d_yz
    )
    return d_xy, d_xz, d_yz, d_3


@dataclass(frozen=True)
class TripleEstimate(Estimate):
    """Result of a three-point measurement.

    :attr:`value` is the triple trajectory volume ``n̂_xyz``.
    """

    pairwise: Tuple[float, float, float]
    v_t: float
    m_sizes: Tuple[int, int, int]
    s: int

    @property
    def params(self) -> dict:
        """Scheme parameters: ``s`` and the ordered array sizes."""
        return {"s": self.s, "m_sizes": self.m_sizes}

    @property
    def meta(self) -> dict:
        """Pairwise estimates and the triple-OR zero fraction."""
        return {"pairwise": self.pairwise, "v_t": self.v_t}


def estimate_triple(
    report_x: RsuReport,
    report_y: RsuReport,
    report_z: RsuReport,
    s: int,
    *,
    policy: ZeroFractionPolicy = ZeroFractionPolicy.RAISE,
) -> TripleEstimate:
    """Estimate the three-point trajectory volume ``|S_x∩S_y∩S_z|``.

    Reports may arrive in any order; they are sorted by array size.
    The three pairwise volumes are estimated with the paper's Eq. (5)
    and plugged into the linear triple model (module docstring).
    """
    reports = sorted(
        (report_x, report_y, report_z), key=lambda r: r.array_size
    )
    r_x, r_y, r_z = reports
    if len({r.rsu_id for r in reports}) != 3:
        raise EstimationError("triple estimation needs three distinct RSUs")
    m_x, m_y, m_z = (r.array_size for r in reports)
    if m_z % m_y or m_y % m_x:
        raise ConfigurationError("sizes must nest: m_x | m_y | m_z")

    # Pairwise estimates via the paper's machinery.
    pair_xy = estimate_intersection(r_x, r_y, s, policy=policy).value
    pair_xz = estimate_intersection(r_x, r_z, s, policy=policy).value
    pair_yz = estimate_intersection(r_y, r_z, s, policy=policy).value

    # Observed zero fraction of the triple-OR array.
    joint: BitArray = unfold(r_x.bits, m_z) | unfold(r_y.bits, m_z) | r_z.bits
    zeros = joint.count_zeros()
    if zeros == 0:
        if policy is ZeroFractionPolicy.RAISE:
            raise SaturatedArrayError("triple-OR array is saturated")
        v_t = 0.5 / m_z
    else:
        v_t = zeros / m_z

    d_xy, d_xz, d_yz, d_3 = log_q_triple_coefficients(m_x, m_y, m_z, s)
    if abs(d_3) < 1e-300:
        raise EstimationError("degenerate triple coefficient; enlarge arrays")
    log_singles = (
        r_x.counter * _log1m(1 / m_x)
        + r_y.counter * _log1m(1 / m_y)
        + r_z.counter * _log1m(1 / m_z)
    )
    n_xyz = (
        math.log(v_t)
        - log_singles
        - pair_xy * d_xy
        - pair_xz * d_xz
        - pair_yz * d_yz
    ) / d_3
    return TripleEstimate(
        value=n_xyz,
        pairwise=(pair_xy, pair_xz, pair_yz),
        v_t=v_t,
        m_sizes=(m_x, m_y, m_z),
        s=s,
    )


# ----------------------------------------------------------------------
# General k-way estimation (Möbius inversion over the partition model)
# ----------------------------------------------------------------------
def _set_partitions(items: tuple):
    """Yield all set partitions of *items* (Bell-number enumeration)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        # first joins an existing block
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1:]
        # first opens a new block
        yield [[first]] + partition


def log_avoid_visiting(sizes: Tuple[int, ...], s: int) -> float:
    """``log A_C``: probability a vehicle visiting the RSUs with array
    *sizes* avoids one target bit's congruence class in every array.

    Conditions on the set partition of the vehicle's slot choices:
    RSUs in the same block share one uniform draw, which violates with
    probability ``1/min(m in block)`` (classes nest under the
    power-of-two constraint); distinct blocks draw independently.  The
    partition with ``k`` blocks has probability
    ``s (s−1) ... (s−k+1) / s^t``.
    """
    if not sizes:
        return 0.0
    if s < 1:
        raise ConfigurationError(f"s must be >= 1, got {s}")
    t = len(sizes)
    total = 0.0
    for partition in _set_partitions(tuple(range(t))):
        k = len(partition)
        weight = 1.0
        for i in range(k):
            weight *= (s - i) / s
        if weight <= 0.0:
            continue  # more blocks than slots: impossible pattern
        # remaining factor of the pattern probability: each of the t
        # draws i.i.d. lands in its block's slot with prob (1/s)^(t-k)
        weight *= (1.0 / s) ** (t - k)
        avoid = 1.0
        for block in partition:
            avoid *= 1.0 - 1.0 / min(sizes[i] for i in block)
        total += weight * avoid
    return math.log(total)


def mobius_coefficient(sizes: Tuple[int, ...], s: int) -> float:
    """``D_V = Σ_{C ⊆ V} (−1)^{|V|−|C|} log A_C``.

    The coefficient of the intersection count ``n_V`` in the linear
    model ``ln q_U = Σ_{V ⊆ U} n_V D_V`` (Möbius inversion of the
    exclusive-category decomposition).  For ``|V| = 1`` this is
    ``log(1 − 1/m)``; for ``|V| = 2`` it equals the Eq. (5) denominator
    ``ln rho``.
    """
    from itertools import combinations

    t = len(sizes)
    total = 0.0
    for size in range(t + 1):
        for subset in combinations(range(t), size):
            sign = -1.0 if (t - size) % 2 else 1.0
            total += sign * log_avoid_visiting(
                tuple(sizes[i] for i in subset), s
            )
    return total


@dataclass(frozen=True)
class MultiwayEstimate(Estimate):
    """Result of a k-way trajectory measurement.

    ``subset_estimates`` maps each RSU-id subset (size >= 2, as a
    sorted tuple) to its estimated intersection volume; the top-level
    k-way estimate is :attr:`value`.
    """

    rsu_ids: Tuple[int, ...]
    subset_estimates: dict
    s: int

    @property
    def params(self) -> dict:
        """Scheme parameters: ``s`` and the participating RSUs."""
        return {"s": self.s, "rsu_ids": self.rsu_ids}

    @property
    def meta(self) -> dict:
        """Every lower-order subset intersection estimate."""
        return {"subset_estimates": self.subset_estimates}


def estimate_multiway(
    reports: Tuple[RsuReport, ...],
    s: int,
    *,
    policy: ZeroFractionPolicy = ZeroFractionPolicy.CLAMP,
    max_rsus: int = 5,
) -> MultiwayEstimate:
    """Estimate ``|S_1 ∩ ... ∩ S_k|`` for ``k`` RSUs (``2 <= k <= 5``).

    Generalizes Eq. (5) (``k = 2``) and :func:`estimate_triple`
    (``k = 3``): subset intersection volumes are estimated bottom-up —
    pairs first, then triples, ... — each level inverting the linear
    log-occupancy model using the levels below.  Estimation noise
    compounds with ``k``; the cap at 5 keeps both the partition
    enumeration and the error propagation sane.
    """
    from itertools import combinations

    k = len(reports)
    if not 2 <= k <= max_rsus:
        raise ConfigurationError(f"need between 2 and {max_rsus} reports, got {k}")
    if s < 2:
        raise ConfigurationError("multiway estimation needs s >= 2")
    reports = tuple(sorted(reports, key=lambda r: r.array_size))
    ids = tuple(r.rsu_id for r in reports)
    if len(set(ids)) != k:
        raise EstimationError("multiway estimation needs distinct RSUs")
    sizes = [r.array_size for r in reports]
    for small, large in zip(sizes, sizes[1:]):
        if large % small:
            raise ConfigurationError("sizes must nest (powers of two)")

    estimates: dict = {}
    for level in range(2, k + 1):
        for combo in combinations(range(k), level):
            combo_reports = [reports[i] for i in combo]
            combo_sizes = tuple(r.array_size for r in combo_reports)
            target = combo_sizes[-1]
            joint: BitArray = combo_reports[-1].bits
            for r in combo_reports[:-1]:
                joint = joint | unfold(r.bits, target)
            zeros = joint.count_zeros()
            if zeros == 0:
                if policy is ZeroFractionPolicy.RAISE:
                    raise SaturatedArrayError("multiway OR array is saturated")
                v = 0.5 / target
            else:
                v = zeros / target
            log_v = math.log(v)
            # Subtract every lower-order term of the linear model.
            residual = log_v
            for size in range(1, level):
                for sub in combinations(combo, size):
                    sub_sizes = tuple(reports[i].array_size for i in sub)
                    coefficient = mobius_coefficient(sub_sizes, s)
                    if size == 1:
                        count = float(reports[sub[0]].counter)
                    else:
                        count = estimates[tuple(reports[i].rsu_id for i in sub)]
                    residual -= count * coefficient
            top = mobius_coefficient(combo_sizes, s)
            if abs(top) < 1e-300:
                raise EstimationError("degenerate multiway coefficient")
            key = tuple(reports[i].rsu_id for i in combo)
            estimates[key] = residual / top
    return MultiwayEstimate(
        value=estimates[ids], rsu_ids=ids, subset_estimates=estimates, s=s
    )
