"""The fixed-length bit array scheme of reference [9].

Implemented as a thin configuration of the same online-coding and
decoding machinery the VLM scheme uses, with all array sizes pinned to
one ``m``:

* every RSU keeps an ``m``-bit array, regardless of its traffic;
* the logical bit arrays are drawn from ``[0, m)`` (``m_o = m``);
* the decoder's unfolding step is the identity (equal sizes), and the
  estimator is Eq. (5) with ``m_x = m_y = m`` — which is precisely the
  estimator of [9], as the paper notes below Eq. (43).

Eq. (2) reduces each index by a power of two, so where a VLM scheme
with the same ``(s, hash_seed)`` already encoded an RSU at a multiple
``m_x`` of ``m``, the RSU's ``m``-bit array is that report's array
OR-folded to ``m`` (the dual of the Eq. (3) unfolding).
:meth:`FixedLengthScheme.encode` folds such a report instead of
hashing every pass again.

Sharing the machinery is deliberate: the head-to-head experiments then
differ *only* in the sizing policy, so any accuracy/privacy gap
observed is attributable to variable-length sizing + unfolding.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.core.decoder import CentralDecoder
from repro.core.encoder import encode_passes
from repro.core.estimator import PairEstimate, ZeroFractionPolicy, estimate_intersection
from repro.core.parameters import SchemeParameters
from repro.core.reports import RsuReport
from repro.core.scheme import Passes
from repro.errors import ConfigurationError
from repro.utils.validation import check_power_of_two

__all__ = ["FixedLengthScheme"]


class FixedLengthScheme:
    """Reference [9]: one array length ``m`` for all RSUs.

    Parameters
    ----------
    array_size:
        The common bit array length ``m`` (power of two here, so the
        two schemes stay byte-comparable; see
        :func:`repro.core.sizing.fixed_array_size_for_privacy`).
    s:
        Logical bit array size.
    hash_seed:
        Shared hash-function seed.
    policy:
        Saturation policy for decoding — the baseline saturates easily
        on heavy-traffic RSUs, so experiments typically use ``CLAMP``
        to chart its (poor) estimates rather than erroring out.
    """

    def __init__(
        self,
        array_size: int,
        *,
        s: int = 2,
        hash_seed: int = 0,
        policy: ZeroFractionPolicy = ZeroFractionPolicy.CLAMP,
    ) -> None:
        self.array_size = check_power_of_two(array_size, "array_size")
        if s >= array_size:
            raise ConfigurationError(
                f"s ({s}) must be smaller than the array size ({array_size})"
            )
        self.params = SchemeParameters(
            s=s, load_factor=1.0, m_o=self.array_size, hash_seed=hash_seed
        )
        self.decoder = CentralDecoder(s, policy=policy)

    @property
    def s(self) -> int:
        """Logical bit array size."""
        return self.params.s

    # ------------------------------------------------------------------
    # Online coding
    # ------------------------------------------------------------------
    def encode_rsu(
        self,
        rsu_id: int,
        vehicle_ids: np.ndarray,
        vehicle_keys: np.ndarray,
        *,
        period: int = 0,
    ) -> RsuReport:
        """Online coding for one RSU at the common size ``m``."""
        return encode_passes(
            vehicle_ids,
            vehicle_keys,
            rsu_id,
            self.array_size,
            self.params,
            period=period,
        )

    def _fold(
        self,
        rsu_id: int,
        report: RsuReport,
        source: Optional[SchemeParameters],
        period: int,
    ) -> RsuReport:
        """*report*, encoded under *source*, as this scheme's report."""
        if source is None:
            raise ConfigurationError(
                f"RSU {rsu_id}: a report stands in for its passes only "
                "with the parameters it was encoded under (source=...)"
            )
        # The salts X and the hash H are functions of (s, hash_seed).
        if (source.s, source.hash_seed) != (self.s, self.params.hash_seed):
            raise ConfigurationError(
                f"RSU {rsu_id}: the report was hashed with s={source.s}, "
                f"hash_seed={source.hash_seed}, not this scheme's "
                f"s={self.s}, hash_seed={self.params.hash_seed}"
            )
        if report.rsu_id != rsu_id:
            raise ConfigurationError(
                f"the report of RSU {report.rsu_id} cannot stand in for RSU {rsu_id}"
            )
        if report.array_size % self.array_size:
            raise ConfigurationError(
                f"RSU {rsu_id}: a {report.array_size}-bit report does not "
                f"fold to m={self.array_size}; m must divide its size"
            )
        return RsuReport(
            rsu_id=rsu_id,
            counter=report.counter,
            bits=report.bits.fold(self.array_size),
            period=period,
        )

    def encode(
        self,
        passes: Mapping[int, Union[Passes, RsuReport]],
        *,
        period: int = 0,
        source: Optional[SchemeParameters] = None,
    ) -> Dict[int, RsuReport]:
        """Encode every RSU's traffic; returns ``rsu_id -> report``.

        Each value is the RSU's ``(ids, keys)`` passes, or the
        :class:`~repro.core.reports.RsuReport` a scheme with parameters
        *source* encoded for that RSU at a multiple of ``m``.  A report
        is folded to ``m`` and keeps its counter: byte for byte the
        report its passes would give.  A report without *source*, from
        other salts or another hash seed, for another RSU, or of a size
        ``m`` does not divide raises
        :class:`~repro.errors.ConfigurationError`.
        """
        reports = {}
        for rsu_id, value in passes.items():
            rsu_id = int(rsu_id)
            if isinstance(value, RsuReport):
                reports[rsu_id] = self._fold(rsu_id, value, source, period)
            else:
                ids, keys = value
                reports[rsu_id] = self.encode_rsu(rsu_id, ids, keys, period=period)
        return reports

    # ------------------------------------------------------------------
    # Offline decoding
    # ------------------------------------------------------------------
    def measure(self, report_x: RsuReport, report_y: RsuReport) -> PairEstimate:
        """Eq. (5) with ``m_x = m_y = m`` — the estimator of [9]."""
        return estimate_intersection(
            report_x, report_y, self.s, policy=self.decoder.policy
        )

    def run_period(
        self,
        passes: Mapping[int, Union[Passes, RsuReport]],
        *,
        period: int = 0,
        source: Optional[SchemeParameters] = None,
    ) -> Dict[int, RsuReport]:
        """Encode a full period (:meth:`encode`, passes or foldable
        reports) and feed all reports to the decoder."""
        reports = self.encode(passes, period=period, source=source)
        self.decoder.submit_many(reports.values())
        return reports

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FixedLengthScheme(m={self.array_size}, s={self.s})"
