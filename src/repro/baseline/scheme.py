"""The fixed-length bit array scheme of reference [9].

Implemented as a thin configuration of the same online-coding and
decoding machinery the VLM scheme uses, with all array sizes pinned to
one ``m``:

* every RSU keeps an ``m``-bit array, regardless of its traffic;
* the logical bit arrays are drawn from ``[0, m)`` (``m_o = m``);
* the decoder's unfolding step is the identity (equal sizes), and the
  estimator is Eq. (5) with ``m_x = m_y = m`` — which is precisely the
  estimator of [9], as the paper notes below Eq. (43).

Sharing the machinery is deliberate: the head-to-head experiments then
differ *only* in the sizing policy, so any accuracy/privacy gap
observed is attributable to variable-length sizing + unfolding.
"""

from __future__ import annotations

from typing import Dict, Mapping

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

    def encode(
        self, passes: Mapping[int, Passes], *, period: int = 0
    ) -> Dict[int, RsuReport]:
        """Encode every RSU's traffic; returns ``rsu_id -> report``."""
        return {
            int(rsu_id): self.encode_rsu(rsu_id, ids, keys, period=period)
            for rsu_id, (ids, keys) in passes.items()
        }

    # ------------------------------------------------------------------
    # Offline decoding
    # ------------------------------------------------------------------
    def measure(self, report_x: RsuReport, report_y: RsuReport) -> PairEstimate:
        """Eq. (5) with ``m_x = m_y = m`` — the estimator of [9]."""
        return estimate_intersection(
            report_x, report_y, self.s, policy=self.decoder.policy
        )

    def run_period(
        self, passes: Mapping[int, Passes], *, period: int = 0
    ) -> Dict[int, RsuReport]:
        """Encode a full period and feed all reports to the decoder."""
        reports = self.encode(passes, period=period)
        self.decoder.submit_many(reports.values())
        return reports

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FixedLengthScheme(m={self.array_size}, s={self.s})"
