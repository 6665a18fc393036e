"""High-level facade over the VLM scheme.

:class:`VlmScheme` wires the sizing rule, the vectorized encoder and
the decoder together for a *known set of RSUs with known historical
volumes* — the configuration a deployment would hold.  It is the main
entry point of the library::

    from repro import VlmScheme, SchemeParameters

    scheme = VlmScheme({1: 20_000, 2: 500_000}, s=2, load_factor=3.0)
    reports = scheme.encode({1: (ids_1, keys_1), 2: (ids_2, keys_2)})
    estimate = scheme.measure(reports[1], reports[2])

The baseline of reference [9] is the subclass-free special case
provided by :class:`repro.baseline.scheme.FixedLengthScheme`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.config import PolicyLike, SchemeConfig, resolve_config
from repro.core.decoder import CentralDecoder
from repro.core.encoder import encode_passes
from repro.core.estimator import PairEstimate
from repro.core.parameters import SchemeParameters
from repro.core.reports import RsuReport
from repro.core.sizing import SizingPolicy
from repro.errors import ConfigurationError

__all__ = ["VlmScheme"]

#: A vehicle population at one RSU: parallel (ids, keys) integer arrays.
Passes = Tuple[np.ndarray, np.ndarray]


class VlmScheme:
    """The variable-length bit array masking scheme, end to end.

    Parameters
    ----------
    historical_volumes:
        Mapping ``rsu_id -> n̄_x``, the historical average point
        traffic volume each RSU uses to size its array (Section IV-B).
    s:
        Logical bit array size (paper evaluates 2, 5, 10).
    load_factor:
        The global load factor ``f̄``.
    hash_seed:
        Shared hash-function seed.
    policy:
        Saturation policy for the decoder.
    sizing:
        An explicit :class:`~repro.core.sizing.SizingPolicy`
        (:class:`~repro.core.sizing.StaticSizing`,
        :class:`~repro.core.sizing.PrivacyOptimalSizing`, ...);
        overrides ``config.sizing``.  The default is the paper's
        static rule at ``load_factor``.
    config:
        A :class:`~repro.core.config.SchemeConfig` providing defaults
        for the knobs above; explicit keywords override it.
    """

    def __init__(
        self,
        historical_volumes: Mapping[int, float],
        *,
        s: Optional[int] = None,
        load_factor: Optional[float] = None,
        hash_seed: Optional[int] = None,
        policy: Optional[PolicyLike] = None,
        sizing: Optional[SizingPolicy] = None,
        config: Optional[SchemeConfig] = None,
    ) -> None:
        if not historical_volumes:
            raise ConfigurationError("historical_volumes must not be empty")
        config = resolve_config(
            config,
            s=s,
            load_factor=load_factor,
            hash_seed=hash_seed,
            policy=policy,
            sizing=sizing,
        )
        s = config.s
        sizing = config.sizing_policy()
        load_factor = float(sizing.load_factor)
        self._sizes: Dict[int, int] = {
            int(rsu): sizing.size_for(volume)
            for rsu, volume in historical_volumes.items()
        }
        m_o = max(self._sizes.values())
        # m_o must strictly exceed s for the estimator to be defined.
        while m_o <= s:
            m_o *= 2
        self.params = SchemeParameters(
            s=s, load_factor=load_factor, m_o=m_o, hash_seed=config.hash_seed
        )
        self.config = config
        self.sizing = sizing
        self.decoder = CentralDecoder(config=config)

    # ------------------------------------------------------------------
    # Configuration introspection
    # ------------------------------------------------------------------
    @property
    def s(self) -> int:
        """Logical bit array size."""
        return self.params.s

    @property
    def load_factor(self) -> float:
        """Global load factor ``f̄``."""
        return self.params.load_factor

    @property
    def m_o(self) -> int:
        """Largest physical array size among the configured RSUs."""
        return self.params.m_o

    def array_size(self, rsu_id: int) -> int:
        """The configured ``m_x`` for *rsu_id*."""
        try:
            return self._sizes[int(rsu_id)]
        except KeyError:
            raise ConfigurationError(f"unknown RSU id {rsu_id}") from None

    @property
    def rsu_ids(self) -> Tuple[int, ...]:
        """All configured RSU ids, sorted."""
        return tuple(sorted(self._sizes))

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
        """Run the online coding phase for one RSU's period traffic."""
        return encode_passes(
            vehicle_ids,
            vehicle_keys,
            rsu_id,
            self.array_size(rsu_id),
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
        """Estimate the point-to-point volume from two reports (Eq. 5)."""
        from repro.core.estimator import estimate_intersection

        return estimate_intersection(
            report_x, report_y, self.s, policy=self.decoder.policy
        )

    def run_period(
        self, passes: Mapping[int, Passes], *, period: int = 0
    ) -> Dict[int, RsuReport]:
        """Encode a full period and feed all reports to the decoder.

        After this, :attr:`decoder` answers ``pair_estimate`` queries
        for the period.
        """
        reports = self.encode(passes, period=period)
        self.decoder.submit_many(reports.values())
        return reports

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"VlmScheme(rsus={len(self._sizes)}, s={self.s}, "
            f"load_factor={self.load_factor}, m_o={self.m_o})"
        )
