"""The paper's primary contribution: the variable-length bit array
masking (VLM) scheme.

* :mod:`repro.core.bitarray` — the physical bit array ``B_x``;
* :mod:`repro.core.bitwords` — its ``uint64`` word layout and kernels;
* :mod:`repro.core.unfolding` — the "unfolding" expansion (Eq. 3);
* :mod:`repro.core.sizing` — power-of-two sizing from history (IV-B);
* :mod:`repro.core.parameters` — validated scheme parameters;
* :mod:`repro.core.encoder` — online coding phase (Eqs. 1–2);
* :mod:`repro.core.estimator` — zero-bit model and MLE (Eqs. 5–18);
* :mod:`repro.core.decoder` — offline decoding pipeline (Eqs. 3–5);
* :mod:`repro.core.reports` — the per-period RSU report;
* :mod:`repro.core.scheme` — a high-level facade tying it together.
"""

from repro.core.bitarray import BitArray
from repro.core.config import SchemeConfig, configure
from repro.core.unfolding import unfold, unfolded_or
from repro.core.sizing import (
    AdaptiveSizing,
    PrivacyOptimalSizing,
    SizingPolicy,
    StaticSizing,
    array_size_for_volume,
)
from repro.core.parameters import SchemeParameters
from repro.core.encoder import RsuState, encode_passes
from repro.core.estimator import (
    PairEstimate,
    ZeroFractionPolicy,
    estimate_intersection,
    estimate_point_volume,
    q_intersection,
    q_point,
)
from repro.core.decoder import CentralDecoder
from repro.core.multiperiod import AggregatedEstimate, aggregate_estimates
from repro.core.multiway import MultiwayEstimate, TripleEstimate, estimate_multiway, estimate_triple
from repro.core.reports import RsuReport
from repro.core.results import Estimate
from repro.core.scheme import VlmScheme

__all__ = [
    "BitArray",
    "unfold",
    "unfolded_or",
    "SizingPolicy",
    "StaticSizing",
    "PrivacyOptimalSizing",
    "AdaptiveSizing",
    "array_size_for_volume",
    "SchemeConfig",
    "SchemeParameters",
    "configure",
    "RsuState",
    "encode_passes",
    "PairEstimate",
    "ZeroFractionPolicy",
    "estimate_intersection",
    "estimate_point_volume",
    "q_intersection",
    "q_point",
    "CentralDecoder",
    "RsuReport",
    "VlmScheme",
    "AggregatedEstimate",
    "aggregate_estimates",
    "Estimate",
    "MultiwayEstimate",
    "TripleEstimate",
    "estimate_multiway",
    "estimate_triple",
]
