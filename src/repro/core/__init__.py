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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "BitArray": ".bitarray",
        "unfold": ".unfolding",
        "unfolded_or": ".unfolding",
        "SizingPolicy": ".sizing",
        "StaticSizing": ".sizing",
        "PrivacyOptimalSizing": ".sizing",
        "AdaptiveSizing": ".sizing",
        "array_size_for_volume": ".sizing",
        "SchemeConfig": ".config",
        "configure": ".config",
        "SchemeParameters": ".parameters",
        "RsuState": ".encoder",
        "encode_passes": ".encoder",
        "PairEstimate": ".estimator",
        "PairMatrix": ".estimator",
        "ZeroFractionPolicy": ".estimator",
        "estimate_intersection": ".estimator",
        "estimate_point_volume": ".estimator",
        "q_intersection": ".estimator",
        "q_point": ".estimator",
        "CentralDecoder": ".decoder",
        "RsuReport": ".reports",
        "VlmScheme": ".scheme",
        "AggregatedEstimate": ".multiperiod",
        "aggregate_estimates": ".multiperiod",
        "Estimate": ".results",
    },
)
