"""The fixed-length bit array scheme of reference [9] (Zhou et al.,
CPSCom 2013) — the paper's comparison baseline.

The baseline is structurally the VLM scheme with every RSU forced to
the *same* array length ``m`` (so the unfolding step is the identity).
Its weakness, which the paper's evaluation quantifies, is the
"unbalanced load factor" problem: a single ``m`` cannot suit both a
500k-vehicle intersection and a 10k-vehicle one.

* :mod:`repro.baseline.scheme` — :class:`FixedLengthScheme`;
* :func:`fixed_array_size_for_privacy` (from :mod:`repro.core.sizing`)
  — the privacy-constrained choice of the common ``m`` from the
  least-traffic RSU.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "FixedLengthScheme": ".scheme",
        "fixed_array_size_for_privacy": "repro.core.sizing",
    },
)
