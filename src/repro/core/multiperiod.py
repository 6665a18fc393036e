"""Multi-period measurement aggregation.

The paper measures per period (e.g. one day) and its Table I quotes
per-run numbers; an operator who wants tighter estimates for a stable
OD flow can combine several periods' independent estimates.  Because
each period re-randomizes nothing but hash outcomes and crowd
composition, per-period estimates are independent and unbiased, so

* the *sample mean* cuts the standard deviation by ``1/sqrt(P)``, and
* the *inverse-variance weighted* mean is optimal when the per-period
  closed-form variances (Eq. 34 machinery) differ, e.g. because array
  sizes were re-chosen between periods.

This module is an extension beyond the paper's evaluation; its effect
is quantified by :mod:`repro.experiments.multiperiod`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.accuracy.variance import estimator_variance
from repro.core.estimator import PairEstimate
from repro.core.results import Estimate
from repro.errors import EstimationError

__all__ = ["AggregatedEstimate", "aggregate_estimates"]


@dataclass(frozen=True)
class AggregatedEstimate(Estimate):
    """A combined multi-period point-to-point estimate.

    Attributes
    ----------
    value:
        The combined estimate.
    stderr:
        Predicted standard error of the combined estimate (from the
        closed-form per-period variances when available, else the
        sample standard error).
    periods:
        Number of periods combined.
    method:
        ``"mean"`` or ``"inverse-variance"``.
    """

    # Declared with a default so it shadows the base class's read-only
    # ``stderr`` property; aggregation always supplies a real value.
    stderr: Optional[float] = None
    periods: int = 1
    method: str = "mean"

    @property
    def meta(self) -> dict:
        """Aggregation method and the number of periods combined."""
        return {"method": self.method, "periods": self.periods}


def _closed_form_variance(estimate: PairEstimate, n_c_guess: float) -> float:
    """Per-period variance from the Section V machinery, evaluated at a
    pooled ``n_c`` guess (variance is flat in ``n_c`` over realistic
    ranges, so the guess only needs to be in the right ballpark)."""
    n_c = min(max(n_c_guess, 1.0), min(estimate.n_x, estimate.n_y))
    return estimator_variance(
        estimate.n_x,
        estimate.n_y,
        int(round(n_c)),
        estimate.m_x,
        estimate.m_y,
        estimate.s,
    )


def aggregate_estimates(
    estimates: Sequence[PairEstimate],
    *,
    weights: Optional[str] = "inverse-variance",
) -> AggregatedEstimate:
    """Combine independent per-period estimates of one stable OD flow.

    Parameters
    ----------
    estimates:
        Per-period :class:`PairEstimate` values (at least one).
    weights:
        ``"inverse-variance"`` (default) weighs each period by the
        closed-form precision of its configuration; ``None`` or
        ``"mean"`` uses the plain sample mean.
    """
    if not estimates:
        raise EstimationError("cannot aggregate zero estimates")
    if weights not in (None, "mean", "inverse-variance"):
        raise EstimationError(f"unknown weighting {weights!r}")
    values = [e.value for e in estimates]
    periods = len(values)
    pooled = sum(values) / periods

    if weights in (None, "mean") or periods == 1:
        if periods == 1:
            variance = _closed_form_variance(estimates[0], pooled)
            return AggregatedEstimate(
                value=pooled,
                stderr=math.sqrt(max(variance, 0.0)),
                periods=1,
                method="mean",
            )
        sample_var = sum((v - pooled) ** 2 for v in values) / (periods - 1)
        return AggregatedEstimate(
            value=pooled,
            stderr=math.sqrt(sample_var / periods),
            periods=periods,
            method="mean",
        )

    variances: List[float] = [
        max(_closed_form_variance(e, pooled), 1e-12) for e in estimates
    ]
    precision = [1.0 / v for v in variances]
    total = sum(precision)
    combined = sum(p * v for p, v in zip(precision, values)) / total
    return AggregatedEstimate(
        value=combined,
        stderr=math.sqrt(1.0 / total),
        periods=periods,
        method="inverse-variance",
    )
