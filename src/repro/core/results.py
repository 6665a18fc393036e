"""The unified result API: :class:`Estimate`.

Every estimate — pair or multi-period — conforms to one
contract, so generic tooling (experiment harnesses, the loadgen
verifier, metrics summaries) never needs to know which class it holds:

``value``
    The point estimate (``n̂`` of whatever intersection was measured).
``stderr``
    Predicted standard error, or ``None`` when no closed-form variance
    applies.
``ci(level)``
    Normal-approximation confidence interval at *level* (default
    0.95).
``params``
    The scheme parameters that produced the estimate (``s``, array
    sizes, ...).
``meta``
    Observational metadata (zero fractions, counters, aggregation
    method, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, Optional, Tuple

from repro.errors import EstimationError

__all__ = ["Estimate"]


@dataclass(frozen=True)
class Estimate:
    """Base class for every measurement result.

    Attributes
    ----------
    value:
        The point estimate.
    """

    value: float

    @property
    def stderr(self) -> Optional[float]:
        """Predicted standard error (``None`` if not available).

        Subclasses override this with their closed-form variance when
        one exists (e.g. the Eq. 34 machinery for pair estimates).
        """
        return None

    @property
    def params(self) -> Dict[str, object]:
        """Scheme parameters that produced the estimate."""
        return {}

    @property
    def meta(self) -> Dict[str, object]:
        """Observational metadata (fractions, counters, method, ...)."""
        return {}

    @property
    def clamped_nonnegative(self) -> float:
        """``max(value, 0)`` — a convenience for reporting, since
        sampling noise can push the raw MLE slightly below zero when
        the true intersection is tiny."""
        return max(self.value, 0.0)

    def ci(self, level: float = 0.95) -> Tuple[float, float]:
        """Normal-approximation confidence interval at *level*.

        Raises :class:`~repro.errors.EstimationError` when the
        estimate has no standard error (``stderr is None``).
        """
        if not 0.0 < level < 1.0:
            raise EstimationError(
                f"confidence level must be in (0, 1), got {level}"
            )
        stderr = self.stderr
        if stderr is None:
            raise EstimationError(
                f"{type(self).__name__} has no standard error; "
                "a confidence interval is undefined"
            )
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
        return (self.value - z * stderr, self.value + z * stderr)

    def error_ratio(self, true_value: float) -> float:
        """The paper's Table I metric ``r = |n̂ - n| / n``."""
        if true_value <= 0:
            raise EstimationError("error_ratio requires a positive true value")
        return abs(self.value - true_value) / true_value
