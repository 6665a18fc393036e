"""Bit array sizing — the unified :class:`SizingPolicy` API.

Each VLM RSU's array length is ``m_x = 2**ceil(log2(n̄_x * f̄))`` — the
smallest power of two no smaller than its historical average point
traffic volume ``n̄_x`` times a global *load factor* ``f̄``.  Keeping
every RSU at (roughly) the same load factor is the paper's central
idea: it equalizes both privacy and estimator noise across
heavy-traffic and light-traffic RSUs.

Every sizing rule in the repo now implements one small protocol,
:class:`SizingPolicy` — ``size_for(average_volume)`` plus the
``load_factor`` it targets — with three implementations:

:class:`StaticSizing`
    The paper's fixed global ``f̄``.
:class:`PrivacyOptimalSizing`
    Targets the optimum ``f*`` computed by
    :func:`repro.privacy.optimizer.optimal_load_factor` for the given
    ``s`` instead of a hand-picked constant.
:class:`AdaptiveSizing`
    Wraps a target policy with the between-period control guards used
    by :mod:`repro.adaptive` — a hysteresis deadband and a per-period
    rate limit, both measured in octaves (doublings), plus hard
    ``min_size``/``max_size`` clamps.  Proposals stay powers of two so
    the vectorized matrix-decode tiling argument (docs/engine.md)
    holds at every period.

The comparison baseline of reference [9] instead forces one common
``m`` on every RSU; its privacy-constrained choice
(:func:`fixed_array_size_for_privacy`) lives here too so every
array-sizing rule shares one module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

try:  # Protocol is 3.8+; runtime_checkable keeps isinstance() working.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - python < 3.8
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


from repro.errors import ConfigurationError, ValidationError
from repro.utils.validation import check_positive_int, next_power_of_two

__all__ = [
    "MIN_ARRAY_SIZE",
    "SizingPolicy",
    "StaticSizing",
    "PrivacyOptimalSizing",
    "AdaptiveSizing",
    "array_size_for_volume",
    "fixed_array_size_for_privacy",
    "prev_power_of_two",
]

#: Smallest usable array length.  A 1-bit array cannot carry any
#: information and the estimator's denominator requires ``m_x > 1``.
MIN_ARRAY_SIZE = 2


def array_size_for_volume(average_volume: float, load_factor: float) -> int:
    """Return ``2**ceil(log2(average_volume * load_factor))``.

    This is the paper's sizing rule for ``m_x``.  The result is always
    at least :data:`MIN_ARRAY_SIZE`; in particular an RSU with *zero*
    observed volume (a dark RSU in some window) gets the documented
    minimum size rather than an error, so adaptive re-sizing never
    crashes on an idle period.

    Raises
    ------
    ValidationError
        If *average_volume* is negative or not finite, or if
        *load_factor* is not a finite positive number.  (The issue
        tracker once asked for ``load_factor ∈ (0, 1)``, but the
        paper's load factor is ``f̄ = m/n ≥ 1`` — the privacy optimum
        sits near 2–4 (Fig. 2) and the repo default is 3.0 — so the
        enforced domain is ``(0, ∞)``.)
    """
    if not (isinstance(load_factor, (int, float)) and math.isfinite(load_factor)):
        raise ValidationError(f"load_factor must be finite, got {load_factor!r}")
    if load_factor <= 0:
        raise ValidationError(f"load_factor must be > 0, got {load_factor!r}")
    if not (isinstance(average_volume, (int, float)) and math.isfinite(average_volume)):
        raise ValidationError(
            f"average_volume must be finite, got {average_volume!r}"
        )
    if average_volume < 0:
        raise ValidationError(
            f"average_volume must be >= 0, got {average_volume!r}"
        )
    if average_volume == 0:
        return MIN_ARRAY_SIZE
    return max(MIN_ARRAY_SIZE, next_power_of_two(average_volume * load_factor))


@runtime_checkable
class SizingPolicy(Protocol):
    """The contract every array-sizing rule implements.

    A policy maps an observed (or historical) average point volume to
    a power-of-two array length, and exposes the load factor it is
    steering toward so privacy analyses can reason about it without
    knowing the concrete rule.
    """

    @property
    def load_factor(self) -> float:
        """The load factor ``f̄`` this policy targets."""
        ...  # pragma: no cover - protocol

    def size_for(self, average_volume: float) -> int:
        """Array size for an RSU with average volume *average_volume*."""
        ...  # pragma: no cover - protocol

    def effective_load_factor(self, average_volume: float) -> float:
        """The realized ``m_x / n̄_x`` after power-of-two rounding."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class StaticSizing:
    """Sizing policy with a fixed global load factor ``f̄``.

    Parameters
    ----------
    load_factor:
        The global load factor ``f̄``, identical for all RSUs.  The
        paper picks it from history so the preserved privacy sits at
        the optimum ``f*`` (approximately 2–4; see Fig. 2 and
        :func:`repro.privacy.optimizer.optimal_load_factor`).
    """

    load_factor: float

    def __post_init__(self) -> None:
        if not (
            isinstance(self.load_factor, (int, float))
            and math.isfinite(self.load_factor)
            and self.load_factor > 0
        ):
            raise ConfigurationError(
                f"load_factor must be > 0, got {self.load_factor}"
            )

    def size_for(self, average_volume: float) -> int:
        """Array size for an RSU with historical volume *average_volume*."""
        return array_size_for_volume(average_volume, self.load_factor)

    def effective_load_factor(self, average_volume: float) -> float:
        """The realized ``m_x / n̄_x`` after power-of-two rounding.

        Always in ``[f̄, 2·f̄)`` (up to the ``m >= 2`` floor), since
        rounding up to a power of two at most doubles the target.
        """
        return self.size_for(average_volume) / average_volume


@dataclass(frozen=True)
class PrivacyOptimalSizing:
    """Sizing policy targeting the privacy-optimal load factor ``f*``.

    Instead of a hand-picked global constant, the target load factor
    is the argmax of the preserved-privacy curve for the configured
    logical array size *s* (paper Fig. 2, computed by
    :func:`repro.privacy.optimizer.optimal_load_factor`).  The
    optimum is resolved once at construction, so sizing stays a pure
    O(1) lookup afterwards and two policies built with the same
    arguments always agree bit for bit.

    Parameters
    ----------
    s:
        Logical bit array size of the deployment.
    common_fraction:
        Assumed common-traffic fraction for the privacy model; defaults
        to :data:`repro.privacy.optimizer.DEFAULT_COMMON_FRACTION`.
    n_ref:
        Reference point volume at which the privacy curve is evaluated.
    """

    s: int
    common_fraction: Optional[float] = None
    n_ref: int = 10_000
    load_factor: float = field(init=False, compare=False, default=0.0)
    optimal_privacy: float = field(init=False, compare=False, default=0.0)

    def __post_init__(self) -> None:
        check_positive_int(self.s, "s")
        check_positive_int(self.n_ref, "n_ref")
        # Imported lazily: repro.privacy builds on repro.core, so a
        # module-level import here would close a cycle.
        from repro.privacy.optimizer import (
            DEFAULT_COMMON_FRACTION,
            optimal_load_factor,
        )

        common = (
            DEFAULT_COMMON_FRACTION
            if self.common_fraction is None
            else self.common_fraction
        )
        f_star, p_star = optimal_load_factor(
            self.s, n_x=self.n_ref, n_y=self.n_ref, common_fraction=common
        )
        object.__setattr__(self, "load_factor", float(f_star))
        object.__setattr__(self, "optimal_privacy", float(p_star))

    def size_for(self, average_volume: float) -> int:
        """Array size targeting ``f*`` for volume *average_volume*."""
        return array_size_for_volume(average_volume, self.load_factor)

    def effective_load_factor(self, average_volume: float) -> float:
        """The realized ``m_x / n̄_x`` after power-of-two rounding."""
        return self.size_for(average_volume) / average_volume


def _octave(size: int) -> int:
    """``log2`` of a power-of-two *size* (exact integer arithmetic)."""
    return int(size).bit_length() - 1


@dataclass(frozen=True)
class AdaptiveSizing:
    """A target policy wrapped in between-period control guards.

    ``size_for`` answers like the wrapped *target* policy (clamped to
    ``[min_size, max_size]``); the controller-facing entry point is
    :meth:`propose`, which additionally applies a hysteresis deadband
    and a per-period rate limit relative to the array's *current*
    size.  All guard arithmetic happens on octaves (``log2`` of the
    power-of-two sizes), so every proposal is again a power of two and
    the decision is exact integer math — identical on every backend
    and at any worker count.

    Parameters
    ----------
    target:
        The policy supplying the desired size for an observed volume
        (typically :class:`PrivacyOptimalSizing`).
    hysteresis:
        Deadband half-width in octaves.  A current size within
        ``hysteresis`` doublings of the target size is left alone, so
        volume noise straddling a power-of-two boundary cannot make
        ``m_x`` thrash between periods.
    max_step:
        Rate limit: the largest move, in octaves, a single period may
        apply.  Demand shocks are absorbed over several periods.
    min_size / max_size:
        Hard clamps.  ``max_size`` is normally set to the fleet's
        physical bound ``m_o`` (arrays are allocated once at fleet
        creation and logical sizes may only shrink within them).
    """

    target: SizingPolicy
    hysteresis: int = 1
    max_step: int = 1
    min_size: int = MIN_ARRAY_SIZE
    max_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.hysteresis < 0:
            raise ConfigurationError(
                f"hysteresis must be >= 0, got {self.hysteresis}"
            )
        if self.max_step < 1:
            raise ConfigurationError(
                f"max_step must be >= 1, got {self.max_step}"
            )
        check_positive_int(self.min_size, "min_size")
        if self.min_size & (self.min_size - 1):
            raise ConfigurationError(
                f"min_size must be a power of two, got {self.min_size}"
            )
        if self.max_size is not None:
            check_positive_int(self.max_size, "max_size")
            if self.max_size & (self.max_size - 1):
                raise ConfigurationError(
                    f"max_size must be a power of two, got {self.max_size}"
                )
            if self.max_size < self.min_size:
                raise ConfigurationError(
                    f"max_size ({self.max_size}) must be >= "
                    f"min_size ({self.min_size})"
                )

    @property
    def load_factor(self) -> float:
        """The load factor the wrapped target policy steers toward."""
        return self.target.load_factor

    def clamp(self, size: int) -> int:
        """*size* limited to ``[min_size, max_size]``."""
        size = max(self.min_size, size)
        if self.max_size is not None:
            size = min(self.max_size, size)
        return size

    def size_for(self, average_volume: float) -> int:
        """The (clamped) size the target policy wants for this volume."""
        return self.clamp(self.target.size_for(average_volume))

    def effective_load_factor(self, average_volume: float) -> float:
        """The realized ``m_x / n̄_x`` after power-of-two rounding."""
        return self.size_for(average_volume) / average_volume

    def in_band(self, size: int, average_volume: float) -> bool:
        """Is *size* within the hysteresis band of the target size?"""
        return (
            abs(_octave(size) - _octave(self.size_for(average_volume)))
            <= self.hysteresis
        )

    def propose(self, current_size: int, average_volume: float) -> int:
        """Next-period size for an array currently *current_size* long.

        Exact decision procedure (all integer octave arithmetic):

        1. ``desired = clamp(target.size_for(volume))``
        2. if ``|log2(current) - log2(desired)| <= hysteresis``: hold.
        3. else move ``min(max_step, gap)`` octaves toward ``desired``.
        4. clamp to ``[min_size, max_size]``.
        """
        current = self.clamp(int(current_size))
        if current & (current - 1):
            raise ValidationError(
                f"current_size must be a power of two, got {current_size}"
            )
        desired = self.size_for(average_volume)
        gap = _octave(desired) - _octave(current)
        if abs(gap) <= self.hysteresis:
            return current
        step = max(-self.max_step, min(self.max_step, gap))
        return self.clamp(1 << (_octave(current) + step))


# ----------------------------------------------------------------------
# The baseline's single fixed array length (paper Section VI-B)
# ----------------------------------------------------------------------
def prev_power_of_two(value: float) -> int:
    """Largest power of two ``<= value`` (at least 2)."""
    if value < 2:
        return 2
    return 1 << (int(value).bit_length() - 1)


def fixed_array_size_for_privacy(
    volumes: Iterable[float],
    s: int,
    *,
    min_privacy: float = 0.5,
    common_fraction: Optional[float] = None,
    power_of_two: bool = True,
) -> int:
    """The baseline's common ``m`` for a set of RSU *volumes*.

    The baseline must pick one ``m`` for every RSU; the paper's
    protocol picks it "to guarantee a minimum privacy of at least
    0.5".  Privacy at a light-traffic RSU degrades as its effective
    load factor ``m / n`` grows, so the binding constraint comes from
    the *least* traffic volume ``n_min``: take the largest load factor
    ``f_max`` whose privacy still meets the target at ``n_min`` (e.g.
    ``f_max ≈ 15`` for ``s = 2``, matching the paper's "``m`` should
    be no larger than ``15 n_min``") and set
    ``m = 2^floor(log2(f_max * n_min))``.

    Parameters
    ----------
    volumes:
        Historical point traffic volumes of all participating RSUs.
    s:
        Logical bit array size.
    min_privacy:
        Privacy floor every RSU must retain (paper uses 0.5).
    common_fraction:
        Assumed common-traffic fraction for the privacy model; defaults
        to :data:`repro.privacy.optimizer.DEFAULT_COMMON_FRACTION`.
    power_of_two:
        Round down to a power of two so the baseline's arrays remain
        comparable with VLM's in the head-to-head experiments.  The
        original [9] does not require powers of two; rounding *down*
        keeps the privacy guarantee intact.
    """
    # Imported lazily: repro.privacy builds on repro.core, so a
    # module-level import here would close a cycle.
    from repro.privacy.optimizer import (
        DEFAULT_COMMON_FRACTION,
        max_load_factor_for_privacy,
    )

    if common_fraction is None:
        common_fraction = DEFAULT_COMMON_FRACTION
    volumes = list(volumes)
    if not volumes:
        raise ConfigurationError("volumes must not be empty")
    n_min = min(volumes)
    if n_min <= 0:
        raise ConfigurationError("volumes must be positive")
    f_max = max_load_factor_for_privacy(
        min_privacy, s, n_x=n_min, n_y=n_min, common_fraction=common_fraction
    )
    m = f_max * n_min
    if power_of_two:
        return prev_power_of_two(m)
    return max(2, int(m))
