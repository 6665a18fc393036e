"""One frozen tuning config shared by every entry point.

The in-process facade (:class:`~repro.core.scheme.VlmScheme`), the
offline decoder (:class:`~repro.core.decoder.CentralDecoder`) and the
live-plane runtime (:class:`~repro.service.runtime.DeploymentSpec`)
all need the same small set of tuning knobs — ``s``, ``f̄``, the hash
seed, the saturation policy — and before this module each spelled them
as its own positional/keyword mix, so the knobs could silently drift
between the in-process and service paths.  :class:`SchemeConfig` is
the single source of truth; build one with :func:`configure` and pass
it everywhere::

    import repro

    config = repro.configure(s=2, load_factor=3.0, policy="clamp")
    scheme = repro.VlmScheme(volumes, config=config)
    decoder = repro.CentralDecoder(config=config)

Entry points still accept the individual keyword arguments; explicit
keywords override the corresponding ``config`` field (see
:func:`resolve_config`).

There is no bit-storage setting: bit arrays have one representation,
``uint64`` words (:mod:`repro.core.bitwords`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.estimator import ZeroFractionPolicy
from repro.core.parameters import DEFAULT_LOAD_FACTOR, DEFAULT_S
from repro.core.sizing import SizingPolicy, StaticSizing
from repro.errors import ConfigurationError

__all__ = ["SchemeConfig", "configure", "resolve_config"]

PolicyLike = Union[ZeroFractionPolicy, str]


def _coerce_policy(policy: PolicyLike) -> ZeroFractionPolicy:
    if isinstance(policy, ZeroFractionPolicy):
        return policy
    try:
        return ZeroFractionPolicy(str(policy).lower())
    except ValueError:
        choices = ", ".join(p.value for p in ZeroFractionPolicy)
        raise ConfigurationError(
            f"unknown saturation policy {policy!r}; choose one of {choices}"
        ) from None


@dataclass(frozen=True)
class SchemeConfig:
    """Frozen tuning parameters shared by every VLM entry point.

    Parameters
    ----------
    s:
        Logical bit array size (paper evaluates 2, 5, 10).
    load_factor:
        The global load factor ``f̄`` used by the sizing rule.
    hash_seed:
        Shared seed selecting the hash function ``H`` and salt array.
    policy:
        Saturation handling; an enum member or its string value
        (``"raise"`` / ``"clamp"``).
    sizing:
        An explicit :class:`~repro.core.sizing.SizingPolicy` used to
        size every RSU array.  ``None`` (the default) means
        :class:`~repro.core.sizing.StaticSizing` at ``load_factor`` —
        the paper's fixed-``f̄`` rule; see :meth:`sizing_policy`.
    """

    s: int = DEFAULT_S
    load_factor: float = DEFAULT_LOAD_FACTOR
    hash_seed: int = 0
    policy: ZeroFractionPolicy = ZeroFractionPolicy.RAISE
    sizing: Optional[SizingPolicy] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "policy", _coerce_policy(self.policy))
        if int(self.s) != self.s or self.s < 1:
            raise ConfigurationError(
                f"s must be a positive integer, got {self.s!r}"
            )
        if self.load_factor <= 0:
            raise ConfigurationError(
                f"load_factor must be > 0, got {self.load_factor!r}"
            )
        if int(self.hash_seed) != self.hash_seed:
            raise ConfigurationError(
                f"hash_seed must be an integer, got {self.hash_seed!r}"
            )
        if self.sizing is not None and not isinstance(self.sizing, SizingPolicy):
            raise ConfigurationError(
                f"sizing must implement SizingPolicy "
                f"(size_for / effective_load_factor / load_factor), "
                f"got {self.sizing!r}"
            )

    def sizing_policy(self) -> SizingPolicy:
        """The effective :class:`~repro.core.sizing.SizingPolicy`.

        The explicit :attr:`sizing` field when set, else the paper's
        :class:`~repro.core.sizing.StaticSizing` at :attr:`load_factor`.
        """
        if self.sizing is not None:
            return self.sizing
        return StaticSizing(self.load_factor)

    def replace(self, **changes: object) -> "SchemeConfig":
        """A copy with *changes* applied (validated like a fresh one)."""
        return dataclasses.replace(self, **changes)


def configure(
    *,
    s: int = DEFAULT_S,
    load_factor: float = DEFAULT_LOAD_FACTOR,
    hash_seed: int = 0,
    policy: PolicyLike = ZeroFractionPolicy.RAISE,
    sizing: Optional[SizingPolicy] = None,
) -> SchemeConfig:
    """Build a validated :class:`SchemeConfig`.

    The quickstart spelling for tuning the scheme once and threading
    the result through ``VlmScheme``, ``CentralDecoder``, and
    ``DeploymentSpec`` — instead of repeating loose ``s=...,
    load_factor=...`` keywords at each call site.
    """
    return SchemeConfig(
        s=s,
        load_factor=load_factor,
        hash_seed=hash_seed,
        policy=policy,
        sizing=sizing,
    )


def resolve_config(
    config: Optional[SchemeConfig] = None,
    *,
    s: Optional[int] = None,
    load_factor: Optional[float] = None,
    hash_seed: Optional[int] = None,
    policy: Optional[PolicyLike] = None,
    sizing: Optional[SizingPolicy] = None,
) -> SchemeConfig:
    """Merge an optional *config* with optional keyword overrides.

    The precedence every entry point follows: explicit keyword >
    ``config`` field > library default.  Raises
    :class:`~repro.errors.ConfigurationError` if the merge fails
    validation.
    """
    base = config if config is not None else SchemeConfig()
    overrides = {
        key: value
        for key, value in (
            ("s", s),
            ("load_factor", load_factor),
            ("hash_seed", hash_seed),
            ("policy", policy),
            ("sizing", sizing),
        )
        if value is not None
    }
    return base.replace(**overrides) if overrides else base
