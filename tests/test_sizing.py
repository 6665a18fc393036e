"""Unit tests for the array sizing rules (Section IV-B).

Covers the paper's power-of-two rule, the unified
:class:`~repro.core.sizing.SizingPolicy` implementations
(``StaticSizing`` / ``PrivacyOptimalSizing`` / ``AdaptiveSizing``),
and the deprecated shims.  The Hypothesis properties required by the
SizingPolicy contract — monotonicity in volume, power-of-two
snapping, the hysteresis band being honored — live in
``tests/test_sizing_policy.py``.
"""

import pytest

from hypothesis import given, strategies as st

from repro.core.sizing import (
    MIN_ARRAY_SIZE,
    AdaptiveSizing,
    PrivacyOptimalSizing,
    SizingPolicy,
    StaticSizing,
    array_size_for_volume,
)
from repro.errors import ConfigurationError, ValidationError
from repro.utils.validation import is_power_of_two


class TestArraySizeForVolume:
    def test_paper_rule(self):
        # m_x = 2^ceil(log2(n * f))
        assert array_size_for_volume(10_000, 3.0) == 32_768
        assert array_size_for_volume(451_000, 3.0) == 2_097_152

    def test_minimum_two(self):
        assert array_size_for_volume(0.1, 0.5) == 2

    def test_zero_volume_returns_minimum(self):
        # A dark RSU (zero observed volume) gets the documented
        # minimum size, not an error — adaptive re-sizing relies on
        # this surviving idle periods.
        assert array_size_for_volume(0, 3.0) == MIN_ARRAY_SIZE
        assert array_size_for_volume(0.0, 0.25) == MIN_ARRAY_SIZE

    @pytest.mark.parametrize("bad", [-1, -0.5, float("nan"), float("inf")])
    def test_rejects_bad_volume(self, bad):
        with pytest.raises(ValidationError):
            array_size_for_volume(bad, 3.0)

    @pytest.mark.parametrize("bad", [0, -1, -3.0, float("nan"), float("inf")])
    def test_rejects_bad_load_factor(self, bad):
        with pytest.raises(ValidationError):
            array_size_for_volume(100, bad)

    def test_validation_error_is_configuration_compatible(self):
        # ValidationError subclasses ReproError; callers catching the
        # broad library error keep working.
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            array_size_for_volume(100, 0)

    @given(
        st.floats(min_value=1.0, max_value=1e7),
        st.floats(min_value=0.01, max_value=64.0),
    )
    def test_always_power_of_two_and_sufficient(self, volume, factor):
        m = array_size_for_volume(volume, factor)
        assert is_power_of_two(m)
        assert m >= min(volume * factor, 2) or m == 2
        # never more than twice the target (power-of-two rounding band)
        assert m < 2 * max(volume * factor, 2) + 1


class TestStaticSizing:
    def test_size_for(self):
        sizing = StaticSizing(3.0)
        assert sizing.size_for(10_000) == 32_768

    def test_invalid_factor(self):
        with pytest.raises(ConfigurationError):
            StaticSizing(0.0)

    @given(st.floats(min_value=10.0, max_value=1e6))
    def test_effective_load_factor_band(self, volume):
        sizing = StaticSizing(3.0)
        effective = sizing.effective_load_factor(volume)
        assert 3.0 - 1e-9 <= effective < 6.0 + 1e-9

    def test_frozen(self):
        sizing = StaticSizing(3.0)
        with pytest.raises(Exception):
            sizing.load_factor = 4.0

    def test_implements_protocol(self):
        assert isinstance(StaticSizing(3.0), SizingPolicy)


class TestPrivacyOptimalSizing:
    def test_targets_the_optimizer_argmax(self):
        from repro.privacy.optimizer import optimal_load_factor

        sizing = PrivacyOptimalSizing(s=2)
        f_star, p_star = optimal_load_factor(2)
        assert sizing.load_factor == pytest.approx(f_star)
        assert sizing.optimal_privacy == pytest.approx(p_star)
        assert is_power_of_two(sizing.size_for(10_000))

    def test_deterministic(self):
        a, b = PrivacyOptimalSizing(s=2), PrivacyOptimalSizing(s=2)
        assert a.load_factor == b.load_factor
        assert a.size_for(12_345) == b.size_for(12_345)

    def test_implements_protocol(self):
        assert isinstance(PrivacyOptimalSizing(s=2), SizingPolicy)


class TestAdaptiveSizing:
    def policy(self, **kwargs):
        defaults = dict(target=StaticSizing(3.0), hysteresis=1, max_step=1)
        defaults.update(kwargs)
        return AdaptiveSizing(**defaults)

    def test_implements_protocol(self):
        assert isinstance(self.policy(), SizingPolicy)

    def test_hold_within_band(self):
        policy = self.policy()
        # target for 10_000 @ f=3 is 32_768; one octave away holds.
        assert policy.propose(32_768, 10_000) == 32_768
        assert policy.propose(16_384, 10_000) == 16_384
        assert policy.propose(65_536, 10_000) == 65_536

    def test_moves_one_octave_toward_target(self):
        policy = self.policy()
        assert policy.propose(4_096, 10_000) == 8_192
        assert policy.propose(262_144, 10_000) == 131_072

    def test_rate_limit_respected(self):
        policy = self.policy(max_step=3)
        assert policy.propose(2, 10_000) == 16

    def test_clamps(self):
        policy = self.policy(max_size=8_192)
        assert policy.propose(8_192, 1_000_000) == 8_192
        policy = self.policy(min_size=64)
        assert policy.propose(64, 0) == 64

    def test_zero_volume_shrinks_toward_min(self):
        policy = self.policy()
        assert policy.propose(1_024, 0) == 512

    def test_rejects_non_power_of_two_current(self):
        with pytest.raises(ValidationError):
            self.policy().propose(48, 10_000)

    def test_guard_validation(self):
        with pytest.raises(ConfigurationError):
            self.policy(hysteresis=-1)
        with pytest.raises(ConfigurationError):
            self.policy(max_step=0)
        with pytest.raises(ConfigurationError):
            self.policy(min_size=3)
        with pytest.raises(ConfigurationError):
            self.policy(max_size=24)
        with pytest.raises(ConfigurationError):
            self.policy(min_size=64, max_size=32)
