"""Property tests for the SizingPolicy implementations.

Three laws every policy must obey (checked with Hypothesis rather than
hand-picked volumes):

* ``size_for`` always answers a power of two, at least the documented
  minimum;
* ``size_for`` is monotone in the volume — more traffic never gets a
  smaller array;
* the adaptive guards are honoured: a size inside the hysteresis band
  is held, a proposal never moves more than ``max_step`` octaves, and
  iterating ``propose`` reaches the band in finitely many periods.

The second half pins the multi-period *size trajectory* and the
decoded matrices: identical for any worker count, any executor, and
on both kernel sets (the word kernels and the bool oracle's).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SchemeConfig
from repro.core.estimator import ZeroFractionPolicy
from repro.core.sizing import (
    MIN_ARRAY_SIZE,
    AdaptiveSizing,
    PrivacyOptimalSizing,
    SizingPolicy,
    StaticSizing,
)
from repro.experiments.adaptive_sizing import run_adaptive_matrix
from repro.service.runtime import DeploymentSpec
from tests.bit_oracle import kernels

volumes = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)
load_factors = st.floats(min_value=0.05, max_value=64.0, allow_nan=False)
octave_sizes = st.integers(min_value=1, max_value=24).map(lambda o: 2**o)

POLICIES = [
    StaticSizing(3.0),
    StaticSizing(0.5),
    PrivacyOptimalSizing(2),
    AdaptiveSizing(target=PrivacyOptimalSizing(2)),
    AdaptiveSizing(target=StaticSizing(3.0), min_size=8, max_size=2**16),
]


def _is_pow2(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


class TestSizeForLaws:
    @pytest.mark.parametrize("policy", POLICIES)
    @given(volume=volumes)
    @settings(max_examples=50)
    def test_power_of_two_at_least_minimum(self, policy, volume):
        size = policy.size_for(volume)
        assert _is_pow2(size)
        assert size >= MIN_ARRAY_SIZE

    @pytest.mark.parametrize("policy", POLICIES)
    @given(a=volumes, b=volumes)
    @settings(max_examples=50)
    def test_monotone_in_volume(self, policy, a, b):
        low, high = sorted((a, b))
        assert policy.size_for(low) <= policy.size_for(high)

    @given(volume=st.floats(min_value=1.0, max_value=1e7), factor=load_factors)
    @settings(max_examples=50)
    def test_static_is_sufficient_and_tight(self, volume, factor):
        size = StaticSizing(factor).size_for(volume)
        assert size >= min(volume * factor, size)  # never undershoots
        assert size >= volume * factor or size == MIN_ARRAY_SIZE
        # One doubling of slack at most (power-of-two snapping).
        if size > MIN_ARRAY_SIZE:
            assert size < 2 * volume * factor

    @pytest.mark.parametrize("policy", POLICIES)
    def test_satisfies_protocol(self, policy):
        assert isinstance(policy, SizingPolicy)


class TestAdaptiveGuards:
    policy = AdaptiveSizing(
        target=StaticSizing(3.0), hysteresis=1, max_step=2, max_size=2**20
    )

    @given(current=octave_sizes, volume=volumes)
    @settings(max_examples=100)
    def test_proposal_is_power_of_two_within_clamps(self, current, volume):
        proposed = self.policy.propose(current, volume)
        assert _is_pow2(proposed)
        assert self.policy.min_size <= proposed <= self.policy.max_size

    @given(current=octave_sizes, volume=volumes)
    @settings(max_examples=100)
    def test_rate_limit(self, current, volume):
        clamped = self.policy.clamp(current)
        proposed = self.policy.propose(current, volume)
        step = abs(proposed.bit_length() - clamped.bit_length())
        assert step <= self.policy.max_step

    @given(current=octave_sizes, volume=volumes)
    @settings(max_examples=100)
    def test_hysteresis_holds_in_band(self, current, volume):
        clamped = self.policy.clamp(current)
        if self.policy.in_band(clamped, volume):
            assert self.policy.propose(clamped, volume) == clamped

    @given(current=octave_sizes, volume=volumes)
    @settings(max_examples=100)
    def test_proposal_never_overshoots(self, current, volume):
        """A move lands between the current size and the target."""
        clamped = self.policy.clamp(current)
        proposed = self.policy.propose(clamped, volume)
        desired = self.policy.size_for(volume)
        assert min(clamped, desired) <= proposed <= max(clamped, desired)

    @given(current=octave_sizes, volume=volumes)
    @settings(max_examples=100)
    def test_iterating_propose_reaches_the_band(self, current, volume):
        size = self.policy.clamp(current)
        for _ in range(64):
            if self.policy.in_band(size, volume):
                break
            size = self.policy.propose(size, volume)
        assert self.policy.in_band(size, volume)

    @given(current=octave_sizes, volume=volumes)
    @settings(max_examples=50)
    def test_deterministic(self, current, volume):
        twin = AdaptiveSizing(
            target=StaticSizing(3.0),
            hysteresis=1,
            max_step=2,
            max_size=2**20,
        )
        assert twin.propose(current, volume) == self.policy.propose(
            current, volume
        )


class TestTrajectoryDeterminism:
    """ISSUE acceptance: identical size trajectories and bit-identical
    matrices at any worker count, on any executor, on both kernel sets."""

    SPEC = dict(total_trips=900, seed=13, periods=3, drift=-0.5)

    @pytest.fixture(scope="class")
    def golden(self):
        return run_adaptive_matrix(**self.SPEC, workers=1, executor="serial")

    @pytest.mark.parametrize("workers", [2, 5])
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_same_everything_across_workers(self, golden, workers, executor):
        result = run_adaptive_matrix(
            **self.SPEC, workers=workers, executor=executor
        )
        assert result.size_trajectory == golden.size_trajectory
        assert len(result.mean_errors) == len(golden.mean_errors)
        for ours, theirs in zip(result.mean_errors, golden.mean_errors):
            assert ours == theirs or (ours != ours and theirs != theirs)
        assert result.bit_identical

    def test_golden_is_bit_identical(self, golden):
        # run_adaptive_matrix itself re-checks the final day serially.
        assert golden.serial_identical

    @pytest.mark.parametrize("engine", ["packed", "legacy"])
    def test_trajectory_independent_of_backend(self, engine):
        # ``legacy`` runs the whole trajectory on the bool kernels.
        with kernels(engine):
            spec = DeploymentSpec(
                config=SchemeConfig(s=2, policy=ZeroFractionPolicy.CLAMP),
                adaptive=True,
                **self.SPEC,
            )
            trajectory = spec.size_trajectory()
        baseline = DeploymentSpec(adaptive=True, **self.SPEC)
        assert trajectory == baseline.size_trajectory()
