"""Unit tests for SchemeParameters."""

import pytest

from repro.core.parameters import SchemeParameters
from repro.errors import ConfigurationError


class TestSchemeParameters:
    def test_defaults_valid(self):
        params = SchemeParameters()
        assert params.s == 2
        assert params.salts.size == 2

    def test_salts_derived_from_seed(self):
        a = SchemeParameters(s=3, hash_seed=5)
        b = SchemeParameters(s=3, hash_seed=5)
        assert list(a.salts) == list(b.salts)
        c = SchemeParameters(s=3, hash_seed=6)
        assert list(a.salts) != list(c.salts)

    @pytest.mark.parametrize("bad_s", [0, -1, 2.5])
    def test_invalid_s(self, bad_s):
        with pytest.raises(ConfigurationError):
            SchemeParameters(s=bad_s)

    def test_invalid_load_factor(self):
        with pytest.raises(ConfigurationError):
            SchemeParameters(load_factor=0)

    def test_m_o_power_of_two(self):
        with pytest.raises(ConfigurationError):
            SchemeParameters(m_o=1000)

    def test_s_must_be_less_than_m_o(self):
        with pytest.raises(ConfigurationError):
            SchemeParameters(s=16, m_o=16)
