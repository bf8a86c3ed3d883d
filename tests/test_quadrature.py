"""The shared quadrature rules."""

import pytest

from causalgeom._quadrature import _leggauss, gauss_hermite


@pytest.mark.parametrize("rule", [gauss_hermite, _leggauss])
def test_cached_rules_are_read_only(rule):
    for array in rule(12):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
