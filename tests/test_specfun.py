"""Special-function kernel against mpmath/scipy oracles."""

import math

import mpmath
import pytest
import scipy.special as sps
from hypothesis import given, strategies as st

from ineqlab._specfun import e1_scaled, exp_integral_e1, hardy_constant, lgamma

mpmath.mp.dps = 40

LGAMMA_GRID = [1e-6, 1e-3, 0.05, 0.1, 0.25, 0.5, 0.99, 1.0, 1.25, 1.5, 2.0,
               3.75, 7.0, 10.0, 25.5, 50.0, 100.0, 170.5, 500.0]


def test_lgamma_against_mpmath():
    for x in LGAMMA_GRID:
        want = float(mpmath.loggamma(x))
        assert lgamma(x) == pytest.approx(want, rel=1e-12, abs=1e-13), x


@given(st.floats(min_value=0.05, max_value=80.0))
def test_lgamma_recurrence(x):
    assert lgamma(x + 1.0) == pytest.approx(lgamma(x) + math.log(x),
                                            rel=1e-11, abs=1e-11)


def gamma_fn(x):
    return math.exp(lgamma(x))


def test_gamma_values():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma_fn(1.5) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-13)
    for n in range(1, 12):
        assert gamma_fn(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-12)
    for x in [0.1, 0.731, 2.5, 7.25, 19.0]:
        assert gamma_fn(x) == pytest.approx(float(sps.gamma(x)), rel=1e-12)


def test_e1_against_mpmath():
    xs = [1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0,
          50.0, 100.0, 300.0, 700.0]
    for x in xs:
        want = float(mpmath.e1(x))
        assert exp_integral_e1(x) == pytest.approx(want, rel=1e-12), x


def test_e1_known_value():
    assert exp_integral_e1(1.0) == pytest.approx(0.21938393439552026, rel=1e-12)


def test_e1_scaled_against_mpmath():
    for x in [1e-3, 0.25, 1.0, 10.0, 1e2, 1e4, 1e6, 1e8]:
        want = float(mpmath.exp(x) * mpmath.e1(x))
        assert e1_scaled(x) == pytest.approx(want, rel=1e-12), x


@given(st.floats(min_value=1e-4, max_value=500.0))
def test_e1_scaled_consistent_with_e1(x):
    # e1_scaled(x) = e^x E1(x) whenever E1 itself does not underflow
    assert e1_scaled(x) * math.exp(-x) == pytest.approx(exp_integral_e1(x),
                                                        rel=1e-12)


def test_e1_domain():
    with pytest.raises(ValueError):
        exp_integral_e1(0.0)
    with pytest.raises(ValueError):
        exp_integral_e1(-1.0)


def test_hardy_constant_closed_forms():
    assert hardy_constant(1.0, 3.0) == pytest.approx(0.25, rel=1e-12)
    for d in (3, 4, 5, 6):
        assert hardy_constant(1.0, float(d)) == pytest.approx((d - 2) ** 2 / 4.0,
                                                              rel=1e-12)
    # s = 1/2, d = 3: 2 (Gamma(1)/Gamma(1/2))^2 = 2/pi
    assert hardy_constant(0.5, 3.0) == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_hardy_constant_against_gamma_oracle():
    for s, d in [(0.5, 2.0), (0.75, 3.0), (0.3, 1.0), (1.0, 7.0), (0.9, 2.5)]:
        want = float(2.0 ** (2 * s)
                     * (mpmath.gamma((d + 2 * s) / 4) / mpmath.gamma((d - 2 * s) / 4)) ** 2)
        assert hardy_constant(s, d) == pytest.approx(want, rel=1e-12), (s, d)


def test_hardy_constant_domain():
    with pytest.raises(ValueError):
        hardy_constant(1.0, 2.0)
    with pytest.raises(ValueError):
        hardy_constant(1.5, 3.0)
