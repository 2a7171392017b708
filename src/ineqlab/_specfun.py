"""Scalar special functions implemented from scratch.

The constant formulas downstream (Hardy couplings, hinge-profile
transforms, semigroup bounds, lifting factors) must not depend on
an external library silently changing values, so everything here is
self-contained double-precision code:

* ``lgamma`` -- Lanczos approximation (g = 7, 9 terms),
  argument recurrence below 0.5.  Relative accuracy ~1e-14 for the
  positive real arguments used in this package.
* ``exp_integral_e1`` -- power series for x < 1, modified-Lentz
  continued fraction for x >= 1; target relative accuracy 1e-12.
  ``e1_scaled`` returns exp(x)*E1(x) without intermediate under/overflow,
  which the semigroup-bound objective needs for large arguments.

Tests compare each routine against mpmath/scipy oracles.
"""

from __future__ import annotations

import math

EULER_GAMMA = 0.5772156649015328606

# Lanczos coefficients, g = 7, n = 9.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def lgamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"lgamma requires x > 0, got {x!r}")
    if x < 0.5:
        # recurrence keeps the Lanczos core at arguments >= 1.5
        return lgamma(x + 1.0) - math.log(x)
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, 9):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def _e1_series(x: float) -> float:
    # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k * k!)
    total = -EULER_GAMMA - math.log(x)
    term = 1.0
    for k in range(1, 80):
        term *= -x / k
        contrib = -term / k
        total += contrib
        if abs(contrib) < 1e-18 * max(abs(total), 1e-300):
            break
    return total


def _e1_cf_scaled(x: float) -> float:
    # exp(x)*E1(x) = 1 / (x + 1 - 1/(x + 3 - 4/(x + 5 - 9/(...))))
    # evaluated by the modified Lentz algorithm; a_k = -k^2, b_k = x + 2k + 1.
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    for k in range(1, 400):
        a = -float(k) * float(k)
        b += 2.0
        d = b + a * d
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return f
    raise RuntimeError(f"E1 continued fraction failed to converge at x={x!r}")


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf exp(-t)/t dt, x > 0."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"exp_integral_e1 requires x > 0, got {x!r}")
    if x < 1.0:
        return _e1_series(x)
    if x > 745.0:
        return 0.0  # underflows in double precision
    return math.exp(-x) * _e1_cf_scaled(x)


def e1_scaled(x: float) -> float:
    """exp(x) * E1(x), stable for large x."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"e1_scaled requires x > 0, got {x!r}")
    if x < 1.0:
        return math.exp(x) * _e1_series(x)
    return _e1_cf_scaled(x)


def hardy_constant(s: float, d: float) -> float:
    """Sharp constant 2^(2s) * (Gamma((d+2s)/4) / Gamma((d-2s)/4))^2.

    Coupling of the inverse-square-type potential matching the
    fractional kinetic power s in dimension d; requires 0 < s <= 1 and
    d > 2s.
    """
    s = float(s)
    d = float(d)
    if not (0.0 < s <= 1.0):
        raise ValueError(f"hardy_constant requires 0 < s <= 1, got s={s!r}")
    if not d > 2.0 * s:
        raise ValueError(f"hardy_constant requires d > 2s, got d={d!r}, s={s!r}")
    log_c = 2.0 * s * math.log(2.0) + 2.0 * (lgamma((d + 2.0 * s) / 4.0) - lgamma((d - 2.0 * s) / 4.0))
    return math.exp(log_c)
