"""Exponential integral E1 and the overflow-safe factor 1 - x e^x E1(x).

E1(x) = integral_1^inf exp(-t x) / t dt for x > 0. The split is the
standard one: convergent power series for x <= 1, Lentz-evaluated
continued fraction for x > 1.

The capacity bound needs 1 - x e^x E1(x), whose naive composition
overflows in e^x long before the value (which tends to 1/x) degrades.
It is computed here as e^x E2(x) via the n = 2 continued fraction, which
never forms e^x, and beyond _ASYMPTOTIC_X via the asymptotic series.
"""

from __future__ import annotations

import math

from .randmat import _check_real

EULER_GAMMA = 0.5772156649015328606

# |E1(x)| < 1e-300 beyond this point; returned as exact zero.
E1_UNDERFLOW = 700.0

_MAX_ITER = 10_000
_TINY = 1e-300

# From here on the asymptotic series of e^x E2(x) reaches full precision
# within three terms; the continued fraction stalls a rounding step short
# of its stopping test for some x above 1e16.
_ASYMPTOTIC_X = 1e8


def _e1_series(x: float) -> float:
    # E1(x) = -gamma - ln(x) + sum_{k>=1} (-1)^(k+1) x^k / (k * k!)
    total = -EULER_GAMMA - math.log(x)
    term = 1.0  # (-x)^k / k!
    for k in range(1, _MAX_ITER):
        term *= -x / k
        contrib = -term / k
        total += contrib
        if abs(contrib) < 1e-18 * abs(total):
            return total
    raise RuntimeError("E1 power series failed to converge")


def _en_cf(x: float, n: int) -> float:
    # Modified Lentz evaluation of e^x * En(x) =
    #   1 / (x + n - 1*n / (x + n + 2 - 2*(n+1) / (x + n + 4 - ...)))
    b = x + n
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        a = -i * (n - 1 + i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = _TINY
        c = b + a / c
        if c == 0.0:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise RuntimeError("exponential-integral continued fraction failed to converge")


def _e2_asymptotic(x: float) -> float:
    # e^x E2(x) = (1/x) sum_k (-1)^k (k+1)! / x^k (A&S 5.1.51), summed up
    # to the first term below 1e-17; x >= _ASYMPTOTIC_X.
    total = term = 1.0
    k = 1
    while abs(term) >= 1e-17:
        term *= -(k + 1) / x
        total += term
        k += 1
    return total / x


def exp_integral_e1(x: float) -> float:
    """E1(x) for x > 0, relative error <= 1e-12 on [1e-8, 700].

    Returns 0.0 for x > 700 where the true value underflows below 1e-300.
    """
    _check_real(x, "argument", positive=True)
    x = float(x)  # the loops below run slower on a numpy scalar
    if x > E1_UNDERFLOW:
        return 0.0
    if x <= 1.0:
        return _e1_series(x)
    return math.exp(-x) * _en_cf(x, 1)


def one_minus_x_ex_e1(x: float) -> float:
    """1 - x e^x E1(x), overflow-free for any x > 0; strictly in (0, 1).

    Integration by parts gives 1 - x e^x E1(x) = e^x E2(x), so the large-x
    branch is the E2 continued fraction and never suffers cancellation.
    """
    _check_real(x, "argument", positive=True)
    x = float(x)
    if x <= 1.0:
        return 1.0 - x * math.exp(x) * _e1_series(x)
    if x >= _ASYMPTOTIC_X:
        return _e2_asymptotic(x)
    return _en_cf(x, 2)
