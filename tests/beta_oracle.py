"""The regularized incomplete beta function I_x(a, b), as a test oracle.

It is evaluated with a continued fraction (modified Lentz), accurate to well
below 1e-10 absolute; it backs the Beta-law checks on coverage
distributions.
"""

import math

from semicp.errors import ConvergenceError, InputError


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta, modified Lentz iteration.
    tiny = 1e-300
    eps = 1e-15
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ConvergenceError(f"incomplete beta continued fraction stalled at "
                           f"a={a}, b={b}, x={x}")


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0 or b <= 0:
        raise InputError("beta parameters must be positive and finite")
    if not 0.0 <= x <= 1.0:
        raise InputError(f"x={x} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * _betacf(a, b, x) / a
    return 1.0 - math.exp(ln_front) * _betacf(b, a, 1.0 - x) / b
