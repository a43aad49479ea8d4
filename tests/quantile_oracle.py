"""The exact split-conformal quantile, as a test oracle."""

import math
from fractions import Fraction


def exact_quantile_oracle(scores, alpha):
    """Smallest pool element with an exact-rational fraction of the pool at
    or below it; None when the level exceeds the pool size."""
    m = len(scores)
    level = math.ceil(Fraction(m + 1) * (1 - Fraction(alpha)))
    if level > m:
        return None
    target = Fraction(level, m)
    for a in sorted(scores):
        if Fraction(sum(1 for s in scores if s <= a), m) >= target:
            return a
    raise AssertionError("unreachable")
