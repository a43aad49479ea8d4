"""The exact expected coverage gap of split conformal prediction, as a test
oracle.

With m exchangeable, tie-free calibration scores and the quantile level
l = ceil((m+1)(1-alpha)) <= m, the number K of t test points covered is
BetaBinomial(t, l, m+1-l) (Vovk, arXiv 1209.2673; Angelopoulos & Bates,
arXiv 2107.07511).  It holds for draws without replacement from one finite
source too, since K depends only on ranks.  When l > m every set holds
every label and the coverage is 1.
"""

import math

from semicp.calibration import quantile_level


def expected_cov_gap(m: int, t: int, alpha: float) -> float:
    """E|K/t - (1 - alpha)| x 100 for K ~ BetaBinomial(t, l, m+1-l), the
    level read from alpha as :func:`quantile_level` reads it."""
    a = quantile_level(m, alpha)
    if a > m:
        return 100.0 * alpha
    b = m + 1 - a
    log_norm = (math.lgamma(t + 1) + math.lgamma(a + b) - math.lgamma(a)
                - math.lgamma(b) - math.lgamma(t + a + b))
    total = 0.0
    for k in range(t + 1):
        log_pmf = (log_norm - math.lgamma(k + 1) - math.lgamma(t - k + 1)
                   + math.lgamma(k + a) + math.lgamma(t - k + b))
        total += math.exp(log_pmf) * abs(k / t - (1.0 - alpha))
    return 100.0 * total
