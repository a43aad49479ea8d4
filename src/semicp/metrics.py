"""Evaluation metrics and statistical diagnostics.

Gap metrics follow the x100 percentage-point convention: the coverage gap
of a batch of runs is the mean absolute deviation of per-run empirical
coverage from the target 1 - alpha, times 100.  Over/under variants gate
each run's deviation on its sign and sum back to the total gap.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

HISTOGRAM_BINS = 50


@dataclass(frozen=True)
class TrialResult:
    """Per-trial observations for one method."""

    method: str
    coverage: float
    avg_size: float
    per_group_coverage: dict = None


@dataclass(frozen=True)
class MetricsSummary:
    """Aggregates of per-trial coverage and set size across runs."""

    method: str
    n_trials: int
    mean_coverage: float
    cov_gap: float
    over_cov_gap: float
    under_cov_gap: float
    mean_avg_size: float
    histogram: tuple
    group_cov_gap: float = None

    def to_dict(self) -> dict:
        d = {
            "method": self.method,
            "trials": self.n_trials,
            "mean_coverage": self.mean_coverage,
            "cov_gap": self.cov_gap,
            "over_cov_gap": self.over_cov_gap,
            "under_cov_gap": self.under_cov_gap,
            "avg_size": self.mean_avg_size,
            "histogram": list(self.histogram),
        }
        if self.group_cov_gap is not None:
            d["group_cov_gap"] = self.group_cov_gap
        return d


def coverage(mask, labels) -> float:
    """Fraction of samples whose true label is in their prediction set, given
    the (m, K) boolean membership mask of the sets."""
    labels = np.asarray(labels, dtype=np.int64)
    if mask.shape[0] != labels.shape[0]:
        raise InputError("one prediction set per label is required")
    if mask.shape[0] == 0:
        raise InputError("coverage of an empty batch is undefined")
    return float(np.mean(mask[np.arange(labels.shape[0]), labels]))


def avg_size(mask) -> float:
    """Mean number of labels per prediction set, given the (m, K) boolean
    membership mask of the sets."""
    if mask.shape[0] == 0:
        raise InputError("average size of an empty batch is undefined")
    return float(np.count_nonzero(mask) / mask.shape[0])


def cov_gap(coverages, alpha: float) -> float:
    """Mean |coverage - (1 - alpha)| across runs, x100."""
    coverages = np.asarray(coverages, dtype=np.float64)
    return float(100.0 * np.mean(np.abs(coverages - (1.0 - alpha))))


def over_under_gaps(coverages, alpha: float):
    """Sign-gated split of the coverage gap: (over, under), each x100."""
    coverages = np.asarray(coverages, dtype=np.float64)
    dev = coverages - (1.0 - alpha)
    over = float(100.0 * np.mean(np.where(dev > 0, dev, 0.0)))
    under = float(100.0 * np.mean(np.where(dev < 0, -dev, 0.0)))
    return over, under


def improvement(m_standard: float, m_semicp: float, m_oracle: float):
    """Relative gain of a method over the standard-to-oracle span, percent.

    Returns None when standard and oracle coincide (undefined improvement).
    """
    denom = m_standard - m_oracle
    if denom == 0:
        return None
    return 100.0 * (m_standard - m_semicp) / denom


def empirical_cdf(sample, t: float) -> float:
    """Fraction of the sample at or below t."""
    sample = np.asarray(sample, dtype=np.float64)
    if sample.size == 0:
        raise InputError("empirical CDF of an empty sample is undefined")
    return float(np.count_nonzero(sample <= t) / sample.size)


def ks_distance(sample_a, sample_b) -> float:
    """Two-sample Kolmogorov-Smirnov distance (exact sup over pooled points)."""
    a = np.sort(np.asarray(sample_a, dtype=np.float64))
    b = np.sort(np.asarray(sample_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise InputError("KS distance needs two nonempty samples")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def coverage_histogram(coverages) -> np.ndarray:
    """Fixed uniform-bin histogram of per-trial coverages on [0, 1]."""
    counts, _ = np.histogram(np.asarray(coverages, dtype=np.float64),
                             bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return counts


def summarize(results, alpha: float) -> MetricsSummary:
    """Aggregate per-trial results (already in trial order) for one method."""
    if not results:
        raise InputError("cannot summarize zero trials")
    coverages = np.array([r.coverage for r in results])
    sizes = np.array([r.avg_size for r in results])
    over, under = over_under_gaps(coverages, alpha)

    group_gap = None
    per_trial_gaps = []
    for r in results:
        if r.per_group_coverage:
            per_trial_gaps.append(
                cov_gap(list(r.per_group_coverage.values()), alpha))
    if per_trial_gaps:
        group_gap = float(np.mean(per_trial_gaps))

    return MetricsSummary(
        method=results[0].method,
        n_trials=len(results),
        mean_coverage=float(coverages.mean()),
        cov_gap=cov_gap(coverages, alpha),
        over_cov_gap=over,
        under_cov_gap=under,
        mean_avg_size=float(sizes.mean()),
        histogram=tuple(int(c) for c in coverage_histogram(coverages)),
        group_cov_gap=group_gap,
    )
