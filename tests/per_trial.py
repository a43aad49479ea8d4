"""Per-trial results as per-method triples, and the list-based summarizer
the table-based ``metrics.summarize`` replaced, kept as its oracle."""

from collections import namedtuple

import numpy as np

from semicp.metrics import (MetricsSummary, coverage_histogram, cov_gap,
                            over_under_gaps)


Observed = namedtuple("Observed", "coverage avg_size per_group_coverage")


def observed(config, results):
    """{method name: (coverage, avg_size, {group: coverage})} of one
    ``run_trial`` array, as ``Observed`` tuples; the dict holds the groups
    with test samples (not NaN) in ascending order, and is None in the
    marginal modes."""
    out = {}
    for method, row in zip(config.methods, results):
        groups = None
        if row.size > 2:
            groups = {int(g): float(row[2 + g])
                      for g in np.flatnonzero(~np.isnan(row[2:]))}
        out[method.name] = Observed(float(row[0]), float(row[1]), groups)
    return out


def reference_summarize(method, results, alpha):
    """The summary of a list of (coverage, avg_size, per-group dict or None)
    trials in trial order, computed as the retired list-based summarizer
    did: each trial's group gap over its dict's values, then their mean."""
    coverages = np.array([r[0] for r in results])
    sizes = np.array([r[1] for r in results])
    over, under = over_under_gaps(coverages, alpha)
    per_trial_gaps = [cov_gap(list(r[2].values()), alpha)
                      for r in results if r[2]]
    return MetricsSummary(
        method=method,
        n_trials=len(results),
        mean_coverage=float(coverages.mean()),
        cov_gap=cov_gap(coverages, alpha),
        over_cov_gap=over,
        under_cov_gap=under,
        mean_avg_size=float(sizes.mean()),
        histogram=tuple(int(c) for c in coverage_histogram(coverages)),
        group_cov_gap=float(np.mean(per_trial_gaps)) if per_trial_gaps else None,
    )
