"""Estimator input gathered from every row of a dataset, as the runner
gathers it from the score tables of its data sources."""

import numpy as np

from semicp.unlabeled import ScoreTables


def queries(ds, spec):
    """Pseudo scores of all rows of ``ds``."""
    return ScoreTables(ds, spec).queries(np.arange(len(ds)))


def records(ds, spec):
    """Labeled records of all rows of ``ds`` (every row labeled)."""
    return ScoreTables(ds, spec).records(np.arange(len(ds)))
