"""Thresholds.

The conformal quantile of a pool of m scores at miscoverage alpha is the
l-th smallest score with l = ceil((m+1)(1-alpha)).  Only that order
statistic matters, so it is selected with ``np.partition`` rather than by
sorting the pool.  When l exceeds m no finite threshold exists and an
include-all sentinel is produced instead of a float infinity (explicit and
serializable).  A prediction set holds the labels whose score is at most
the threshold's ``cutoff``, which is infinite for include-all.

Semi-supervised calibration applies that rule to one pool: the labeled
true scores followed by the estimated unlabeled scores.  Interpolation
refines the plain quantile between adjacent order statistics.

Conditional calibration takes the same quantile per group.  A group map
gives each score of the pool a group id, and :func:`conditional_thresholds`
returns one threshold per group plus the marginal one, which id -1
selects.  Group-conditional calibration groups samples; class-conditional
calibration groups by class, so a test cell (sample, candidate label) takes
the threshold of the candidate label; and clustered calibration groups by
the cluster of the class (:func:`cluster_classes`), with rare classes left
to the marginal pool.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import CalibrationError, ConfigurationError, InputError
from .metrics import empirical_cdf

_KMEANS_TAG = 0x6B6D65616E73  # "kmeans"


@dataclass(frozen=True)
class Threshold:
    """A calibrated cutoff with its quantile-level record.

    ``include_all`` marks the case l > m where every label must be admitted;
    ``value`` is meaningless then and stored as nan.
    """

    value: float
    include_all: bool
    level_index: int
    pool_size: int
    alpha: float

    @property
    def cutoff(self) -> float:
        """The bound a score is held to: inf when every label is admitted."""
        return math.inf if self.include_all else self.value

    def to_dict(self) -> dict:
        return {
            "value": None if self.include_all else self.value,
            "include_all": self.include_all,
            "level_index": self.level_index,
            "pool_size": self.pool_size,
            "alpha": self.alpha,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Threshold":
        include_all = d["include_all"]
        if not isinstance(include_all, bool):  # bool("false") is True
            raise TypeError(f"include_all is {include_all!r}, not a boolean")
        value = math.nan if include_all else float(d["value"])
        return cls(value, include_all, int(d["level_index"]),
                   int(d["pool_size"]), float(d["alpha"]))


def quantile_level(pool_size: int, alpha: float) -> int:
    """l = ceil((m+1)(1-alpha)), evaluated float-robustly.

    Uses the identity ceil((m+1)(1-a)) = (m+1) - floor((m+1)a), which avoids
    ceil() landing one step too high when (m+1)(1-alpha) is an integer that
    the float product slightly overshoots.

    The product (m+1)*alpha is the rounded float one, so alpha is read as
    the decimal it names: alpha = 0.3 at m = 9 is level 7, as 0.3 means,
    although the double nearest 0.3 lies just below it and exact arithmetic
    on that double gives level 8.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
    return (pool_size + 1) - math.floor((pool_size + 1) * alpha)


def _checked_pool(scores, alpha: float):
    """The pool as floats and its quantile level, after the checks that
    every quantile rule shares."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise CalibrationError("cannot calibrate on an empty score pool")
    if not np.all(np.isfinite(scores)):
        raise InputError("score pool contains non-finite values")
    return scores, quantile_level(scores.size, alpha)


def conformal_quantile(scores, alpha: float) -> Threshold:
    """Split-conformal threshold of a score pool at miscoverage alpha.

    The l-th order statistic is selected, not sorted for: the value equals
    entry l-1 of the sorted pool, except that when +0.0 and -0.0 tie at
    level l either zero may be returned (the scores of ``scores.py`` never
    produce -0.0).
    """
    return _order_statistic(_checked_pool(scores, alpha)[0], alpha)


def _order_statistic(scores, alpha: float) -> Threshold:
    """:func:`conformal_quantile` of a checked, nonempty float pool."""
    m = scores.size
    level = quantile_level(m, alpha)
    if level > m:
        return Threshold(math.nan, True, level, m, alpha)
    value = float(np.partition(scores, level - 1)[level - 1])
    return Threshold(value, False, level, m, alpha)


def interpolated_quantile(scores, alpha: float) -> Threshold:
    """Linearly interpolated quantile between adjacent order statistics.

    With h = (m+1)(1-alpha), k = floor(h) and gamma = h - k, the threshold
    is s_(k) + gamma * (s_(k+1) - s_(k)), clamped to the extreme order
    statistics when k falls outside 1..m-1.  Never produces include-all.
    Like :func:`conformal_quantile`, it selects the order statistics it
    needs instead of sorting the pool.
    """
    scores, _ = _checked_pool(scores, alpha)
    m = scores.size
    h = (m + 1) * (1.0 - alpha)
    k = math.floor(h)
    if k >= m:
        value, k = float(scores.max()), m
    elif k < 1:
        value, k = float(scores.min()), 1
    else:
        gamma = h - k
        lo, hi = np.partition(scores, (k - 1, k))[k - 1:k + 1]
        value = float(lo + gamma * (hi - lo))
    return Threshold(value, False, k, m, alpha)


def conditional_thresholds(scores, group_ids, n_groups: int,
                           alpha: float) -> tuple:
    """One threshold per group of a score pool (Mondrian-style).

    ``group_ids`` gives each score its group in 0..n_groups-1; id -1 puts
    a score into the marginal pool only.  Returns n_groups + 1 thresholds:
    entry g is group g's, and the last is the marginal one over the whole
    pool, so that indexing with -1 finds it.  A group with an empty pool
    gets the marginal threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    ids = np.asarray(group_ids, dtype=np.int64)
    if ids.shape != scores.shape:
        raise InputError("one group id per score is required")
    if ids.size and (ids.min() < -1 or ids.max() >= n_groups):
        raise InputError(f"group id outside -1..{n_groups - 1}")
    marginal = conformal_quantile(scores, alpha)
    per_group = []
    for g in range(n_groups):
        members = scores[ids == g]
        per_group.append(_order_statistic(members, alpha) if members.size
                         else marginal)
    return (*per_group, marginal)


def _kmeans(points: np.ndarray, k: int) -> np.ndarray:
    """Plain Lloyd k-means, at most 50 steps, with farthest-point init."""
    n = points.shape[0]
    key = rng.stream(0, _KMEANS_TAG)
    first = int(rng.integers(key, np.asarray([0]), n)[0])
    center_idx = [first]
    d2 = np.sum((points - points[first]) ** 2, axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(d2))
        center_idx.append(nxt)
        d2 = np.minimum(d2, np.sum((points - points[nxt]) ** 2, axis=1))
    centers = points[center_idx].copy()
    assign = None
    for _ in range(50):
        dist2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(dist2, axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = points[assign == c]
            if members.shape[0]:
                centers[c] = members.mean(axis=0)
    return assign


def cluster_classes(labeled_scores, labels, n_classes: int, n_clusters: int,
                    min_class_count: int = 2) -> np.ndarray:
    """Class -> cluster map of clustered CP: classes with similar labeled
    score distributions share a cluster, and so a threshold.

    Classes are embedded as their 9 empirical score deciles and clustered
    into min(n_clusters, #embedded) clusters.  Classes with fewer than
    ``min_class_count`` labeled scores are not embedded and map to -1, the
    marginal pool of :func:`conditional_thresholds`.
    """
    if n_clusters < 1:
        raise ConfigurationError("n_clusters must be >= 1")
    if min_class_count < 1:
        raise ConfigurationError("min_class_count must be >= 1")
    labeled_scores = np.asarray(labeled_scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    known = (labels >= 0) & (labels < n_classes)
    labeled_scores, labels = labeled_scores[known], labels[known]
    counts = np.bincount(labels, minlength=n_classes)
    embeddable = np.flatnonzero(counts >= min_class_count)
    cluster_of_class = np.full(n_classes, -1, dtype=np.int64)
    if embeddable.size:
        emb = _class_deciles(labeled_scores, labels, counts, embeddable)
        cluster_of_class[embeddable] = _kmeans(
            emb, min(n_clusters, embeddable.size))
    return cluster_of_class


_DECILES = np.arange(10, 100, 10) / 100


def _class_deciles(scores, labels, counts, classes):
    """(len(classes), 9): the 9 deciles of each listed class's scores, from
    one sort by (class, score).

    Each decile follows numpy's 'linear' rule step for step, so it equals
    ``np.percentile(scores[labels == c], range(10, 100, 10))`` bit for bit:
    virtual index (m - 1) q, the neighbours below and above it (both the
    last score from m - 1 on, where the weight is counted from -1), and
    numpy's two-branch lerp.
    """
    ranked = scores[np.lexsort((scores, labels))]
    m = counts[classes][:, None]
    start = (np.cumsum(counts) - counts)[classes][:, None]
    virtual = (m - 1) * _DECILES
    below = np.floor(virtual).astype(np.int64)
    last = virtual >= m - 1
    below = np.where(last, m - 1, below)
    above = np.where(last, m - 1, below + 1)
    weight = virtual - np.where(last, -1, below)
    a, b = ranked[start + below], ranked[start + above]
    diff = b - a
    out = a + diff * weight
    np.subtract(b, diff * (1 - weight), out=out, where=weight >= 0.5)
    return out


def epsilon_bias(true_scores_sample, estimated_scores_sample,
                 threshold: Threshold, n: int, N: int) -> float:
    """Coverage-bias diagnostic N/(N+n) * (F_true(t) - F_est(t)).

    Empirical CDFs use the <= convention.  An include-all threshold puts
    both CDFs at 1, so the diagnostic is 0 by convention.
    """
    if np.size(true_scores_sample) == 0 or np.size(estimated_scores_sample) == 0:
        raise InputError("epsilon_bias requires nonempty score samples")
    if N == 0 or threshold.include_all:
        return 0.0
    t = threshold.value
    return N / (N + n) * (empirical_cdf(true_scores_sample, t)
                          - empirical_cdf(estimated_scores_sample, t))
