"""Thresholds and prediction sets.

The conformal quantile of a pool of m scores at miscoverage alpha is the
l-th smallest score with l = ceil((m+1)(1-alpha)).  When l exceeds m no
finite threshold exists and an include-all sentinel is produced instead of
a float infinity (explicit and serializable).

Semi-supervised calibration concatenates labeled true scores with estimated
unlabeled scores and applies the same rule to the merged pool;
interpolation refines the plain quantile between adjacent order statistics.

Conditional calibration takes the same quantile per group.  A group map
gives each labeled and each unlabeled score a group id, and
:func:`conditional_thresholds` returns one threshold per group plus the
marginal one, which id -1 selects.  Group-conditional calibration groups
samples; class-conditional calibration groups by class, so a test cell
(sample, candidate label) takes the threshold of the candidate label; and
clustered calibration groups by the cluster of the class
(:func:`cluster_classes`), with rare classes left to the marginal pool.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import CalibrationError, ConfigurationError, InputError
from .metrics import empirical_cdf
from .scores import ScoreSpec, score_all_labels_batch

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
        include_all = bool(d["include_all"])
        value = math.nan if include_all else float(d["value"])
        return cls(value, include_all, int(d["level_index"]),
                   int(d["pool_size"]), float(d["alpha"]))


@dataclass(frozen=True)
class ScoredPool:
    """Labeled true scores plus estimated unlabeled scores."""

    labeled_scores: np.ndarray
    unlabeled_scores: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        object.__setattr__(self, "labeled_scores",
                           np.asarray(self.labeled_scores, dtype=np.float64))
        object.__setattr__(self, "unlabeled_scores",
                           np.asarray(self.unlabeled_scores, dtype=np.float64))
        if self.labeled_scores.size < 1:
            raise CalibrationError("scored pool needs at least one labeled score")
        for arr in (self.labeled_scores, self.unlabeled_scores):
            if not np.all(np.isfinite(arr)):
                raise InputError("scores must be finite")

    def merged(self) -> np.ndarray:
        return np.concatenate([self.labeled_scores, self.unlabeled_scores])


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
    """Split-conformal threshold of a score pool at miscoverage alpha."""
    scores, level = _checked_pool(scores, alpha)
    m = scores.size
    if level > m:
        return Threshold(math.nan, True, level, m, alpha)
    value = float(np.sort(scores, kind="stable")[level - 1])
    return Threshold(value, False, level, m, alpha)


def semicp_threshold(pool: ScoredPool, alpha: float) -> Threshold:
    """Threshold over the merged labeled + estimated-unlabeled pool."""
    return conformal_quantile(pool.merged(), alpha)


def interpolated_quantile(scores, alpha: float) -> Threshold:
    """Linearly interpolated quantile between adjacent order statistics.

    With h = (m+1)(1-alpha), k = floor(h) and gamma = h - k, the threshold
    is s_(k) + gamma * (s_(k+1) - s_(k)), clamped to the extreme order
    statistics when k falls outside 1..m-1.  Never produces include-all.
    """
    scores, _ = _checked_pool(scores, alpha)
    m = scores.size
    h = (m + 1) * (1.0 - alpha)
    k = math.floor(h)
    s = np.sort(scores, kind="stable")
    if k >= m:
        value, k = float(s[-1]), m
    elif k < 1:
        value, k = float(s[0]), 1
    else:
        gamma = h - k
        value = float(s[k - 1] + gamma * (s[k] - s[k - 1]))
    return Threshold(value, False, k, m, alpha)


def prediction_mask(probs, spec: ScoreSpec, threshold: Threshold, u=None) -> np.ndarray:
    """Boolean (m, K) membership mask of the prediction sets of a batch."""
    scores = score_all_labels_batch(probs, spec, u)
    if threshold.include_all:
        return np.ones(scores.shape, dtype=bool)
    return scores <= threshold.value


def conditional_thresholds(pool: ScoredPool, group_of_labeled,
                           group_of_unlabeled, n_groups: int,
                           alpha: float) -> tuple:
    """One semi-supervised threshold per group (Mondrian-style).

    Group ids run over 0..n_groups-1; id -1 puts a score into the marginal
    pool only.  Returns n_groups + 1 thresholds: entry g is group g's, and
    the last is the marginal one over the whole pool, so that indexing with
    -1 finds it.  A group with an empty pool gets the marginal threshold.
    """
    labeled_ids = np.asarray(group_of_labeled, dtype=np.int64)
    unlabeled_ids = np.asarray(group_of_unlabeled, dtype=np.int64)
    for ids, scores in ((labeled_ids, pool.labeled_scores),
                        (unlabeled_ids, pool.unlabeled_scores)):
        if ids.shape != scores.shape:
            raise InputError("one group id per score is required")
        if ids.size and (ids.min() < -1 or ids.max() >= n_groups):
            raise InputError(f"group id outside -1..{n_groups - 1}")
    marginal = semicp_threshold(pool, alpha)
    per_group = []
    for g in range(n_groups):
        scores = np.concatenate([pool.labeled_scores[labeled_ids == g],
                                 pool.unlabeled_scores[unlabeled_ids == g]])
        per_group.append(conformal_quantile(scores, alpha) if scores.size
                         else marginal)
    return (*per_group, marginal)


def _decile_embedding(scores: np.ndarray) -> np.ndarray:
    return np.percentile(scores, np.arange(10, 100, 10))


def _kmeans(points: np.ndarray, k: int, seed: int = 0, iters: int = 50) -> np.ndarray:
    """Plain Lloyd k-means with farthest-point init, deterministic given seed."""
    n = points.shape[0]
    key = rng.stream(seed, _KMEANS_TAG)
    first = int(rng.integers(key, np.asarray([0]), n)[0])
    center_idx = [first]
    d2 = np.sum((points - points[first]) ** 2, axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(d2))
        center_idx.append(nxt)
        d2 = np.minimum(d2, np.sum((points - points[nxt]) ** 2, axis=1))
    centers = points[center_idx].copy()
    assign = None
    for _ in range(iters):
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
                    min_class_count: int = 2, seed: int = 0) -> np.ndarray:
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
    by_class = [labeled_scores[labels == c] for c in range(n_classes)]
    embeddable = [c for c in range(n_classes)
                  if by_class[c].size >= min_class_count]
    cluster_of_class = np.full(n_classes, -1, dtype=np.int64)
    if embeddable:
        emb = np.stack([_decile_embedding(by_class[c]) for c in embeddable])
        cluster_of_class[embeddable] = _kmeans(
            emb, min(n_clusters, len(embeddable)), seed=seed)
    return cluster_of_class


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
