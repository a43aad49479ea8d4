import math
from fractions import Fraction

import numpy as np
import pytest

from semicp.calibration import (ScoredPool, Threshold, cluster_classes,
                                conditional_thresholds, conformal_quantile,
                                epsilon_bias, interpolated_quantile,
                                predict_set, prediction_mask, quantile_level,
                                semicp_threshold)
from semicp.errors import CalibrationError, ConfigurationError, InputError
from semicp.runner import CalibrationPlan
from semicp.scores import ScoreSpec


def oracle_quantile(scores, alpha):
    """Smallest a in the pool with fraction >= level/m at or below it,
    computed in exact rational arithmetic."""
    m = len(scores)
    level = math.ceil(Fraction(m + 1) * (1 - Fraction(alpha)))
    if level > m:
        return None
    target = Fraction(level, m)
    for a in sorted(scores):
        if Fraction(sum(1 for s in scores if s <= a), m) >= target:
            return a
    raise AssertionError("unreachable")


def test_conformal_quantile_examples():
    t = conformal_quantile([0.5, 0.1, 0.9, 0.3], 0.5)
    assert t.value == 0.5 and t.level_index == 3 and not t.include_all

    scores = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    t = conformal_quantile(scores, 0.1)
    assert t.value == 0.9 and t.level_index == 9

    t = conformal_quantile([0.1, 0.2, 0.3, 0.4], 0.1)
    assert t.include_all and t.level_index == 5


def test_conformal_quantile_brute_force_oracle():
    rs = np.random.RandomState(0)
    for _ in range(1000):
        m = rs.randint(1, 51)
        scores = rs.rand(m)
        alpha = rs.uniform(0.01, 0.99)
        t = conformal_quantile(scores, alpha)
        expected = oracle_quantile(list(scores), alpha)
        if expected is None:
            assert t.include_all
        else:
            assert not t.include_all
            assert t.value == expected


def test_quantile_level_float_robust():
    # (m+1)(1-alpha) integral in exact arithmetic must not round up
    assert quantile_level(9, 0.1) == 9
    assert quantile_level(19, 0.1) == 18
    assert quantile_level(99, 0.1) == 90
    assert quantile_level(4, 0.5) == 3
    with pytest.raises(ConfigurationError):
        quantile_level(10, 1.2)


def test_semicp_threshold_examples():
    pool = ScoredPool([0.2, 0.8], [0.4, 0.6])
    assert semicp_threshold(pool, 0.5).value == 0.6

    labeled = np.array([0.5, 0.1, 0.9])
    merged = semicp_threshold(ScoredPool(labeled, []), 0.2)
    direct = conformal_quantile(labeled, 0.2)
    assert merged == direct  # bit-identical reduction at N=0

    const = ScoredPool([0.3, 0.3], [0.3, 0.3])
    t = semicp_threshold(const, 0.5)
    assert t.value == 0.3
    assert semicp_threshold(const, 0.05).include_all


def test_empty_pool_errors():
    with pytest.raises(CalibrationError):
        conformal_quantile([], 0.1)
    with pytest.raises(CalibrationError):
        interpolated_quantile([], 0.1)
    with pytest.raises(CalibrationError):
        ScoredPool([], [])


def test_interpolated_quantile():
    assert interpolated_quantile([0.1, 0.2, 0.3, 0.4], 0.5).value == \
        pytest.approx(0.25)
    # integer h: gamma = 0, threshold is exactly an order statistic
    t = interpolated_quantile([0.1, 0.2, 0.3], 0.5)  # h = 2.0
    assert t.value == 0.2
    assert interpolated_quantile([0.7], 0.1).value == 0.7


def test_predict_set_examples():
    spec = ScoreSpec("thr")
    t = Threshold(0.5, False, 1, 1, 0.1)
    assert list(predict_set([0.7, 0.2, 0.1], spec, t)) == [0]
    t_all = Threshold(math.nan, True, 5, 4, 0.1)
    assert list(predict_set([0.7, 0.2, 0.1], spec, t_all)) == [0, 1, 2]
    t = Threshold(0.8, False, 1, 1, 0.1)
    assert list(predict_set([0.5, 0.3, 0.2], ScoreSpec("aps"), t)) == [0, 1]


def test_threshold_monotone_in_alpha_and_nested_sets():
    rs = np.random.RandomState(1)
    scores = rs.rand(40)
    alphas = np.linspace(0.05, 0.9, 18)
    values = []
    for a in alphas:
        t = conformal_quantile(scores, a)
        values.append(np.inf if t.include_all else t.value)
    assert np.all(np.diff(values) <= 0)  # nonincreasing in alpha

    p = rs.dirichlet(np.ones(6))
    spec = ScoreSpec("aps")
    prev = None
    for a in alphas[::-1]:  # alpha decreasing -> sets grow
        s = set(predict_set(p, spec, conformal_quantile(scores, a)).tolist())
        if prev is not None:
            assert prev <= s
        prev = s


def test_conditional_thresholds_disjoint_and_fallback():
    pool = ScoredPool([0.1, 0.2, 0.7, 0.8], [0.15, 0.75])
    cond = conditional_thresholds(pool, [0, 0, 1, 1], [0, 1], 2, 0.5)
    own0 = conformal_quantile([0.1, 0.2, 0.15], 0.5)
    own1 = conformal_quantile([0.7, 0.8, 0.75], 0.5)
    assert cond[0] == own0
    assert cond[1] == own1
    assert cond[-1] == semicp_threshold(pool, 0.5)  # marginal comes last

    # empty group falls back to marginal pooled threshold
    cond = conditional_thresholds(pool, [0, 0, 0, 0], [0, 0], 3, 0.5)
    assert cond[1] == cond[-1]

    # id -1 puts a score into the marginal pool only
    cond = conditional_thresholds(pool, [0, 0, -1, -1], [0, -1], 1, 0.5)
    assert cond[0] == own0
    assert cond[-1] == semicp_threshold(pool, 0.5)

    # single group: identical to the marginal semicp threshold
    cond = conditional_thresholds(pool, [0, 0, 0, 0], [0, 0], 1, 0.3)
    assert cond[0] == semicp_threshold(pool, 0.3)


def clustered(labeled, unlabeled, alpha, n_clusters, min_class_count=2):
    """Class -> cluster map and per-class thresholds of clustered CP, from
    per-class score lists through the group map."""
    def classes_of(parts):
        return np.concatenate([np.full(len(a), c, dtype=np.int64)
                               for c, a in enumerate(parts)])
    labels, pseudo = classes_of(labeled), classes_of(unlabeled)
    pool = ScoredPool(np.concatenate(labeled), np.concatenate(unlabeled))
    cluster = cluster_classes(pool.labeled_scores, labels, len(labeled),
                              n_clusters, min_class_count)
    thresholds = conditional_thresholds(pool, cluster[labels], cluster[pseudo],
                                        n_clusters, alpha)
    return cluster, [thresholds[g] for g in cluster], thresholds[-1]


def test_clustercp_single_cluster_and_identical_classes():
    rs = np.random.RandomState(2)
    labeled = [rs.rand(20) for _ in range(4)]
    unlabeled = [rs.rand(50) for _ in range(4)]
    _, per_class, _ = clustered(labeled, unlabeled, 0.1, n_clusters=1)
    pooled = semicp_threshold(
        ScoredPool(np.concatenate(labeled), np.concatenate(unlabeled)), 0.1)
    assert all(t == pooled for t in per_class)

    # identical score multisets embed identically -> same cluster
    base = rs.rand(15)
    labeled = [base.copy(), base.copy(), rs.rand(15) + 5.0]
    unlabeled = [np.array([]), np.array([]), np.array([])]
    cluster, per_class, _ = clustered(labeled, unlabeled, 0.2, n_clusters=2)
    assert cluster[0] == cluster[1]
    assert per_class[0] == per_class[1]


def test_clustercp_matches_bruteforce_partition():
    rs = np.random.RandomState(3)
    labeled = [rs.rand(rs.randint(5, 30)) for _ in range(4)]
    unlabeled = [rs.rand(rs.randint(0, 40)) for _ in range(4)]
    cluster, per_class, _ = clustered(labeled, unlabeled, 0.25, n_clusters=2)
    for c in set(cluster.tolist()) - {-1}:
        members = [i for i, ci in enumerate(cluster) if ci == c]
        pool = np.concatenate([labeled[i] for i in members] +
                              [unlabeled[i] for i in members])
        expected = conformal_quantile(pool, 0.25)
        for i in members:
            assert per_class[i] == expected


def test_clustercp_reduces_cluster_count():
    labeled = [np.arange(5.0), np.arange(5.0) + 1, np.array([0.5])]
    unlabeled = [np.array([])] * 3
    cluster, per_class, marginal = clustered(labeled, unlabeled, 0.2,
                                             n_clusters=5, min_class_count=2)
    # two classes reach min_class_count, so k-means runs with two clusters
    assert sorted(cluster[:2].tolist()) == [0, 1]
    assert cluster[2] == -1
    assert per_class[2] == marginal


def test_epsilon_bias():
    t = Threshold(0.4, False, 1, 4, 0.5)
    same = [0.1, 0.9]
    assert epsilon_bias(same, same, t, 2, 2) == 0.0
    assert epsilon_bias([0.1, 0.9], [0.5, 0.9], t, 2, 0) == 0.0
    assert epsilon_bias([0.1, 0.9], [0.5, 0.9], t, 2, 2) == pytest.approx(0.25)
    t_all = Threshold(math.nan, True, 9, 4, 0.1)
    assert epsilon_bias([0.1], [0.5], t_all, 1, 1) == 0.0


def test_threshold_roundtrip_and_mask():
    t = conformal_quantile([0.4, 0.2, 0.9], 0.3)
    assert Threshold.from_dict(t.to_dict()) == t
    mask = prediction_mask(np.array([[0.7, 0.2, 0.1]]), ScoreSpec("thr"), t)
    assert mask.shape == (1, 3)


def test_group_map_validation():
    pool = ScoredPool([0.1, 0.2], [0.3])
    with pytest.raises(InputError):
        conditional_thresholds(pool, [0, 3], [0], 2, 0.1)
    with pytest.raises(InputError):
        conditional_thresholds(pool, [0, -2], [0], 2, 0.1)
    with pytest.raises(InputError):
        conditional_thresholds(pool, [0], [0], 2, 0.1)  # one id per score
    with pytest.raises(ConfigurationError):
        cluster_classes([0.1, 0.2], [0, 1], 2, n_clusters=1, min_class_count=0)
    with pytest.raises(ConfigurationError):
        CalibrationPlan(mode="group_conditional", n_groups=1, group_rule="nope")


def test_nonfinite_scores_rejected():
    with pytest.raises(InputError):
        conformal_quantile([0.1, float("nan"), 0.3], 0.1)
    with pytest.raises(InputError):
        interpolated_quantile([0.1, float("inf")], 0.1)
