import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantile_oracle import exact_quantile_oracle
from semicp.calibration import (Threshold, _class_deciles, cluster_classes,
                                conditional_thresholds, conformal_quantile,
                                epsilon_bias, interpolated_quantile,
                                quantile_level)
from semicp.dataset import ProbabilityDataset
from semicp.errors import CalibrationError, ConfigurationError, InputError
from semicp.runner import CalibrationPlan
from semicp.scores import ScoreSpec
from semicp.unlabeled import ScoreTables


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
        expected = exact_quantile_oracle(list(scores), alpha)
        if expected is None:
            assert t.include_all
        else:
            assert not t.include_all
            assert t.value == expected


@settings(max_examples=300, deadline=None)
@given(pool=st.lists(st.integers(0, 4).map(lambda i: i / 4), min_size=1,
                     max_size=60),
       alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(pool=[0.5], alpha=0.3)  # include-all: level 2 > m = 1
@example(pool=[0.0, 0.25], alpha=1 / 3)
@example(pool=[0.0, 0.25, 0.5, 0.75, 1.0, 0.0, 0.25, 0.5, 0.75], alpha=0.3)
def test_conformal_quantile_matches_exact_oracle_under_ties(pool, alpha):
    assert_matches_exact_oracle(pool, alpha)


def assert_matches_exact_oracle(pool, alpha):
    # Where (m+1) * alpha rounds onto an integer j that the exact product
    # misses (alpha = 0.3 at m = 9, 1/3 at m = 2), the level follows the
    # rounded product, i.e. alpha is read as j / (m+1).
    product = (len(pool) + 1) * alpha
    exact_alpha = Fraction(int(product), len(pool) + 1) \
        if product.is_integer() else alpha
    t = conformal_quantile(pool, alpha)
    expected = exact_quantile_oracle(pool, exact_alpha)
    assert t.include_all == (expected is None)
    if expected is not None:
        assert t.value == expected


def sorted_conformal_quantile(scores, alpha):
    """conformal_quantile by a full stable sort, as it was before selection;
    kept as the reference for ``np.partition``."""
    scores = np.asarray(scores, dtype=np.float64)
    m = scores.size
    level = quantile_level(m, alpha)
    if level > m:
        return Threshold(math.nan, True, level, m, alpha)
    return Threshold(float(np.sort(scores, kind="stable")[level - 1]), False,
                     level, m, alpha)


def sorted_interpolated_quantile(scores, alpha):
    """interpolated_quantile by a full stable sort, the reference for
    selecting its two order statistics."""
    scores = np.asarray(scores, dtype=np.float64)
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


def same_threshold(a, b):
    """Equal records and, for a finite threshold, equal value bits."""
    return a.to_dict() == b.to_dict() and (
        a.include_all or np.float64(a.value).tobytes() == np.float64(b.value).tobytes())


# pools with heavy ties: a few distinct values, repeated, plus a few
# continuous ones
TIED_POOL = st.lists(
    st.one_of(st.integers(0, 4).map(lambda i: i / 4),
              st.floats(0.0, 3.0, allow_nan=False, allow_subnormal=False)),
    min_size=1, max_size=400)
ALPHA = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(pool=TIED_POOL, alpha=ALPHA)
@example(pool=[0.5] * 300 + [0.25] * 100, alpha=0.1)
@example(pool=[0.0, 1.0], alpha=0.9)  # interpolation clamps to the minimum
@example(pool=[0.0, 1.0, 0.5], alpha=0.01)  # ... and to the maximum
def test_selected_quantiles_match_sorted_reference(pool, alpha):
    assert same_threshold(conformal_quantile(pool, alpha),
                          sorted_conformal_quantile(pool, alpha))
    assert same_threshold(interpolated_quantile(pool, alpha),
                          sorted_interpolated_quantile(pool, alpha))
    if len(pool) <= 60:  # the exact oracle is quadratic in the pool size
        assert_matches_exact_oracle(pool, alpha)


def test_quantile_level_float_robust():
    # (m+1)(1-alpha) integral in exact arithmetic must not round up
    assert quantile_level(9, 0.1) == 9
    assert quantile_level(19, 0.1) == 18
    assert quantile_level(99, 0.1) == 90
    assert quantile_level(4, 0.5) == 3
    with pytest.raises(ConfigurationError):
        quantile_level(10, 1.2)


def semicp_quantile(labeled, unlabeled, alpha):
    """The semicp threshold: the quantile of labeled plus estimated scores."""
    return conformal_quantile(np.concatenate([labeled, unlabeled]), alpha)


def test_semicp_threshold_examples():
    assert semicp_quantile([0.2, 0.8], [0.4, 0.6], 0.5).value == 0.6

    labeled = np.array([0.5, 0.1, 0.9])
    merged = semicp_quantile(labeled, np.empty(0), 0.2)
    direct = conformal_quantile(labeled, 0.2)
    assert merged == direct  # bit-identical reduction at N=0

    t = semicp_quantile([0.3, 0.3], [0.3, 0.3], 0.5)
    assert t.value == 0.3
    assert semicp_quantile([0.3, 0.3], [0.3, 0.3], 0.05).include_all


def test_empty_pool_errors():
    with pytest.raises(CalibrationError):
        conformal_quantile([], 0.1)
    with pytest.raises(CalibrationError):
        interpolated_quantile([], 0.1)
    with pytest.raises(CalibrationError):
        conditional_thresholds([], [], 2, 0.1)


def test_interpolated_quantile():
    assert interpolated_quantile([0.1, 0.2, 0.3, 0.4], 0.5).value == \
        pytest.approx(0.25)
    # integer h: gamma = 0, threshold is exactly an order statistic
    t = interpolated_quantile([0.1, 0.2, 0.3], 0.5)  # h = 2.0
    assert t.value == 0.2
    assert interpolated_quantile([0.7], 0.1).value == 0.7


def set_mask(probs, spec, threshold):
    """Membership mask of the prediction sets of the rows, as `predict`
    forms it."""
    tables = ScoreTables(ProbabilityDataset(probs), spec)
    return tables.all_labels(np.arange(len(tables.dataset))) <= threshold.cutoff


def members(p, spec, threshold):
    """Sorted class indices in one row's prediction set."""
    return np.flatnonzero(set_mask([p], spec, threshold)[0]).tolist()


def test_predict_set_examples():
    spec = ScoreSpec("thr")
    t = Threshold(0.5, False, 1, 1, 0.1)
    assert members([0.7, 0.2, 0.1], spec, t) == [0]
    t_all = Threshold(math.nan, True, 5, 4, 0.1)
    assert members([0.7, 0.2, 0.1], spec, t_all) == [0, 1, 2]
    t = Threshold(0.8, False, 1, 1, 0.1)
    assert members([0.5, 0.3, 0.2], ScoreSpec("aps"), t) == [0, 1]


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
        s = set(members(p, spec, conformal_quantile(scores, a)))
        if prev is not None:
            assert prev <= s
        prev = s


def test_conditional_thresholds_disjoint_and_fallback():
    # labeled scores, then estimated unlabeled ones
    pool = [0.1, 0.2, 0.7, 0.8, 0.15, 0.75]
    cond = conditional_thresholds(pool, [0, 0, 1, 1, 0, 1], 2, 0.5)
    own0 = conformal_quantile([0.1, 0.2, 0.15], 0.5)
    own1 = conformal_quantile([0.7, 0.8, 0.75], 0.5)
    assert cond[0] == own0
    assert cond[1] == own1
    assert cond[-1] == conformal_quantile(pool, 0.5)  # marginal comes last

    # empty group falls back to marginal pooled threshold
    cond = conditional_thresholds(pool, [0, 0, 0, 0, 0, 0], 3, 0.5)
    assert cond[1] == cond[-1]

    # id -1 puts a score into the marginal pool only
    cond = conditional_thresholds(pool, [0, 0, -1, -1, 0, -1], 1, 0.5)
    assert cond[0] == own0
    assert cond[-1] == conformal_quantile(pool, 0.5)

    # single group: identical to the marginal semicp threshold
    cond = conditional_thresholds(pool, [0, 0, 0, 0, 0, 0], 1, 0.3)
    assert cond[0] == conformal_quantile(pool, 0.3)


def masked_conditional_thresholds(scores, group_ids, n_groups, alpha):
    """conditional_thresholds as one masked selection and one stable sort
    per group: the reference for the selecting version."""
    scores = np.asarray(scores, dtype=np.float64)
    ids = np.asarray(group_ids, dtype=np.int64)
    marginal = sorted_conformal_quantile(scores, alpha)
    per_group = []
    for g in range(n_groups):
        members = scores[ids == g]
        per_group.append(sorted_conformal_quantile(members, alpha)
                         if members.size else marginal)
    return (*per_group, marginal)


@st.composite
def grouped_pool(draw):
    """(scores, ids, n_groups): a nonempty pool of tied scores with ids in
    -1..n_groups-1, so some groups are empty and some scores marginal-only."""
    n_groups = draw(st.integers(1, 6))
    ids = st.integers(-1, n_groups - 1)
    score = st.integers(0, 8).map(lambda i: i / 8)
    pool = draw(st.lists(st.tuples(score, ids), min_size=1, max_size=280))
    return ([s for s, _ in pool],
            np.array([g for _, g in pool], dtype=np.int64), n_groups)


@settings(max_examples=300, deadline=None)
@given(case=grouped_pool(), alpha=ALPHA)
def test_conditional_thresholds_match_masked_sort_reference(case, alpha):
    scores, ids, n_groups = case
    got = conditional_thresholds(scores, ids, n_groups, alpha)
    want = masked_conditional_thresholds(scores, ids, n_groups, alpha)
    assert len(got) == len(want) == n_groups + 1
    assert all(same_threshold(a, b) for a, b in zip(got, want))


def clustered(labeled, unlabeled, alpha, n_clusters, min_class_count=2):
    """Class -> cluster map and per-class thresholds of clustered CP, from
    per-class score lists through the group map."""
    def classes_of(parts):
        return np.concatenate([np.full(len(a), c, dtype=np.int64)
                               for c, a in enumerate(parts)])
    labels, pseudo = classes_of(labeled), classes_of(unlabeled)
    lab_scores = np.concatenate(labeled)
    pool = np.concatenate([lab_scores, np.concatenate(unlabeled)])
    cluster = cluster_classes(lab_scores, labels, len(labeled), n_clusters,
                              min_class_count)
    thresholds = conditional_thresholds(
        pool, cluster[np.concatenate([labels, pseudo])], n_clusters, alpha)
    return cluster, [thresholds[g] for g in cluster], thresholds[-1]


def test_clustercp_single_cluster_and_identical_classes():
    rs = np.random.RandomState(2)
    labeled = [rs.rand(20) for _ in range(4)]
    unlabeled = [rs.rand(50) for _ in range(4)]
    _, per_class, _ = clustered(labeled, unlabeled, 0.1, n_clusters=1)
    pooled = semicp_quantile(np.concatenate(labeled),
                             np.concatenate(unlabeled), 0.1)
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
    mask = set_mask(np.array([[0.7, 0.2, 0.1]]), ScoreSpec("thr"), t)
    assert mask.shape == (1, 3)


def test_group_map_validation():
    pool = [0.1, 0.2, 0.3]
    with pytest.raises(InputError):
        conditional_thresholds(pool, [0, 3, 0], 2, 0.1)
    with pytest.raises(InputError):
        conditional_thresholds(pool, [0, -2, 0], 2, 0.1)
    with pytest.raises(InputError):
        conditional_thresholds(pool, [0, 0], 2, 0.1)  # one id per score
    with pytest.raises(InputError):  # ids of another shape
        conditional_thresholds(pool, [[0, 0, 0]], 2, 0.1)
    with pytest.raises(ConfigurationError):
        cluster_classes([0.1, 0.2], [0, 1], 2, n_clusters=1, min_class_count=0)
    with pytest.raises(ConfigurationError):
        CalibrationPlan(mode="group_conditional", n_groups=1, group_rule="nope")


def test_nonfinite_scores_rejected():
    with pytest.raises(InputError):
        conformal_quantile([0.1, float("nan"), 0.3], 0.1)
    with pytest.raises(InputError):
        interpolated_quantile([0.1, float("inf")], 0.1)


# no -0.0: np.percentile's partition leaves equal +0.0 and -0.0 in an
# unspecified order, so the sign of a zero decile is not defined
tied_scores = st.one_of(st.sampled_from((0.0, 0.1, 0.25, 0.5, 1.0, 1e-300)),
                        st.floats(0.0, 2.0))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(1, 6))
def test_class_deciles_equal_np_percentile_bit_for_bit(data, k):
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=1,
                                         max_size=120)))
    scores = np.array(data.draw(st.lists(tied_scores, min_size=labels.size,
                                         max_size=labels.size)))
    counts = np.bincount(labels, minlength=k)
    classes = np.flatnonzero(counts)
    got = _class_deciles(scores, labels, counts, classes)
    want = np.stack([np.percentile(scores[labels == c], np.arange(10, 100, 10))
                     for c in classes])
    assert got.tobytes() == want.tobytes()
