import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gathered import queries, records
from semicp.calibration import conformal_quantile
from semicp.dataset import ProbabilityDataset
from semicp.errors import ConfigurationError, EstimationError, InputError
from semicp.rng import stream
from semicp.scores import ScoreSpec
from semicp.unlabeled import (EstimatorSpec, LabeledRecords, PseudoScores,
                              ScoreTables, check_estimator,
                              estimate_scores, neighbor_match, pseudo_labels)


def rand_dataset(rs, m, k, with_channels=False):
    raw = rs.gamma(1.0, size=(m, k))
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = rs.randint(k, size=m)
    logits = np.log(probs) if with_channels else None
    feats = rs.randn(m, 3) if with_channels else None
    return ProbabilityDataset(probs=probs, labels=labels, logits=logits,
                              features=feats)


def records_from_arrays(pseudo, biases):
    pseudo = np.asarray(pseudo, dtype=float)
    biases = np.asarray(biases, dtype=float)
    # hand-picked values need no tables: the pseudo-score criterion at u = 1
    # reads only these arrays
    return LabeledRecords(None, None, pseudo, pseudo + biases, biases)


NO_RECORDS = records_from_arrays([], [])


def naive(unl, spec):
    return estimate_scores(unl, NO_RECORDS, spec, EstimatorSpec("naive"))


def nnm(unl, rec, spec, estimator=EstimatorSpec()):
    return estimate_scores(unl, rec, spec, estimator)


def nnm_r(unl, rec, spec, u):
    return estimate_scores(unl, rec, spec, EstimatorSpec("nnm_r"), u=u)


def test_pseudo_label_ties():
    assert pseudo_labels([[0.1, 0.7, 0.2]])[0] == 1
    assert pseudo_labels([[0.5, 0.5]])[0] == 0
    assert pseudo_labels([[0.25, 0.25, 0.25, 0.25]])[0] == 0


def test_labeled_records_basics():
    spec = ScoreSpec("thr")
    # correct pseudo-label: zero bias
    ds = ProbabilityDataset(probs=[[0.6, 0.4]], labels=[0])
    rec = records(ds, spec)
    assert rec.biases[0] == 0.0

    # true label is not the argmax
    ds = ProbabilityDataset(probs=[[0.6, 0.4]], labels=[1])
    rec = records(ds, spec)
    assert rec.pseudo_scores[0] == pytest.approx(0.4)
    assert rec.true_scores[0] == pytest.approx(0.6)
    assert rec.biases[0] == pytest.approx(0.2)

    with pytest.raises(InputError):
        records(ProbabilityDataset(probs=[[0.6, 0.4]], labels=[-1]), spec)


def linear_scan_match(pseudo_scores, q):
    best, best_d = None, None
    for j, v in enumerate(pseudo_scores):
        d = abs(v - q)
        if best_d is None or d < best_d:
            best, best_d = j, d
    return best


def test_nnm_examples_against_bruteforce():
    rec = records_from_arrays([0.1, 0.4, 0.9], [0.0, 0.2, 0.5])
    spec = ScoreSpec("thr")
    # unlabeled with pseudo score 0.35: p_max = 0.65
    ds = ProbabilityDataset(probs=[[0.65, 0.35]])
    got = nnm(queries(ds, spec), rec, spec)
    assert got[0] == pytest.approx(0.35 + 0.2)
    assert linear_scan_match(rec.pseudo_scores, 0.35) == 1

    # exact pseudo-score match adds that record's bias
    ds = ProbabilityDataset(probs=[[0.6, 0.4]])
    assert nnm(queries(ds, spec), rec, spec)[0] == pytest.approx(0.4 + 0.2)

    # equidistant between 0.1 and 0.4: the smaller original index wins
    ds = ProbabilityDataset(probs=[[0.75, 0.25]])
    assert nnm(queries(ds, spec), rec, spec)[0] == pytest.approx(0.25 + 0.0)


def test_binary_search_equals_linear_scan():
    rs = np.random.RandomState(1)
    spec = ScoreSpec("thr")
    for _ in range(60):
        n = rs.randint(1, 201)
        # coarse grid values force plenty of exact ties
        pseudo = np.round(rs.rand(n), 2)
        biases = np.round(rs.rand(n), 3)
        rec = records_from_arrays(pseudo, biases)
        m = rs.randint(1, 40)
        # keep q <= 0.5 so [1-q, q] has its pseudo-label on the q side
        q = np.round(rs.rand(m) * 0.5, 2)
        probs = np.stack([1 - q, q], axis=1)
        pseudo_q = queries(ProbabilityDataset(probs=probs), spec)
        got = nnm(pseudo_q, rec, spec)
        for i in range(m):
            dists = np.abs(pseudo - pseudo_q.at()[i])
            best = np.flatnonzero(dists == dists.min())[0]  # smallest index
            assert got[i] == pseudo_q.at()[i] + biases[best], (n, i)


def test_naive_scores():
    spec = ScoreSpec("thr")
    ds = ProbabilityDataset(probs=[[0.7, 0.2, 0.1]])
    assert naive(queries(ds, spec), spec)[0] == pytest.approx(0.3)

    rs = np.random.RandomState(2)
    unl = queries(rand_dataset(rs, 50, 4), spec)
    rec = records_from_arrays([0.2, 0.5], [0.0, 0.0])
    assert np.array_equal(naive(unl, spec), nnm(unl, rec, spec))


def test_naive_never_exceeds_true_scores_for_deterministic_kinds():
    rs = np.random.RandomState(3)
    ds = rand_dataset(rs, 300, 6)
    for kind in ("thr", "aps", "raps"):
        spec = ScoreSpec(kind)
        plain = naive(queries(ds, spec), spec)
        true = ScoreTables(ds, spec).true(np.arange(len(ds)))
        assert np.all(plain <= true + 1e-12)


def test_nnm_at_least_naive_for_deterministic_kinds():
    rs = np.random.RandomState(4)
    lab = rand_dataset(rs, 40, 5)
    unl = rand_dataset(rs, 100, 5)
    for kind in ("thr", "aps", "raps"):
        spec = ScoreSpec(kind)
        rec = records(lab, spec)
        assert np.all(rec.biases >= -1e-12)
        matched = nnm(queries(unl, spec), rec, spec)
        plain = naive(queries(unl, spec), spec)
        assert np.all(matched >= plain - 1e-12)
        assert plain.min() <= matched.min() + 1e-12


def debias(unl, rec, spec):
    return estimate_scores(unl, rec, spec, EstimatorSpec("debias"))


def test_debias_scores():
    spec = ScoreSpec("thr")
    rec = records_from_arrays([0.1, 0.5, 0.9], [0.0, 0.2, 0.4])
    ds = ProbabilityDataset(probs=[[0.7, 0.3]])
    assert debias(queries(ds, spec), rec, spec)[0] == pytest.approx(0.3 + 0.2)

    single = records_from_arrays([0.5], [0.3])
    rs = np.random.RandomState(5)
    unl = queries(rand_dataset(rs, 30, 3), spec)
    assert np.allclose(debias(unl, single, spec), nnm(unl, single, spec))

    rec = records_from_arrays(rs.rand(20), rs.rand(20))
    got = debias(unl, rec, spec)
    plain = naive(unl, spec)
    expected = [plain[i] + np.mean(rec.biases) for i in range(len(unl))]
    assert np.allclose(got, expected)


def random_match(unl, rec, spec, key):
    return estimate_scores(unl, rec, spec, EstimatorSpec("random_match"),
                           stream_key=key)


def test_random_match_scores():
    spec = ScoreSpec("thr")
    rs = np.random.RandomState(6)
    unl = queries(rand_dataset(rs, 20, 3), spec)

    single = records_from_arrays([0.5], [0.3])
    key = stream(123, 1)
    assert np.array_equal(random_match(unl, single, spec, key),
                          nnm(unl, single, spec))

    rec = records_from_arrays(rs.rand(10), rs.rand(10))
    a = random_match(unl, rec, spec, key)
    b = random_match(unl, rec, spec, key)
    assert np.array_equal(a, b)

    # law of large numbers: mean over many unlabeled points ~ mean bias
    big = queries(rand_dataset(rs, 10_000, 3), spec)
    got = random_match(big, rec, spec, stream(9, 2))
    centered = got - naive(big, spec)
    assert abs(centered.mean() - rec.biases.mean()) < 0.01


def test_nnm_r_reduces_to_nnm_at_u_one():
    rs = np.random.RandomState(7)
    lab = rand_dataset(rs, 30, 4)
    unl = rand_dataset(rs, 60, 4)
    det = ScoreSpec("aps")
    rand = ScoreSpec("aps", randomized=True)
    got = nnm_r(queries(unl, rand), records(lab, rand), rand, np.ones(60))
    assert np.array_equal(got, nnm(queries(unl, det), records(lab, det), det))


def test_nnm_r_hand_built_case_u_zero():
    # two classes; record and query built so every term is hand-checkable
    rand = ScoreSpec("aps", randomized=True)
    lab = ProbabilityDataset(probs=[[0.6, 0.4]], labels=[1])
    rec = records(lab, rand)
    unl = queries(ProbabilityDataset(probs=[[0.8, 0.2]]), rand)
    # u=0: own = rho(hat)=0; record true (y=1, rank2): rho=0.6; pseudo: rho=0
    got = nnm_r(unl, rec, rand, np.zeros(1))
    assert got[0] == pytest.approx(0.0 + 0.6 - 0.0)


def test_nnm_r_matching_is_u_invariant():
    rs = np.random.RandomState(8)
    lab = rand_dataset(rs, 25, 4)
    unl = rand_dataset(rs, 50, 4)
    det = ScoreSpec("raps")
    rand = ScoreSpec("raps", randomized=True)
    matched = neighbor_match(queries(unl, det), records(lab, det))[:, 0]
    for u_val in (0.0, 0.3, 0.9):
        got = nnm_r(queries(unl, rand), records(lab, rand), rand,
                    np.full(50, u_val))
        assert np.allclose(got, _nnm_r_reference(unl, lab, det, matched, u_val))


def _nnm_r_reference(unl, lab, det, matched, u_val):
    # rebuild from the deterministic match: proves the neighbor never moves
    from semicp.scores import score_components_batch
    a, b = score_components_batch(unl.probs, det)
    rows = np.arange(len(unl))
    hats = pseudo_labels(unl.probs)
    own = a[rows, hats] + b[rows, hats] * u_val
    la, lb = score_components_batch(lab.probs, det)
    y, y_hat = lab.labels[matched], pseudo_labels(lab.probs)[matched]
    corr = (la[matched, y] - la[matched, y_hat]) + \
        (lb[matched, y] - lb[matched, y_hat]) * u_val
    return own + corr


def test_neighbor_match_criteria():
    rs = np.random.RandomState(9)
    lab = rand_dataset(rs, 30, 4, with_channels=True)
    spec = ScoreSpec("thr")
    rec = records(lab, spec)

    # identical feature vectors: distance 0 match
    unl = ProbabilityDataset(probs=lab.probs[:5].copy(),
                             logits=lab.logits[:5].copy(),
                             features=lab.features[:5].copy())
    got = neighbor_match(queries(unl, spec), rec,
                         EstimatorSpec(criterion="feature"))
    assert np.array_equal(got, np.arange(5)[:, None])

    # pseudo-score criterion agrees with nnm matching on random cases
    unl = queries(rand_dataset(rs, 100, 4, with_channels=True), spec)
    fast = neighbor_match(unl, rec, EstimatorSpec(criterion="pseudo_score"))
    brute = neighbor_match(unl, rec,
                           EstimatorSpec(criterion="pseudo_score", k=2))
    assert np.array_equal(fast, brute[:, :1])

    # logit criterion equals an independent brute-force nearest neighbor
    unl = rand_dataset(rs, 50, 4, with_channels=True)
    got = neighbor_match(queries(unl, spec), rec,
                         EstimatorSpec(criterion="logit"))
    assert got.shape == (50, 1)
    for i in range(50):
        d = np.sum((lab.logits - unl.logits[i]) ** 2, axis=1)
        assert got[i, 0] == np.flatnonzero(d == d.min())[0]

    # missing channel is named in the error
    bare = queries(ProbabilityDataset(probs=unl.probs), spec)
    with pytest.raises(InputError, match="feature"):
        neighbor_match(bare, rec, EstimatorSpec(criterion="feature"))


def test_knn_mean_bias():
    rec = records_from_arrays([0.1, 0.2, 0.9], [0.0, 0.4, 1.0])
    spec = ScoreSpec("thr")
    ds = ProbabilityDataset(probs=[[0.85, 0.15]])  # pseudo score 0.15
    got = nnm(queries(ds, spec), rec, spec,
              EstimatorSpec(criterion="pseudo_score", k=2))
    assert got[0] == pytest.approx(0.15 + (0.0 + 0.4) / 2)


def test_estimator_dispatch_and_errors():
    rs = np.random.RandomState(10)
    spec = ScoreSpec("thr")
    rand = ScoreSpec("aps", randomized=True)
    rec = records(rand_dataset(rs, 10, 3), spec)
    unl = queries(rand_dataset(rs, 20, 3), spec)
    for kind in ("nnm", "naive", "debias", "random_match"):
        got = estimate_scores(unl, rec, spec, EstimatorSpec(kind),
                              stream_key=stream(1, 2))
        assert got.shape == (20,)
    with pytest.raises(ConfigurationError, match="deterministic-only"):
        nnm(unl, rec, rand)
    with pytest.raises(ConfigurationError, match="randomized"):
        nnm_r(unl, rec, spec, np.ones(20))
    with pytest.raises(ConfigurationError, match="single"):
        estimate_scores(unl, rec, rand, EstimatorSpec("nnm_r", k=2), u=np.ones(20))
    with pytest.raises(InputError):
        estimate_scores(unl, rec, rand, EstimatorSpec("naive"))
    with pytest.raises(InputError):
        nnm_r(unl, rec, rand, np.ones(19))
    with pytest.raises(ConfigurationError, match="stream"):
        estimate_scores(unl, rec, spec, EstimatorSpec("random_match"))
    empty = records(ProbabilityDataset(
        probs=np.empty((0, 3)), labels=np.empty(0, dtype=int)), spec)
    for kind in ("nnm", "debias", "random_match"):
        with pytest.raises(EstimationError):
            estimate_scores(unl, empty, spec, EstimatorSpec(kind),
                            stream_key=stream(1, 2))
    with pytest.raises(ConfigurationError):
        neighbor_match(unl, rec, EstimatorSpec(criterion="pseudo_score", k=11))


def test_check_estimator_decides_spec_and_estimator_fit():
    det, rand = ScoreSpec("aps"), ScoreSpec("aps", randomized=True)
    for kind in ("nnm", "naive", "debias", "random_match"):
        check_estimator(det, EstimatorSpec(kind, k=2))
    for kind in ("naive", "nnm_r"):
        check_estimator(rand, EstimatorSpec(kind))
    for spec, estimator in ((rand, EstimatorSpec("nnm")),
                            (rand, EstimatorSpec("debias")),
                            (rand, EstimatorSpec("random_match")),
                            (det, EstimatorSpec("nnm_r")),
                            (rand, EstimatorSpec("nnm_r", k=2))):
        with pytest.raises(ConfigurationError):
            check_estimator(spec, estimator)


class ValueTables:
    """Score tables whose row i scores values[i] at every label, so the
    pseudo-score criterion matches on the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def pseudo(self, rows, u=None):
        return self.values[rows]

    def value_table(self):
        table, index = np.unique(self.values, return_inverse=True)
        return table, index.astype(np.int32)


def match_1d(values, queries, k, criterion="pseudo_score"):
    """neighbor_match of the queries against records with the given
    values, under a 1-D criterion."""
    rows = np.arange(len(values))
    rec = LabeledRecords(ValueTables(values), rows, np.asarray(values, float),
                         np.asarray(values, float), np.zeros(len(values)))
    unl = PseudoScores(ValueTables(queries), np.arange(len(queries)))
    return neighbor_match(unl, rec, EstimatorSpec(k=k, criterion=criterion))


def two_walk_reference(values, queries, k):
    """The sorted 1-D k-NN that the owner table replaced in its first
    column, kept as the reference for every column: from each query's
    insertion point two outward walks are merged, k steps in all.  The left
    walk takes records in (value, descending index) order and the right
    walk in (value, ascending index) order, so each walk meets an
    equal-value run at its smallest index.  Each step takes the nearer head
    by |q - v|, then by the smaller index.  An infinite sentinel with index
    n ends each walk."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    right = np.argsort(values, kind="stable")
    left = n - 1 - np.argsort(values[::-1], kind="stable")
    q = np.asarray(queries, dtype=np.float64)
    lo = np.searchsorted(values[right], q, side="left")
    left_vals = np.concatenate(([-np.inf], values[left]))
    right_vals = np.concatenate((values[right], [np.inf]))
    left = np.concatenate(([n], left))
    right = np.concatenate((right, [n]))
    out = np.empty((q.shape[0], k), dtype=np.int64)
    for step in range(k):
        hi = lo + step
        d_left = np.abs(q - left_vals[lo])
        d_right = np.abs(q - right_vals[hi])
        i_left, i_right = left[lo], right[hi]
        take_left = (d_left < d_right) | ((d_left == d_right) & (i_left < i_right))
        out[:, step] = np.where(take_left, i_left, i_right)
        lo -= take_left
    return out


def match_sorted_1d_reference(values, queries):
    """The k = 1 matcher that the sorted k-NN replaced, kept as the
    reference for its first column: binary search, then the nearer of the
    two neighbouring equal-value runs, each represented by its smallest
    original index."""
    sort_order = np.argsort(values, kind="stable")
    sorted_vals = values[sort_order]
    n = sorted_vals.shape[0]
    q = np.asarray(queries, dtype=np.float64)
    pos = np.searchsorted(sorted_vals, q, side="left")
    run_start = np.searchsorted(sorted_vals, sorted_vals, side="left")
    left = np.clip(pos - 1, 0, n - 1)
    right = np.clip(pos, 0, n - 1)
    d_left = np.where(pos > 0, np.abs(q - sorted_vals[left]), np.inf)
    d_right = np.where(pos < n, np.abs(q - sorted_vals[right]), np.inf)
    left_c = run_start[left]
    take_left = (d_left < d_right) | (
        (d_left == d_right) & (sort_order[left_c] < sort_order[right]))
    return sort_order[np.where(take_left, left_c, right)]


def _tied_values_and_queries(data, level):
    """A handful of distinct levels, values drawn from them, and queries on
    them, halfway between them and beyond both ends."""
    levels = data.draw(st.lists(level, min_size=1, max_size=5, unique=True))
    n = data.draw(st.integers(1, 40))
    values = np.array(data.draw(st.lists(st.sampled_from(levels), min_size=n,
                                         max_size=n)))
    ordered = sorted(levels)
    spots = (ordered + [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
             + [ordered[0] - 1.0, ordered[-1] + 1.0])
    queries = np.array(data.draw(st.lists(st.sampled_from(spots), min_size=1,
                                          max_size=30)))
    k = data.draw(st.integers(1, n))
    criterion = data.draw(st.sampled_from(["pseudo_score", "confidence"]))
    return values, queries, k, match_1d(values, queries, k, criterion)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_neighbor_match_1d_equals_bruteforce_under_heavy_ties(data):
    # eighths in [-4, 4]: every distance is exact, so ties in value and in
    # distance are real ties and the smaller original index must win
    values, queries, k, got = _tied_values_and_queries(
        data, st.integers(-32, 32).map(lambda i: i / 8))
    n = len(values)
    want = [sorted(range(n), key=lambda j: (abs(q - values[j]), j))[:k]
            for q in queries]
    assert got.tolist() == want


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_neighbor_match_1d_rows_are_nearest_for_any_floats(data):
    values, queries, k, got = _tied_values_and_queries(data, st.floats(-10.0, 10.0))
    assert got.shape == (len(queries), k)
    dists = np.abs(queries[:, None] - values[None, :])
    for q, row, d in zip(queries, got, dists):
        # k distinct records whose distances are the k smallest
        assert len(set(row.tolist())) == k
        assert np.array_equal(np.sort(d[row]), np.sort(d)[:k])
    # the nearest column is the k = 1 match, which is the replaced matcher's
    assert np.array_equal(got[:, :1], match_1d(values, queries, 1))
    assert np.array_equal(got[:, 0], match_sorted_1d_reference(values, queries))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_owner_table_matcher_equals_the_two_walk_reference(data):
    # eighths tie exactly; near floats and the neighbours of midpoints tie
    # in distance only after rounding
    level = data.draw(st.sampled_from([
        st.integers(-32, 32).map(lambda i: i / 8),
        st.floats(-10.0, 10.0),
        st.integers(-3, 3).map(lambda i: 0.3 + i * 2.0 ** -52),
        st.sampled_from([0.0, -1.1125369292536007e-308, 5e-324, 1.0])]))
    levels = data.draw(st.lists(level, min_size=1, max_size=6, unique=True))
    n = data.draw(st.integers(1, 40))
    values = np.array(data.draw(st.lists(st.sampled_from(levels), min_size=n,
                                         max_size=n)))
    ordered = sorted(levels)
    mids = [a / 2 + b / 2 for a, b in zip(ordered, ordered[1:])]
    spots = (ordered + mids + [np.nextafter(m, to) for m in mids
                               for to in (-np.inf, np.inf)]
             + [ordered[0] - 1.0, ordered[-1] + 1.0])  # below and above all
    queries = np.array(data.draw(st.lists(st.sampled_from(spots), min_size=1,
                                          max_size=30)))
    k = data.draw(st.integers(1, n))
    assert np.array_equal(match_1d(values, queries, k),
                          two_walk_reference(values, queries, k))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_matching_across_score_tables_equals_the_two_walk_reference(data):
    # records and queries scored in tables of different sources, p_max
    # values tied often; a randomized spec also runs nnm_r
    kind = data.draw(st.sampled_from(["thr", "aps", "raps", "saps"]))
    spec = ScoreSpec(kind, randomized=kind != "thr" and data.draw(st.booleans()))
    k_classes = data.draw(st.integers(2, 4))
    n, big_n = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 30))
    lab = ProbabilityDataset(
        probs=_weight_rows(data, n, k_classes, False),
        labels=data.draw(st.lists(st.integers(0, k_classes - 1), min_size=n,
                                  max_size=n)))
    unl = ProbabilityDataset(probs=_weight_rows(data, big_n, k_classes, False))
    rec, pseudo = records(lab, spec), queries(unl, spec)
    k = 1 if spec.randomized else data.draw(st.integers(1, n))
    want = two_walk_reference(rec.pseudo_scores, pseudo.at(), k)
    assert np.array_equal(neighbor_match(pseudo, rec, EstimatorSpec(k=k)), want)
    if spec.randomized:
        u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=big_n,
                                        max_size=big_n)))
        rows = want[:, 0]
        matched = rec.tables.all_labels(rows, u)
        bias = matched[np.arange(big_n), lab.labels[rows]] - \
            matched[np.arange(big_n), pseudo_labels(lab.probs)[rows]]
        assert np.array_equal(nnm_r(pseudo, rec, spec, u), pseudo.at(u) + bias)


def test_unlabeled_rows_score_nan_at_their_true_label():
    # label -1 must not read class K - 1 through a negative index: the NaN
    # it reads instead is refused by every pool and records refuse the row
    ds = ProbabilityDataset(probs=[[0.2, 0.8], [0.9, 0.1]], labels=[1, -1])
    rows = np.arange(2)
    for spec, u in ((ScoreSpec("thr"), None),
                    (ScoreSpec("aps", randomized=True), np.array([0.5, 0.5]))):
        tables = ScoreTables(ds, spec)
        true = tables.true(rows, u)
        assert not np.isnan(true[0]) and np.isnan(true[1])
        with pytest.raises(InputError, match="non-finite"):
            conformal_quantile(true, 0.1)
        with pytest.raises(InputError, match="without labels"):
            tables.records(rows)


def test_rounding_tie_ranks_the_k1_match_first():
    # |-1 - v| rounds to 1.0 for both values, though -1.1e-308 is nearer:
    # every k takes the nearer value first, as k = 1 does
    values = [0.0, -1.1125369292536007e-308]
    for criterion in ("pseudo_score", "confidence"):
        assert match_1d(values, [-1.0], 1, criterion).tolist() == [[1]]
        assert match_1d(values, [-1.0], 2, criterion).tolist() == [[1, 0]]


def test_confidence_is_a_spelling_of_pseudo_score():
    assert EstimatorSpec("nnm", criterion="confidence") == EstimatorSpec("nnm")
    assert EstimatorSpec("nnm", 3, "confidence").criterion == "pseudo_score"


def confidence_match_reference(unl, lab, k):
    """The retired confidence matcher, kept as the oracle for its spelling:
    the sorted 1-D k-NN on p_max values."""
    return two_walk_reference(lab.probs.max(axis=1), unl.probs.max(axis=1), k)


def _weight_rows(data, n, k, top_half):
    """n probability rows of small integer weights, so that p_max values
    tie often; with ``top_half`` the first weight is at least the rest's
    sum, so every p_max is >= 0.5."""
    rows = []
    for _ in range(n):
        w = data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
        if top_half:
            w[0] = max(w[0], sum(w[1:]))
        rows.append(np.array(w, dtype=np.float64) / sum(w))
    return np.array(rows)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_confidence_spelling_matches_the_retired_confidence_matcher(data):
    # at the pseudo-label aps, raps and saps score p_max bit for bit, and
    # thr scores 1 - p_max, which is exact (Sterbenz) when p_max >= 0.5
    kind = data.draw(st.sampled_from(["thr", "aps", "raps", "saps"]))
    spec = ScoreSpec(kind, randomized=kind != "thr" and data.draw(st.booleans()))
    k_classes = data.draw(st.integers(2, 4))
    n, big_n = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 30))
    lab = ProbabilityDataset(
        probs=_weight_rows(data, n, k_classes, kind == "thr"),
        labels=data.draw(st.lists(st.integers(0, k_classes - 1), min_size=n,
                                  max_size=n)))
    unl = ProbabilityDataset(
        probs=_weight_rows(data, big_n, k_classes, kind == "thr"))
    k = data.draw(st.integers(1, n))
    got = neighbor_match(queries(unl, spec), records(lab, spec),
                         EstimatorSpec(k=k, criterion="confidence"))
    assert np.array_equal(got, confidence_match_reference(unl, lab, k))


def test_thr_confidences_closer_than_the_pseudo_score_resolution_tie():
    # Under thr, 1 - p rounds for p < 0.5: the confidences 0.3 and the next
    # double above it share the pseudo score 0.7.  The retired confidence
    # matcher took record 1, the exact match; the pseudo score, which is
    # the score NNM estimates, sees a tie and takes the smaller index.
    above = np.nextafter(0.3, 1.0)
    lab = ProbabilityDataset(probs=[[0.3, 0.25, 0.25, 0.2],
                                    [above, 0.25, 0.25, 0.2]], labels=[0, 1])
    unl = ProbabilityDataset(probs=[[above, 0.25, 0.25, 0.2]])
    spec = ScoreSpec("thr")
    assert confidence_match_reference(unl, lab, 1).tolist() == [[1]]
    for criterion in ("confidence", "pseudo_score"):
        got = neighbor_match(queries(unl, spec), records(lab, spec),
                             EstimatorSpec(criterion=criterion))
        assert got.tolist() == [[0]]
