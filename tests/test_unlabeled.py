import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicp.dataset import ProbabilityDataset
from semicp.errors import ConfigurationError, EstimationError, InputError
from semicp.rng import stream
from semicp.scores import ScoreSpec, score_label
from semicp.unlabeled import (EstimatorSpec, LabeledRecords,
                              build_labeled_records, debias_scores,
                              deterministic_pseudo_scores, estimate_scores,
                              naive_scores, neighbor_match, nnm_r_scores,
                              nnm_scores, pseudo_label, pseudo_labels,
                              random_match_scores, _match_sorted_1d)


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
    n = pseudo.shape[0]
    z = np.zeros(n)
    return LabeledRecords(
        pseudo_scores=pseudo, true_scores=pseudo + biases, biases=biases,
        pseudo_labels=np.zeros(n, dtype=np.int64), confidences=1 - pseudo,
        true_a=pseudo + biases, true_b=z, pseudo_a=pseudo, pseudo_b=z,
        score_vectors=pseudo[:, None])


def test_pseudo_label_ties():
    assert pseudo_label([0.1, 0.7, 0.2]) == 1
    assert pseudo_label([0.5, 0.5]) == 0
    assert pseudo_label([0.25, 0.25, 0.25, 0.25]) == 0


def test_build_labeled_records_basics():
    spec = ScoreSpec("thr")
    # correct pseudo-label: zero bias
    ds = ProbabilityDataset(probs=[[0.6, 0.4]], labels=[0])
    rec = build_labeled_records(ds, spec)
    assert rec.biases[0] == 0.0

    # true label is not the argmax
    ds = ProbabilityDataset(probs=[[0.6, 0.4]], labels=[1])
    rec = build_labeled_records(ds, spec)
    assert rec.pseudo_scores[0] == pytest.approx(0.4)
    assert rec.true_scores[0] == pytest.approx(0.6)
    assert rec.biases[0] == pytest.approx(0.2)

    with pytest.raises(InputError):
        build_labeled_records(
            ProbabilityDataset(probs=[[0.6, 0.4]], labels=[-1]), spec)


def test_records_sorted_index_matches_full_sort():
    rs = np.random.RandomState(0)
    ds = rand_dataset(rs, 200, 5)
    rec = build_labeled_records(ds, ScoreSpec("aps"))
    assert np.array_equal(rec.sorted_pseudo, np.sort(rec.pseudo_scores))
    assert np.array_equal(rec.pseudo_scores[rec.sort_order], rec.sorted_pseudo)


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
    got = nnm_scores(ds, rec, spec)
    assert got[0] == pytest.approx(0.35 + 0.2)
    assert linear_scan_match(rec.pseudo_scores, 0.35) == 1

    # exact pseudo-score match adds that record's bias
    ds = ProbabilityDataset(probs=[[0.6, 0.4]])
    assert nnm_scores(ds, rec, spec)[0] == pytest.approx(0.4 + 0.2)

    # equidistant between 0.1 and 0.4: the smaller original index wins
    ds = ProbabilityDataset(probs=[[0.75, 0.25]])
    assert nnm_scores(ds, rec, spec)[0] == pytest.approx(0.25 + 0.0)


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
        ds = ProbabilityDataset(probs=probs)
        queries = deterministic_pseudo_scores(ds, spec)
        got = nnm_scores(ds, rec, spec)
        for i in range(m):
            dists = np.abs(pseudo - queries[i])
            best = np.flatnonzero(dists == dists.min())[0]  # smallest index
            assert got[i] == queries[i] + biases[best], (n, i)


def test_naive_scores():
    spec = ScoreSpec("thr")
    ds = ProbabilityDataset(probs=[[0.7, 0.2, 0.1]])
    assert naive_scores(ds, spec)[0] == pytest.approx(0.3)

    rs = np.random.RandomState(2)
    unl = rand_dataset(rs, 50, 4)
    rec = records_from_arrays([0.2, 0.5], [0.0, 0.0])
    assert np.array_equal(naive_scores(unl, spec), nnm_scores(unl, rec, spec))


def test_naive_never_exceeds_true_scores_for_deterministic_kinds():
    rs = np.random.RandomState(3)
    ds = rand_dataset(rs, 300, 6)
    for kind in ("thr", "aps", "raps"):
        spec = ScoreSpec(kind)
        naive = naive_scores(ds, spec)
        true = np.array([score_label(ds.probs[i], int(ds.labels[i]), spec)
                         for i in range(len(ds))])
        assert np.all(naive <= true + 1e-12)


def test_nnm_at_least_naive_for_deterministic_kinds():
    rs = np.random.RandomState(4)
    lab = rand_dataset(rs, 40, 5)
    unl = rand_dataset(rs, 100, 5)
    for kind in ("thr", "aps", "raps"):
        spec = ScoreSpec(kind)
        rec = build_labeled_records(lab, spec)
        assert np.all(rec.biases >= -1e-12)
        nnm = nnm_scores(unl, rec, spec)
        naive = naive_scores(unl, spec)
        assert np.all(nnm >= naive - 1e-12)
        assert naive.min() <= nnm.min() + 1e-12


def test_debias_scores():
    spec = ScoreSpec("thr")
    rec = records_from_arrays([0.1, 0.5, 0.9], [0.0, 0.2, 0.4])
    ds = ProbabilityDataset(probs=[[0.7, 0.3]])
    assert debias_scores(ds, rec, spec)[0] == pytest.approx(0.3 + 0.2)

    single = records_from_arrays([0.5], [0.3])
    rs = np.random.RandomState(5)
    unl = rand_dataset(rs, 30, 3)
    assert np.allclose(debias_scores(unl, single, spec),
                       nnm_scores(unl, single, spec))

    rec = records_from_arrays(rs.rand(20), rs.rand(20))
    got = debias_scores(unl, rec, spec)
    naive = naive_scores(unl, spec)
    expected = [naive[i] + np.mean(rec.biases) for i in range(len(unl))]
    assert np.allclose(got, expected)


def test_random_match_scores():
    spec = ScoreSpec("thr")
    rs = np.random.RandomState(6)
    unl = rand_dataset(rs, 20, 3)

    single = records_from_arrays([0.5], [0.3])
    key = stream(123, 1)
    assert np.array_equal(random_match_scores(unl, single, spec, key),
                          nnm_scores(unl, single, spec))

    rec = records_from_arrays(rs.rand(10), rs.rand(10))
    a = random_match_scores(unl, rec, spec, key)
    b = random_match_scores(unl, rec, spec, key)
    assert np.array_equal(a, b)

    # law of large numbers: mean over many unlabeled points ~ mean bias
    big = rand_dataset(rs, 10_000, 3)
    got = random_match_scores(big, rec, spec, stream(9, 2))
    centered = got - naive_scores(big, spec)
    assert abs(centered.mean() - rec.biases.mean()) < 0.01


def test_nnm_r_reduces_to_nnm_at_u_one():
    rs = np.random.RandomState(7)
    lab = rand_dataset(rs, 30, 4)
    unl = rand_dataset(rs, 60, 4)
    det = ScoreSpec("aps")
    rand = ScoreSpec("aps", randomized=True)
    rec = build_labeled_records(lab, det)
    got = nnm_r_scores(unl, rec, rand, np.ones(60))
    assert np.array_equal(got, nnm_scores(unl, rec, det))


def test_nnm_r_hand_built_case_u_zero():
    # two classes; record and query built so every term is hand-checkable
    rand = ScoreSpec("aps", randomized=True)
    lab = ProbabilityDataset(probs=[[0.6, 0.4]], labels=[1])
    rec = build_labeled_records(lab, ScoreSpec("aps"))
    unl = ProbabilityDataset(probs=[[0.8, 0.2]])
    # u=0: own = rho(hat)=0; record true (y=1, rank2): rho=0.6; pseudo: rho=0
    got = nnm_r_scores(unl, rec, rand, np.zeros(1))
    assert got[0] == pytest.approx(0.0 + 0.6 - 0.0)


def test_nnm_r_matching_is_u_invariant():
    rs = np.random.RandomState(8)
    lab = rand_dataset(rs, 25, 4)
    unl = rand_dataset(rs, 50, 4)
    det = ScoreSpec("raps")
    rec = build_labeled_records(lab, det)
    matched = neighbor_match(unl, rec, det)
    for u_val in (0.0, 0.3, 0.9):
        got = nnm_r_scores(unl, rec, ScoreSpec("raps", randomized=True),
                           np.full(50, u_val))
        assert np.allclose(got, _nnm_r_reference(unl, rec, det, matched, u_val))


def _nnm_r_reference(unl, rec, det, matched, u_val):
    # rebuild from the deterministic match: proves the neighbor never moves
    from semicp.scores import score_components_batch
    a, b = score_components_batch(unl.probs, det)
    rows = np.arange(len(unl))
    hats = pseudo_labels(unl.probs)
    own = a[rows, hats] + b[rows, hats] * u_val
    corr = (rec.true_a[matched] - rec.pseudo_a[matched]) + \
        (rec.true_b[matched] - rec.pseudo_b[matched]) * u_val
    return own + corr


def test_neighbor_match_criteria():
    rs = np.random.RandomState(9)
    lab = rand_dataset(rs, 30, 4, with_channels=True)
    spec = ScoreSpec("thr")
    rec = build_labeled_records(lab, spec)

    # identical feature vectors: distance 0 match
    unl = ProbabilityDataset(probs=lab.probs[:5].copy(),
                             logits=lab.logits[:5].copy(),
                             features=lab.features[:5].copy())
    got = neighbor_match(unl, rec, spec, EstimatorSpec(criterion="feature"))
    assert np.array_equal(got, np.arange(5))

    # pseudo-score criterion agrees with nnm matching on random cases
    unl = rand_dataset(rs, 100, 4, with_channels=True)
    fast = neighbor_match(unl, rec, spec,
                          EstimatorSpec(criterion="pseudo_score"))
    brute = neighbor_match(unl, rec, spec,
                           EstimatorSpec(criterion="pseudo_score", k=2))
    assert np.array_equal(fast, brute[:, 0])

    # logit criterion equals an independent brute-force nearest neighbor
    unl = rand_dataset(rs, 50, 4, with_channels=True)
    got = neighbor_match(unl, rec, spec, EstimatorSpec(criterion="logit"))
    for i in range(50):
        d = np.sum((rec.logit_vectors - unl.logits[i]) ** 2, axis=1)
        assert got[i] == np.flatnonzero(d == d.min())[0]

    # missing channel is named in the error
    bare = ProbabilityDataset(probs=unl.probs)
    with pytest.raises(InputError, match="feature"):
        neighbor_match(bare, rec, spec, EstimatorSpec(criterion="feature"))


def test_knn_mean_bias():
    rec = records_from_arrays([0.1, 0.2, 0.9], [0.0, 0.4, 1.0])
    spec = ScoreSpec("thr")
    ds = ProbabilityDataset(probs=[[0.85, 0.15]])  # pseudo score 0.15
    got = nnm_scores(ds, rec, spec,
                     EstimatorSpec(criterion="pseudo_score", k=2))
    assert got[0] == pytest.approx(0.15 + (0.0 + 0.4) / 2)


def test_estimator_dispatch_and_errors():
    rs = np.random.RandomState(10)
    lab = rand_dataset(rs, 10, 3)
    unl = rand_dataset(rs, 20, 3)
    spec = ScoreSpec("thr")
    rec = build_labeled_records(lab, spec)
    for kind in ("nnm", "naive", "debias", "random_match"):
        got = estimate_scores(unl, rec, spec, EstimatorSpec(kind),
                              stream_key=stream(1, 2))
        assert got.shape == (20,)
    with pytest.raises(ConfigurationError):
        nnm_scores(unl, rec, ScoreSpec("aps", randomized=True))
    with pytest.raises(ConfigurationError):
        nnm_r_scores(unl, rec, spec, np.ones(20))
    with pytest.raises(EstimationError):
        build_labeled_records(ProbabilityDataset(
            probs=np.empty((0, 3)), labels=np.empty(0, dtype=int)), spec)
    with pytest.raises(ConfigurationError):
        neighbor_match(unl, rec, spec,
                       EstimatorSpec(criterion="pseudo_score", k=11))


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
    order = np.argsort(values, kind="stable")
    return values, queries, _match_sorted_1d(values[order], order, queries)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_match_sorted_1d_equals_bruteforce_under_heavy_ties(data):
    # eighths in [-4, 4]: every distance is exact, so ties in value and in
    # distance are real ties and the smaller original index must win
    values, queries, got = _tied_values_and_queries(
        data, st.integers(-32, 32).map(lambda i: i / 8))
    n = len(values)
    want = [min(range(n), key=lambda j: (abs(q - values[j]), j)) for q in queries]
    assert got.tolist() == want


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_match_sorted_1d_is_nearest_for_any_floats(data):
    values, queries, got = _tied_values_and_queries(data, st.floats(-10.0, 10.0))
    for q, j in zip(queries, got):
        assert abs(q - values[j]) == np.abs(q - values).min()
