import numpy as np
import pytest

from semicp.dataset import ProbabilityDataset
from semicp.errors import ConfigurationError, InputError
from semicp.scores import ScoreSpec, rank_and_cummass_batch, score_all_labels_batch
from semicp.unlabeled import ScoreTables


def random_prob_rows(rs, m, k):
    raw = rs.gamma(1.0, size=(m, k))
    return raw / raw.sum(axis=1, keepdims=True)


def score_at(p, y, spec, u=None):
    """Score of one probability row at label y, read off the batch."""
    return score_all_labels_batch([p], spec, None if u is None else [u])[0, y]


def test_rank_and_cummass_examples():
    ranks, rho = rank_and_cummass_batch([[0.5, 0.3, 0.2], [0.4, 0.4, 0.2],
                                         [1 / 3, 1 / 3, 1 / 3]])
    assert ranks.tolist() == [[1, 2, 3]] * 3
    assert np.allclose(rho[0], [0.0, 0.5, 0.8])
    assert np.allclose(rho[1], [0.0, 0.4, 0.8])
    assert np.allclose(rho[2], [0.0, 1 / 3, 2 / 3])


def test_score_label_examples():
    assert score_at([0.7, 0.2, 0.1], 0, ScoreSpec("thr")) == pytest.approx(0.3)
    assert score_at([0.5, 0.3, 0.2], 1, ScoreSpec("aps")) == pytest.approx(0.8)
    assert score_at([0.5, 0.3, 0.2], 2,
                    ScoreSpec("raps", k_reg=2, lam=0.01)) == pytest.approx(1.01)


def saps_reference(p, y, weight, u):
    # straight-line transcription of the saps formula, kept independent of
    # the implementation under test
    p = np.asarray(p, dtype=float)
    order = sorted(range(len(p)), key=lambda j: (-p[j], j))
    rank = order.index(y) + 1
    p_max = p[order[0]]
    if rank == 1:
        return u * p_max
    return p_max + weight * (rank - 2 + u)


def test_saps_randomized_against_reference():
    spec = ScoreSpec("saps", weight=0.01, randomized=True)
    p = [0.5, 0.3, 0.2]
    assert score_at(p, 1, spec, u=0.5) == pytest.approx(0.505)
    rs = np.random.RandomState(7)
    for _ in range(200):
        k = rs.randint(2, 8)
        row = random_prob_rows(rs, 1, k)[0]
        y = rs.randint(k)
        u = rs.rand()
        assert score_at(row, y, spec, u=u) == pytest.approx(
            saps_reference(row, y, 0.01, u), abs=1e-12)


def test_score_all_labels_examples():
    got = score_all_labels_batch([[0.7, 0.2, 0.1]], ScoreSpec("thr"))[0]
    assert np.allclose(got, [0.3, 0.8, 0.9])
    got = score_all_labels_batch([[0.5, 0.3, 0.2]], ScoreSpec("aps"))[0]
    assert np.allclose(got, [0.5, 0.8, 1.0])


def test_batch_matches_per_label_calls_bitwise():
    rs = np.random.RandomState(0)
    rows = random_prob_rows(rs, 100, 5)
    u = rs.rand(100)
    for spec, use_u in [(ScoreSpec("thr"), False),
                        (ScoreSpec("aps"), False),
                        (ScoreSpec("raps"), False),
                        (ScoreSpec("saps"), False),
                        (ScoreSpec("aps", randomized=True), True),
                        (ScoreSpec("raps", randomized=True), True),
                        (ScoreSpec("saps", randomized=True), True)]:
        batch = score_all_labels_batch(rows, spec, u if use_u else None)
        for i in range(rows.shape[0]):
            for y in range(rows.shape[1]):
                ref = score_at(rows[i], y, spec, u[i] if use_u else None)
                assert batch[i, y] == ref


def test_deterministic_equals_randomized_at_u_one():
    rs = np.random.RandomState(1)
    rows = random_prob_rows(rs, 50, 6)
    ones = np.ones(50)
    for kind in ("aps", "raps", "saps"):
        det = score_all_labels_batch(rows, ScoreSpec(kind))
        rand = score_all_labels_batch(rows, ScoreSpec(kind, randomized=True), ones)
        assert np.array_equal(det, rand)


def test_monotonicity_invariants():
    rs = np.random.RandomState(2)
    rows = random_prob_rows(rs, 50, 7)
    all_ranks, _ = rank_and_cummass_batch(rows)
    for kind in ("aps", "raps"):
        scores = score_all_labels_batch(rows, ScoreSpec(kind))
        for i in range(50):
            by_rank = scores[i][np.argsort(all_ranks[i])]
            assert np.all(np.diff(by_rank) >= -1e-15)
    thr = score_all_labels_batch(rows, ScoreSpec("thr"))
    order = np.argsort(rows, axis=1)
    for i in range(50):
        assert np.all(np.diff(thr[i][order[i]]) <= 1e-15)


def test_aps_range_invariant():
    rs = np.random.RandomState(3)
    rows = random_prob_rows(rs, 200, 9)
    scores = score_all_labels_batch(rows, ScoreSpec("aps"))
    assert np.allclose(scores.min(axis=1), rows.max(axis=1), atol=1e-12)
    assert np.allclose(scores.max(axis=1), 1.0, atol=1e-12)


def test_scores_at_labels_matches_batch():
    rs = np.random.RandomState(4)
    rows = random_prob_rows(rs, 30, 4)
    labels = rs.randint(4, size=30)
    spec = ScoreSpec("aps")
    batch = score_all_labels_batch(rows, spec)
    got = ScoreTables(ProbabilityDataset(rows), spec).at(np.arange(30), labels)
    assert np.array_equal(got, batch[np.arange(30), labels])


def test_error_cases():
    with pytest.raises(ConfigurationError):
        score_all_labels_batch([[0.5, 0.5]], ScoreSpec("aps", randomized=True))
    with pytest.raises(ConfigurationError):
        score_all_labels_batch([[0.5, 0.5]], ScoreSpec("aps"), u=[0.5])
    with pytest.raises(InputError):
        ProbabilityDataset([[0.5, 0.4]])  # sums to 0.9
    with pytest.raises(ConfigurationError):
        ScoreSpec("nope")
    with pytest.raises(ConfigurationError):
        ScoreSpec("thr", randomized=True)
