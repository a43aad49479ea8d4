import tracemalloc

import numpy as np
import pytest

from semicp import scores
from semicp.dataset import ProbabilityDataset
from semicp.errors import ConfigurationError, InputError
from semicp.scores import ScoreSpec, rank_and_cummass_batch, score_components_batch
from semicp.unlabeled import ScoreTables


def random_prob_rows(rs, m, k):
    raw = rs.gamma(1.0, size=(m, k))
    return raw / raw.sum(axis=1, keepdims=True)


def all_labels(rows, spec, u=None):
    """Scores of every label of the rows, read off their score tables."""
    return ScoreTables(ProbabilityDataset(rows), spec).all_labels(
        np.arange(len(rows)), None if u is None else np.asarray(u))


def score_at(p, y, spec, u=None):
    """Score of one probability row at label y."""
    return all_labels([p], spec, None if u is None else [u])[0, y]


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
    got = all_labels([[0.7, 0.2, 0.1]], ScoreSpec("thr"))[0]
    assert np.allclose(got, [0.3, 0.8, 0.9])
    got = all_labels([[0.5, 0.3, 0.2]], ScoreSpec("aps"))[0]
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
        batch = all_labels(rows, spec, u if use_u else None)
        for i in range(rows.shape[0]):
            for y in range(rows.shape[1]):
                ref = score_at(rows[i], y, spec, u[i] if use_u else None)
                assert batch[i, y] == ref


def test_deterministic_equals_randomized_at_u_one():
    rs = np.random.RandomState(1)
    rows = random_prob_rows(rs, 50, 6)
    ones = np.ones(50)
    for kind in ("aps", "raps", "saps"):
        det = all_labels(rows, ScoreSpec(kind))
        rand = all_labels(rows, ScoreSpec(kind, randomized=True), ones)
        assert np.array_equal(det, rand)


def test_monotonicity_invariants():
    rs = np.random.RandomState(2)
    rows = random_prob_rows(rs, 50, 7)
    all_ranks, _ = rank_and_cummass_batch(rows)
    for kind in ("aps", "raps"):
        scores = all_labels(rows, ScoreSpec(kind))
        for i in range(50):
            by_rank = scores[i][np.argsort(all_ranks[i])]
            assert np.all(np.diff(by_rank) >= -1e-15)
    thr = all_labels(rows, ScoreSpec("thr"))
    order = np.argsort(rows, axis=1)
    for i in range(50):
        assert np.all(np.diff(thr[i][order[i]]) <= 1e-15)


def test_aps_range_invariant():
    rs = np.random.RandomState(3)
    rows = random_prob_rows(rs, 200, 9)
    scores = all_labels(rows, ScoreSpec("aps"))
    assert np.allclose(scores.min(axis=1), rows.max(axis=1), atol=1e-12)
    assert np.allclose(scores.max(axis=1), 1.0, atol=1e-12)


def test_scores_at_labels_matches_batch():
    rs = np.random.RandomState(4)
    rows = random_prob_rows(rs, 30, 4)
    labels = rs.randint(4, size=30)
    spec = ScoreSpec("aps")
    batch = all_labels(rows, spec)
    tables = ScoreTables(ProbabilityDataset(rows, labels), spec)
    got = tables.true(np.arange(30))
    assert np.array_equal(got, batch[np.arange(30), labels])
    got = tables.pseudo(np.arange(30))
    assert np.array_equal(got, batch[np.arange(30), rows.argmax(axis=1)])


def test_error_cases():
    with pytest.raises(InputError):
        ProbabilityDataset([[0.5, 0.4]])  # sums to 0.9
    with pytest.raises(ConfigurationError):
        ScoreSpec("nope")
    with pytest.raises(ConfigurationError):
        ScoreSpec("thr", randomized=True)


def one_shot_components(probs, spec):
    # the whole-batch computation, before scores were built in row blocks,
    # kept as the oracle of the blocked one
    probs = np.asarray(probs, dtype=np.float64)
    if spec.kind == "thr":
        return 1.0 - probs, np.zeros_like(probs)
    ranks, rho = rank_and_cummass_batch(probs)
    if spec.kind == "aps":
        return rho, probs
    if spec.kind == "raps":
        penalty = spec.lam * np.maximum(0, ranks - spec.k_reg)
        return rho + penalty, probs
    p_max = probs.max(axis=1, keepdims=True)
    a = p_max + spec.weight * (ranks - 2)
    b = np.full_like(probs, spec.weight)
    top = ranks == 1
    a[top] = 0.0
    b[top] = np.broadcast_to(p_max, probs.shape)[top]
    return a, b


BLOCK_SPECS = [ScoreSpec("thr")] + [
    ScoreSpec(kind, k_reg=1, lam=0.3, weight=0.2, randomized=randomized)
    for kind in ("aps", "raps", "saps") for randomized in (False, True)]


@pytest.mark.parametrize("spec", BLOCK_SPECS,
                         ids=lambda s: s.kind + ("_rand" if s.randomized else ""))
@pytest.mark.parametrize("rows_per_block", [1, 2])
@pytest.mark.parametrize("m", [0, 1, 7])
def test_block_edges_change_no_bit(monkeypatch, spec, rows_per_block, m):
    k = 5
    rs = np.random.RandomState(m)
    probs = random_prob_rows(rs, m, k)
    probs[1::2, 1] = probs[1::2, 0]  # tied classes in every other row
    probs /= probs.sum(axis=1, keepdims=True)
    # at two rows a block, 7 rows end in a partial block of one
    monkeypatch.setattr(scores, "BLOCK_CELLS", rows_per_block * k + 1)
    a, b = score_components_batch(probs, spec)
    a_ref, b_ref = one_shot_components(probs, spec)
    assert a.shape == b.shape == (m, k)
    assert a.tobytes() == a_ref.tobytes()
    assert np.ascontiguousarray(b).tobytes() == b_ref.tobytes()


def test_thr_b_is_a_read_only_zero_view():
    rs = np.random.RandomState(5)
    probs = random_prob_rows(rs, 40, 6)
    a, b = score_components_batch(probs, ScoreSpec("thr"))
    assert b.shape == (40, 6) and not b.flags.writeable
    assert np.all(b == 0.0)
    assert (a + b).tobytes() == (1.0 - probs).tobytes()


@pytest.mark.parametrize("spec", [ScoreSpec("raps", randomized=True),
                                  ScoreSpec("thr")], ids=["raps_rand", "thr"])
def test_score_tables_build_holds_one_block_not_whole_arrays(spec):
    # 60,000 x 10 rows: one (m, K) array is 4.8 MB and one block 0.26 MB.
    # Whole-batch scoring held two to three more (m, K) arrays while it ran
    # (one for thr, its zero B); blocked scoring holds one block of them.
    m, k = 60_000, 10
    rs = np.random.RandomState(6)
    dataset = ProbabilityDataset(random_prob_rows(rs, m, k),
                                 rs.randint(k, size=m))
    ScoreTables(ProbabilityDataset(dataset.probs[:100], dataset.labels[:100]),
                spec)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tables = ScoreTables(dataset, spec)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_bytes = (1 << 15) * 8  # one block of float64 cells
    assert kept - start >= m * k * 8  # A is kept
    assert peak - kept < 4 * block_bytes < m * k * 8 / 4
    del tables
