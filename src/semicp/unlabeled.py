"""Nonconformity score estimation for unlabeled samples.

An unlabeled sample only has a pseudo score: the score of its pseudo-label
(the argmax class).  That underestimates the true score, because the
pseudo-label is the model's most confident class.  The estimators here
correct the pseudo score with a bias learned from labeled data, where the
gap between true and pseudo score is observable:

* ``naive``        : no correction
* ``debias``       : add the mean labeled bias
* ``random_match`` : add the bias of a uniformly drawn labeled record
* ``nnm``          : add the bias of the labeled record whose pseudo score
  is nearest (nearest-neighbor matching); with k > 1 the mean bias of the
  k nearest records is added
* ``nnm_r``        : randomized-score variant of nnm; the neighbor is still
  matched on deterministic pseudo scores, but all three score terms are
  re-evaluated at the unlabeled sample's own random factor u

The estimators read only gathered values (:class:`PseudoScores` for the
unlabeled samples, :class:`LabeledRecords` for the labeled ones), so a data
source is scored once into :class:`ScoreTables` and each pool drawn from it
only gathers rows.  Given a dataset instead of :class:`PseudoScores`, an
estimator scores it first.

Nearest-neighbor matching on pseudo scores uses binary search over a sorted
copy, so estimating N samples against n records costs O((n+N) log n).
Distance ties are broken by the smaller original record index.  Alternative
neighbor criteria (confidence, full score vector, logits, features) use
Euclidean distance and are intended for desk-scale ablations.
"""

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .dataset import ProbabilityDataset
from .errors import ConfigurationError, EstimationError, InputError
from .scores import ScoreSpec, score_components_batch

ESTIMATOR_KINDS = ("nnm", "nnm_r", "naive", "debias", "random_match")
CRITERION_KINDS = ("pseudo_score", "confidence", "score_vector", "logit", "feature")

_CHUNK_CELLS = 1 << 25  # cap on brute-force distance-matrix cells per chunk


@dataclass(frozen=True)
class EstimatorSpec:
    """Which unlabeled-score estimator to run; the matching estimators
    select the ``k`` nearest labeled records under ``criterion``."""

    kind: str = "nnm"
    k: int = 1
    criterion: str = "pseudo_score"

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ConfigurationError(f"unknown estimator {self.kind!r}")
        if self.criterion not in CRITERION_KINDS:
            raise ConfigurationError(f"unknown neighbor criterion {self.criterion!r}")
        if self.k < 1:
            raise ConfigurationError("neighbor count k must be >= 1")


def pseudo_labels(probs) -> np.ndarray:
    """Argmax class per row, ties broken by lowest class index."""
    return np.argmax(np.asarray(probs, dtype=np.float64), axis=1).astype(np.int64)


def pseudo_label(p) -> int:
    """Pseudo-label of a single probability row."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise InputError("expected a single probability row")
    return int(np.argmax(p))


@dataclass
class LabeledRecords:
    """Scored labeled calibration samples, indexed for neighbor matching.

    Scores are stored in affine form (value = a + b * u) at both the true
    and the pseudo label, so randomized estimators can re-evaluate them at
    an arbitrary random factor; records gathered from deterministic
    :class:`ScoreTables` leave the affine parts None.
    ``pseudo_scores``/``true_scores``/``biases`` are the deterministic
    (u = 1) values; matching always uses these.  ``sort_order`` sorts
    records by (pseudo score, original index).
    """

    pseudo_scores: np.ndarray
    true_scores: np.ndarray
    biases: np.ndarray
    pseudo_labels: np.ndarray
    confidences: np.ndarray
    true_a: np.ndarray
    true_b: np.ndarray
    pseudo_a: np.ndarray
    pseudo_b: np.ndarray
    score_vectors: np.ndarray
    logit_vectors: np.ndarray = None
    feature_vectors: np.ndarray = None
    sort_order: np.ndarray = field(init=False)
    sorted_pseudo: np.ndarray = field(init=False)

    def __post_init__(self):
        self.sort_order = np.argsort(self.pseudo_scores, kind="stable")
        self.sorted_pseudo = self.pseudo_scores[self.sort_order]

    def __len__(self):
        return self.pseudo_scores.shape[0]

    def mean_bias(self) -> float:
        return float(self.biases.mean())


class ScoreTables:
    """Score tables of one dataset, computed once so that every pool drawn
    from it only gathers rows.

    A deterministic spec keeps the single (m, K) table A + B; a randomized
    spec keeps A and B, so a score at random factor u is A + B * u.  Both
    keep the pseudo-labels and the confidences.  The tables take one or two
    times the memory of ``dataset.probs``.
    """

    def __init__(self, dataset: ProbabilityDataset, spec: ScoreSpec,
                 affine: bool = None):
        """``affine`` keeps A and B apart even for a deterministic spec
        (default: only for a randomized one)."""
        self.dataset = dataset
        a, b = score_components_batch(dataset.probs, spec)
        if spec.randomized if affine is None else affine:
            self.a, self.b = a, b
        else:
            a += b  # a is a fresh array for every score kind
            self.a, self.b = a, None
        self.hats = pseudo_labels(dataset.probs)
        self.confidences = dataset.probs.max(axis=1)

    def at(self, rows, labels, u=None) -> np.ndarray:
        """Score of each row at one label; ``u`` (one draw per row) is
        required by affine tables and ignored otherwise."""
        if self.b is None:
            return self.a[rows, labels]
        return self.a[rows, labels] + self.b[rows, labels] * u

    def all_labels(self, rows, u=None) -> np.ndarray:
        """Scores of every label of the rows; ``u`` is one draw per row, and
        without it affine tables give the deterministic (u = 1) scores."""
        if self.b is None:
            return self.a[rows]
        b = self.b[rows]
        return self.a[rows] + (b if u is None else b * u[:, None])

    def _parts(self, rows, labels):
        """(A, B, A + B) at one label per row; A and B are None when the
        table holds only the sum."""
        if self.b is None:
            return None, None, self.a[rows, labels]
        a, b = self.a[rows, labels], self.b[rows, labels]
        return a, b, a + b

    def records(self, rows) -> LabeledRecords:
        """Labeled records of the given (fully labeled) rows."""
        hats = self.hats[rows]
        true_a, true_b, true = self._parts(rows, self.dataset.labels[rows])
        pseudo_a, pseudo_b, pseudo = self._parts(rows, hats)
        ds = self.dataset
        return LabeledRecords(
            pseudo_scores=pseudo, true_scores=true, biases=true - pseudo,
            pseudo_labels=hats, confidences=self.confidences[rows],
            true_a=true_a, true_b=true_b, pseudo_a=pseudo_a, pseudo_b=pseudo_b,
            score_vectors=self.all_labels(rows),
            logit_vectors=None if ds.logits is None else ds.logits[rows],
            feature_vectors=None if ds.features is None else ds.features[rows])

    def queries(self, rows) -> "PseudoScores":
        """Estimator input for the given unlabeled rows."""
        a, b, det = self._parts(rows, self.hats[rows])
        return PseudoScores(det, a, b, self, rows)


@dataclass
class PseudoScores:
    """Unlabeled samples' scores at their pseudo-labels: with the labeled
    records, everything an estimator reads.

    ``det`` is the deterministic (u = 1) score and ``a``/``b`` are its
    affine parts (affine tables only), for ``rows`` of ``tables``.
    """

    det: np.ndarray
    a: np.ndarray
    b: np.ndarray
    tables: ScoreTables
    rows: np.ndarray

    def __len__(self):
        return self.det.shape[0]

    def vectors(self, kind: str) -> np.ndarray:
        """Query vectors for a non-pseudo-score neighbor criterion."""
        if kind == "confidence":
            return self.tables.confidences[self.rows][:, None]
        if kind == "score_vector":
            return self.tables.all_labels(self.rows)
        channel = {"logit": self.tables.dataset.logits,
                   "feature": self.tables.dataset.features}[kind]
        if channel is None:
            raise InputError(f"neighbor criterion {kind!r} needs the "
                             f"{kind}s channel")
        return channel[self.rows]


def build_labeled_records(labeled: ProbabilityDataset, spec: ScoreSpec) -> LabeledRecords:
    """Score a fully labeled dataset and index it for matching."""
    if len(labeled) == 0:
        raise EstimationError("labeled calibration set is empty")
    if not labeled.fully_labeled:
        raise InputError("labeled dataset has rows without labels")
    return ScoreTables(labeled, spec, affine=True).records(np.arange(len(labeled)))


def _pseudo(unlabeled, spec: ScoreSpec) -> PseudoScores:
    """Estimator input: ``unlabeled`` itself when it is already gathered
    :class:`PseudoScores`, otherwise the scores of a whole dataset."""
    if isinstance(unlabeled, PseudoScores):
        return unlabeled
    return ScoreTables(unlabeled, spec).queries(np.arange(len(unlabeled)))


def _match_sorted_1d(sorted_vals, sort_order, queries):
    """Nearest record per query over values pre-sorted ascending.

    ``sort_order`` maps sorted positions back to original record indices;
    because the sort is stable, the first element of an equal-value run has
    the smallest original index, which implements the tie rule.
    """
    n = sorted_vals.shape[0]
    q = np.asarray(queries, dtype=np.float64)
    pos = np.searchsorted(sorted_vals, q, side="left")
    run_start = np.searchsorted(sorted_vals, sorted_vals, side="left")

    left = np.clip(pos - 1, 0, n - 1)
    right = np.clip(pos, 0, n - 1)
    d_left = np.where(pos > 0, np.abs(q - sorted_vals[left]), np.inf)
    d_right = np.where(pos < n, np.abs(q - sorted_vals[right]), np.inf)
    # Any candidate shares its distance with its whole equal-value run, so
    # compare run representatives (run starts hold the smallest indices).
    left_c = run_start[left]
    take_left = (d_left < d_right) | (
        (d_left == d_right) & (sort_order[left_c] < sort_order[right])
    )
    return sort_order[np.where(take_left, left_c, right)]


def _knn_bruteforce(dist2_fn, n_records, queries_count, k):
    """Rowwise k smallest by (distance, original index), chunked over queries."""
    out = np.empty((queries_count, k), dtype=np.int64)
    chunk = max(1, _CHUNK_CELLS // max(n_records, 1))
    orig = np.arange(n_records)
    for start in range(0, queries_count, chunk):
        stop = min(start + chunk, queries_count)
        d2 = dist2_fn(start, stop)
        order = np.lexsort((np.broadcast_to(orig, d2.shape), d2), axis=-1)
        out[start:stop] = order[:, :k]
    return out


def _record_vectors(records: LabeledRecords, kind: str):
    """Per-record vectors for a non-pseudo-score neighbor criterion."""
    if kind == "confidence":
        return records.confidences[:, None]
    if kind == "score_vector":
        return records.score_vectors
    vectors = {"logit": records.logit_vectors,
               "feature": records.feature_vectors}[kind]
    if vectors is None:
        raise InputError(f"neighbor criterion {kind!r} needs the {kind}s channel")
    return vectors


def neighbor_match(unlabeled, records: LabeledRecords, spec: ScoreSpec,
                   estimator: EstimatorSpec = EstimatorSpec()) -> np.ndarray:
    """Matched record indices per unlabeled sample.

    ``unlabeled`` is a :class:`ProbabilityDataset` or :class:`PseudoScores`;
    the same holds for the estimators below.
    Returns shape (N,) for k = 1 and (N, k) otherwise, ordered nearest
    first.  Ties are broken by the smaller original record index.
    """
    if len(records) == 0:
        raise EstimationError("cannot match against an empty labeled set")
    if estimator.k > len(records):
        raise ConfigurationError(
            f"k={estimator.k} exceeds the {len(records)} labeled records")
    pseudo = _pseudo(unlabeled, spec)
    if estimator.criterion == "pseudo_score" and estimator.k == 1:
        return _match_sorted_1d(records.sorted_pseudo, records.sort_order,
                                pseudo.det)

    if estimator.criterion == "pseudo_score":
        q = pseudo.det[:, None]
        r = records.pseudo_scores[:, None]
    else:
        q = pseudo.vectors(estimator.criterion)
        r = _record_vectors(records, estimator.criterion)
    q = np.asarray(q, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if q.shape[1] != r.shape[1]:
        raise InputError("query and record vectors differ in dimension")

    def dist2(start, stop):
        diff = q[start:stop, None, :] - r[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)

    matched = _knn_bruteforce(dist2, len(records), q.shape[0], estimator.k)
    return matched[:, 0] if estimator.k == 1 else matched


def deterministic_pseudo_scores(unlabeled, spec: ScoreSpec) -> np.ndarray:
    """Deterministic (u = 1) score of each sample at its pseudo-label."""
    return _pseudo(unlabeled, spec).det


def naive_scores(unlabeled, spec: ScoreSpec, u=None) -> np.ndarray:
    """Pseudo score of each unlabeled sample, uncorrected."""
    pseudo = _pseudo(unlabeled, spec)
    if spec.randomized:
        if u is None:
            raise ConfigurationError("randomized spec requires u factors")
        return pseudo.a + pseudo.b * np.asarray(u, dtype=np.float64)
    if u is not None:
        raise ConfigurationError("u factors supplied for a deterministic spec")
    return pseudo.det


def _require_deterministic(spec: ScoreSpec, name: str):
    if spec.randomized:
        raise ConfigurationError(
            f"{name} is defined for deterministic scores; use nnm_r for "
            "randomized specs")


def nnm_scores(unlabeled, records: LabeledRecords, spec: ScoreSpec,
               estimator: EstimatorSpec = EstimatorSpec()) -> np.ndarray:
    """Nearest-neighbor-matched scores: pseudo score + matched record bias.

    With ``estimator.k > 1`` the arithmetic mean of the k nearest records'
    biases is added instead.
    """
    _require_deterministic(spec, "nnm")
    pseudo = _pseudo(unlabeled, spec)
    matched = neighbor_match(pseudo, records, spec, estimator)
    if estimator.k == 1:
        bias = records.biases[matched]
    else:
        bias = records.biases[matched].mean(axis=1)
    return pseudo.det + bias


def debias_scores(unlabeled, records: LabeledRecords, spec: ScoreSpec) -> np.ndarray:
    """Pseudo scores shifted by the global mean labeled bias."""
    _require_deterministic(spec, "debias")
    if len(records) == 0:
        raise EstimationError("cannot debias against an empty labeled set")
    return deterministic_pseudo_scores(unlabeled, spec) + records.mean_bias()


def random_match_scores(unlabeled, records: LabeledRecords, spec: ScoreSpec,
                        stream_key) -> np.ndarray:
    """Pseudo scores corrected by a uniformly drawn record's bias.

    Draws are independent per unlabeled sample, with replacement, indexed by
    sample position on the given stream.
    """
    _require_deterministic(spec, "random_match")
    if len(records) == 0:
        raise EstimationError("cannot match against an empty labeled set")
    det = deterministic_pseudo_scores(unlabeled, spec)
    draws = rng.integers(stream_key, np.arange(det.shape[0]), len(records))
    return det + records.biases[draws]


def nnm_r_scores(unlabeled, records: LabeledRecords, spec: ScoreSpec, u,
                 estimator: EstimatorSpec = EstimatorSpec("nnm_r")) -> np.ndarray:
    """Randomized nearest-neighbor-matched scores.

    The neighbor is matched on deterministic pseudo scores; the sample's own
    random factor u is then applied to all three score terms:
    S(x, y_hat, u) + S(x_j, y_j, u) - S(x_j, y_hat_j, u).
    """
    if not spec.randomized:
        raise ConfigurationError("nnm_r requires a randomized score spec")
    if estimator.k != 1:
        raise ConfigurationError("nnm_r uses a single matched neighbor")
    u = np.asarray(u, dtype=np.float64)
    if u.shape[0] != len(unlabeled):
        raise InputError("one random factor per unlabeled sample is required")
    pseudo = _pseudo(unlabeled, spec)
    matched = neighbor_match(pseudo, records, spec, estimator)
    own = pseudo.a + pseudo.b * u
    # evaluated as S(xj, yj, u) - S(xj, yhat_j, u) so that u = 1 reproduces
    # the deterministic biases bit for bit
    correction = (records.true_a[matched] + records.true_b[matched] * u) - \
        (records.pseudo_a[matched] + records.pseudo_b[matched] * u)
    return own + correction


def estimate_scores(unlabeled, records: LabeledRecords, spec: ScoreSpec,
                    estimator: EstimatorSpec, stream_key=None, u=None) -> np.ndarray:
    """Dispatch to the requested estimator (runner entry point)."""
    if len(unlabeled) == 0:
        return np.empty(0, dtype=np.float64)
    unlabeled = _pseudo(unlabeled, spec)
    if estimator.kind == "naive":
        return naive_scores(unlabeled, spec, u if spec.randomized else None)
    if estimator.kind == "debias":
        return debias_scores(unlabeled, records, spec)
    if estimator.kind == "random_match":
        if stream_key is None:
            raise ConfigurationError("random_match needs an rng stream")
        return random_match_scores(unlabeled, records, spec, stream_key)
    if estimator.kind == "nnm_r":
        if u is None:
            raise ConfigurationError("nnm_r needs per-sample u factors")
        return nnm_r_scores(unlabeled, records, spec, u, estimator)
    return nnm_scores(unlabeled, records, spec, estimator)
