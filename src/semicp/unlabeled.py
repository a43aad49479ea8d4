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

The estimators read only rows gathered from :class:`ScoreTables`
(:class:`PseudoScores` for the unlabeled samples, :class:`LabeledRecords`
for the labeled ones), so a data source is scored once and each pool drawn
from it only gathers rows.

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


def _criterion_vectors(tables, rows, kind: str) -> np.ndarray:
    """Vectors of the given rows under a non-pseudo-score neighbor criterion."""
    if kind == "confidence":
        return tables.confidences[rows][:, None]
    if kind == "score_vector":
        return tables.all_labels(rows)
    channel = {"logit": tables.dataset.logits,
               "feature": tables.dataset.features}[kind]
    if channel is None:
        raise InputError(f"neighbor criterion {kind!r} needs the {kind}s channel")
    return channel[rows]


@dataclass
class LabeledRecords:
    """Labeled calibration samples, ``rows`` of ``tables``, indexed for
    neighbor matching.

    ``pseudo_scores``/``true_scores``/``biases`` are the deterministic
    (u = 1) scores at the pseudo and the true label and their difference;
    matching always uses these.  ``sort_order`` sorts records by (pseudo
    score, original index).
    """

    tables: "ScoreTables"
    rows: np.ndarray
    pseudo_scores: np.ndarray
    true_scores: np.ndarray
    biases: np.ndarray
    sort_order: np.ndarray = field(init=False)
    sorted_pseudo: np.ndarray = field(init=False)

    def __post_init__(self):
        self.sort_order = np.argsort(self.pseudo_scores, kind="stable")
        self.sorted_pseudo = self.pseudo_scores[self.sort_order]

    def __len__(self):
        return self.pseudo_scores.shape[0]

    def mean_bias(self) -> float:
        return float(self.biases.mean())

    def true_at(self, u=None) -> np.ndarray:
        """True-label scores at one random factor per record."""
        if u is None:
            return self.true_scores
        return self.tables.at(self.rows, self.tables.dataset.labels[self.rows], u)

    def biases_at(self, matched, u=None) -> np.ndarray:
        """Biases of the ``matched`` records at one random factor per row of
        ``matched``; deterministic tables ignore u."""
        if u is None:
            return self.biases[matched]
        rows, tables = self.rows[matched], self.tables
        # S(xj, yj, u) - S(xj, yhat_j, u), so that u = 1 reproduces the
        # deterministic biases bit for bit
        return tables.at(rows, tables.dataset.labels[rows], u) - \
            tables.at(rows, tables.hats[rows], u)


class ScoreTables:
    """Score tables of one dataset, computed once so that every pool drawn
    from it only gathers rows.

    A deterministic spec keeps the single (m, K) table A + B; a randomized
    spec keeps A and B, so a score at random factor u is A + B * u.  Both
    keep the pseudo-labels and the confidences.  The tables take one or two
    times the memory of ``dataset.probs``.
    """

    def __init__(self, dataset: ProbabilityDataset, spec: ScoreSpec):
        self.dataset = dataset
        a, b = score_components_batch(dataset.probs, spec)
        if spec.randomized:
            self.a, self.b = a, b
        else:
            a += b  # a is a fresh array for every score kind
            self.a, self.b = a, None
        self.hats = pseudo_labels(dataset.probs)
        self.confidences = dataset.probs.max(axis=1)

    def at(self, rows, labels, u=None) -> np.ndarray:
        """Score of each row at one label; ``u`` is one draw per row, and
        without it affine tables give the deterministic (u = 1) scores.
        Deterministic tables ignore u."""
        if self.b is None:
            return self.a[rows, labels]
        b = self.b[rows, labels]
        return self.a[rows, labels] + (b if u is None else b * u)

    def all_labels(self, rows, u=None) -> np.ndarray:
        """Scores of every label of the rows; ``u`` is one draw per row, and
        without it affine tables give the deterministic (u = 1) scores."""
        if self.b is None:
            return self.a[rows]
        b = self.b[rows]
        return self.a[rows] + (b if u is None else b * u[:, None])

    def records(self, rows) -> LabeledRecords:
        """Labeled records of the given (fully labeled) rows."""
        labels = self.dataset.labels[rows]
        if np.any(labels < 0):
            raise InputError("labeled dataset has rows without labels")
        true = self.at(rows, labels)
        pseudo = self.at(rows, self.hats[rows])
        return LabeledRecords(self, rows, pseudo, true, true - pseudo)

    def queries(self, rows) -> "PseudoScores":
        """Estimator input for the given unlabeled rows."""
        return PseudoScores(self, rows)


class PseudoScores:
    """Unlabeled samples' scores at their pseudo-labels, ``rows`` of
    ``tables``: with the labeled records, everything an estimator reads.

    ``det`` is the deterministic (u = 1) score.
    """

    def __init__(self, tables: ScoreTables, rows):
        self.tables, self.rows = tables, rows
        self.det = tables.at(rows, tables.hats[rows])

    def __len__(self):
        return self.det.shape[0]

    def at(self, u=None) -> np.ndarray:
        """Scores at one random factor per sample; deterministic tables
        ignore u."""
        if u is None:
            return self.det
        return self.tables.at(self.rows, self.tables.hats[self.rows], u)


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


def neighbor_match(pseudo: PseudoScores, records: LabeledRecords,
                   estimator: EstimatorSpec = EstimatorSpec()) -> np.ndarray:
    """Matched record indices per unlabeled sample.

    Returns shape (N,) for k = 1 and (N, k) otherwise, ordered nearest
    first.  Ties are broken by the smaller original record index.
    """
    if len(records) == 0:
        raise EstimationError("cannot match against an empty labeled set")
    if estimator.k > len(records):
        raise ConfigurationError(
            f"k={estimator.k} exceeds the {len(records)} labeled records")
    if estimator.criterion == "pseudo_score" and estimator.k == 1:
        return _match_sorted_1d(records.sorted_pseudo, records.sort_order,
                                pseudo.det)

    if estimator.criterion == "pseudo_score":
        q = pseudo.det[:, None]
        r = records.pseudo_scores[:, None]
    else:
        q = _criterion_vectors(pseudo.tables, pseudo.rows, estimator.criterion)
        r = _criterion_vectors(records.tables, records.rows, estimator.criterion)
    q = np.asarray(q, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if q.shape[1] != r.shape[1]:
        raise InputError("query and record vectors differ in dimension")

    def dist2(start, stop):
        diff = q[start:stop, None, :] - r[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)

    matched = _knn_bruteforce(dist2, len(records), q.shape[0], estimator.k)
    return matched[:, 0] if estimator.k == 1 else matched


def naive_scores(pseudo: PseudoScores, spec: ScoreSpec, u=None) -> np.ndarray:
    """Pseudo score of each unlabeled sample, uncorrected."""
    if spec.randomized:
        if u is None:
            raise ConfigurationError("randomized spec requires u factors")
        return pseudo.at(np.asarray(u, dtype=np.float64))
    if u is not None:
        raise ConfigurationError("u factors supplied for a deterministic spec")
    return pseudo.det


def _require_deterministic(spec: ScoreSpec, name: str):
    if spec.randomized:
        raise ConfigurationError(
            f"{name} is defined for deterministic scores; use nnm_r for "
            "randomized specs")


def _matched_scores(pseudo, records, estimator, u=None) -> np.ndarray:
    """Own score at u plus the matched records' bias at u, averaged over the
    k nearest; deterministic tables ignore u."""
    matched = neighbor_match(pseudo, records, estimator)
    bias = records.biases_at(matched, u)
    if matched.ndim == 2:
        bias = bias.mean(axis=1)
    return pseudo.at(u) + bias


def nnm_scores(pseudo: PseudoScores, records: LabeledRecords, spec: ScoreSpec,
               estimator: EstimatorSpec = EstimatorSpec()) -> np.ndarray:
    """Nearest-neighbor-matched scores: pseudo score + matched record bias.

    With ``estimator.k > 1`` the arithmetic mean of the k nearest records'
    biases is added instead.
    """
    _require_deterministic(spec, "nnm")
    return _matched_scores(pseudo, records, estimator)


def debias_scores(pseudo: PseudoScores, records: LabeledRecords,
                  spec: ScoreSpec) -> np.ndarray:
    """Pseudo scores shifted by the global mean labeled bias."""
    _require_deterministic(spec, "debias")
    if len(records) == 0:
        raise EstimationError("cannot debias against an empty labeled set")
    return pseudo.det + records.mean_bias()


def random_match_scores(pseudo: PseudoScores, records: LabeledRecords,
                        spec: ScoreSpec, stream_key) -> np.ndarray:
    """Pseudo scores corrected by a uniformly drawn record's bias.

    Draws are independent per unlabeled sample, with replacement, indexed by
    sample position on the given stream.
    """
    _require_deterministic(spec, "random_match")
    if len(records) == 0:
        raise EstimationError("cannot match against an empty labeled set")
    draws = rng.integers(stream_key, np.arange(len(pseudo)), len(records))
    return pseudo.det + records.biases[draws]


def nnm_r_scores(pseudo: PseudoScores, records: LabeledRecords, spec: ScoreSpec,
                 u, estimator: EstimatorSpec = EstimatorSpec("nnm_r")) -> np.ndarray:
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
    if u.shape[0] != len(pseudo):
        raise InputError("one random factor per unlabeled sample is required")
    return _matched_scores(pseudo, records, estimator, u)


def estimate_scores(pseudo: PseudoScores, records: LabeledRecords,
                    spec: ScoreSpec, estimator: EstimatorSpec, stream_key=None,
                    u=None) -> np.ndarray:
    """Dispatch to the requested estimator (runner entry point)."""
    if len(pseudo) == 0:
        return np.empty(0, dtype=np.float64)
    if estimator.kind == "naive":
        return naive_scores(pseudo, spec, u if spec.randomized else None)
    if estimator.kind == "debias":
        return debias_scores(pseudo, records, spec)
    if estimator.kind == "random_match":
        if stream_key is None:
            raise ConfigurationError("random_match needs an rng stream")
        return random_match_scores(pseudo, records, spec, stream_key)
    if estimator.kind == "nnm_r":
        if u is None:
            raise ConfigurationError("nnm_r needs per-sample u factors")
        return nnm_r_scores(pseudo, records, spec, u, estimator)
    return nnm_scores(pseudo, records, spec, estimator)
