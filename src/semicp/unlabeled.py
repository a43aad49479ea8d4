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

:func:`estimate_scores` runs every estimator, and :func:`check_estimator`
decides which estimators a score spec admits.  The estimators read only
rows gathered from :class:`ScoreTables` (:class:`PseudoScores` for the
unlabeled samples, :class:`LabeledRecords` for the labeled ones), so a data
source is scored once and each pool drawn from it only gathers rows.

Matching on the pseudo score reads the query source's value table
(:meth:`ScoreTables.value_table`): its U distinct pseudo scores, sorted once
per source, and each row's position among them.  The n records, sorted,
cut that table into one cell per distinct record value, and the owner
table that lays the record ids over the U values gives each query its
nearest record with one gather: O(n log n + U + N) per match.  For k > 1
two walks continue outward from each query's insertion point, merged for
the k - 1 further records in O(N (log n + k)).  At every k, records at
equal distance |q - v| are taken by the smaller original index, except
that a nearer value is taken before a farther one even where float
rounding makes their distances equal; the first column is always the
k = 1 match.
``confidence`` is a spelling of ``pseudo_score``: at the pseudo-label every
deterministic score is p_max or 1 - p_max, which order records alike.  The
vector criteria (full score vector, logits, features) rank squared
Euclidean distances, ties again by index, by brute force in O(n N d) time.
They take the queries a chunk at a time, so that the chunk's (queries,
records, d) differences and (queries, records) distances each hold about
``dataset.BLOCK_CELLS`` cells (one query's when those are more), and are
intended for desk-scale ablations.
"""

from dataclasses import dataclass

import numpy as np

from . import rng
from .dataset import BLOCK_CELLS, ProbabilityDataset
from .errors import ConfigurationError, DataError, EstimationError, InputError
from .scores import ScoreSpec, score_components_batch

ESTIMATOR_KINDS = ("nnm", "nnm_r", "naive", "debias", "random_match")
CRITERION_KINDS = ("pseudo_score", "confidence", "score_vector", "logit", "feature")

_BELOW_AT = np.array([[-1], [0]])  # the table values either side of a cut


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
        if self.criterion == "confidence":
            object.__setattr__(self, "criterion", "pseudo_score")
        if self.k < 1:
            raise ConfigurationError("neighbor count k must be >= 1")


def pseudo_labels(probs) -> np.ndarray:
    """Argmax class per row, ties broken by lowest class index."""
    return np.argmax(np.asarray(probs, dtype=np.float64), axis=1).astype(np.int64)


def _criterion_vectors(tables, rows, kind: str) -> np.ndarray:
    """Vectors of the given rows under a vector neighbor criterion."""
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
    matching always uses these.
    """

    tables: "ScoreTables"
    rows: np.ndarray
    pseudo_scores: np.ndarray
    true_scores: np.ndarray
    biases: np.ndarray

    def __len__(self):
        return self.pseudo_scores.shape[0]

    def biases_at(self, matched, u=None) -> np.ndarray:
        """Biases of the ``matched`` records at one random factor per row of
        ``matched``; deterministic tables ignore u."""
        if u is None:
            return self.biases[matched]
        rows = self.rows[matched]
        # S(xj, yj, u) - S(xj, yhat_j, u), so that u = 1 reproduces the
        # deterministic biases bit for bit
        return self.tables.true(rows, u) - self.tables.pseudo(rows, u)


def _affine(parts, rows, u):
    """A[rows] (+ B[rows] * u) of the parts (A,) or (A, B); without u the
    deterministic (u = 1) scores."""
    if len(parts) == 1:
        return parts[0][rows]
    a, b = parts
    return a[rows] + (b[rows] if u is None else b[rows] * u)


class ScoreTables:
    """Score tables of one dataset under ``spec``, computed once so that
    every pool drawn from it only gathers rows.  ``spec`` is kept: it is
    the one statement of how the tables were scored, which the estimators
    read (see :func:`estimate_scores`).

    A deterministic spec keeps the single (m, K) table A + B; a randomized
    spec keeps A and B, so a score at random factor u is A + B * u.  Both
    keep the pseudo-labels.  The new tables take 1x the memory of
    ``dataset.probs``, except randomized saps at 2x: randomized aps and raps
    keep the probability array itself as B.  Building them holds one block
    of about ``dataset.BLOCK_CELLS`` cells of temporaries (see
    :mod:`semicp.scores`), not more (m, K) arrays.
    Each part also keeps two vectors, every row's score at its true label
    (NaN for an unlabeled row) and at its pseudo-label, so a pool gathers
    1-D: 16 (deterministic) or 32 (randomized) more bytes a row.  The first
    match against the source adds its value table (:meth:`value_table`),
    at most 12 bytes a row.
    """

    def __init__(self, dataset: ProbabilityDataset, spec: ScoreSpec):
        self.dataset, self.spec = dataset, spec
        # a score that overflows is refused below, so numpy's warnings
        # would only lengthen the error
        with np.errstate(over="ignore"):
            a, b = score_components_batch(dataset.probs, spec)
            if spec.randomized:
                self._tables = (a, b)
            else:
                a += b  # a is a fresh array for every score kind
                self._tables = (a,)
        del b  # a deterministic saps B is freed before the vectors are made
        # NaN passes through min and max, so no (m, K) isfinite temporary
        if any(t.size and not (np.isfinite(t.min()) and np.isfinite(t.max()))
               for t in self._tables):
            raise DataError(f"{spec.kind} scores overflow to non-finite values")
        self.hats = pseudo_labels(dataset.probs)
        rows, labels = np.arange(len(dataset)), dataset.labels
        self._true = tuple(t[rows, labels] for t in self._tables)
        for part in self._true:
            part[labels < 0] = np.nan
        self._pseudo = tuple(t[rows, self.hats] for t in self._tables)
        self._values = None

    def true(self, rows, u=None) -> np.ndarray:
        """Score of each row at its true label, NaN for an unlabeled row;
        ``u`` is one draw per row, and without it affine tables give the
        deterministic (u = 1) scores.  Deterministic tables ignore u."""
        return _affine(self._true, rows, u)

    def pseudo(self, rows, u=None) -> np.ndarray:
        """Score of each row at its pseudo-label, as :meth:`true`."""
        return _affine(self._pseudo, rows, u)

    def all_labels(self, rows, u=None) -> np.ndarray:
        """Scores of every label of the rows; ``u`` is one draw per row, and
        without it affine tables give the deterministic (u = 1) scores."""
        return _affine(self._tables, rows, None if u is None else u[:, None])

    def value_table(self):
        """The sorted distinct deterministic pseudo scores of every row, and
        each row's int32 position among them; made at the first call."""
        if self._values is None:
            values, index = np.unique(self.pseudo(slice(None)),
                                      return_inverse=True)
            self._values = values, index.astype(np.int32)
        return self._values

    def records(self, rows) -> LabeledRecords:
        """Labeled records of the given (fully labeled) rows."""
        if np.any(self.dataset.labels[rows] < 0):
            raise InputError("labeled dataset has rows without labels")
        true, pseudo = self.true(rows), self.pseudo(rows)
        return LabeledRecords(self, rows, pseudo, true, true - pseudo)

    def queries(self, rows) -> "PseudoScores":
        """Estimator input for the given unlabeled rows."""
        return PseudoScores(self, rows)


class PseudoScores:
    """Unlabeled samples' scores at their pseudo-labels, ``rows`` of
    ``tables``: with the labeled records, everything an estimator reads."""

    def __init__(self, tables: ScoreTables, rows):
        self.tables, self.rows = tables, rows

    def __len__(self):
        return len(self.rows)

    def at(self, u=None) -> np.ndarray:
        """Scores at one random factor per sample; without u the
        deterministic (u = 1) scores.  Deterministic tables ignore u."""
        return self.tables.pseudo(self.rows, u)


def _owner(values, order, table):
    """The k = 1 match of each value of ``table`` (sorted and distinct)
    among records of the given ``values``, which ``order`` sorts stably.

    Each run of equal record values is represented by its first, smallest,
    index.  A gap (lo, hi] between adjacent runs gives a table value to lo
    while |x - lo| < |x - hi|, or while the two are equal and lo's index is
    the smaller.  Rounding is monotone, so that rule is true, then false:
    each cut is the first table value it fails for, searched for at the
    midpoint and then stepped to.  Values up to the first run take it, and
    values past the last run take the last.
    """
    v = values[order]
    start = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    runs, reps = v[start], order[start]
    lo, hi = runs[:-1], runs[1:]
    tie_left = reps[:-1] < reps[1:]
    size = table.shape[0]
    cut = np.searchsorted(table, lo * 0.5 + hi * 0.5)
    while size:  # an empty table has no values to step over
        # whether lo owns the table values just below and at each cut
        x = table.take(cut + _BELOW_AT, mode="clip")
        d_lo, d_hi = np.abs(x - lo), np.abs(x - hi)
        below, at = (x <= lo) | ((x < hi) & (
            (d_lo < d_hi) | ((d_lo == d_hi) & tie_left)))
        step = ((cut < size) & at).astype(cut.dtype) - ((cut > 0) & ~below)
        if not step.any():
            break
        cut += step
    return np.repeat(reps, np.diff(np.concatenate(([0], cut, [size]))))


def _knn_sorted_1d(values, table, cells, k):
    """The k nearest records per query for 1-D values, nearest first; the
    queries are the values ``table[cells]`` of a sorted value table.

    The first column reads the owner table of :func:`_owner`.  Later
    columns merge two outward walks from each query's insertion point: the
    left walk takes records in (value, descending index) order and the
    right walk in (value, ascending index) order, so each walk meets an
    equal-value run at its smallest index.  Each step takes the nearer head
    by |q - v|, then by the smaller index.  An infinite sentinel with index
    n ends each walk.
    """
    n = values.shape[0]
    right = np.argsort(values, kind="stable")
    out = np.empty((cells.shape[0], k), dtype=np.int64)
    out[:, 0] = _owner(values, right, table)[cells]
    if k == 1:
        return out
    left = n - 1 - np.argsort(values[::-1], kind="stable")
    q = table[cells]
    # In the padded arrays below the left head sits at lo and the right
    # head at lo + (records taken so far), since each step moves one head;
    # the first step took the left head where it is the owner.
    lo = np.searchsorted(values[right], q, side="left")
    left_vals = np.concatenate(([-np.inf], values[left]))
    right_vals = np.concatenate((values[right], [np.inf]))
    left = np.concatenate(([n], left))
    right = np.concatenate((right, [n]))
    lo -= left[lo] == out[:, 0]
    for step in range(1, k):
        hi = lo + step
        d_left = np.abs(q - left_vals[lo])
        d_right = np.abs(q - right_vals[hi])
        i_left, i_right = left[lo], right[hi]
        take_left = (d_left < d_right) | ((d_left == d_right) & (i_left < i_right))
        out[:, step] = np.where(take_left, i_left, i_right)
        lo -= take_left
    return out


def neighbor_match(pseudo: PseudoScores, records: LabeledRecords,
                   estimator: EstimatorSpec = EstimatorSpec()) -> np.ndarray:
    """Matched record indices per unlabeled sample, shape (N, k), nearest
    first; ties are broken by the smaller original record index.

    The pseudo score criterion reads the owner table over the query
    source's value table, then for k > 1 merges two sorted walks; the
    vector criteria rank squared Euclidean distances by brute force, one
    chunk of queries at a time (see the module docstring).
    """
    k = estimator.k
    if len(records) == 0:
        raise EstimationError("cannot match against an empty labeled set")
    if k > len(records):
        raise ConfigurationError(f"k={k} exceeds the {len(records)} labeled records")
    if estimator.criterion == "pseudo_score":
        table, index = pseudo.tables.value_table()
        return _knn_sorted_1d(records.pseudo_scores, table, index[pseudo.rows], k)

    q = _criterion_vectors(pseudo.tables, pseudo.rows, estimator.criterion)
    r = _criterion_vectors(records.tables, records.rows, estimator.criterion)
    if q.shape[1] != r.shape[1]:
        raise InputError("query and record vectors differ in dimension")
    n, d = r.shape
    out = np.empty((q.shape[0], k), dtype=np.int64)
    # a zero-width channel still makes (chunk, n) distances
    chunk = max(1, BLOCK_CELLS // (n * max(1, d)))
    for start in range(0, q.shape[0], chunk):
        diff = q[start:start + chunk, None, :] - r[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        # a stable sort ranks equal distances by record index
        out[start:start + chunk] = np.argsort(d2, axis=-1, kind="stable")[:, :k]
    return out


def check_estimator(spec: ScoreSpec, estimator: EstimatorSpec):
    """Raise unless ``estimator`` can estimate scores of ``spec``: a
    randomized spec needs ``naive`` or ``nnm_r``, and ``nnm_r`` needs a
    randomized spec and a single neighbor."""
    if estimator.kind == "nnm_r":
        if not spec.randomized:
            raise ConfigurationError("nnm_r requires a randomized score spec")
        if estimator.k != 1:
            raise ConfigurationError("nnm_r uses a single matched neighbor")
    elif spec.randomized and estimator.kind != "naive":
        raise ConfigurationError(
            f"estimator {estimator.kind!r} is deterministic-only; "
            "use nnm_r or naive with a randomized score")


def estimate_scores(pseudo: PseudoScores, records: LabeledRecords,
                    estimator: EstimatorSpec = EstimatorSpec(),
                    stream_key=None, u=None) -> np.ndarray:
    """Estimated true scores of the unlabeled samples.

    The score spec is the one ``pseudo``'s tables were scored with; the
    records are expected to come from tables of the same spec.  ``u``
    holds one random factor per sample and is read only for a randomized
    spec.  ``random_match`` draws one record per sample, with
    replacement, indexed by sample position on ``stream_key``.  The matching
    estimators add the mean bias of the k matched records; ``nnm_r`` matches
    on deterministic pseudo scores and then evaluates all three terms at the
    sample's own u: S(x, y_hat, u) + S(x_j, y_j, u) - S(x_j, y_hat_j, u).
    """
    spec = pseudo.tables.spec
    check_estimator(spec, estimator)
    kind = estimator.kind
    if spec.randomized:
        if u is None or np.shape(u) != (len(pseudo),):
            raise InputError("a randomized spec needs one random factor per "
                             "unlabeled sample")
        u = np.asarray(u, dtype=np.float64)
    else:
        u = None
    if len(pseudo) == 0 or kind == "naive":
        return pseudo.at(u)
    if len(records) == 0:
        raise EstimationError(f"{kind} needs a nonempty labeled set")
    if kind == "debias":
        return pseudo.at() + records.biases.mean()
    if kind == "random_match":
        if stream_key is None:
            raise ConfigurationError("random_match needs an rng stream")
        draws = rng.integers(stream_key, np.arange(len(pseudo)), len(records))
        return pseudo.at() + records.biases[draws]
    matched = neighbor_match(pseudo, records, estimator)
    if estimator.k > 1:  # nnm only, so the spec is deterministic
        return pseudo.at() + records.biases[matched].mean(axis=1)
    return pseudo.at(u) + records.biases_at(matched[:, 0], u)
