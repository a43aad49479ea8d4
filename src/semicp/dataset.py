"""Per-sample softmax rows with optional channels, and their row contract."""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

UNLABELED = -1

PROB_SUM_TOL = 1e-6


def row_breach(values, labels, probs, k: int):
    """The first row that breaks the row contract and its breach, as
    (row, message), or None when every row keeps it.

    A row keeps the contract when its ``values`` are finite, its label is an
    integer in {-1, 0..k-1} and its ``probs`` are nonnegative and sum to 1;
    the probability check is skipped when ``probs`` has no columns.  One
    pass over the whole arrays decides; only when it fails are the rows
    checked one by one, in that order, to name the first bad one.
    """
    label_ok = (labels == np.trunc(labels)) & (labels >= UNLABELED) & (labels < k)
    if np.isfinite(values).all() and label_ok.all() and (
            not probs.size or probs.min() >= 0
            and np.abs(probs.sum(axis=1) - 1.0).max() <= PROB_SUM_TOL):
        return None
    finite = np.isfinite(values).all(axis=1)
    with np.errstate(invalid="ignore"):  # a row with inf and -inf sums to nan
        sums = probs.sum(axis=1)
    bad = ~(finite & label_ok)
    if probs.shape[1]:
        bad |= (probs < 0).any(axis=1) | (np.abs(sums - 1.0) > PROB_SUM_TOL)
    i = int(np.argmax(bad))
    if not finite[i]:
        return i, "non-finite value"
    if not label_ok[i]:
        return i, f"label {float(labels[i])} outside {{-1, 0..{k - 1}}}"
    return i, f"invalid probability row (sum={sums[i]:.8f})"


@dataclass
class ProbabilityDataset:
    """Per-sample probability rows plus optional labels/logits/features.

    ``labels`` uses -1 for unlabeled samples.  ``features`` is any real
    vector channel (synthetic data stores the logits there too, for
    neighbor-criterion experiments).
    """

    probs: np.ndarray
    labels: np.ndarray = None
    logits: np.ndarray = None
    features: np.ndarray = None

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2 or self.probs.shape[1] < 2:
            raise InputError("probs must be (n, K) with K >= 2")
        if self.labels is None:
            self.labels = np.full(self.probs.shape[0], UNLABELED, dtype=np.int64)
        else:
            self.labels = np.asarray(self.labels)
            if self.labels.dtype.kind not in "iu":  # checked before the cast
                self.labels = self.labels.astype(np.float64)
        if self.logits is not None:
            self.logits = np.asarray(self.logits, dtype=np.float64)
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=np.float64)
        for name in ("labels", "logits", "features"):
            arr = getattr(self, name)
            if arr is not None and arr.shape[0] != self.probs.shape[0]:
                raise InputError(f"{name} length does not match probs")
        self.validate()
        self.labels = self.labels.astype(np.int64, copy=False)

    def validate(self):
        """Raise InputError naming the first row that breaks the row
        contract (see :func:`row_breach`) or holds a non-finite logit or
        feature; features that are the logits array are checked once."""
        found = row_breach(self.probs, self.labels, self.probs, self.n_classes)
        # each distinct array once (synthetic features are the logits); NaN
        # passes through min and max, so no (n, d) isfinite temporary is made
        for c in {id(c): c for c in (self.logits, self.features)
                  if c is not None}.values():
            if c.size and not (np.isfinite(c.min()) and np.isfinite(c.max())):
                row = int(np.argmin(np.isfinite(c).all(axis=1)))
                if found is None or row <= found[0]:  # row_breach's order
                    found = row, "non-finite value"
        if found:
            raise InputError(f"row {found[0]}: {found[1]}")

    def __len__(self):
        return self.probs.shape[0]

    @property
    def n_classes(self) -> int:
        return self.probs.shape[1]

    @property
    def fully_labeled(self) -> bool:
        return bool(np.all(self.labels >= 0))
