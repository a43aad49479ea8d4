"""In-memory dataset of per-sample softmax rows with optional channels."""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .scores import PROB_SUM_TOL

UNLABELED = -1


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
            self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.logits is not None:
            self.logits = np.asarray(self.logits, dtype=np.float64)
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=np.float64)
        for name in ("labels", "logits", "features"):
            arr = getattr(self, name)
            if arr is not None and arr.shape[0] != self.probs.shape[0]:
                raise InputError(f"{name} length does not match probs")
        self.validate()

    def validate(self):
        if not np.all(np.isfinite(self.probs)):
            raise InputError("probs contain non-finite values")
        if np.any(self.probs < 0):
            raise InputError("probs contain negative values")
        sums = self.probs.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > PROB_SUM_TOL)[0]
        if bad.size:
            raise InputError(f"row {bad[0]}: probabilities sum to {sums[bad[0]]:.8f}")
        k = self.probs.shape[1]
        if np.any(self.labels < UNLABELED) or np.any(self.labels >= k):
            bad = np.nonzero((self.labels < UNLABELED) | (self.labels >= k))[0][0]
            raise InputError(f"row {bad}: label {self.labels[bad]} outside {{-1, 0..{k - 1}}}")

    def __len__(self):
        return self.probs.shape[0]

    @property
    def n_classes(self) -> int:
        return self.probs.shape[1]

    @property
    def fully_labeled(self) -> bool:
        return bool(np.all(self.labels >= 0))
