"""Nonconformity scores for softmax classifiers.

Four score families are supported, in deterministic and randomized forms:

* ``thr``   : 1 - p_y
* ``aps``   : rho_y + u * p_y, where rho_y is the probability mass of
  classes ranked strictly above y (deterministic form uses u = 1)
* ``raps``  : the aps value plus ``lam * max(0, rank_y - k_reg)``
* ``saps``  : u * p_max when y is the top class, otherwise
  ``p_max + weight * (rank_y - 2 + u)``

Every family is affine in the random factor u, ``score = A + B * u``, and
the deterministic variant is the randomized one evaluated at u = 1.  This
module computes the parts A and B of a batch; ``unlabeled.ScoreTables``
keeps them per dataset and is the one place scores are read from.

Classes are ranked by descending probability with ties broken by ascending
class index, so ranks are deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

SCORE_KINDS = ("thr", "aps", "raps", "saps")


@dataclass(frozen=True)
class ScoreSpec:
    """Which nonconformity score to use and its parameters.

    ``k_reg`` and ``lam`` apply to raps only; ``weight`` to saps only.
    ``randomized`` requires a per-sample uniform u at scoring time.
    """

    kind: str = "thr"
    k_reg: int = 2
    lam: float = 0.01
    weight: float = 0.01
    randomized: bool = False

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise ConfigurationError(
                f"unknown score kind {self.kind!r}; expected one of {SCORE_KINDS}"
            )
        if self.kind == "raps":
            if self.k_reg < 1:
                raise ConfigurationError("raps k_reg must be a positive integer")
            if not 0 <= self.lam < np.inf:
                raise ConfigurationError("raps lam must be finite and nonnegative")
        if self.kind == "saps" and not 0 <= self.weight < np.inf:
            raise ConfigurationError("saps weight must be finite and nonnegative")
        if self.randomized and self.kind == "thr":
            raise ConfigurationError("thr has no randomized form")


def rank_and_cummass_batch(probs):
    """Ranks (1-based) and strictly-above probability mass of an (m, K)
    matrix.

    ``ranks[i, y]`` is the position of class y in row i under descending
    probability (ties by ascending class index); ``rho[i, y]`` is the total
    probability of the classes ranked strictly above y.
    """
    probs = np.asarray(probs, dtype=np.float64)
    m, k = probs.shape
    order = np.argsort(-probs, axis=1, kind="stable")
    ranks = np.empty((m, k), dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, k + 1)[None, :], axis=1)
    sorted_p = np.take_along_axis(probs, order, axis=1)
    above = np.cumsum(sorted_p, axis=1) - sorted_p
    rho = np.empty_like(probs)
    np.put_along_axis(rho, order, above, axis=1)
    return ranks, rho


def score_components_batch(probs, spec: ScoreSpec):
    """Affine decomposition score = A + B * u for all (sample, label) pairs.

    Returns (A, B), each of shape (m, K).  Deterministic scores are A + B
    (u = 1).  For thr, B is identically zero.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if spec.kind == "thr":
        return 1.0 - probs, np.zeros_like(probs)
    ranks, rho = rank_and_cummass_batch(probs)
    if spec.kind == "aps":
        return rho, probs
    if spec.kind == "raps":
        penalty = spec.lam * np.maximum(0, ranks - spec.k_reg)
        return rho + penalty, probs
    # saps
    p_max = probs.max(axis=1, keepdims=True)
    a = p_max + spec.weight * (ranks - 2)
    b = np.full_like(probs, spec.weight)
    top = ranks == 1
    a[top] = 0.0
    b[top] = np.broadcast_to(p_max, probs.shape)[top]
    return a, b
