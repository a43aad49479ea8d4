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
keeps them per dataset and is the one place scores are read from.  The
rank-based families are computed one block of about
``dataset.BLOCK_CELLS`` cells (rows x classes) at a time, written into A
(and for saps into B) allocated once, so scoring a source holds one block
of temporaries besides the tables; every score is a per-row computation,
so blocking changes no bit.

Classes are ranked by descending probability with ties broken by ascending
class index, so ranks are deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import BLOCK_CELLS
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
    (u = 1).  For thr, B is a read-only zero view, not a filled array; for
    aps and raps, B is ``probs`` itself.  A, and saps's B, are new arrays,
    filled one row block at a time.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if spec.kind == "thr":
        return 1.0 - probs, np.broadcast_to(0.0, probs.shape)
    m, k = probs.shape
    a = np.empty((m, k))
    b = np.empty((m, k)) if spec.kind == "saps" else probs
    step = max(1, BLOCK_CELLS // k)
    for start in range(0, m, step):
        rows = slice(start, start + step)
        p, a_rows, b_rows = probs[rows], a[rows], b[rows]
        ranks, rho = rank_and_cummass_batch(p)
        if spec.kind == "aps":
            a_rows[...] = rho
        elif spec.kind == "raps":
            np.add(rho, spec.lam * np.maximum(0, ranks - spec.k_reg), out=a_rows)
        else:  # saps
            p_max = p.max(axis=1, keepdims=True)
            top = ranks == 1
            np.add(p_max, spec.weight * (ranks - 2), out=a_rows)
            np.copyto(a_rows, 0.0, where=top)
            b_rows[...] = spec.weight
            np.copyto(b_rows, p_max, where=top)
    return a, b
