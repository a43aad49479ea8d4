"""Synthetic classifier outputs with known ground truth.

Each sample draws a label from the prior, boosts the true-class logit by
``signal``, adds independent Gaussian noise per class, and softmaxes at the
configured temperature.  Labels are sampled first and logits conditioned on
them, so pseudo-label accuracy is tunable through ``signal`` while the
model stays (deliberately) miscalibrated in general.

Sample i is generated from its own counter-based stream mix64(seed, i), so
output is independent of generation order and blocking.  Generation is two
steps: a draw (labels and scaled noise, which do not depend on the signal)
and a finish (the signal, then ``dataset.softmax``, which the loader also
applies to a logits-only file).  Every path works in blocks of about
``GEN_CELLS`` cells, so a block's (rows, K) temporaries stay in cache:

* :func:`generate_synthetic` fills the dataset's arrays one block at a time;
* :func:`tune_signal`, the signal bisection, draws its probe rows once and
  measures each probe block by block in one scratch block, counting hits;
* :func:`write_synthetic` generates, checks and writes one block at a time,
  so ``semicp gen`` holds one block (plus the probe draw when it tunes the
  signal) whatever the number of rows; at the probe size it finishes the
  drawn rows in place instead of drawing them again.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .dataio import write_dataset
from .dataset import ProbabilityDataset, check_rows, softmax
from .errors import ConfigurationError, ConvergenceError, InputError
from .unlabeled import pseudo_labels

# cells (rows x classes) generated per block: max(1, GEN_CELLS // K) rows
GEN_CELLS = 1 << 15


@dataclass(frozen=True)
class SyntheticConfig:
    n_classes: int
    n_samples: int
    signal: float = 2.0
    noise_sigma: float = 1.0
    temperature: float = 1.0
    prior: tuple = None  # None = uniform
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise InputError("need at least 2 classes")
        if self.n_samples < 0:
            raise InputError("n_samples must be nonnegative")
        if not self.signal >= 0:  # NaN fails each of these comparisons
            raise InputError("signal must be nonnegative")
        if not self.noise_sigma > 0:
            raise InputError("noise_sigma must be positive")
        if not self.temperature > 0:
            raise InputError("temperature must be positive")
        if self.prior is not None:
            p = np.asarray(self.prior, dtype=np.float64)
            if p.shape != (self.n_classes,) or not np.all(np.isfinite(p)) \
                    or np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-6:
                raise InputError("prior must be K nonnegative reals summing to 1")
            object.__setattr__(self, "prior", tuple(float(x) for x in p))


def _draw_rows(cfg: SyntheticConfig, start: int, stop: int):
    """Labels and signal-free logits (``noise_sigma * noise``) of rows
    [start, stop); a pure function of the seed, the prior, the noise scale
    and the row range."""
    k = cfg.n_classes
    idx = np.arange(start, stop, dtype=np.uint64)
    keys = rng.mix64(np.uint64(int(cfg.seed) & 0xFFFFFFFFFFFFFFFF), idx)

    label_u = rng.uniforms(keys, np.zeros(stop - start, dtype=np.uint64))
    prior = np.full(k, 1.0 / k) if cfg.prior is None else np.asarray(cfg.prior)
    cum = np.cumsum(prior)
    labels = np.minimum(np.searchsorted(cum, label_u, side="right"), k - 1)

    logits = rng.normals(keys[:, None], np.arange(1, k + 1, dtype=np.uint64)[None, :])
    logits *= cfg.noise_sigma
    return labels.astype(np.int64), logits


def _finish_rows(logits, labels, signal: float, temperature: float, out):
    """Add ``signal`` to each row's true-class logit, in place, and write
    the softmax of the logits at ``temperature`` to ``out``."""
    logits[np.arange(len(labels)), labels] += signal
    return softmax(logits, temperature, out)


def _bounds(cfg: SyntheticConfig):
    """(start, stop) of each block of the configured rows."""
    rows = max(1, GEN_CELLS // cfg.n_classes)
    return [(start, min(start + rows, cfg.n_samples))
            for start in range(0, cfg.n_samples, rows)]


def generate_synthetic(cfg: SyntheticConfig) -> ProbabilityDataset:
    """Generate the configured dataset (labels, logits, probs, features).

    The features channel is the logits array itself (not a copy), for
    neighbor-criterion experiments.
    """
    n, k = cfg.n_samples, cfg.n_classes
    labels = np.empty(n, dtype=np.int64)
    logits = np.empty((n, k))
    probs = np.empty((n, k))
    for start, stop in _bounds(cfg):
        labels[start:stop], logits[start:stop] = _draw_rows(cfg, start, stop)
        _finish_rows(logits[start:stop], labels[start:stop], cfg.signal,
                     cfg.temperature, probs[start:stop])
    return ProbabilityDataset(probs=probs, labels=labels, logits=logits,
                              features=logits)


def _blocks(cfg: SyntheticConfig, draw=None, keep_draw=False):
    """Yield (labels, logits, probs) for each block of the configured rows,
    checked against the row contract (rows numbered from 0).

    The rows are drawn block by block, or taken from ``draw`` (the labels
    and signal-free logits of every row) and finished in place, or in a
    scratch block when ``keep_draw``.  ``probs`` (and the scratch logits)
    are one block reused by the next block.
    """
    bounds = _bounds(cfg)
    probs = np.empty((bounds[0][1] if bounds else 0, cfg.n_classes))
    scratch = np.empty_like(probs) if keep_draw else None
    for start, stop in bounds:
        if draw is None:
            labels, logits = _draw_rows(cfg, start, stop)
        else:
            labels, logits = draw[0][start:stop], draw[1][start:stop]
            if keep_draw:
                logits = scratch[:stop - start]
                logits[...] = draw[1][start:stop]
        p = _finish_rows(logits, labels, cfg.signal, cfg.temperature,
                         probs[:stop - start])
        check_rows(p, labels, (logits,), start)
        yield labels, logits, p


def _hits(labels, probs) -> int:
    return int(np.count_nonzero(pseudo_labels(probs) == labels))


def write_synthetic(cfg: SyntheticConfig, path, draw=None) -> float:
    """Write the configured dataset to ``path`` following the CSV contract,
    one block at a time, and return its top-1 accuracy.

    Each block is generated, checked against the row contract and written
    before the next is made, so the rows are never all held.  ``draw`` is
    the probe draw :func:`tune_signal` returns for a dataset of the probe
    size; its rows are then finished in place rather than drawn again.  The
    file equals ``save_dataset(generate_synthetic(cfg), path)``; it is not
    left behind when a block fails its check.
    """
    if cfg.n_samples < 1:
        raise InputError("a dataset file needs at least one row")
    hits = 0

    def blocks():
        nonlocal hits
        for labels, logits, probs in _blocks(cfg, draw):
            hits += _hits(labels, probs)
            yield labels, probs, logits, logits  # the features are the logits

    write_dataset(path, blocks())
    return hits / cfg.n_samples


def measure_top1_accuracy(dataset: ProbabilityDataset) -> float:
    """Fraction of samples whose pseudo-label equals the true label."""
    if not dataset.fully_labeled:
        raise InputError("accuracy needs labels on every sample")
    return float(np.mean(pseudo_labels(dataset.probs) == dataset.labels))


def calibrate_signal_for_accuracy(target_acc: float, template: SyntheticConfig,
                                  tolerance: float = 0.01,
                                  probe_samples: int = 50_000,
                                  max_iters: int = 60):
    """Bisect the signal strength until pseudo-label accuracy hits a target;
    returns (signal, achieved).  See :func:`tune_signal`."""
    return tune_signal(target_acc, template, tolerance, probe_samples,
                       max_iters)[:2]


def tune_signal(target_acc: float, cfg: SyntheticConfig,
                tolerance: float = 0.01, probe_samples: int = 50_000,
                max_iters: int = 60):
    """The signal whose pseudo-label accuracy is within ``tolerance`` of a
    target; returns (signal, achieved, draw).

    Probes use the first ``probe_samples`` rows of the configured seed; with
    common noise draws, accuracy is monotone in the signal, so bisection on
    [0, 50] is exact.  The labels and the noise of those rows are drawn
    once, block by block into two arrays.  Each probe finishes them one
    block at a time in a scratch block, checks it against the row contract
    and counts its hits, so it measures exactly the accuracy of
    ``generate_synthetic`` at that signal.  ``draw`` is that (labels,
    logits) draw when ``cfg`` has the probe size, for
    :func:`write_synthetic` to finish at the found signal, else None.
    """
    k = cfg.n_classes
    if not 1.0 / k < target_acc < 1.0:
        raise ConfigurationError(
            f"target accuracy must lie strictly between 1/K={1.0 / k:.4f} and 1")
    if probe_samples < 1 or max_iters < 1:
        raise ConfigurationError("the signal bisection needs at least one "
                                 "probe row and one iteration")
    probe = replace(cfg, n_samples=probe_samples)
    labels = np.empty(probe_samples, dtype=np.int64)
    drawn = np.empty((probe_samples, k))
    for start, stop in _bounds(probe):
        labels[start:stop], drawn[start:stop] = _draw_rows(probe, start, stop)

    lo, hi = 0.0, 50.0
    best_signal, best_acc = None, None
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        hits = sum(_hits(block_labels, probs) for block_labels, _, probs in
                   _blocks(replace(probe, signal=mid), (labels, drawn),
                           keep_draw=True))
        acc = hits / probe_samples
        if best_acc is None or abs(acc - target_acc) < abs(best_acc - target_acc):
            best_signal, best_acc = mid, acc
        if abs(acc - target_acc) <= tolerance:
            reuse = cfg.n_samples == probe_samples
            return mid, acc, (labels, drawn) if reuse else None
        if acc < target_acc:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"could not reach accuracy {target_acc} within {max_iters} iterations; "
        f"best achieved {best_acc:.4f} at signal {best_signal:.4f}",
        best=(best_signal, best_acc))
