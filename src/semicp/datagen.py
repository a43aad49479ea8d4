"""Synthetic classifier outputs with known ground truth.

Each sample draws a label from the prior, boosts the true-class logit by
``signal``, adds independent Gaussian noise per class, and softmaxes at the
configured temperature.  Labels are sampled first and logits conditioned on
them, so pseudo-label accuracy is tunable through ``signal`` while the
model stays (deliberately) miscalibrated in general.

Sample i is generated from its own counter-based stream mix64(seed, i), so
output is independent of generation order and chunking.  Generation is two
steps: a draw (labels and scaled noise, which do not depend on the signal)
and a finish (the signal and the softmax).  The signal bisection is one
loop, :func:`generate_at_accuracy`: it draws its probe rows once and only
finishes them per probe, and a dataset of the probe size is the last probe,
the draw finished at the found signal.  :func:`calibrate_signal_for_accuracy`
runs the same loop at the probe size and keeps only the signal.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .dataset import ProbabilityDataset
from .errors import ConfigurationError, ConvergenceError, InputError
from .unlabeled import pseudo_labels

_CHUNK_ROWS = 1 << 18


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


def _finish_rows(logits, labels, signal: float, temperature: float):
    """Add ``signal`` to each row's true-class logit, in place, and return
    the softmax of the logits at ``temperature``."""
    logits[np.arange(len(labels)), labels] += signal
    # the softmax steps run in place on one array: the same operations in
    # the same order as out of place, with fewer allocations
    z = logits / temperature
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _generate_rows(cfg: SyntheticConfig, start: int, stop: int):
    """Rows [start, stop) of the dataset; pure function of (cfg, range)."""
    labels, logits = _draw_rows(cfg, start, stop)
    probs = _finish_rows(logits, labels, cfg.signal, cfg.temperature)
    return labels, logits, probs


def generate_synthetic(cfg: SyntheticConfig) -> ProbabilityDataset:
    """Generate the configured dataset (labels, logits, probs, features).

    The features channel is the logits array itself (not a copy), for
    neighbor-criterion experiments.
    """
    labels = np.empty(cfg.n_samples, dtype=np.int64)
    logits = np.empty((cfg.n_samples, cfg.n_classes))
    probs = np.empty((cfg.n_samples, cfg.n_classes))
    for start in range(0, cfg.n_samples, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, cfg.n_samples)
        labels[start:stop], logits[start:stop], probs[start:stop] = \
            _generate_rows(cfg, start, stop)
    return ProbabilityDataset(probs=probs, labels=labels, logits=logits,
                              features=logits)


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
    returns (signal, achieved).  See :func:`generate_at_accuracy`."""
    return generate_at_accuracy(target_acc,
                                replace(template, n_samples=probe_samples),
                                tolerance, probe_samples, max_iters)[1:]


def generate_at_accuracy(target_acc: float, template: SyntheticConfig,
                         tolerance: float = 0.01, probe_samples: int = 50_000,
                         max_iters: int = 60):
    """The template's dataset at the signal whose pseudo-label accuracy is
    within ``tolerance`` of a target; returns (dataset, signal, achieved).

    Probes use a fixed ``probe_samples``-sample dataset drawn from the
    template's seed; with common noise draws, accuracy is monotone in the
    signal, so bisection on [0, 50] is exact.  The labels and the noise are
    drawn once for the whole bisection; each probe copies the drawn logits
    and only adds its signal and softmaxes, so it measures exactly the
    accuracy of ``generate_synthetic`` at that signal.  When the dataset has
    the probe size, it is the last probe, so the draw is finished at the
    found signal instead of being drawn again; otherwise it is generated at
    that signal.  Either way it equals ``generate_synthetic`` there.
    """
    k = template.n_classes
    if not 1.0 / k < target_acc < 1.0:
        raise ConfigurationError(
            f"target accuracy must lie strictly between 1/K={1.0 / k:.4f} and 1")
    labels, drawn = _draw_rows(template, 0, probe_samples)

    lo, hi = 0.0, 50.0
    best_signal, best_acc = None, None
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        probe = None  # free the last probe's rows before finishing the next
        logits = drawn.copy()
        probe = ProbabilityDataset(
            probs=_finish_rows(logits, labels, mid, template.temperature),
            labels=labels, logits=logits, features=logits)
        acc = measure_top1_accuracy(probe)
        if best_acc is None or abs(acc - target_acc) < abs(best_acc - target_acc):
            best_signal, best_acc = mid, acc
        if abs(acc - target_acc) <= tolerance:
            if template.n_samples != probe_samples:
                probe = logits = drawn = None  # free the probe rows first
                probe = generate_synthetic(replace(template, signal=mid))
            return probe, mid, acc
        if acc < target_acc:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"could not reach accuracy {target_acc} within {max_iters} iterations; "
        f"best achieved {best_acc:.4f} at signal {best_signal:.4f}",
        best=(best_signal, best_acc))
