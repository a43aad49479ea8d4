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
* :func:`tune_signal`, the signal bisection, draws its probe rows once
  with their signal-free margins (true-class logit minus the largest other
  logit), sorted.  A probe at signal s whose rounding window holds no
  s + margin counts its hits with one ``searchsorted``; a probe with a row
  inside the window, whose outcome rounding could flip, finishes, checks
  and counts every row block by block.  A non-finite draw, or logits whose
  quotient by the temperature could overflow, make the window infinite, so
  every probe then finishes every row;
* :func:`write_synthetic` generates, checks and writes one block at a time,
  so ``semicp gen`` holds one block (plus the probe draw when it tunes the
  signal) whatever the number of rows; at the probe size it finishes the
  drawn rows in place instead of drawing them again.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .dataio import save_rows, write_dataset
from .dataset import ProbabilityDataset, check_rows, softmax
from .errors import ConfigurationError, ConvergenceError, InputError
from .unlabeled import pseudo_labels

# cells (rows x classes) generated per block, at most; see _bounds
GEN_CELLS = 1 << 15

# the signal bisection searches [0, SIGNAL_TOP]
SIGNAL_TOP = 50.0


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
    with np.errstate(over="ignore"):  # the row check names an overflowed row
        logits *= cfg.noise_sigma
    return labels.astype(np.int64), logits


def _finish_rows(logits, labels, signal: float, temperature: float, out):
    """Add ``signal`` to each row's true-class logit, in place, and write
    the softmax of the logits at ``temperature`` to ``out``."""
    logits[np.arange(len(labels)), labels] += signal
    return softmax(logits, temperature, out)


def _bounds(cfg: SyntheticConfig):
    """(start, stop) of each block of the configured rows: about
    ``GEN_CELLS`` cells, rounded down to whole ``write_dataset`` format
    calls of a ``semicp gen`` row (label, probs, logits and the logits again
    as features) when a block holds one."""
    k = cfg.n_classes
    rows, per_call = max(1, GEN_CELLS // k), save_rows(k, True, k)
    if rows >= per_call:
        rows -= rows % per_call
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


def _blocks(cfg: SyntheticConfig, draw=None, rows=None):
    """Yield (labels, logits, probs) for each block of the configured rows,
    checked against the row contract (rows numbered from 0).

    The rows are drawn block by block, or taken from ``draw`` (the labels
    and signal-free logits of every row) and finished in place.  With
    ``rows`` (``cfg.n_samples`` indices into ``draw``, in row order) the
    draw's rows at those indices are copied block by block and finished in
    the copy, so the draw stays signal-free; they are numbered by their
    position in ``rows``.  ``probs`` is one block reused by the next block.
    """
    bounds = _bounds(cfg)
    probs = np.empty((bounds[0][1], cfg.n_classes))
    for start, stop in bounds:
        if draw is None:
            labels, logits = _draw_rows(cfg, start, stop)
        else:
            take = slice(start, stop) if rows is None else rows[start:stop]
            labels, logits = draw[0][take], draw[1][take]
        p = _finish_rows(logits, labels, cfg.signal, cfg.temperature,
                         probs[:stop - start])
        check_rows(p, labels, (logits,), start)
        yield labels, logits, p


def _hits(labels, probs) -> int:
    return int(np.count_nonzero(pseudo_labels(probs) == labels))


def _margins(labels, logits):
    """Each row's true-class logit minus its largest other logit; the
    logits are left as they were."""
    rows = np.arange(len(labels))
    true = logits[rows, labels]
    logits[rows, labels] = -np.inf
    # NaN comes only from a non-finite draw, whose window is infinite; a
    # difference of finite logits that overflows is inf of the right sign
    with np.errstate(over="ignore", invalid="ignore"):
        margins = true - logits.max(axis=1)
    logits[rows, labels] = true
    return margins


def _rounding_width(drawn, temperature: float) -> float:
    """Half-width of the margin window of :func:`tune_signal`: a probe row
    whose signal plus margin lies beyond it on either side has the outcome
    of exact arithmetic.  Infinite when ``drawn`` is not finite or its
    largest logit over the temperature could overflow.

    Let u = 2**-53, A = max|drawn| + SIGNAL_TOP (a bound on every logit of
    a probe), w the width and g = s + m a row's signal plus margin.  The
    rounding of the margin (at most 2uA), of the window's edge s - w (at
    most u(w + A)), of the logit plus s (uA) and of the two divisions by T
    moves the row's gap between the true class and its largest other class
    by less than (6uA + uw)/T after the division.  With w = T*1e-9 +
    1e-14*A, a row with g >= w or g < -w keeps a gap above 1e-10 between
    those two classes.  The larger is then the row max, which the softmax
    shifts to exactly 0 and exponentiates to exactly 1; the smaller lies
    below -1e-10 after the shift, so its exp, even a few ulp off, is below
    1 - 1e-11, and dividing both by the row sum keeps a relative gap above
    2u, which rounding cannot close.  So the true class is the argmax,
    without a tie, when g >= w and is not when g < -w.  A non-finite draw
    or an overflowing quotient makes rows non-finite, which the row check
    must name in row order; the width is then infinite.  A huge T shrinks
    every gap to rounding size and gets a width past every margin.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.maximum(-drawn.min(), drawn.max()) + SIGNAL_TOP
        if not np.isfinite(reach / temperature):
            return np.inf
    return float(temperature * 1e-9 + 1e-14 * reach)


def _probe_draw(probe: SyntheticConfig):
    """((labels, logits), margins, width) of the probe rows: their draw,
    drawn block by block, their signal-free margins, sorted, and the
    :func:`_rounding_width` of the draw."""
    labels = np.empty(probe.n_samples, dtype=np.int64)
    drawn = np.empty((probe.n_samples, probe.n_classes))
    margins = np.empty(probe.n_samples)
    for start, stop in _bounds(probe):
        labels[start:stop], drawn[start:stop] = _draw_rows(probe, start, stop)
        margins[start:stop] = _margins(labels[start:stop], drawn[start:stop])
    margins.sort()
    return (labels, drawn), margins, _rounding_width(drawn, probe.temperature)


def _probe_hits(probe: SyntheticConfig, draw, margins, width: float) -> int:
    """Hits of the probe rows ``draw`` at ``probe.signal``; ``margins`` are
    their margins, sorted, and ``width`` their :func:`_rounding_width`.

    When no row has s + margin in [-width, width), every row's outcome is
    settled and the rows with s + margin >= width are the hits.  Otherwise,
    as always at an infinite width, every row is finished and counted
    through :func:`_blocks`, which checks them in row order.
    """
    n = probe.n_samples
    if np.isfinite(width):
        first, last = np.searchsorted(margins, (-width - probe.signal,
                                                width - probe.signal))
        if first == last:
            return n - int(last)
    return sum(_hits(labels, probs)
               for labels, _, probs in _blocks(probe, draw, np.arange(n)))


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
    [0, SIGNAL_TOP] is exact.  The labels and the noise of those rows are
    drawn once, block by block into two arrays, and with them each row's
    signal-free margin m (true-class logit minus the largest other logit)
    into one vector, which is then sorted.  Row i is a hit at signal s when
    s + m_i is positive, unless rounding decides: when no s + m_i lies in
    [-w, w), where w is :func:`_rounding_width` (derived there), a probe
    counts the rows with s + m_i >= w as hits by one ``searchsorted``;
    otherwise it finishes every row block by block, checks them against
    the row contract and counts their hits.  A non-finite draw, or logits
    whose quotient by the temperature could overflow, make w infinite, so
    every probe then finishes every row and fails at the first bad one.
    Each probe thus measures exactly the accuracy of ``generate_synthetic``
    at that signal.  ``draw`` is the (labels, logits) draw when ``cfg`` has
    the probe size, for :func:`write_synthetic` to finish at the found
    signal, else None.
    """
    k = cfg.n_classes
    if not 1.0 / k < target_acc < 1.0:
        raise ConfigurationError(
            f"target accuracy must lie strictly between 1/K={1.0 / k:.4f} and 1")
    if probe_samples < 1 or max_iters < 1:
        raise ConfigurationError("the signal bisection needs at least one "
                                 "probe row and one iteration")
    probe = replace(cfg, n_samples=probe_samples)
    draw, margins, width = _probe_draw(probe)
    lo, hi = 0.0, SIGNAL_TOP
    best_signal, best_acc = None, None
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        hits = _probe_hits(replace(probe, signal=mid), draw, margins, width)
        acc = hits / probe_samples
        if best_acc is None or abs(acc - target_acc) < abs(best_acc - target_acc):
            best_signal, best_acc = mid, acc
        if abs(acc - target_acc) <= tolerance:
            reuse = cfg.n_samples == probe_samples
            return mid, acc, draw if reuse else None
        if acc < target_acc:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"could not reach accuracy {target_acc} within {max_iters} iterations; "
        f"best achieved {best_acc:.4f} at signal {best_signal:.4f}",
        best=(best_signal, best_acc))
