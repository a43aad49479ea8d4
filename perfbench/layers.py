"""Per-layer metrics computed from the spans of traced repeats.

Each entry of :data:`PER_LAYER` is (name, unit, better, value of one
:class:`tracing.Profile`).  A count repeats exactly between repeats; every
value is reported as the median over the traced repeats.  A metric whose
layer does not run on a workload reads 0.
"""

import statistics

from tracing import LAYERS, Profile, tail_percentile

TRIAL = "runner.run_trial"
PERMUTATION = "rng.permutation"
SUBSET = "dataset.ProbabilityDataset.subset"
SCORE = "scores.score_components_batch"
ESTIMATE = "unlabeled.estimate_scores"
QUANTILE = "calibration.conformal_quantile"
GENERATE = "datagen.generate_synthetic"
LOAD = "dataio.load_dataset"
SAVE = "dataio.save_dataset"


def _median(values):
    """Median; a value that repeats exactly is returned as it is."""
    if not values:
        return 0.0
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def calls(name):
    return lambda p, w: p.calls[name]


def seconds(name):
    return lambda p, w: p.seconds[name]


def count(name, key):
    return lambda p, w: p.counts[name][key]


def rate(name, key, scale=1.0):
    return lambda p, w: _ratio(p.counts[name][key] / scale, p.seconds[name])


PER_LAYER = [
    ("runner.run_trial.calls", "count", "lower", calls(TRIAL)),
    ("runner.run_trial.ms_p50", "ms", "lower",
     lambda p, w: 1e3 * _median(p.durations[TRIAL])),
    ("runner.run_trial.ms_p95", "ms", "lower",
     lambda p, w: 1e3 * (tail_percentile(p.durations[TRIAL], 95) or 0.0)),
    ("rng.permutation.calls", "count", "lower", calls(PERMUTATION)),
    ("rng.permutation.s", "s", "lower", seconds(PERMUTATION)),
    ("rng.permutation.elems_per_s", "1/s", "higher", rate(PERMUTATION, "elems")),
    ("rng.uniforms.s", "s", "lower", seconds("rng.uniforms")),
    ("dataset.subset.calls", "count", "lower", calls(SUBSET)),
    ("dataset.subset.s", "s", "lower", seconds(SUBSET)),
    ("dataset.subset.rows", "count", "lower", count(SUBSET, "rows")),
    ("scores.score_components_batch.calls", "count", "lower", calls(SCORE)),
    ("scores.score_components_batch.s", "s", "lower", seconds(SCORE)),
    ("scores.rows_scored", "count", "lower", count(SCORE, "rows")),
    ("scores.rank_and_cummass_batch.s", "s", "lower",
     seconds("scores.rank_and_cummass_batch")),
    ("scores.repeat_ratio", "ratio", "lower",
     lambda p, w: _ratio(p.counts[SCORE]["rows"], w.trial_rows)),
    ("unlabeled.build_labeled_records.s", "s", "lower",
     seconds("unlabeled.build_labeled_records")),
    ("unlabeled.estimate_scores.calls", "count", "lower", calls(ESTIMATE)),
    ("unlabeled.estimate_scores.self_s", "s", "lower",
     lambda p, w: p.same_layer_self[ESTIMATE]),
    ("unlabeled.neighbor_match.s", "s", "lower", seconds("unlabeled.neighbor_match")),
    ("unlabeled.rows_per_s", "1/s", "higher",
     lambda p, w: _ratio(p.counts[ESTIMATE]["rows"], p.same_layer_self[ESTIMATE])),
    ("calibration.conformal_quantile.calls", "count", "lower", calls(QUANTILE)),
    ("calibration.conformal_quantile.s", "s", "lower", seconds(QUANTILE)),
    ("calibration.pool_rows", "count", "lower", count(QUANTILE, "rows")),
    ("calibration.conditional_thresholds.s", "s", "lower",
     seconds("calibration.conditional_thresholds")),
    ("calibration.clustercp_thresholds.s", "s", "lower",
     seconds("calibration.clustercp_thresholds")),
    ("metrics.summarize.s", "s", "lower", seconds("metrics.summarize")),
    ("datagen.generate_synthetic.calls", "count", "lower", calls(GENERATE)),
    ("datagen.generate_synthetic.s", "s", "lower", seconds(GENERATE)),
    ("datagen.rows_per_s", "1/s", "higher", rate(GENERATE, "rows")),
    ("datagen.calibrate_signal_for_accuracy.s", "s", "lower",
     seconds("datagen.calibrate_signal_for_accuracy")),
    ("dataio.load_dataset.s", "s", "lower", seconds(LOAD)),
    ("dataio.load.rows_per_s", "1/s", "higher", rate(LOAD, "rows")),
    ("dataio.load.mb_per_s", "MB/s", "higher", rate(LOAD, "bytes", 1e6)),
    ("dataio.save_dataset.s", "s", "lower", seconds(SAVE)),
    ("dataio.save.rows_per_s", "1/s", "higher", rate(SAVE, "rows")),
]
for _layer in LAYERS:
    PER_LAYER.append((f"{_layer}.self_s", "s", "lower",
                      lambda p, w, layer=_layer: p.layer_self[layer]))
    PER_LAYER.append((f"{_layer}.share", "ratio", "lower",
                      lambda p, w, layer=_layer: _ratio(p.layer_self[layer], p.total)))
PER_LAYER.append(("trace.accounted_ratio", "ratio", "higher",
                  lambda p, w: p.accounted))

# computed from whole runs rather than from one repeat's spans
RUN_LEVEL = [
    ("trace.overhead_ratio", "ratio", "lower"),
    ("runner.parallel_speedup", "x", "higher"),
]


def layer_metrics(spans_per_rep, workload, untraced_s, traced_s, parallel_s):
    """({name: (value, unit)}, profiles) for the traced repeats."""
    profiles = [Profile(spans, workload.trace_roots) for spans in spans_per_rep]
    metrics = {name: (_median([fn(p, workload) for p in profiles]), unit)
               for name, unit, _, fn in PER_LAYER}
    metrics["trace.overhead_ratio"] = (_ratio(traced_s, untraced_s) - 1.0, "ratio")
    metrics["runner.parallel_speedup"] = (
        _ratio(untraced_s, parallel_s) if parallel_s else 0.0, "x")
    return metrics, profiles
