"""Command-line interface.

Subcommands:

* ``gen``       write a synthetic dataset to a CSV file
* ``calibrate`` one-shot threshold from dataset files, with the coverage
  bias diagnostic
* ``predict``   prediction sets for a test file given a threshold
* ``run``       full multi-trial experiment from a JSON config
* ``sweep``     grid of experiments over one config axis

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

import argparse
import functools
import math
import sys
from dataclasses import MISSING, fields, replace

import numpy as np

from . import rng, runner
from .calibration import Threshold, conformal_quantile, epsilon_bias
from .datagen import SyntheticConfig, tune_signal, write_synthetic
from .dataio import check_writable, load_dataset, load_threshold, \
    save_threshold, write_prediction_sets, write_results
from .errors import ConfigurationError, DataError, EstimationError, \
    InputError, SemicpError, exit_code_for
from .metrics import avg_size, coverage
from .scores import SCORE_KINDS, ScoreSpec
from .unlabeled import (CRITERION_KINDS, ESTIMATOR_KINDS, EstimatorSpec,
                        ScoreTables, estimate_scores)


def _add_universal(p):
    p.add_argument("--seed", type=int, default=None,
                   help="base random seed (for run/sweep: overrides the "
                        "config seed)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument("--out", help="output file path")


def _seed(args) -> int:
    return 0 if args.seed is None else args.seed


def _field_flag(p, flag, cls, name, **kwargs):
    """Add ``flag`` with the type and default of field ``name`` of the
    dataclass ``cls``."""
    f = next(f for f in fields(cls) if f.name == name)
    if f.default is not MISSING:
        kwargs["default"] = f.default
    p.add_argument(flag, type=f.type, **kwargs)


def _add_score_flags(p):
    _field_flag(p, "--score", ScoreSpec, "kind", choices=SCORE_KINDS)
    p.add_argument("--randomized", action="store_true",
                   help="use the randomized score variant")
    _field_flag(p, "--k-reg", ScoreSpec, "k_reg", help="raps rank offset")
    _field_flag(p, "--lambda", ScoreSpec, "lam", dest="lam",
                help="raps rank penalty")
    _field_flag(p, "--weight", ScoreSpec, "weight", help="saps rank weight")


def _score_spec(args) -> ScoreSpec:
    return ScoreSpec(kind=args.score, k_reg=args.k_reg, lam=args.lam,
                     weight=args.weight, randomized=args.randomized)


@functools.cache  # built once per process; parse_args leaves it as it is
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semicp",
        description="Conformal calibration with labeled and unlabeled data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    _field_flag(p, "--classes", SyntheticConfig, "n_classes", required=True)
    _field_flag(p, "--samples", SyntheticConfig, "n_samples", required=True)
    _field_flag(p, "--signal", SyntheticConfig, "signal",
                help="true-class logit boost")
    _field_flag(p, "--noise-sigma", SyntheticConfig, "noise_sigma")
    _field_flag(p, "--temperature", SyntheticConfig, "temperature")
    p.add_argument("--prior", help="comma-separated class probabilities")
    p.add_argument("--target-accuracy", type=float,
                   help="tune the signal to hit this pseudo-label accuracy")
    _add_universal(p)

    p = sub.add_parser("calibrate", help="compute a threshold from files")
    p.add_argument("--labeled", required=True, help="labeled calibration CSV")
    p.add_argument("--unlabeled", help="unlabeled pool CSV (labels ignored)")
    _field_flag(p, "--alpha", runner.ExperimentConfig, "alpha")
    _field_flag(p, "--estimator", EstimatorSpec, "kind", choices=ESTIMATOR_KINDS)
    _field_flag(p, "--neighbors", EstimatorSpec, "k",
                help="k for k-nearest-neighbor bias averaging")
    _field_flag(p, "--criterion", EstimatorSpec, "criterion",
                choices=CRITERION_KINDS)
    _add_score_flags(p)
    _add_universal(p)

    p = sub.add_parser("predict", help="prediction sets for a test file")
    p.add_argument("--test", required=True, help="test CSV")
    group = p.add_mutually_exclusive_group(required=True)
    _field_flag(group, "--threshold", Threshold, "value",
                help="explicit cutoff value")
    group.add_argument("--threshold-file", help="JSON written by calibrate --out")
    _add_score_flags(p)
    _add_universal(p)

    p = sub.add_parser("run", help="run a multi-trial experiment")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    _add_universal(p)

    p = sub.add_parser("sweep", help="run a grid of experiments over one axis")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--axis", choices=list(runner.SWEEP_AXES),
                   help="override the config's sweep axis")
    p.add_argument("--values", help="comma-separated sweep values")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    _add_universal(p)

    return parser


def _cmd_gen(args) -> int:
    if args.out is None:
        raise ConfigurationError("gen requires --out")
    if args.samples < 1:  # the library allows 0 rows; a file of them is void
        raise ConfigurationError(f"--samples must be >= 1, got {args.samples}")
    prior = None
    if args.prior:
        try:
            prior = tuple(float(x) for x in args.prior.split(","))
        except ValueError:  # SyntheticConfig checks the numbers themselves
            raise ConfigurationError(f"--prior must be comma-separated "
                                     f"numbers, got {args.prior!r}") from None
    try:
        cfg = SyntheticConfig(n_classes=args.classes, n_samples=args.samples,
                              signal=args.signal, noise_sigma=args.noise_sigma,
                              temperature=args.temperature, prior=prior,
                              seed=_seed(args))
    except InputError as exc:  # as for the same values in a config
        raise ConfigurationError(f"bad gen flag: {exc}") from None
    draw = None
    if args.target_accuracy is not None:
        signal, achieved, draw = tune_signal(args.target_accuracy, cfg)
        print(f"signal={signal:.6f} for target accuracy "
              f"{args.target_accuracy} (probe achieved {achieved:.4f})")
        cfg = replace(cfg, signal=signal)
    accuracy = write_synthetic(cfg, args.out, draw)
    print(f"wrote {cfg.n_samples} samples x {cfg.n_classes} classes to "
          f"{args.out} (top-1 accuracy {accuracy:.4f})")
    return 0


def _cmd_calibrate(args) -> int:
    spec = _score_spec(args)
    labeled = load_dataset(args.labeled)
    tables = ScoreTables(labeled, spec)
    rows = np.nonzero(labeled.labels >= 0)[0]
    n = len(rows)
    if n == 0:
        raise EstimationError("labeled calibration set is empty")

    u_lab = rng.factors(spec.randomized, n, _seed(args), 0, 1)
    lab_scores = tables.at(rows, labeled.labels[rows], u_lab)

    est_scores = np.empty(0)
    big_n = 0
    if args.unlabeled:
        unlabeled = load_dataset(args.unlabeled)
        if unlabeled.n_classes != labeled.n_classes:
            raise DataError("data sources disagree on the number of classes")
        big_n = len(unlabeled)
        estimator = EstimatorSpec(kind=args.estimator, k=args.neighbors,
                                  criterion=args.criterion)
        u_unlab = rng.factors(spec.randomized, big_n, _seed(args), 0, 2)
        pseudo = ScoreTables(unlabeled, spec).queries(np.arange(big_n))
        est_scores = estimate_scores(
            pseudo, tables.records(rows), spec, estimator,
            stream_key=rng.stream(_seed(args), 0, 3), u=u_unlab)

    threshold = conformal_quantile(np.concatenate([lab_scores, est_scores]),
                                   args.alpha)
    eps = epsilon_bias(lab_scores, est_scores, threshold, n, big_n) \
        if big_n else 0.0

    print(f"n={n} N={big_n} alpha={args.alpha} pool={threshold.pool_size}")
    if threshold.include_all:
        print(f"threshold=INCLUDE_ALL (level {threshold.level_index} exceeds "
              f"pool size {threshold.pool_size})")
    else:
        print(f"threshold={threshold.value:.12g} "
              f"(level {threshold.level_index} of {threshold.pool_size})")
    print(f"epsilon={eps:.12g}")
    if args.out:
        save_threshold(threshold, args.out, extra={"n": n, "N": big_n,
                                                   "epsilon": eps})
        print(f"wrote threshold to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    spec = _score_spec(args)
    test = load_dataset(args.test)
    if args.threshold_file:
        threshold = load_threshold(args.threshold_file)
    elif not math.isfinite(args.threshold):
        raise ConfigurationError(f"--threshold must be finite, got "
                                 f"{args.threshold}")
    else:
        threshold = Threshold(value=args.threshold, include_all=False,
                              level_index=0, pool_size=0, alpha=0.0)
    u = rng.factors(spec.randomized, len(test), _seed(args), 0, 4)
    mask = ScoreTables(test, spec).all_labels(np.arange(len(test)), u) \
        <= threshold.cutoff

    labeled_rows = test.labels >= 0
    print(f"samples={len(test)} avg_size={avg_size(mask):.6g}")
    if np.any(labeled_rows):
        cov = coverage(mask[labeled_rows], test.labels[labeled_rows])
        print(f"coverage={cov:.6g} (over {int(labeled_rows.sum())} labeled rows)")
    if args.out:
        write_prediction_sets(mask, test.labels, args.out)
        print(f"wrote prediction sets to {args.out}")
    return 0


def _print_summaries(summaries):
    for name, s in summaries.items():
        line = (f"method={name} trials={s.n_trials} "
                f"mean_coverage={s.mean_coverage:.4f} cov_gap={s.cov_gap:.4f} "
                f"over={s.over_cov_gap:.4f} under={s.under_cov_gap:.4f} "
                f"avg_size={s.mean_avg_size:.4f}")
        if s.group_cov_gap is not None:
            line += f" group_cov_gap={s.group_cov_gap:.4f}"
        print(line)


def _cmd_run(args) -> int:
    config = runner.load_config(args.config)
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    summaries = runner.run_experiment(config, jobs=args.jobs)
    _print_summaries(summaries)
    if args.out:
        write_results(runner.results_records(config, summaries), args.out,
                      args.format)
        print(f"wrote results to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    if (args.axis is None) != (args.values is None):
        raise ConfigurationError("--axis and --values must be given together")
    if args.axis:
        config = runner.load_config(args.config)
        axis = args.axis
        values = [_parse_sweep_value(v) for v in args.values.split(",")]
    else:
        config, axis, values = runner.sweep_from_config(args.config)
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    records = runner.run_sweep(config, axis, values, jobs=args.jobs)
    for rec in records:
        print(f"{axis}={rec['sweep_value']} method={rec['method']} "
              f"cov_gap={rec['cov_gap']:.4f} avg_size={rec['avg_size']:.4f}")
    if args.out:
        write_results(records, args.out, args.format)
        print(f"wrote sweep results to {args.out}")
    return 0


def _parse_sweep_value(text: str):
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


_COMMANDS = {
    "gen": _cmd_gen,
    "calibrate": _cmd_calibrate,
    "predict": _cmd_predict,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
        if args.out is not None:
            check_writable(args.out)
        return _COMMANDS[args.command](args)
    except SemicpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
