"""Multi-trial experiment orchestration.

Each trial draws disjoint labeled / unlabeled / test pools: the pools that
share a source are consecutive slices of one prefix of its permutation,
and a pool with a source of its own takes a prefix of that source's
permutation.  Each method calibrates on one pool, the labeled true scores
followed by its unlabeled scores, with the quantile rule of the
calibration mode, and its test mask holds every test cell to its group's
threshold (the marginal one outside the conditional modes).  Coverage and
set size are evaluated on the test pool.

A trial's results are one float row per method, in config order: coverage,
mean set size and the coverage of each of G groups (NaN where the trial has
no test sample of a group): G = ``n_groups``, K in the class modes, else 0.

All per-trial randomness comes from counter-based streams keyed by
(base_seed, trial_index, purpose), so trials can run on any number of
workers and still produce byte-identical output.  Score tables do not
depend on the trial (a randomized score's factor u only enters as
A + B * u), so each data source is scored once per run or sweep group and
a trial only gathers rows of its tables.  Nor does a trial's draw (its
pools, factors, gathered scores and calibration pools) depend on alpha,
the calibration plan or the trial count: a sweep draws each trial once
per run of consecutive values that keep n, N and test_size.

Methods:

* ``standard`` : split CP on the n labeled points only
* ``semicp``   : labeled scores plus estimated unlabeled scores
* ``oracle``   : split CP on all n + N points with the unlabeled pool's
  labels unmasked (the performance ceiling)

The labeled pool may come from a different file than the unlabeled/test
pools (distribution-shift mode); no reweighting is applied.
"""

import json
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from itertools import chain, groupby

import numpy as np

from . import rng
from .calibration import (cluster_classes, conditional_thresholds,
                          conformal_quantile, interpolated_quantile)
from .datagen import SyntheticConfig, calibrate_signal_for_accuracy, generate_synthetic
from .dataio import load_dataset
from .errors import ConfigurationError, DataError, InputError, SemicpError
from .metrics import avg_size, improvement, summarize
from .scores import ScoreSpec
from .unlabeled import (EstimatorSpec, ScoreTables, check_estimator,
                        estimate_scores)

METHOD_KINDS = ("standard", "semicp", "oracle")
CALIBRATION_MODES = ("marginal", "interpolation", "group_conditional",
                     "class_conditional", "clustercp")
GROUP_RULES = ("external_column", "pseudo_label", "true_label")

_TAG_SPLIT_MAIN = 0x73706C31
_TAG_SPLIT_LABELED = 0x73706C32
_TAG_SPLIT_TEST = 0x73706C33
_TAG_RANDOM_MATCH = 0x726D6463
_TAG_U_LABELED = 0x756C6162
_TAG_U_UNLABELED = 0x75756E6C
_TAG_U_TEST = 0x75747374


@dataclass(frozen=True)
class MethodSpec:
    name: str
    kind: str
    estimator: EstimatorSpec = None

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ConfigurationError(f"unknown method kind {self.kind!r}")
        # only semicp estimates scores; it defaults to EstimatorSpec()
        object.__setattr__(self, "estimator", (self.estimator or EstimatorSpec())
                           if self.kind == "semicp" else None)


@dataclass(frozen=True)
class CalibrationPlan:
    mode: str = "marginal"
    n_groups: int = None
    group_rule: str = "pseudo_label"
    external_column: int = 0
    n_clusters: int = None
    min_class_count: int = 2

    def __post_init__(self):
        if self.mode not in CALIBRATION_MODES:
            raise ConfigurationError(f"unknown calibration mode {self.mode!r}")
        if self.mode == "group_conditional" and (self.n_groups or 0) < 1:
            raise ConfigurationError("group_conditional needs n_groups >= 1")
        if self.mode == "clustercp" and (self.n_clusters or 0) < 1:
            raise ConfigurationError("clustercp needs n_clusters >= 1")
        if self.group_rule not in GROUP_RULES:
            raise ConfigurationError(f"unknown group rule {self.group_rule!r}; "
                                     f"expected one of {GROUP_RULES}")
        if self.external_column < 0:
            raise ConfigurationError("external_column must be >= 0")
        if self.min_class_count < 1:
            raise ConfigurationError("min_class_count must be >= 1")


@dataclass(frozen=True)
class DataSource:
    synthetic: SyntheticConfig = None
    labeled_file: str = None
    unlabeled_file: str = None
    test_file: str = None

    def __post_init__(self):
        if self.synthetic is None:
            valid = self.labeled_file is not None
        else:
            valid = (self.labeled_file, self.unlabeled_file,
                     self.test_file) == (None, None, None)
        if not valid:
            raise ConfigurationError(
                "data source must be exactly one of synthetic | files")


@dataclass(frozen=True)
class ExperimentConfig:
    source: DataSource
    n: int
    N: int
    test_size: int
    alpha: float = 0.1
    trials: int = 1000
    score: ScoreSpec = field(default_factory=ScoreSpec)
    methods: tuple = None
    calibration: CalibrationPlan = field(default_factory=CalibrationPlan)
    base_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.n < 1:
            raise ConfigurationError("n must be >= 1")
        if self.N < 0 or self.test_size < 1 or self.trials < 1:
            raise ConfigurationError("N >= 0, test_size >= 1, trials >= 1 required")
        if self.methods is None:
            object.__setattr__(self, "methods",
                               tuple(MethodSpec(k, k) for k in METHOD_KINDS))
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate method names in {names}")
        for m in self.methods:
            if m.kind == "semicp":
                check_estimator(self.score, m.estimator)


@dataclass
class _Context:
    """Score tables of the data sources, built once per run or sweep group.

    ``main`` is the source of the unlabeled pool.  A source that serves
    several roles is one tables object, so that the pools drawn from it
    come from one permutation.
    """
    main: ScoreTables
    labeled: ScoreTables
    test: ScoreTables


def _build_context(config: ExperimentConfig) -> _Context:
    """The config's sources, loaded and scored; see ``_validate_sources``."""
    src = config.source
    if src.synthetic is not None:
        main = labeled = test = generate_synthetic(src.synthetic)
    else:
        main_file = src.labeled_file if src.unlabeled_file is None \
            else src.unlabeled_file
        files = (src.labeled_file, main_file,
                 main_file if src.test_file is None else src.test_file)
        loaded = {}  # each file once, however many roles name it
        for path in files:
            if os.path.realpath(path) not in loaded:
                loaded[os.path.realpath(path)] = load_dataset(path)
        labeled, main, test = (loaded[os.path.realpath(p)] for p in files)
    distinct = {id(ds): ds for ds in (main, labeled, test)}
    tables = {key: ScoreTables(ds, config.score) for key, ds in distinct.items()}
    return _Context(*(tables[id(ds)] for ds in (main, labeled, test)))


def _validate_sources(config: ExperimentConfig, ctx: _Context):
    main, labeled, test = (t.dataset for t in (ctx.main, ctx.labeled, ctx.test))
    pools = ((labeled, config.n), (main, config.N), (test, config.test_size))
    for ds, name in ((main, "source"), (labeled, "labeled file"),
                     (test, "test file")):
        need = sum(size for source, size in pools if source is ds)
        if len(ds) < need:
            raise ConfigurationError(
                f"infeasible partition: {name} has {len(ds)} samples but "
                f"each trial needs {need}")
    if any(m.kind == "oracle" for m in config.methods) and not main.fully_labeled:
        raise ConfigurationError(
            "the oracle method needs true labels on the unlabeled pool source")
    if not labeled.fully_labeled:
        raise DataError("the labeled pool source contains unlabeled rows")
    if not test.fully_labeled:
        raise DataError("coverage evaluation needs labels on the test source")
    if labeled.n_classes != main.n_classes or test.n_classes != main.n_classes:
        raise DataError("data sources disagree on the number of classes")
    if config.calibration.mode == "group_conditional" \
            and config.calibration.group_rule == "external_column":
        col = config.calibration.external_column
        for ds in (main, labeled, test):
            if ds.features is None or ds.features.shape[1] <= col:
                raise ConfigurationError(
                    f"external_column group rule needs feature column {col}")


def _split_indices(config: ExperimentConfig, ctx: _Context, trial_index: int):
    """Row indices of the trial's labeled, unlabeled and test pools.

    The pools drawn from one source are consecutive slices, in that order,
    of one prefix of its permutation, so they are disjoint.  The main
    source's permutation has its own stream tag; any other source takes
    the tag of the first pool drawn from it.
    """
    roles = ((ctx.labeled, config.n, _TAG_SPLIT_LABELED),
             (ctx.main, config.N, _TAG_SPLIT_MAIN),
             (ctx.test, config.test_size, _TAG_SPLIT_TEST))
    drawn = {}  # source tables -> [permutation prefix, rows taken so far]
    pools = []
    for tables, size, tag in roles:
        if tables not in drawn:
            total = sum(s for source, s, _ in roles if source is tables)
            key = rng.stream(config.base_seed, trial_index,
                             _TAG_SPLIT_MAIN if tables is ctx.main else tag)
            drawn[tables] = [rng.permutation(key, len(tables.dataset), total), 0]
        perm, start = drawn[tables]
        pools.append(perm[start:start + size])
        drawn[tables][1] = start + size
    return tuple(pools)


def _group_ids(tables: ScoreTables, rows, class_ids, plan: CalibrationPlan):
    """Group of each row under the plan's rule; ``class_ids`` are the class
    labels of the rows that the method may see."""
    g = plan.n_groups
    if plan.group_rule == "pseudo_label":
        return tables.hats[rows] % g
    if plan.group_rule == "true_label":
        return class_ids % g
    ids = tables.dataset.features[rows, plan.external_column]
    out = np.rint(ids).astype(np.int64)
    if np.any(out < 0) or np.any(out >= g):
        raise DataError(f"external group column holds ids outside 0..{g - 1}")
    return out


def _draw_key(config: ExperimentConfig):
    """What a trial's draw depends on besides the group's source and score."""
    return (config.n, config.N, config.test_size, config.base_seed,
            tuple(m.kind for m in config.methods))


class _Draw:
    """One trial's draw: its pools' rows and labels, random factors and
    gathered scores, and each method's calibration pool once made."""

    def __init__(self, config: ExperimentConfig, ctx: _Context, trial_index: int):
        self.ctx, self.trial_index = ctx, trial_index
        self.lab, self.unlab, self.test = _split_indices(config, ctx, trial_index)
        self.lab_labels = ctx.labeled.dataset.labels[self.lab]
        self.test_labels = ctx.test.dataset.labels[self.test]
        u_lab, self.u_unlab, u_test = (
            rng.factors(config.score.randomized, size, config.base_seed,
                        trial_index, tag)
            for size, tag in ((config.n, _TAG_U_LABELED),
                              (config.N, _TAG_U_UNLABELED),
                              (config.test_size, _TAG_U_TEST)))
        self.lab_scores = ctx.labeled.at(self.lab, self.lab_labels, u_lab)
        self.test_scores = ctx.test.all_labels(self.test, u_test)
        self.records = self.pseudo = None
        if config.N > 0 and any(m.kind == "semicp" for m in config.methods):
            self.records = ctx.labeled.records(self.lab)
            self.pseudo = ctx.main.queries(self.unlab)
        self.oracle_labels = self.oracle_scores = None
        if any(m.kind == "oracle" for m in config.methods) and config.N:
            self.oracle_labels = ctx.main.dataset.labels[self.unlab]
            self.oracle_scores = ctx.main.at(self.unlab, self.oracle_labels,
                                             self.u_unlab)
        self.pools = {}  # (method position, method) -> calibration pool

    def pool(self, config, position, method):
        """The labeled true scores, then the method's unlabeled scores."""
        key = position, method
        if key not in self.pools:
            if method.kind == "standard" or config.N == 0:
                unlab = _NO_SCORES
            elif method.kind == "oracle":
                unlab = self.oracle_scores
            else:
                # random-match draws get a per-method substream so estimator
                # variants in one run are not artificially correlated
                rm_stream = rng.stream(config.base_seed, self.trial_index,
                                       _TAG_RANDOM_MATCH, position)
                unlab = estimate_scores(self.pseudo, self.records, config.score,
                                        method.estimator, stream_key=rm_stream,
                                        u=self.u_unlab)
            self.pools[key] = np.concatenate([self.lab_scores, unlab])
        return self.pools[key]


def run_trial(config: ExperimentConfig, trial_index: int, ctx: _Context = None,
              draws: dict = None):
    """Execute one trial; returns a (methods, 2 + G) float array whose row i
    holds ``config.methods[i]``'s coverage, mean set size and coverage of
    each coverage group (NaN where the trial has no test sample of it).

    ``draws`` maps trial indices to draws shared by configs with one
    ``_draw_key``: a missing draw is made and added, a present one reused.
    Errors raised by the underlying modules are re-raised annotated with
    the trial index.
    """
    try:
        if ctx is None:
            ctx = _build_context(config)
            _validate_sources(config, ctx)
        draws = {} if draws is None else draws
        draw = draws.get(trial_index) \
            or draws.setdefault(trial_index, _Draw(config, ctx, trial_index))
        groups = _group_map(config, draw)
        n_cov = 0 if groups is None else groups.n_coverage
        results = np.full((len(config.methods), 2 + n_cov), np.nan)
        for position, method in enumerate(config.methods):
            mask = _calibrate_and_predict(
                config, method, draw.pool(config, position, method),
                groups, draw.test_scores)
            hits = mask[np.arange(config.test_size), draw.test_labels]
            results[position, :2] = np.mean(hits), avg_size(mask)
            if n_cov:
                counts = np.bincount(groups.coverage, minlength=n_cov)
                np.divide(np.bincount(groups.coverage, hits, n_cov), counts,
                          out=results[position, 2:], where=counts > 0)
        return results
    except SemicpError as exc:
        raise type(exc)(f"trial {trial_index}: {exc}") from exc


_NO_SCORES = np.empty(0)
_NO_IDS = np.empty(0, dtype=np.int64)


def _calibrate_and_predict(config, method, pool, groups, test_scores):
    """One method's test membership mask over its pool: the labeled true
    scores, then its unlabeled scores.

    The mode gives the quantile rule.  The marginal modes take one
    threshold, which cell -1 selects; the conditional modes take one per
    group of the trial's group map, and each test cell its group's.
    """
    mode, alpha = config.calibration.mode, config.alpha
    if groups is None:
        rule = conformal_quantile if mode == "marginal" \
            else interpolated_quantile
        thresholds, cells = (rule(pool, alpha),), -1
    else:
        ids = np.concatenate([groups.labeled,
                              groups.unlabeled.get(method.kind, _NO_IDS)])
        thresholds = conditional_thresholds(pool, ids, groups.n_groups, alpha)
        cells = groups.test_cells
    cutoffs = np.array([t.cutoff for t in thresholds])
    return test_scores <= cutoffs[cells]


@dataclass
class _GroupMap:
    """The group ids of a conditional mode, built once per trial.

    ``test_cells`` broadcasts against the (t, K) test scores: one id per
    sample, shape (t, 1), for ``group_conditional``, and one per candidate
    label, shape (K,), for the class-based modes.  ``coverage`` gives each
    test sample the group its coverage is reported under, one of
    ``n_coverage``: its sample group, or its true class.  ``unlabeled``
    maps each method kind that has unlabeled scores to their group ids:
    semicp sees pseudo-labels, the oracle true labels.  Id -1 is the
    marginal pool.
    """
    labeled: np.ndarray
    test_cells: np.ndarray
    coverage: np.ndarray
    n_coverage: int
    n_groups: int
    unlabeled: dict


def _group_map(config, draw):
    """The trial's group map, or None in the marginal modes.

    The draw's ``oracle_labels`` are the unlabeled pool's true labels when an
    oracle method reads them, else None, so no other method can see them.
    """
    plan, ctx = config.calibration, draw.ctx
    if plan.mode in ("marginal", "interpolation"):
        return None
    k = draw.test_scores.shape[1]
    views = {} if draw.oracle_labels is None else {"oracle": draw.oracle_labels}
    if config.N and any(m.kind == "semicp" for m in config.methods):
        views["semicp"] = ctx.main.hats[draw.unlab]
    if plan.mode == "group_conditional":
        test = _group_ids(ctx.test, draw.test, draw.test_labels, plan)
        if plan.group_rule == "true_label" or not views:
            unlabeled = {kind: _group_ids(ctx.main, draw.unlab, classes, plan)
                         for kind, classes in views.items()}
        else:  # the other rules give every method the same ids
            unlabeled = dict.fromkeys(
                views, _group_ids(ctx.main, draw.unlab, None, plan))
        return _GroupMap(
            _group_ids(ctx.labeled, draw.lab, draw.lab_labels, plan),
            test[:, None], test, plan.n_groups, plan.n_groups, unlabeled)
    if plan.mode == "class_conditional":
        return _GroupMap(draw.lab_labels, np.arange(k), draw.test_labels, k, k,
                         views)
    # clustercp: the clusters depend only on the labeled scores, shared by
    # all methods
    cluster = cluster_classes(draw.lab_scores, draw.lab_labels, k,
                              plan.n_clusters, plan.min_class_count)
    return _GroupMap(cluster[draw.lab_labels], cluster, draw.test_labels, k,
                     plan.n_clusters,
                     {kind: cluster[classes] for kind, classes in views.items()})


_WORKER = None  # (configs, context) of the pool's group


def _worker_init(configs, ctx):
    global _WORKER
    _WORKER = configs, ctx


def _run_chunk(task, group=None):
    """Results of trials lo..hi-1 of a run of the group (configs, context),
    by default the pool worker's: per trial t, (t, {config index: results})
    over the run's configs that have it, which share its draw."""
    (configs, ctx), (run, lo, hi) = group or _WORKER, task
    out = []
    for t in range(lo, hi):
        draws = {}
        out.append((t, {i: run_trial(configs[i], t, ctx, draws)
                        for i in run if t < configs[i].trials}))
    return out


def _run_group(configs, jobs):
    """Summaries of configs that share one source and score, in order.

    The sources are scored once and checked against every config before any
    trial runs.  Consecutive configs with one ``_draw_key`` form a run, whose
    trials are each drawn once.  One pool runs every run's chunks; its
    workers get the context through ``initargs`` (inherited memory under
    fork).  When only one worker would start, the chunks run in process.
    """
    ctx = _build_context(configs[0])
    for config in configs:
        _validate_sources(config, ctx)
    runs = [list(run) for _, run in
            groupby(range(len(configs)), lambda i: _draw_key(configs[i]))]
    trials = [max(configs[i].trials for i in run) for run in runs]
    cpus = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = max(1, min(jobs, cpus, sum(trials)))
    tasks = []  # (run, first trial, end): about four per worker each
    for run, total in zip(runs, trials):
        chunk = -(-total // (workers * 4))
        tasks += [(run, lo, min(lo + chunk, total))
                  for lo in range(0, total, chunk)]
    if workers == 1:
        return _summaries(configs, (_run_chunk(task, (configs, ctx))
                                    for task in tasks))
    with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                             initargs=(configs, ctx)) as pool:
        # map yields the chunks in task order
        return _summaries(configs, pool.map(_run_chunk, tasks))


def _summaries(configs, parts):
    """{method name: MetricsSummary} of each config, from chunks in task
    order.  A config's trials fill the columns of one (methods, 2 + G,
    trials) table, each metric a contiguous row, which is summarized and
    dropped as soon as its last trial arrives, before the next trial runs."""
    out, tables = [None] * len(configs), {}
    for t, trial in chain.from_iterable(parts):
        for i, results in trial.items():
            if t == 0:
                tables[i] = np.empty(results.shape + (configs[i].trials,))
            tables[i][..., t] = results
            if t == configs[i].trials - 1:
                out[i] = {m.name: summarize(m.name, rows, configs[i].alpha)
                          for m, rows in zip(configs[i].methods, tables.pop(i))}
    return out


def run_experiment(config: ExperimentConfig, jobs: int = 1):
    """Run all trials and aggregate; returns {method name: MetricsSummary}.

    Output is invariant to the worker count: every trial's randomness is
    pre-assigned and aggregation follows trial order.  The pool has at most
    as many workers as there are usable CPUs and trials.
    """
    return _run_group([config], jobs)[0]


def results_records(config: ExperimentConfig, summaries, extra: dict = None):
    """Flatten summaries into the documented results-record schema."""
    kind = {m.name: m.kind for m in config.methods}
    # the first summary of each kind
    by_kind = {kind[name]: s for name, s in reversed(summaries.items())}
    std, orc = by_kind.get("standard"), by_kind.get("oracle")
    score_tag = config.score.kind + ("_r" if config.score.randomized else "")
    records = []
    for name, s in summaries.items():
        imp = None
        if std is not None and orc is not None and kind[name] == "semicp":
            imp = improvement(std.cov_gap, s.cov_gap, orc.cov_gap)
        records.append({**s.to_dict(), "score": score_tag, "n": config.n,
                        "N": config.N, "alpha": config.alpha,
                        "improvement": imp, **(extra or {})})
    return records


SWEEP_AXES = ("n", "N", "test_size", "alpha", "trials", "accuracy", "score",
              "calibration", "estimator")


def apply_sweep_value(config: ExperimentConfig, axis: str, value):
    """A copy of the config with one sweep axis applied."""
    try:
        return _apply_sweep_value(config, axis, value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"bad value {value!r} for sweep axis {axis!r}: {exc}") from None


def _apply_sweep_value(config: ExperimentConfig, axis: str, value):
    if axis in ("n", "N", "test_size", "trials", "alpha"):
        f = next(f for f in fields(ExperimentConfig) if f.name == axis)
        typed = _typed(f, value, f"value of sweep axis {axis!r}")
        return replace(config, **{axis: typed})
    if axis == "score":
        return replace(config, score=replace(config.score, kind=str(value)))
    if axis == "calibration":
        return replace(config, calibration=replace(config.calibration,
                                                   mode=str(value)))
    if axis == "estimator":
        methods = tuple(
            replace(m, estimator=replace(m.estimator, kind=str(value)))
            if m.kind == "semicp" else m
            for m in config.methods)
        return replace(config, methods=methods)
    if axis == "accuracy":
        if config.source.synthetic is None:
            raise ConfigurationError("accuracy sweeps need a synthetic source")
        signal, _ = calibrate_signal_for_accuracy(float(value),
                                                  config.source.synthetic)
        synthetic = replace(config.source.synthetic, signal=signal)
        return replace(config, source=replace(config.source, synthetic=synthetic))
    raise ConfigurationError(f"unknown sweep axis {axis!r}; "
                             f"expected one of {SWEEP_AXES}")


def run_sweep(config: ExperimentConfig, axis: str, values, jobs: int = 1):
    """Run one experiment per sweep value; returns flattened records.

    Consecutive values with the same source and score share one context."""
    configs = [apply_sweep_value(config, axis, value) for value in values]
    summaries = [s for _, group in groupby(configs, lambda c: (c.source, c.score))
                 for s in _run_group(list(group), jobs)]
    records = []
    for cfg, value, s in zip(configs, values, summaries):
        records.extend(results_records(
            cfg, s, extra={"sweep_axis": axis, "sweep_value": value}))
    return records


# JSON keys of a config section that differ from their dataclass field names
_RENAMES = {
    ExperimentConfig: {"seed": "base_seed", "data": "source"},
    ScoreSpec: {"lambda": "lam"},
    CalibrationPlan: {"groups": "n_groups", "rule": "group_rule",
                      "clusters": "n_clusters"},
    SyntheticConfig: {"classes": "n_classes", "samples": "n_samples"},
}
_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", tuple: "a list"}


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse the v1 config document into an ExperimentConfig.

    Each section is read into its dataclass, whose fields give every key's
    type and default; see ``_read_section``.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a JSON object")
    version = doc.get("version", "v1")
    if version != "v1":
        raise ConfigurationError(f"unsupported config version {version!r}")
    # N may be left out of a file (no unlabeled pool); ExperimentConfig
    # itself requires it
    doc = {"N": 0, **doc}
    for key in ("version", "sweep"):
        doc.pop(key, None)
    try:
        estimator = _read_section(EstimatorSpec, doc.pop("estimator", {}),
                                  "estimator")
        methods = _methods_from_list(doc.pop("methods", None), estimator)
        return _read_section(ExperimentConfig, doc, "config", methods=methods)
    except (InputError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad config value: {exc}") from None


def _methods_from_list(items, default_estimator: EstimatorSpec):
    """Method entries: a kind, whose ``semicp`` takes the config's estimator,
    or an object read as a MethodSpec whose name defaults to its kind."""
    if items is None:
        items = METHOD_KINDS
    elif not isinstance(items, list):
        raise ConfigurationError(f"methods must be a list, got {items!r}")
    return tuple(_method(item, f"methods[{i}]", default_estimator)
                 for i, item in enumerate(items))


def _method(item, where: str, default_estimator: EstimatorSpec) -> MethodSpec:
    if isinstance(item, str):
        return MethodSpec(item, item, default_estimator)
    if isinstance(item, dict) and "kind" in item:
        item = {"name": item["kind"], **item}
    return _read_section(MethodSpec, item, where)


def _read_section(cls, doc, where: str, **built):
    """An instance of dataclass ``cls`` from the JSON object ``doc``.

    The fields of ``cls`` are the schema: a key absent from ``doc`` takes its
    field's default, and ``_RENAMES`` maps the keys whose names differ.
    ``built`` holds fields parsed elsewhere.  A section that is not an
    object, an unknown key, a missing required key and a value of the wrong
    JSON type are configuration errors; range checks are the dataclass's.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {doc!r}")
    key_of = {name: key for key, name in _RENAMES.get(cls, {}).items()}
    schema = {key_of.get(f.name, f.name): f
              for f in fields(cls) if f.name not in built}
    unknown = set(doc) - set(schema)
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {sorted(unknown)}")
    values = dict(built)
    for key, f in schema.items():
        if key in doc:
            at = key if where == "config" else f"{where}.{key}"
            values[f.name] = _typed(f, doc[key], at)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigurationError(f"{where} is missing required key {key!r}")
    return cls(**values)


def _typed(f, value, where: str):
    """``value`` as the type of dataclass field ``f``.  An int passes as a
    float and an integral float as an int; null passes where the default is
    None."""
    t = f.type
    if value is None and f.default is None:
        return None
    if is_dataclass(t):
        return _read_section(t, value, where)
    if t is int:
        ok = isinstance(value, numbers.Integral) \
            or isinstance(value, float) and value.is_integer()
    elif t is float:
        ok = isinstance(value, numbers.Real)
    else:
        ok = isinstance(value, (list, tuple) if t is tuple else t)
    if ok and (t is bool or not isinstance(value, bool)):
        try:
            return t(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ConfigurationError(f"{where} must be {_JSON_TYPES[t]}, got {value!r}")


def _read_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from None
    except ValueError as exc:  # bad JSON or UTF-8, or an over-long integer
        raise ConfigurationError(f"config is not valid JSON: {exc}") from None


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_config(path))


def sweep_from_config(path):
    """(config, axis, values) from a config file carrying a sweep section."""
    doc = _read_config(path)
    config = config_from_dict(doc)
    sweep = doc.get("sweep")
    if not sweep:
        raise ConfigurationError("config has no 'sweep' section")
    if not isinstance(sweep, dict) or not isinstance(sweep.get("axis"), str) \
            or not isinstance(sweep.get("values"), list):
        raise ConfigurationError(
            "sweep section must be an object with a string 'axis' and a "
            "list of 'values'")
    return config, sweep["axis"], sweep["values"]

