"""Multi-trial experiment orchestration.

Each trial draws disjoint labeled / unlabeled / test pools: the pools that
share a source are consecutive slices of one prefix of its permutation,
and a pool with a source of its own takes a prefix of that source's
permutation.  Each method calibrates on one pool, the labeled true scores
followed by its unlabeled scores, with the quantile rule of the
calibration mode, which gives one cutoff per group (one in all outside
the conditional modes).  Coverage and set size are counted on the test
pool: a sample is covered when its true-label score is within its group's
cutoff, and its set holds each label whose score is within the cutoff of
that label's cell.

A trial's results are one float row per method, in config order: coverage,
mean set size and the coverage of each of G groups (NaN where the trial has
no test sample of a group): G = ``n_groups``, K in the class modes, else 0.

All per-trial randomness comes from counter-based streams keyed by
(base_seed, trial_index, purpose), so trials can run on any number of
workers and still produce byte-identical output.  Score tables do not
depend on the trial (a randomized score's factor u only enters as
A + B * u), so each data source is scored once per run or sweep group and
a trial only gathers rows of its tables.  A sweep group runs trial by
trial over all its values.  Each source is permuted once per trial, at the
longest prefix any value takes from it, and every value slices its pools
from that prefix.  Nor does a trial's draw (its pools, factors, gathered
scores and calibration pools) depend on the method kinds, alpha, the
calibration plan or the trial count: consecutive values that keep n, N
and test_size share it.  A method's unlabeled scores are made where its
pool is, and a kind's class view of the unlabeled pool where the group
map is, so what each kind may read is decided in one place.

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
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from itertools import chain, groupby

import numpy as np

from . import rng
from .calibration import (cluster_classes, conditional_thresholds,
                          conformal_quantile, interpolated_quantile)
from .datagen import SyntheticConfig, calibrate_signal_for_accuracy, generate_synthetic
from .dataio import load_dataset
from .errors import ConfigurationError, DataError, InputError, SemicpError
from .metrics import improvement, summarize
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
    """Score tables of the data sources, built once per run or sweep group
    by ``_build_context``.

    ``main`` is the source of the unlabeled pool.  A source that serves
    several roles is one tables object, so that the pools drawn from it
    come from one permutation.  ``prefix`` maps each source's tables to the
    rows of its permutation that a trial draws: the most that any config of
    the group takes from it, set as ``_build_context`` checks each config.
    """
    main: ScoreTables
    labeled: ScoreTables
    test: ScoreTables
    prefix: dict = field(default_factory=dict)


def _build_context(configs) -> _Context:
    """The sources of a group of configs that share one source and score,
    loaded and scored once, then checked against every config by
    ``_validate_sources`` before any trial runs."""
    src, score = configs[0].source, configs[0].score
    if src.synthetic is not None:
        ctx = _Context(*[ScoreTables(generate_synthetic(src.synthetic),
                                     score)] * 3)
    else:
        main_file = src.labeled_file if src.unlabeled_file is None \
            else src.unlabeled_file
        files = (src.labeled_file, main_file,
                 main_file if src.test_file is None else src.test_file)
        tables = {}  # each file once, however many roles name it
        for path in files:
            if os.path.realpath(path) not in tables:
                tables[os.path.realpath(path)] = ScoreTables(
                    load_dataset(path), score)
        labeled, main, test = (tables[os.path.realpath(p)] for p in files)
        ctx = _Context(main, labeled, test)
    for config in configs:
        _validate_sources(config, ctx)
    return ctx


def _pool_sizes(config: ExperimentConfig, ctx: _Context):
    """(source tables, size) of the labeled, unlabeled and test pools, in
    the order they are drawn."""
    return ((ctx.labeled, config.n), (ctx.main, config.N),
            (ctx.test, config.test_size))


def _need(sizes, tables):
    """Rows a trial takes from one source."""
    return sum(size for source, size in sizes if source is tables)


def _validate_sources(config: ExperimentConfig, ctx: _Context):
    """Check the config against the context's sources, and widen
    ``ctx.prefix`` to the rows it takes from each."""
    sizes = _pool_sizes(config, ctx)
    for tables, name in ((ctx.main, "source"), (ctx.labeled, "labeled file"),
                         (ctx.test, "test file")):
        need, rows = _need(sizes, tables), len(tables.dataset)
        if rows < need:
            raise ConfigurationError(
                f"infeasible partition: {name} has {rows} samples but "
                f"each trial needs {need}")
        ctx.prefix[tables] = max(ctx.prefix.get(tables, 0), need)
    main, labeled, test = (t.dataset for t in (ctx.main, ctx.labeled, ctx.test))
    if any(m.kind == "oracle" for m in config.methods) and not main.fully_labeled:
        raise ConfigurationError(
            "the oracle method needs true labels on the unlabeled pool source")
    if not labeled.fully_labeled:
        raise DataError("the labeled pool source contains unlabeled rows")
    if not test.fully_labeled:
        raise DataError("coverage evaluation needs labels on the test source")
    if labeled.n_classes != main.n_classes or test.n_classes != main.n_classes:
        raise DataError("data sources disagree on the number of classes")
    plan = config.calibration
    if plan.mode == "group_conditional" and plan.group_rule == "external_column":
        col, g = plan.external_column, plan.n_groups
        # each distinct source once: a synthetic one fills all three roles
        for ds in {id(ds): ds for ds in (main, labeled, test)}.values():
            if ds.features is None or ds.features.shape[1] <= col:
                raise ConfigurationError(
                    f"external_column group rule needs feature column {col}")
            # every row, not only those a trial draws; rint is monotone, so
            # the extreme ids are the rounded extremes
            ids = ds.features[:, col]
            if len(ids) and (np.rint(ids.min()) < 0 or np.rint(ids.max()) >= g):
                raise DataError(
                    f"external group column holds ids outside 0..{g - 1}")


def _split_indices(config: ExperimentConfig, ctx: _Context, trial_index: int,
                   perms: dict):
    """Row indices of the trial's labeled, unlabeled and test pools.

    The pools drawn from one source are consecutive slices, in that order,
    of one prefix of its permutation, so they are disjoint.  The stream tag
    of a source's permutation is that of its role: main, else labeled,
    else test.  ``perms`` holds the trial's permutation prefixes by source
    tables, so every config that shares it must have the same base seed,
    as the configs of a sweep group do: a missing one is drawn at the
    source's ``ctx.prefix`` rows, which ``_build_context`` set for every
    config of the group, and added.  A prefix of a longer prefix is the
    same rows, so configs that take fewer rows from a source share its
    permutation.
    """
    taken = {}  # source tables -> rows taken so far
    pools = []
    for tables, size in _pool_sizes(config, ctx):
        if tables not in perms:
            tag = _TAG_SPLIT_MAIN if tables is ctx.main else \
                _TAG_SPLIT_LABELED if tables is ctx.labeled else _TAG_SPLIT_TEST
            perms[tables] = rng.permutation(
                rng.stream(config.base_seed, trial_index, tag),
                len(tables.dataset), ctx.prefix[tables])
        start = taken.get(tables, 0)
        pools.append(perms[tables][start:start + size])
        taken[tables] = start + size
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
    return np.rint(ids).astype(np.int64)  # in range: see _validate_sources


def _draw_key(config: ExperimentConfig):
    """What a trial's draw depends on besides the group's source and score."""
    return config.n, config.N, config.test_size, config.base_seed


class _Draw:
    """One trial's draw, which holds only what every method shares: its
    pools' rows, the labeled and test labels, the random factors, the
    labeled true scores and the test scores, and each method's calibration
    pool once made (see :meth:`pool`).  It does not depend on the config's
    method kinds.  ``perms``, the trial's permutation prefixes, is passed
    to ``_split_indices``."""

    def __init__(self, config: ExperimentConfig, ctx: _Context, trial_index: int,
                 perms: dict):
        self.ctx, self.trial_index = ctx, trial_index
        self.lab, self.unlab, self.test = _split_indices(config, ctx,
                                                         trial_index, perms)
        self.lab_labels = ctx.labeled.dataset.labels[self.lab]
        self.test_labels = ctx.test.dataset.labels[self.test]
        u_lab, self.u_unlab, u_test = (
            rng.factors(config.score.randomized, size, config.base_seed,
                        trial_index, tag)
            for size, tag in ((config.n, _TAG_U_LABELED),
                              (config.N, _TAG_U_UNLABELED),
                              (config.test_size, _TAG_U_TEST)))
        self.lab_scores = ctx.labeled.true(self.lab, u_lab)
        self.test_scores = ctx.test.all_labels(self.test, u_test)
        self.test_true = ctx.test.true(self.test, u_test)
        self.pools = {}  # (method position, method) -> calibration pool

    def pool(self, config, position, method):
        """The labeled true scores, then the method's unlabeled scores:
        none for ``standard``, the true scores for the oracle and the
        estimates from the labeled records for semicp."""
        key = position, method
        if key not in self.pools:
            ctx = self.ctx
            if method.kind == "standard":
                unlab = _NO_SCORES
            elif method.kind == "oracle":
                unlab = ctx.main.true(self.unlab, self.u_unlab)
            else:
                # random-match draws get a per-method substream so estimator
                # variants in one run are not artificially correlated
                rm_stream = rng.stream(config.base_seed, self.trial_index,
                                       _TAG_RANDOM_MATCH, position)
                unlab = estimate_scores(ctx.main.queries(self.unlab),
                                        ctx.labeled.records(self.lab),
                                        method.estimator,
                                        stream_key=rm_stream, u=self.u_unlab)
            self.pools[key] = np.concatenate([self.lab_scores, unlab])
        return self.pools[key]


def run_trial(config: ExperimentConfig, trial_index: int, ctx: _Context = None,
              shared: dict = None):
    """Execute one trial; returns a (methods, 2 + G) float array whose row i
    holds ``config.methods[i]``'s coverage, mean set size and coverage of
    each coverage group (NaN where the trial has no test sample of it).

    ``shared`` is what this trial shares across the configs of a sweep
    group, run in order, which all have one base seed: under ``"perms"``
    the permutation prefixes of ``_split_indices``, keyed by source alone,
    under ``"draw"`` the draw of the last config and
    under ``"key"`` its ``_draw_key``.  The draw is reused while the key
    stays, and dropped before the next one is made when it changes.
    Errors raised by the underlying modules are re-raised annotated with
    the trial index.
    """
    try:
        if ctx is None:
            ctx = _build_context([config])
        shared = {} if shared is None else shared
        key = _draw_key(config)
        if shared.get("key") != key:
            shared.pop("draw", None)
            shared["draw"] = _Draw(config, ctx, trial_index,
                                   shared.setdefault("perms", {}))
            shared["key"] = key
        draw = shared["draw"]
        groups = _group_map(config, draw)
        cells, true_cells = (-1, -1) if groups is None \
            else (groups.test_cells, groups.true_cells)
        n_cov = 0 if groups is None else groups.n_coverage
        t = config.test_size
        results = np.full((len(config.methods), 2 + n_cov), np.nan)
        if n_cov:
            counts = np.bincount(groups.coverage, minlength=n_cov)
        for position, method in enumerate(config.methods):
            cutoffs = _cutoffs(config, method,
                               draw.pool(config, position, method), groups)
            # exact counts over t: the same floats as the mean of the hits
            # and metrics.avg_size of the membership mask
            hits = draw.test_true <= cutoffs[true_cells]
            results[position, 0] = np.count_nonzero(hits) / t
            results[position, 1] = np.count_nonzero(
                draw.test_scores <= cutoffs[cells]) / t
            if n_cov:
                np.divide(np.bincount(groups.coverage, hits, n_cov), counts,
                          out=results[position, 2:], where=counts > 0)
        return results
    except SemicpError as exc:
        raise type(exc)(f"trial {trial_index}: {exc}") from exc


_NO_SCORES = np.empty(0)
_NO_IDS = np.empty(0, dtype=np.int64)


def _cutoffs(config, method, pool, groups):
    """One method's score cutoffs over its pool: the labeled true scores,
    then its unlabeled scores.

    The mode gives the quantile rule.  The marginal modes take one
    threshold, which cell -1 selects; the conditional modes take one per
    group of the trial's group map, whose cells select them.
    """
    mode, alpha = config.calibration.mode, config.alpha
    if groups is None:
        rule = conformal_quantile if mode == "marginal" \
            else interpolated_quantile
        thresholds = (rule(pool, alpha),)
    else:
        ids = np.concatenate([groups.labeled,
                              groups.unlabeled.get(method.kind, _NO_IDS)])
        thresholds = conditional_thresholds(pool, ids, groups.n_groups, alpha)
    return np.array([t.cutoff for t in thresholds])


@dataclass
class _GroupMap:
    """The group ids of a conditional mode, built once per trial.

    ``test_cells`` broadcasts against the (t, K) test scores: one id per
    sample, shape (t, 1), for ``group_conditional``, and one per candidate
    label, shape (K,), for the class-based modes.  ``true_cells`` is the
    cell of each test sample's true label, shape (t,).  ``coverage`` gives
    each test sample the group its coverage is reported under, one of
    ``n_coverage``: its sample group, or its true class.  ``unlabeled``
    maps each method kind that has unlabeled scores to their group ids,
    from its class view (see ``_group_map``).  Id -1 is the marginal pool.
    """
    labeled: np.ndarray
    test_cells: np.ndarray
    true_cells: np.ndarray
    coverage: np.ndarray
    n_coverage: int
    n_groups: int
    unlabeled: dict


def _group_map(config, draw):
    """The trial's group map, or None in the marginal modes.

    This is the one place where a method kind's class view of the unlabeled
    pool is made: semicp sees its pseudo-labels and the oracle its true
    labels.  A view is made only for the kinds the config lists, and
    ``seen`` holds the only kinds that get one, so no other method can see
    the true labels.  The class modes share one path: ``class_conditional``
    is clustered CP with the identity class map.
    """
    plan, ctx = config.calibration, draw.ctx
    if plan.mode in ("marginal", "interpolation"):
        return None
    k = draw.test_scores.shape[1]
    kinds = {m.kind for m in config.methods}
    seen = {"semicp": ctx.main.hats, "oracle": ctx.main.dataset.labels}
    views = {kind: seen[kind][draw.unlab] for kind in seen if kind in kinds}
    if plan.mode == "group_conditional":
        test = _group_ids(ctx.test, draw.test, draw.test_labels, plan)
        unlabeled = {kind: _group_ids(ctx.main, draw.unlab, classes, plan)
                     for kind, classes in views.items()}
        return _GroupMap(
            _group_ids(ctx.labeled, draw.lab, draw.lab_labels, plan),
            test[:, None], test, test, plan.n_groups, plan.n_groups,
            unlabeled)
    if plan.mode == "class_conditional":
        cluster, n_groups = np.arange(k), k
    else:  # the clusters depend only on the labeled scores
        cluster = cluster_classes(draw.lab_scores, draw.lab_labels, k,
                                  plan.n_clusters, plan.min_class_count)
        n_groups = plan.n_clusters
    return _GroupMap(cluster[draw.lab_labels], cluster,
                     cluster[draw.test_labels], draw.test_labels, k, n_groups,
                     {kind: cluster[classes] for kind, classes in views.items()})


_WORKER = None  # (configs, context) of the pool's group


def _worker_init(configs, ctx):
    global _WORKER
    _WORKER = configs, ctx


def _run_chunk(task, group=None):
    """Results of trials lo..hi-1 of the group (configs, context), by
    default the pool worker's: per trial t, (t, {config index: results})
    over the configs that have it, in order.  They share the trial's
    permutation of each source, and consecutive configs with one
    ``_draw_key`` share its draw; see ``run_trial``."""
    (configs, ctx), (lo, hi) = group or _WORKER, task
    out = []
    for t in range(lo, hi):
        shared = {}
        out.append((t, {i: run_trial(config, t, ctx, shared)
                        for i, config in enumerate(configs)
                        if t < config.trials}))
    return out


def _run_group(configs, jobs):
    """Summaries of configs that share one source and score, in order.

    The sources are scored once and checked against every config before any
    trial runs.  The group runs trial by trial over all its configs, in
    chunks of trials; see ``_run_chunk``.  One pool runs the chunks; its
    workers get the context through ``initargs`` (inherited memory under
    fork).  When only one worker would start, the chunks run in process.
    """
    ctx = _build_context(configs)
    trials = max(config.trials for config in configs)
    cpus = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = max(1, min(jobs, cpus, trials))
    chunk = -(-trials // (workers * 4))  # about four chunks per worker
    tasks = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
    if workers == 1:
        return _summaries(configs, (_run_chunk(task, (configs, ctx))
                                    for task in tasks))
    # imported here: the process pool machinery costs every jobs=1 run
    # about 2 MB of memory
    from concurrent.futures import ProcessPoolExecutor
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
        try:
            target = float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"bad value {value!r} for sweep axis {axis!r}: {exc}") from None
        signal, _ = calibrate_signal_for_accuracy(target,
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
    if not sweep["values"]:
        raise ConfigurationError("sweep section has no values")
    return config, sweep["axis"], sweep["values"]

