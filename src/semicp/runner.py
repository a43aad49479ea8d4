"""Multi-trial experiment orchestration.

Each trial draws disjoint labeled / unlabeled / test pools from the data
source, estimates unlabeled scores, calibrates a threshold per requested
method and calibration mode, and evaluates coverage and set size on the
test pool.  All per-trial randomness comes from counter-based streams keyed
by (base_seed, trial_index, purpose), so trials can run on any number of
workers and still produce byte-identical output.  Score tables do not
depend on the trial (a randomized score's factor u only enters as
A + B * u), so each data source is scored once per experiment and a trial
only gathers rows of its tables.

Methods:

* ``standard`` : split CP on the n labeled points only
* ``semicp``   : labeled scores plus estimated unlabeled scores
* ``oracle``   : split CP on all n + N points with the unlabeled pool's
  labels unmasked (the performance ceiling)

The labeled pool may come from a different file than the unlabeled/test
pools (distribution-shift mode); no reweighting is applied.
"""

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .calibration import (ScoredPool, cluster_classes, conditional_thresholds,
                          interpolated_quantile, semicp_threshold)
from .datagen import SyntheticConfig, calibrate_signal_for_accuracy, generate_synthetic
from .dataio import load_dataset, write_results
from .dataset import ProbabilityDataset
from .errors import ConfigurationError, DataError, InputError, SemicpError
from .metrics import MetricsSummary, TrialResult, avg_size, improvement, summarize
from .scores import ScoreSpec
from .unlabeled import EstimatorSpec, ScoreTables, estimate_scores

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

_CLUSTERCP_KMEANS_SEED = 0


@dataclass(frozen=True)
class MethodSpec:
    name: str
    kind: str
    estimator: EstimatorSpec = None

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ConfigurationError(f"unknown method kind {self.kind!r}")
        if self.kind == "semicp" and self.estimator is None:
            object.__setattr__(self, "estimator", EstimatorSpec())


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
        if (self.synthetic is None) == (self.labeled_file is None):
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
    score: ScoreSpec = field(default_factory=lambda: ScoreSpec("thr"))
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
            object.__setattr__(self, "methods", (
                MethodSpec("standard", "standard"),
                MethodSpec("semicp", "semicp"),
                MethodSpec("oracle", "oracle"),
            ))
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate method names in {names}")
        if self.score.randomized:
            for m in self.methods:
                if m.kind == "semicp" and m.estimator.kind not in ("naive", "nnm_r"):
                    raise ConfigurationError(
                        f"estimator {m.estimator.kind!r} is deterministic-only; "
                        "use nnm_r or naive with a randomized score")


@dataclass
class _Context:
    """Score tables of the data sources, built once per experiment.

    ``labeled`` and ``test`` are the ``main`` tables themselves when their
    pools are drawn from the main dataset.
    """
    main: ScoreTables
    labeled: ScoreTables
    test: ScoreTables

    @property
    def shared_labeled(self) -> bool:
        return self.labeled is self.main

    @property
    def shared_test(self) -> bool:
        return self.test is self.main


def _build_context(config: ExperimentConfig) -> _Context:
    src = config.source
    if src.synthetic is not None:
        main = labeled = test = generate_synthetic(src.synthetic)
    else:
        labeled = load_dataset(src.labeled_file)
        main = labeled if src.unlabeled_file is None else load_dataset(src.unlabeled_file)
        test = main if src.test_file is None else load_dataset(src.test_file)
    _validate_sources(config, main, labeled, test)
    tables = ScoreTables(main, config.score)
    return _Context(
        tables,
        tables if labeled is main else ScoreTables(labeled, config.score),
        tables if test is main else ScoreTables(test, config.score))


def _validate_sources(config: ExperimentConfig, main: ProbabilityDataset,
                      labeled: ProbabilityDataset, test: ProbabilityDataset):
    need_main = config.N + (config.n if labeled is main else 0) \
        + (config.test_size if test is main else 0)
    if len(main) < need_main:
        raise ConfigurationError(
            f"infeasible partition: source has {len(main)} samples but "
            f"each trial needs {need_main}")
    if labeled is not main and len(labeled) < config.n:
        raise ConfigurationError(
            f"infeasible partition: labeled file has {len(labeled)} "
            f"samples but n={config.n}")
    if test is not main and len(test) < config.test_size:
        raise ConfigurationError(
            f"infeasible partition: test file has {len(test)} samples "
            f"but test_size={config.test_size}")
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
    """Row indices of the trial's labeled, unlabeled and test pools: the
    leading entries of per-source permutations."""
    n, big_n, t = config.n, config.N, config.test_size

    def head(tag, tables, size):
        return rng.permutation(rng.stream(config.base_seed, trial_index, tag),
                               len(tables.dataset), size)

    if ctx.shared_labeled and ctx.shared_test:
        perm = head(_TAG_SPLIT_MAIN, ctx.main, n + big_n + t)
        return perm[:n], perm[n:n + big_n], perm[n + big_n:]
    lab = head(_TAG_SPLIT_LABELED, ctx.labeled, n)
    if ctx.shared_test:
        perm = head(_TAG_SPLIT_MAIN, ctx.main, big_n + t)
        return lab, perm[:big_n], perm[big_n:]
    return (lab, head(_TAG_SPLIT_MAIN, ctx.main, big_n),
            head(_TAG_SPLIT_TEST, ctx.test, t))


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


def _cutoff(threshold):
    return np.inf if threshold.include_all else threshold.value


def run_trial(config: ExperimentConfig, trial_index: int, ctx: _Context = None):
    """Execute one trial; returns {method name: TrialResult}.

    Errors raised by the underlying modules are re-raised annotated with
    the trial index.
    """
    try:
        return _run_trial(config, trial_index, ctx)
    except SemicpError as exc:
        raise type(exc)(f"trial {trial_index}: {exc}") from exc


@dataclass
class _Pools:
    """One trial's row indices into the context's sources, and the labels
    of its labeled and test pools."""
    ctx: _Context
    lab: np.ndarray
    unlab: np.ndarray
    test: np.ndarray
    lab_labels: np.ndarray = field(init=False)
    test_labels: np.ndarray = field(init=False)

    def __post_init__(self):
        self.lab_labels = self.ctx.labeled.dataset.labels[self.lab]
        self.test_labels = self.ctx.test.dataset.labels[self.test]

    def unlabeled_class_ids(self, method: MethodSpec, pool: ScoredPool):
        """Class membership of the unlabeled scores as the method may see
        it: pseudo-labels, or true labels for the oracle (which unmasks
        them)."""
        if not pool.unlabeled_scores.size:
            return np.empty(0, dtype=np.int64)
        if method.kind == "oracle":
            return self.ctx.main.dataset.labels[self.unlab]
        return self.ctx.main.hats[self.unlab]


def _run_trial(config: ExperimentConfig, trial_index: int, ctx: _Context):
    if ctx is None:
        ctx = _build_context(config)
    spec = config.score
    trial_seed = int(rng.stream(config.base_seed, trial_index))
    pools = _Pools(ctx, *_split_indices(config, ctx, trial_index))

    u_lab = u_unlab = u_test = None
    if spec.randomized:
        u_lab = rng.uniforms(rng.stream(config.base_seed, trial_index,
                                        _TAG_U_LABELED), np.arange(config.n))
        u_unlab = rng.uniforms(rng.stream(config.base_seed, trial_index,
                                          _TAG_U_UNLABELED), np.arange(config.N))
        u_test = rng.uniforms(rng.stream(config.base_seed, trial_index,
                                         _TAG_U_TEST), np.arange(config.test_size))

    records = ctx.labeled.records(pools.lab)
    if spec.randomized:
        lab_scores = records.true_a + records.true_b * u_lab
    else:
        lab_scores = records.true_scores
    test_scores = ctx.test.all_labels(pools.test, u_test)
    pseudo = ctx.main.queries(pools.unlab)

    oracle_scores = None
    if any(m.kind == "oracle" for m in config.methods) and config.N:
        oracle_scores = ctx.main.at(
            pools.unlab, ctx.main.dataset.labels[pools.unlab], u_unlab)

    results = {}
    for position, method in enumerate(config.methods):
        if method.kind == "standard" or config.N == 0:
            pool = ScoredPool(lab_scores, np.empty(0))
        elif method.kind == "oracle":
            pool = ScoredPool(lab_scores, oracle_scores)
        else:
            # random-match draws get a per-method substream so estimator
            # variants in one run are not artificially correlated
            rm_stream = rng.stream(config.base_seed, trial_index,
                                   _TAG_RANDOM_MATCH, position)
            est = estimate_scores(pseudo, records, spec, method.estimator,
                                  stream_key=rm_stream, u=u_unlab)
            pool = ScoredPool(lab_scores, est)
        mask, per_group = _calibrate_and_predict(config, method, pool, pools,
                                                 test_scores)
        hits = mask[np.arange(config.test_size), pools.test_labels]
        results[method.name] = TrialResult(
            method=method.name,
            trial_index=trial_index,
            trial_seed=trial_seed,
            coverage=float(np.mean(hits)),
            avg_size=avg_size(mask),
            per_group_coverage=per_group,
        )
    return results


def _calibrate_and_predict(config, method, pool, pools, test_scores):
    """Threshold(s) for one method and the resulting test membership mask.

    The conditional modes differ only in their group map; each then takes
    one threshold per group and gives every test cell its group's cutoff.
    """
    plan = config.calibration
    alpha = config.alpha
    if plan.mode == "marginal":
        return test_scores <= _cutoff(semicp_threshold(pool, alpha)), None
    if plan.mode == "interpolation":
        return test_scores <= interpolated_quantile(pool.merged(), alpha).value, None
    lab_groups, unlab_groups, test_groups, n_groups = _group_map(
        plan, method, pool, pools, test_scores.shape[1])
    thresholds = conditional_thresholds(pool, lab_groups, unlab_groups,
                                        n_groups, alpha)
    mask = _group_mask(test_scores, thresholds, test_groups)
    # coverage is reported per sample group, or per true class
    coverage_groups = test_groups[:, 0] if plan.mode == "group_conditional" \
        else pools.test_labels
    return mask, _per_group_coverage(mask, pools.test_labels, coverage_groups)


def _group_map(plan, method, pool, pools, k):
    """(labeled ids, unlabeled ids, test-cell ids, number of groups) of a
    conditional mode.

    Test-cell ids broadcast against the (t, K) test scores: one id per
    sample, shape (t, 1), for ``group_conditional``, and one per candidate
    label, shape (K,), for the class-based modes.  Id -1 is the marginal
    pool.
    """
    classes = pools.unlabeled_class_ids(method, pool)
    if plan.mode == "group_conditional":
        ctx = pools.ctx
        unlab = _group_ids(ctx.main, pools.unlab, classes, plan) \
            if classes.size else classes
        return (_group_ids(ctx.labeled, pools.lab, pools.lab_labels, plan), unlab,
                _group_ids(ctx.test, pools.test, pools.test_labels, plan)[:, None],
                plan.n_groups)
    if plan.mode == "class_conditional":
        return pools.lab_labels, classes, np.arange(k), k
    cluster = cluster_classes(pool.labeled_scores, pools.lab_labels, k,
                              plan.n_clusters, plan.min_class_count,
                              seed=_CLUSTERCP_KMEANS_SEED)
    return (cluster[pools.lab_labels], cluster[classes], cluster,
            plan.n_clusters)


def _group_mask(test_scores, thresholds, test_groups):
    """Membership mask with each test cell held to its group's threshold."""
    cutoffs = np.array([_cutoff(t) for t in thresholds])
    return test_scores <= cutoffs[test_groups]


def _per_group_coverage(mask, labels, groups):
    hit = mask[np.arange(labels.shape[0]), labels]
    return {int(g): float(hit[groups == g].mean()) for g in np.unique(groups)}


_WORKER_CTX = None
_WORKER_CONFIG = None


def _worker_init(config):
    global _WORKER_CTX, _WORKER_CONFIG
    _WORKER_CONFIG = config
    _WORKER_CTX = _build_context(config)


def _worker_run(bounds):
    start, stop = bounds
    return [(t, run_trial(_WORKER_CONFIG, t, _WORKER_CTX))
            for t in range(start, stop)]


def run_experiment(config: ExperimentConfig, jobs: int = 1):
    """Run all trials and aggregate; returns {method name: MetricsSummary}.

    Output is invariant to the worker count: every trial's randomness is
    pre-assigned and aggregation follows trial order.
    """
    ctx = _build_context(config)
    m = config.trials
    if jobs <= 1:
        per_trial = [run_trial(config, t, ctx) for t in range(m)]
    else:
        chunk = max(1, -(-m // (jobs * 4)))
        bounds = [(s, min(s + chunk, m)) for s in range(0, m, chunk)]
        gathered = []
        with ProcessPoolExecutor(max_workers=jobs, initializer=_worker_init,
                                 initargs=(config,)) as pool:
            for part in pool.map(_worker_run, bounds):
                gathered.extend(part)
        gathered.sort(key=lambda item: item[0])
        per_trial = [res for _, res in gathered]

    summaries = {}
    for method in config.methods:
        summaries[method.name] = summarize(
            [per_trial[t][method.name] for t in range(m)], config.alpha)
    return summaries


def results_records(config: ExperimentConfig, summaries, extra: dict = None):
    """Flatten summaries into the documented results-record schema."""
    std = next((s for name, s in summaries.items()
                if _method_kind(config, name) == "standard"), None)
    orc = next((s for name, s in summaries.items()
                if _method_kind(config, name) == "oracle"), None)
    score_tag = config.score.kind + ("_r" if config.score.randomized else "")
    records = []
    for name, s in summaries.items():
        imp = None
        if std is not None and orc is not None \
                and _method_kind(config, name) == "semicp":
            imp = improvement(std.cov_gap, s.cov_gap, orc.cov_gap)
        rec = {
            "method": name,
            "score": score_tag,
            "n": config.n,
            "N": config.N,
            "alpha": config.alpha,
            "trials": s.n_trials,
            "cov_gap": s.cov_gap,
            "over_cov_gap": s.over_cov_gap,
            "under_cov_gap": s.under_cov_gap,
            "avg_size": s.mean_avg_size,
            "improvement": imp,
            "histogram": list(s.histogram),
            "mean_coverage": s.mean_coverage,
        }
        if s.group_cov_gap is not None:
            rec["group_cov_gap"] = s.group_cov_gap
        if extra:
            rec.update(extra)
        records.append(rec)
    return records


def _method_kind(config, name):
    for m in config.methods:
        if m.name == name:
            return m.kind
    return None


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
    if axis in ("n", "N", "test_size", "trials"):
        return replace(config, **{axis: int(value)})
    if axis == "alpha":
        return replace(config, alpha=float(value))
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
    """Run one experiment per sweep value; returns flattened records."""
    records = []
    for value in values:
        cfg = apply_sweep_value(config, axis, value)
        summaries = run_experiment(cfg, jobs=jobs)
        records.extend(results_records(
            cfg, summaries, extra={"sweep_axis": axis, "sweep_value": value}))
    return records


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse the v1 config document into an ExperimentConfig."""
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a JSON object")
    version = doc.get("version", "v1")
    if version != "v1":
        raise ConfigurationError(f"unsupported config version {version!r}")
    known = {"version", "seed", "alpha", "n", "N", "test_size", "trials",
             "score", "methods", "estimator", "calibration", "data", "sweep"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    try:
        source = _source_from_dict(doc["data"])
        score = _score_from_dict(doc.get("score", {}))
        default_est = _estimator_from_dict(doc.get("estimator", {}))
        methods = _methods_from_list(doc.get("methods"), default_est)
        calibration = _calibration_from_dict(doc.get("calibration", {}))
        return ExperimentConfig(
            source=source,
            n=int(doc["n"]),
            N=int(doc.get("N", 0)),
            test_size=int(doc["test_size"]),
            alpha=float(doc.get("alpha", 0.1)),
            trials=int(doc.get("trials", 1000)),
            score=score,
            methods=methods,
            calibration=calibration,
            base_seed=int(doc.get("seed", 0)),
        )
    except KeyError as exc:
        raise ConfigurationError(f"config is missing required key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad config value: {exc}") from None


def _source_from_dict(doc: dict) -> DataSource:
    if "synthetic" in doc:
        s = doc["synthetic"]
        try:
            synthetic = SyntheticConfig(
                n_classes=int(s["classes"]),
                n_samples=int(s["samples"]),
                signal=float(s.get("signal", 2.0)),
                noise_sigma=float(s.get("noise_sigma", 1.0)),
                temperature=float(s.get("temperature", 1.0)),
                prior=None if s.get("prior") is None else tuple(s["prior"]),
                seed=int(s.get("seed", 0)),
            )
        except InputError as exc:
            raise ConfigurationError(f"bad synthetic data config: {exc}") from None
        return DataSource(synthetic=synthetic)
    return DataSource(
        labeled_file=doc["labeled_file"],
        unlabeled_file=doc.get("unlabeled_file"),
        test_file=doc.get("test_file"),
    )


def _score_from_dict(doc: dict) -> ScoreSpec:
    return ScoreSpec(
        kind=doc.get("kind", "thr"),
        k_reg=int(doc.get("k_reg", 2)),
        lam=float(doc.get("lambda", 0.01)),
        weight=float(doc.get("weight", 0.01)),
        randomized=bool(doc.get("randomized", False)),
    )


def _estimator_from_dict(doc: dict) -> EstimatorSpec:
    return EstimatorSpec(
        kind=doc.get("kind", "nnm"),
        k=int(doc.get("k", 1)),
        criterion=doc.get("criterion", "pseudo_score"),
    )


def _methods_from_list(items, default_estimator: EstimatorSpec):
    if items is None:
        items = ["standard", "semicp", "oracle"]
    methods = []
    for item in items:
        if isinstance(item, str):
            if item not in METHOD_KINDS:
                raise ConfigurationError(f"unknown method {item!r}")
            est = default_estimator if item == "semicp" else None
            methods.append(MethodSpec(item, item, est))
        else:
            kind = item["kind"]
            est = _estimator_from_dict(item.get("estimator", {})) \
                if kind == "semicp" else None
            methods.append(MethodSpec(item.get("name", kind), kind, est))
    return tuple(methods)


def _calibration_from_dict(doc: dict) -> CalibrationPlan:
    return CalibrationPlan(
        mode=doc.get("mode", "marginal"),
        n_groups=None if doc.get("groups") is None else int(doc["groups"]),
        group_rule=doc.get("rule", "pseudo_label"),
        external_column=int(doc.get("external_column", 0)),
        n_clusters=None if doc.get("clusters") is None else int(doc["clusters"]),
        min_class_count=int(doc.get("min_class_count", 2)),
    )


def _read_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
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


def write_experiment_results(config, summaries, out, fmt="json"):
    write_results(results_records(config, summaries), out, fmt)
