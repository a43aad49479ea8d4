import concurrent.futures
import json
import os
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from per_trial import observed
from semicp import runner
from semicp.calibration import cluster_classes
from semicp.datagen import SyntheticConfig
from semicp.dataio import write_results
from semicp.errors import ConfigurationError
from semicp.runner import (CalibrationPlan, DataSource, ExperimentConfig,
                           MethodSpec, apply_sweep_value, config_from_dict,
                           results_records, run_experiment, run_sweep,
                           run_trial)
from semicp.scores import ScoreSpec
from semicp.unlabeled import EstimatorSpec


def synth_source(**kw):
    args = dict(n_classes=10, n_samples=4000, signal=2.44, seed=17)
    args.update(kw)
    return DataSource(synthetic=SyntheticConfig(**args))


def small_config(**kw):
    args = dict(source=synth_source(), n=20, N=300, test_size=200,
                alpha=0.1, trials=8, base_seed=5)
    args.update(kw)
    return ExperimentConfig(**args)


@pytest.mark.parametrize("plan, score, estimator", [
    *(pytest.param(plan, ScoreSpec(), EstimatorSpec(),
                   id=f"{plan.mode}-{plan.group_rule}") for plan in (
        CalibrationPlan(),
        CalibrationPlan(mode="interpolation"),
        CalibrationPlan(mode="group_conditional", n_groups=3),
        CalibrationPlan(mode="group_conditional", n_groups=3,
                        group_rule="true_label"),
        CalibrationPlan(mode="class_conditional"),
        CalibrationPlan(mode="clustercp", n_clusters=2))),
    pytest.param(CalibrationPlan(mode="group_conditional", n_groups=3),
                 ScoreSpec("raps", randomized=True), EstimatorSpec("nnm_r"),
                 id="group_conditional-raps_randomized-nnm_r"),
])
def test_semicp_with_zero_unlabeled_equals_standard(plan, score, estimator):
    # at N = 0 semicp and the oracle calibrate on the labeled scores alone,
    # through the same pool and group-map paths as at N > 0
    methods = (MethodSpec("standard", "standard"),
               MethodSpec("semicp", "semicp", estimator),
               MethodSpec("oracle", "oracle"))
    config = small_config(N=0, calibration=plan, score=score, methods=methods)
    for t in range(3):
        res = run_trial(config, t)
        for row in res[1:]:
            assert np.array_equal(row, res[0], equal_nan=True)


def test_semicp_equals_oracle_with_perfect_pseudo_labels():
    config = small_config(source=synth_source(signal=60.0))
    for t in range(3):
        res = observed(config, run_trial(config, t))
        assert res["semicp"].coverage == res["oracle"].coverage
        assert res["semicp"].avg_size == res["oracle"].avg_size


def test_randomized_reduction_semicp_equals_oracle():
    methods = (MethodSpec("semicp", "semicp", EstimatorSpec("nnm_r")),
               MethodSpec("oracle", "oracle"))
    config = small_config(source=synth_source(signal=60.0),
                          score=ScoreSpec("aps", randomized=True),
                          methods=methods)
    res = observed(config, run_trial(config, 0))
    assert res["semicp"].coverage == res["oracle"].coverage
    assert res["semicp"].avg_size == res["oracle"].avg_size


# every estimator valid for each score: deterministic scores take all but
# nnm_r, randomized ones only nnm_r and naive
SCORE_ESTIMATORS = [(ScoreSpec(kind), est) for kind in ("thr", "aps", "raps", "saps")
                    for est in ("nnm", "naive", "debias", "random_match")] + \
    [(ScoreSpec(kind, randomized=True), est) for kind in ("aps", "raps", "saps")
     for est in ("nnm_r", "naive")]
PLANS = [CalibrationPlan(), CalibrationPlan("interpolation"),
         CalibrationPlan("group_conditional", n_groups=2),
         CalibrationPlan("group_conditional", n_groups=3, group_rule="true_label"),
         CalibrationPlan("class_conditional"),
         CalibrationPlan("clustercp", n_clusters=2)]


@st.composite
def reduction_configs(draw, signal, N):
    spec, est = draw(st.sampled_from(SCORE_ESTIMATORS))
    source = synth_source(n_classes=draw(st.integers(2, 6)), n_samples=400,
                          signal=signal, seed=draw(st.integers(0, 2**16)))
    return small_config(
        source=source, n=draw(st.integers(1, 40)), N=draw(N), test_size=50,
        trials=2, score=spec, calibration=draw(st.sampled_from(PLANS)),
        base_seed=draw(st.integers(0, 2**16)),
        methods=(MethodSpec("standard", "standard"),
                 MethodSpec("semicp", "semicp", EstimatorSpec(est)),
                 MethodSpec("oracle", "oracle")))


@settings(max_examples=60, deadline=None)
@given(config=reduction_configs(signal=2.0, N=st.just(0)))
def test_semicp_is_standard_without_unlabeled_data(config):
    for t in range(config.trials):
        res = observed(config, run_trial(config, t))
        assert res["semicp"] == res["standard"]


@settings(max_examples=60, deadline=None)
@given(config=reduction_configs(signal=60.0, N=st.integers(1, 100)))
def test_semicp_is_oracle_with_perfect_pseudo_labels(config):
    for t in range(config.trials):
        res = observed(config, run_trial(config, t))
        assert res["semicp"][:2] == res["oracle"][:2]


def test_single_trial_summary_matches_trial():
    config = small_config(trials=1)
    trial = observed(config, run_trial(config, 0))
    summary = run_experiment(config)
    for name in trial:
        assert summary[name].mean_coverage == trial[name].coverage
        assert summary[name].mean_avg_size == trial[name].avg_size
        assert summary[name].n_trials == 1


def test_same_seed_identical_result_files(tmp_path):
    config = small_config()
    paths = [tmp_path / f"r{i}.json" for i in range(2)]
    for p in paths:
        summaries = run_experiment(config)
        write_results(results_records(config, summaries), p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_parallel_equals_sequential(tmp_path):
    config = small_config(trials=10)
    seq = run_experiment(config, jobs=1)
    par = run_experiment(config, jobs=3)
    assert seq == par


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs
    the initializer and ``map`` in this process, so no process starts."""

    sizes = []  # max_workers of each pool made; each test sets a new list

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, trials", [(5000, 10), (5000, 1), (2, 1)])
def test_workers_capped_at_usable_cpus_and_chunks(monkeypatch, jobs, trials):
    monkeypatch.setattr(InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    # the fake runs the initializer here; restore the worker globals after
    monkeypatch.setattr(runner, "_WORKER", None)
    config = small_config(trials=trials)
    got = run_experiment(config, jobs=jobs)
    # one worker runs in process: no pool starts
    workers = min(len(os.sched_getaffinity(0)), trials)
    assert InProcessPool.sizes == ([workers] if workers > 1 else [])
    assert got == run_experiment(config, jobs=1)


CONDITIONAL_MODES = ["group_conditional", "class_conditional", "clustercp"]


def conditional_config(**kw):
    return small_config(n=60, calibration=CalibrationPlan(
        mode="group_conditional", n_groups=3, n_clusters=2), **kw)


@pytest.mark.parametrize("axis, values, jobs, builds, pools", [
    ("calibration", CONDITIONAL_MODES, 2, 1, 1),
    ("n", [10, 20, 50], 1, 1, 0),
    ("score", ["aps", "raps", "thr"], 1, 3, 0),
])
def test_sweep_scores_each_source_once_per_group(monkeypatch, axis, values,
                                                 jobs, builds, pools):
    config = conditional_config(trials=4)
    want = [r for v in values for r in results_records(
        apply_sweep_value(config, axis, v),
        run_experiment(apply_sweep_value(config, axis, v)),
        extra={"sweep_axis": axis, "sweep_value": v})]
    made = []

    class CountedTables(runner.ScoreTables):
        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)

    monkeypatch.setattr(runner, "ScoreTables", CountedTables)
    monkeypatch.setattr(InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    monkeypatch.setattr(runner, "_WORKER", None)
    assert run_sweep(config, axis, values, jobs=jobs) == want
    # one synthetic source per context: one tables object per build
    assert len(made) == builds and len(InProcessPool.sizes) == pools


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("axis, values, draws, estimates", [
    ("alpha", [0.05, 0.1, 0.2], 4, 8),
    ("calibration", CONDITIONAL_MODES, 4, 8),
    ("trials", [3, 5, 4], 5, 10),
    # every semicp method takes the value; random_match's stream is keyed
    # by the method's position, so two of them must not share an estimate
    ("estimator", ["random_match", "nnm", "debias"], 4, 24),
    # the values take prefixes of one permutation per trial, but each
    # draws its own pools
    ("n", [10, 20, 50], 4, 24),
    ("N", [100, 200, 300], 4, 24),
    ("test_size", [100, 150, 200], 4, 24),
])
def test_sweep_draws_each_trial_once_per_run(monkeypatch, axis, values, draws,
                                             estimates, jobs):
    config = conditional_config(trials=4, methods=(
        MethodSpec("standard", "standard"),
        MethodSpec("semicp", "semicp"),
        MethodSpec("rm", "semicp", EstimatorSpec("random_match")),
        MethodSpec("oracle", "oracle")))
    want = [r for v in values for r in results_records(
        apply_sweep_value(config, axis, v),
        run_experiment(apply_sweep_value(config, axis, v)),
        extra={"sweep_axis": axis, "sweep_value": v})]
    calls = {"permutation": 0, "estimate_scores": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(runner.rng, "permutation")
    counted(runner, "estimate_scores")
    monkeypatch.setattr(InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    monkeypatch.setattr(runner, "_WORKER", None)
    got = run_sweep(config, axis, values, jobs=jobs)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    # one source: one permutation per drawn trial
    assert calls == {"permutation": draws, "estimate_scores": estimates}
    if axis == "estimator":
        semicp, rm = ({k: v for k, v in r.items() if k != "method"}
                      for r in got[1:3])
        assert semicp != rm


def test_sweep_records_equal_across_jobs():
    config = conditional_config(
        trials=6, score=ScoreSpec("raps", randomized=True),
        methods=(MethodSpec("standard", "standard"),
                 MethodSpec("semicp", "semicp", EstimatorSpec("nnm_r")),
                 MethodSpec("oracle", "oracle")))
    seq = run_sweep(config, "calibration", CONDITIONAL_MODES, jobs=1)
    par = run_sweep(config, "calibration", CONDITIONAL_MODES, jobs=2)
    assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)


def test_sweep_validates_every_value_before_any_trial(monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the infeasible value was found")

    monkeypatch.setattr(runner, "run_trial", no_trials)
    with pytest.raises(ConfigurationError, match="infeasible partition"):
        # 5000 + 300 + 200 > 4000 source samples
        run_sweep(small_config(), "n", [10, 20, 5000])


def test_infeasible_partition_rejected_before_trials():
    config = small_config(N=5000)  # 20 + 5000 + 200 > 4000 source samples
    with pytest.raises(ConfigurationError, match="infeasible"):
        run_experiment(config)


def test_build_context_checks_every_config_of_the_group():
    # the group's source is scored once and checked against each config,
    # and the context draws each source at the longest prefix of any
    ok, wide = small_config(), small_config(N=600)
    ctx = runner._build_context([ok, wide])
    assert ctx.prefix == {ctx.main: 20 + 600 + 200}
    with pytest.raises(ConfigurationError, match="infeasible partition"):
        # 20 + 5000 + 200 > 4000 source samples
        runner._build_context([ok, small_config(N=5000)])


def test_oracle_requires_labels(tmp_path):
    from semicp.dataio import save_dataset
    from semicp.dataset import ProbabilityDataset
    probs = np.full((300, 4), 0.25)
    rs = np.random.RandomState(0)
    raw = rs.gamma(1.0, size=(300, 4))
    ds = ProbabilityDataset(probs=raw / raw.sum(axis=1, keepdims=True),
                            labels=np.full(300, -1))
    pool = tmp_path / "pool.csv"
    save_dataset(ds, pool)
    lab = tmp_path / "lab.csv"
    save_dataset(ProbabilityDataset(probs=ds.probs[:100],
                                    labels=rs.randint(4, size=100)), lab)
    config = ExperimentConfig(
        source=DataSource(labeled_file=str(lab), unlabeled_file=str(pool)),
        n=10, N=50, test_size=20, trials=2,
        methods=(MethodSpec("oracle", "oracle"),))
    with pytest.raises(ConfigurationError, match="oracle"):
        run_experiment(config)


def test_randomized_spec_rejects_deterministic_estimators():
    methods = (MethodSpec("semicp", "semicp", EstimatorSpec("debias")),)
    with pytest.raises(ConfigurationError, match="deterministic-only"):
        small_config(score=ScoreSpec("aps", randomized=True), methods=methods)


def test_naive_estimator_undercovers():
    methods = (MethodSpec("naive", "semicp", EstimatorSpec("naive")),)
    config = small_config(source=synth_source(n_samples=8000), N=2000,
                          trials=60, methods=methods)
    summary = run_experiment(config, jobs=2)["naive"]
    assert summary.mean_coverage < 0.9


def test_group_conditional_and_class_conditional_run():
    config = small_config(
        trials=3,
        calibration=CalibrationPlan(mode="group_conditional", n_groups=5))
    res = observed(config, run_trial(config, 0))
    assert set(res["semicp"].per_group_coverage) <= set(range(5))
    summaries = run_experiment(config)
    assert summaries["semicp"].group_cov_gap is not None

    config = small_config(
        trials=2, n=60,
        calibration=CalibrationPlan(mode="class_conditional"))
    res = observed(config, run_trial(config, 0))
    assert res["standard"].per_group_coverage is not None

    config = small_config(
        trials=2, n=60,
        calibration=CalibrationPlan(mode="clustercp", n_clusters=3))
    res = observed(config, run_trial(config, 1))
    assert res["semicp"].coverage >= 0.0

    config = small_config(trials=2,
                          calibration=CalibrationPlan(mode="interpolation"))
    assert observed(config, run_trial(config, 0))["semicp"].coverage >= 0.0


def test_shift_mode_uses_separate_labeled_file(tmp_path):
    from semicp.dataio import save_dataset
    from semicp.datagen import generate_synthetic
    shifted = generate_synthetic(SyntheticConfig(
        n_classes=10, n_samples=500, signal=1.0, seed=31))
    target = generate_synthetic(SyntheticConfig(
        n_classes=10, n_samples=2000, signal=2.44, seed=32))
    lab_path, pool_path = tmp_path / "lab.csv", tmp_path / "pool.csv"
    save_dataset(shifted, lab_path)
    save_dataset(target, pool_path)
    config = ExperimentConfig(
        source=DataSource(labeled_file=str(lab_path),
                          unlabeled_file=str(pool_path)),
        n=30, N=500, test_size=300, trials=4, base_seed=9)
    summaries = run_experiment(config)
    assert summaries["semicp"].n_trials == 4


def test_results_records_schema_and_improvement():
    config = small_config(trials=6)
    summaries = run_experiment(config)
    records = results_records(config, summaries)
    by_method = {r["method"]: r for r in records}
    assert by_method["standard"]["improvement"] is None
    assert by_method["oracle"]["improvement"] is None
    semi = by_method["semicp"]
    assert semi["n"] == 20 and semi["N"] == 300 and semi["score"] == "thr"
    expected = 100.0 * (by_method["standard"]["cov_gap"] - semi["cov_gap"]) / \
        (by_method["standard"]["cov_gap"] - by_method["oracle"]["cov_gap"])
    assert semi["improvement"] == pytest.approx(expected)


def test_config_parsing_and_errors():
    doc = {
        "version": "v1",
        "seed": 3,
        "alpha": 0.1,
        "n": 10, "N": 100, "test_size": 50, "trials": 7,
        "score": {"kind": "raps", "k_reg": 2, "lambda": 0.01},
        "methods": ["standard",
                    {"kind": "semicp", "name": "semicp_naive",
                     "estimator": {"kind": "naive"}}],
        "calibration": {"mode": "marginal"},
        "data": {"synthetic": {"classes": 5, "samples": 1000, "signal": 2.0,
                               "seed": 4}},
    }
    config = config_from_dict(doc)
    assert config.trials == 7
    assert config.methods[1].name == "semicp_naive"
    assert config.methods[1].estimator.kind == "naive"
    assert config.score.kind == "raps"

    with pytest.raises(ConfigurationError, match="alpha"):
        config_from_dict({**doc, "alpha": 1.2})
    with pytest.raises(ConfigurationError, match="unknown config keys"):
        config_from_dict({**doc, "bogus": 1})
    with pytest.raises(ConfigurationError, match="missing"):
        config_from_dict({k: v for k, v in doc.items() if k != "n"})
    with pytest.raises(ConfigurationError, match="version"):
        config_from_dict({**doc, "version": "v2"})


def test_sweep_over_n():
    config = small_config(trials=4)
    records = run_sweep(config, "n", [10, 20])
    assert {r["sweep_value"] for r in records} == {10, 20}
    assert all(r["sweep_axis"] == "n" for r in records)
    cfg2 = apply_sweep_value(config, "estimator", "debias")
    semis = [m for m in cfg2.methods if m.kind == "semicp"]
    assert semis[0].estimator.kind == "debias"
    with pytest.raises(ConfigurationError):
        apply_sweep_value(config, "bogus", 1)


def test_standard_cov_gap_decreases_with_n():
    records = run_sweep(
        small_config(source=synth_source(n_samples=10_000), N=0,
                     trials=300, test_size=500,
                     methods=(MethodSpec("standard", "standard"),)),
        "n", [10, 20, 50, 100], jobs=2)
    gaps = [r["cov_gap"] for r in records]
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps


def test_low_accuracy_regime_reports_without_asserting():
    # weak model: the harness must still report semicp results faithfully,
    # whether or not they beat the standard baseline
    config = small_config(source=synth_source(signal=0.3), trials=20)
    summaries = run_experiment(config, jobs=2)
    records = results_records(config, summaries)
    assert {r["method"] for r in records} == {"standard", "semicp", "oracle"}
    assert all(np.isfinite(r["cov_gap"]) for r in records)


def test_external_column_group_rule(tmp_path):
    from semicp.dataio import save_dataset
    from semicp.datagen import generate_synthetic
    ds = generate_synthetic(SyntheticConfig(
        n_classes=6, n_samples=2000, signal=2.0, seed=44))
    groups = (np.arange(2000) % 3).astype(float)
    ds.features = groups[:, None]
    path = tmp_path / "grouped.csv"
    save_dataset(ds, path)
    config = ExperimentConfig(
        source=DataSource(labeled_file=str(path)),
        n=60, N=400, test_size=300, trials=3, base_seed=8,
        calibration=CalibrationPlan(mode="group_conditional", n_groups=3,
                                    group_rule="external_column"))
    res = observed(config, run_trial(config, 0))
    assert set(res["semicp"].per_group_coverage) == {0, 1, 2}

    bad = ExperimentConfig(
        source=DataSource(labeled_file=str(path)),
        n=60, N=400, test_size=300, trials=3, base_seed=8,
        calibration=CalibrationPlan(mode="group_conditional", n_groups=3,
                                    group_rule="external_column",
                                    external_column=5))
    with pytest.raises(ConfigurationError, match="external_column"):
        run_experiment(bad)


def test_class_threshold_broadcast_uses_candidate_label():
    from semicp.runner import _cutoffs, _GroupMap
    config = small_config(calibration=CalibrationPlan("class_conditional"),
                          alpha=0.4)
    # labeled scores of classes 0, 0, 1, 1 and one of class 2: group
    # thresholds 0.2 and 0.9, and include-all for the lone class-2 score
    pool = np.array([0.1, 0.2, 0.8, 0.9, 0.3])
    groups = _GroupMap(labeled=np.array([0, 0, 1, 1, 2]),
                       test_cells=np.arange(3), true_cells=None, coverage=None,
                       n_groups=3, unlabeled={}, n_coverage=3)
    scores = np.array([[0.1, 0.95, 0.5],
                       [0.3, 0.3, 2.0]])
    # class-based group map: each candidate-label column is its own group
    cutoffs = _cutoffs(config, MethodSpec("standard", "standard"), pool, groups)
    mask = scores <= cutoffs[groups.test_cells]
    assert mask.tolist() == [[True, False, True], [False, True, True]]


# --- byte-identity guard -------------------------------------------------
#
# sha256 of json.dumps(results_records(...), sort_keys=True) for a small
# config matrix, pinned from the implementation that rescored every trial
# pool from its probabilities.  Any change to the scoring, splitting or
# estimation arithmetic shows up here as a digest mismatch.

_ALL_DET = (
    MethodSpec("standard", "standard"),
    MethodSpec("nnm", "semicp", EstimatorSpec("nnm")),
    MethodSpec("nnm_k3", "semicp", EstimatorSpec("nnm", k=3)),
    MethodSpec("naive", "semicp", EstimatorSpec("naive")),
    MethodSpec("debias", "semicp", EstimatorSpec("debias")),
    MethodSpec("random_match", "semicp", EstimatorSpec("random_match")),
    MethodSpec("nnm_score_vector", "semicp",
               EstimatorSpec("nnm", criterion="score_vector")),
    MethodSpec("nnm_confidence", "semicp",
               EstimatorSpec("nnm", criterion="confidence")),
    MethodSpec("nnm_logit", "semicp", EstimatorSpec("nnm", criterion="logit")),
    MethodSpec("nnm_feature", "semicp",
               EstimatorSpec("nnm", criterion="feature")),
    MethodSpec("oracle", "oracle"),
)
_ALL_RAND = (
    MethodSpec("standard", "standard"),
    MethodSpec("nnm_r", "semicp", EstimatorSpec("nnm_r")),
    MethodSpec("naive", "semicp", EstimatorSpec("naive")),
    MethodSpec("nnm_r_score_vector", "semicp",
               EstimatorSpec("nnm_r", criterion="score_vector")),
    MethodSpec("oracle", "oracle"),
)
_MODES = {
    "interpolation": CalibrationPlan(mode="interpolation"),
    "group_pseudo": CalibrationPlan(mode="group_conditional", n_groups=3),
    "class_conditional": CalibrationPlan(mode="class_conditional"),
    "clustercp": CalibrationPlan(mode="clustercp", n_clusters=2),
}
_TRUE_LABEL = CalibrationPlan(mode="group_conditional", n_groups=3,
                              group_rule="true_label")
_NO_SEMICP = (MethodSpec("standard", "standard"), MethodSpec("oracle", "oracle"))


def _matrix_config(**kw):
    args = dict(source=synth_source(n_classes=6, n_samples=1500, signal=2.0,
                                    seed=21),
                n=40, N=300, test_size=150, trials=3, base_seed=13)
    args.update(kw)
    return ExperimentConfig(**args)


def _synthetic_matrix():
    out = {}
    for kind in ("thr", "aps", "raps", "saps"):
        out[f"{kind}_marginal"] = _matrix_config(score=ScoreSpec(kind),
                                                 methods=_ALL_DET)
    for kind in ("aps", "raps", "saps"):
        out[f"{kind}_r_marginal"] = _matrix_config(
            score=ScoreSpec(kind, randomized=True), methods=_ALL_RAND)
    for tag, spec, methods in (("aps", ScoreSpec("aps"), _ALL_DET[:6] + _ALL_DET[-1:]),
                               ("raps_r", ScoreSpec("raps", randomized=True),
                                _ALL_RAND)):
        for mode, plan in _MODES.items():
            out[f"{tag}_{mode}"] = _matrix_config(score=spec, methods=methods,
                                                  calibration=plan)
        out[f"{tag}_group_true_label"] = _matrix_config(
            score=spec, methods=_NO_SEMICP, calibration=_TRUE_LABEL)
    return out


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    from semicp.dataio import save_dataset
    from semicp.datagen import generate_synthetic
    root = tmp_path_factory.mktemp("matrix")
    paths = {}
    for name, rows, signal, seed in (("lab", 200, 1.5, 61), ("pool", 900, 2.0, 62),
                                     ("test", 400, 2.0, 63)):
        ds = generate_synthetic(SyntheticConfig(
            n_classes=5, n_samples=rows, signal=signal, seed=seed))
        paths[name] = str(root / f"{name}.csv")
        save_dataset(ds, paths[name])
    grouped = generate_synthetic(SyntheticConfig(
        n_classes=5, n_samples=700, signal=2.0, seed=64))
    grouped.features = (np.arange(700) % 3).astype(float)[:, None]
    paths["grouped"] = str(root / "grouped.csv")
    save_dataset(grouped, paths["grouped"])
    return paths


def _file_matrix(paths):
    separate = DataSource(labeled_file=paths["lab"],
                          unlabeled_file=paths["pool"], test_file=paths["test"])
    pool_test = DataSource(labeled_file=paths["lab"], unlabeled_file=paths["pool"])
    single = DataSource(labeled_file=paths["grouped"])
    base = dict(n=30, N=250, test_size=120, trials=3, base_seed=29)
    return {
        "files_separate_aps_marginal": ExperimentConfig(
            source=separate, score=ScoreSpec("aps"), methods=_ALL_DET[:6]
            + _ALL_DET[-1:], **base),
        "files_separate_raps_r_group": ExperimentConfig(
            source=separate, score=ScoreSpec("raps", randomized=True),
            methods=_ALL_RAND, calibration=_MODES["group_pseudo"], **base),
        "files_separate_thr_class": ExperimentConfig(
            source=separate, calibration=_MODES["class_conditional"], **base),
        "files_pool_test_thr_clustercp": ExperimentConfig(
            source=pool_test, calibration=_MODES["clustercp"], **base),
        "files_single_saps_external": ExperimentConfig(
            source=single, score=ScoreSpec("saps"),
            calibration=CalibrationPlan(mode="group_conditional", n_groups=3,
                                        group_rule="external_column"), **base),
    }


def _records_digest(config):
    import hashlib
    records = results_records(config, run_experiment(config))
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


PINNED_DIGESTS = {
    "aps_class_conditional":
        "6be3706faee9fa1f1a0207f003e1d9996f27bdd79debba42cfbb23ae75276327",
    "aps_clustercp":
        "c00659e063ba725b92586452b3be83eab94315f98b77b98c1e31264429a70903",
    "aps_group_pseudo":
        "5030ec44914efef6b1a3c005855135019d099585505f9f52d8a28099401d8a7d",
    "aps_group_true_label":
        "f103c929478ecb9081c5c01c9642f7f21b909cce8a24d7d3b1bafe661338b960",
    "aps_interpolation":
        "3d08a9ec4a68605b6d0b95b037fa23e14fe10ac9feed64b1bc75d965e9eac0f4",
    "aps_marginal":
        "c740815d7409582fea3ee78cb475c85f2e60bb9d16513d96f9e7f277c3811158",
    "aps_r_marginal":
        "0ac6e4b09a01b595f8f0c20496dada78427587afc4f828de7ba5a993b671a1e0",
    "files_pool_test_thr_clustercp":
        "6ba92781a09797dd0d28fabbcca0031608fe46deb4e965dee5d809a81dabe0ff",
    "files_separate_aps_marginal":
        "c953ee1ef45392dcf5d7b159efc7aef39882abce7ce409ea0752aa6cf69b7de8",
    "files_separate_raps_r_group":
        "4d357cc53cdfc5167fab9dcccd02bb74582deb4018193d6ada9207c54f807f8b",
    "files_separate_thr_class":
        "5272680eeecf13a2e4722dbe5c3b9ad5d936c66965428f6b6a54916d8174218c",
    "files_single_saps_external":
        "9e15d1a7fb7172520ccfcbc92920ae78a7e22cbca7b74aab255352d91b3b97e3",
    "raps_marginal":
        "878ccc4fc552e895a028ec60bf4c4423ebb8250897fcf9156389202f24ed3d52",
    "raps_r_class_conditional":
        "c07b7606e6c8fbcaf09ee36c96038f5ffdbf9bbf9ca0d21c62b22f9dd88dc07a",
    "raps_r_clustercp":
        "4a37a36186d81db01c1771cd310463e7069626c372c3032634881f28da5b7b32",
    "raps_r_group_pseudo":
        "8b6bc45e13ec3ecb6872abfbe4e3a95240f2ff296e3b3e55e88237428a1d16f5",
    "raps_r_group_true_label":
        "33735a19c29c5798e8252ae72086216005c563da5fe3c0e934b9c2ac37c0a9ac",
    "raps_r_interpolation":
        "a80b8879e9c55421213476f0e3b7175b48157a82e96482c8227a29610e265fa1",
    "raps_r_marginal":
        "da0c5e289787e20ede200f667e7d4a83d58d1b2284c5a5c9e49b81341ce5b45f",
    "saps_marginal":
        "23ed2ac5c59eaea812b19de3de6b5f23093157236607583e1d1ae23e7fb809bc",
    "saps_r_marginal":
        "e278060ad9ae1e62b27e5343ef1b56e184d59bab2d70728a744ea118cd512850",
    "thr_marginal":
        "5061d7f21e16d585032f1b2bfe2a75c57b948bbb6049d233ac039672e5c87a4d",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_results_records_byte_identical_to_pinned(name, matrix_files):
    configs = {**_synthetic_matrix(), **_file_matrix(matrix_files)}
    assert set(configs) == set(PINNED_DIGESTS)
    assert _records_digest(configs[name]) == PINNED_DIGESTS[name]


@pytest.mark.parametrize("layout", ["single", "labeled_is_pool",
                                    "pool_is_test", "separate",
                                    "labeled_file_is_unlabeled_file",
                                    "labeled_file_is_test_file"])
def test_pools_drawn_from_one_source_are_disjoint(layout, matrix_files):
    lab, pool, test = (matrix_files[k] for k in ("lab", "pool", "test"))
    pool_again = os.path.join(os.path.dirname(pool), ".", "pool.csv")
    files = {"single": dict(labeled_file=pool),
             "labeled_is_pool": dict(labeled_file=pool, test_file=test),
             "pool_is_test": dict(labeled_file=lab, unlabeled_file=pool),
             "separate": dict(labeled_file=lab, unlabeled_file=pool,
                              test_file=test),
             # one file under two roles, the second by another spelling
             "labeled_file_is_unlabeled_file": dict(
                 labeled_file=pool, unlabeled_file=pool_again, test_file=test),
             "labeled_file_is_test_file": dict(
                 labeled_file=pool, unlabeled_file=test,
                 test_file=pool_again)}[layout]
    source = DataSource(**files)
    config = ExperimentConfig(source=source, n=50, N=300, test_size=120,
                              trials=5, base_seed=3)
    # the file each pool is read from, as the config names it
    unlabeled_file = source.unlabeled_file or source.labeled_file
    pool_files = [os.path.realpath(f) for f in (
        source.labeled_file, unlabeled_file, source.test_file or unlabeled_file)]
    ctx = runner._build_context([config])
    for t in range(config.trials):
        pools = runner._split_indices(config, ctx, t, {})
        assert [len(p) for p in pools] == [config.n, config.N, config.test_size]
        for path in set(pool_files):
            rows = np.concatenate([p for p, f in zip(pools, pool_files)
                                   if f == path])
            assert np.unique(rows).size == rows.size


@pytest.mark.parametrize("plan", [
    CalibrationPlan(),
    CalibrationPlan(mode="interpolation"),
    CalibrationPlan(mode="group_conditional", n_groups=3),
    CalibrationPlan(mode="group_conditional", n_groups=3, group_rule="true_label"),
    CalibrationPlan(mode="class_conditional"),
    CalibrationPlan(mode="clustercp", n_clusters=2),
], ids=lambda plan: f"{plan.mode}-{plan.group_rule}")
def test_standard_and_semicp_never_read_unlabeled_pool_labels(plan, matrix_files,
                                                              tmp_path):
    from semicp.dataio import load_dataset, save_dataset
    hidden = load_dataset(matrix_files["pool"])
    hidden.labels[:] = -1
    hidden_path = tmp_path / "pool_hidden.csv"
    save_dataset(hidden, hidden_path)
    methods = (MethodSpec("standard", "standard"),
               MethodSpec("semicp", "semicp"),
               MethodSpec("random_match", "semicp", EstimatorSpec("random_match")))
    outputs = []
    for pool in (matrix_files["pool"], str(hidden_path)):
        config = ExperimentConfig(
            source=DataSource(labeled_file=matrix_files["lab"],
                              unlabeled_file=pool,
                              test_file=matrix_files["test"]),
            n=30, N=250, test_size=120, trials=3, base_seed=31,
            score=ScoreSpec("aps"), methods=methods, calibration=plan)
        outputs.append(json.dumps(results_records(config, run_experiment(config)),
                                  sort_keys=True))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("plan", [
    CalibrationPlan(),
    CalibrationPlan(mode="group_conditional", n_groups=3, group_rule="true_label"),
    CalibrationPlan(mode="class_conditional"),
    CalibrationPlan(mode="clustercp", n_clusters=2),
], ids=lambda plan: f"{plan.mode}-{plan.group_rule}")
def test_draw_is_shared_across_method_kinds(plan):
    """A trial's draw holds only what every method shares: configs that
    list different method kinds reuse one draw, and each method's results
    equal those of the config that lists them all."""
    full = small_config(calibration=plan)
    ctx = runner._build_context([full])
    for t in range(3):
        want, shared, draws = run_trial(full, t, ctx), {}, []
        for i, method in enumerate(full.methods):
            got = run_trial(replace(full, methods=(method,)), t, ctx, shared)
            assert np.array_equal(got[0], want[i], equal_nan=True)
            draws.append(shared["draw"])
        assert all(draw is draws[0] for draw in draws)


def test_n_sweep_never_reads_unlabeled_pool_labels(matrix_files, tmp_path):
    """The values of an n sweep take their pools from one permutation
    prefix per source; hiding the pool's labels still changes nothing."""
    from semicp.dataio import load_dataset, save_dataset
    hidden = load_dataset(matrix_files["pool"])
    hidden.labels[:] = -1
    hidden_path = tmp_path / "pool_hidden.csv"
    save_dataset(hidden, hidden_path)
    methods = (MethodSpec("standard", "standard"),
               MethodSpec("semicp", "semicp"),
               MethodSpec("random_match", "semicp", EstimatorSpec("random_match")))
    outputs = []
    for pool in (matrix_files["pool"], str(hidden_path)):
        config = ExperimentConfig(
            source=DataSource(labeled_file=matrix_files["lab"],
                              unlabeled_file=pool,
                              test_file=matrix_files["test"]),
            n=30, N=250, test_size=120, trials=3, base_seed=31,
            score=ScoreSpec("aps"), methods=methods)
        outputs.append(json.dumps(run_sweep(config, "n", [10, 30]),
                                  sort_keys=True))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("layout, sources", [("labeled_apart", 2),
                                             ("separate", 3)])
def test_n_sweep_permutes_each_source_once_per_trial(monkeypatch, matrix_files,
                                                     layout, sources, jobs):
    files = {"labeled_apart": dict(labeled_file=matrix_files["lab"],
                                   unlabeled_file=matrix_files["pool"]),
             "separate": dict(labeled_file=matrix_files["lab"],
                              unlabeled_file=matrix_files["pool"],
                              test_file=matrix_files["test"])}[layout]
    config = ExperimentConfig(source=DataSource(**files), n=10, N=300,
                              test_size=100, trials=4, base_seed=12)
    values = [10, 40, 25]
    want = [r for v in values for r in results_records(
        apply_sweep_value(config, "n", v),
        run_experiment(apply_sweep_value(config, "n", v)),
        extra={"sweep_axis": "n", "sweep_value": v})]
    drawn = []  # (source rows, prefix rows) of each permutation
    permutation = runner.rng.permutation

    def counted(key, n, size=None):
        drawn.append((n, size))
        return permutation(key, n, size)

    monkeypatch.setattr(runner.rng, "permutation", counted)
    monkeypatch.setattr(InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    monkeypatch.setattr(runner, "_WORKER", None)
    got = run_sweep(config, "n", values, jobs=jobs)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert len(drawn) == sources * config.trials
    # the 200-row labeled file is permuted at the largest n of the sweep
    assert sorted(set(drawn))[0] == (200, 40)


def unique_mask_coverage(mask, labels, groups):
    """Per-group coverage by np.unique and one boolean mask and mean per
    group: the reference for the bincount version."""
    hit = mask[np.arange(labels.shape[0]), labels]
    return {int(g): float(hit[groups == g].mean()) for g in np.unique(groups)}


def trial_with(config, draw, group_map, cutoffs):
    """run_trial's results on a given draw, group map and cutoffs."""
    with mock.patch.object(runner, "_group_map", lambda *args: group_map), \
            mock.patch.object(runner, "_cutoffs", lambda *args: cutoffs):
        return run_trial(config, 0, ctx=object(), shared={
            "key": runner._draw_key(config), "draw": draw})


def fake_draw(scores, labels):
    return SimpleNamespace(test_labels=labels, test_scores=scores,
                           test_true=scores[np.arange(labels.size), labels],
                           pool=lambda *args: None)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), t=st.integers(1, 300), k=st.integers(2, 12))
def test_per_group_coverage_matches_unique_reference(data, t, k):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rs = np.random.RandomState(seed)
    scores = rs.rand(t, k)
    cutoff = data.draw(st.floats(0.0, 1.0))
    mask = scores <= cutoff
    labels = rs.randint(0, k, t)
    # sparse ids leave gaps; the class modes report per true label
    groups = data.draw(st.sampled_from([labels, rs.randint(0, 7, t),
                                        rs.choice([0, 3, 40], t)]))
    # run_trial's group columns for this mask, test labels and coverage
    # groups, with a few trailing groups that no test sample has
    n_cov = int(groups.max()) + 1 + data.draw(st.integers(0, 3))
    config = small_config(test_size=t, methods=(MethodSpec("m", "standard"),))
    group_map = runner._GroupMap(None, 0, 0, groups, n_cov, 1, {})
    results = trial_with(config, fake_draw(scores, labels), group_map,
                         np.array([cutoff]))
    assert results.shape == (1, 2 + n_cov)
    got = observed(config, results)["m"].per_group_coverage
    want = unique_mask_coverage(mask, labels, groups)
    assert [(g, c.hex()) for g, c in got.items()] == \
        [(g, c.hex()) for g, c in want.items()]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), t=st.integers(1, 300), k=st.integers(2, 12),
       n_groups=st.integers(1, 5),
       cells=st.sampled_from(["marginal", "sample_groups", "class_groups"]))
def test_counted_coverage_and_size_equal_mask_metrics(data, t, k, n_groups,
                                                      cells):
    from semicp.metrics import avg_size, coverage
    rs = np.random.RandomState(data.draw(st.integers(0, 2**32 - 1)))
    # few distinct values, so that scores often equal their cutoffs
    scores = rs.randint(0, 8, (t, k)) / 8.0
    labels = rs.randint(0, k, t)
    cutoffs = rs.randint(0, 9, n_groups) / 8.0
    if cells == "marginal":  # the scalar cell -1
        group_map, cell = None, -1
    elif cells == "sample_groups":  # (t, 1) cells, as group_conditional
        ids = rs.randint(0, n_groups, t)
        group_map = runner._GroupMap(None, ids[:, None], ids, ids, n_groups,
                                     n_groups, {})
        cell = ids[:, None]
    else:  # (K,) cells, one group per class, as the class-based modes
        ids = rs.randint(0, n_groups, k)
        group_map = runner._GroupMap(None, ids, ids[labels], labels, k,
                                     n_groups, {})
        cell = ids
    config = small_config(test_size=t, methods=(MethodSpec("m", "standard"),))
    results = trial_with(config, fake_draw(scores, labels), group_map, cutoffs)
    mask = scores <= cutoffs[cell]
    assert float(results[0, 0]).hex() == coverage(mask, labels).hex()
    assert float(results[0, 1]).hex() == avg_size(mask).hex()


def test_clustercp_clusters_once_per_trial(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return cluster_classes(*args, **kwargs)

    monkeypatch.setattr(runner, "cluster_classes", counted)
    config = small_config(trials=3, n=60,
                          calibration=CalibrationPlan(mode="clustercp",
                                                      n_clusters=3))
    run_experiment(config)
    assert len(config.methods) == 3 and len(calls) == config.trials


def test_accuracy_sweep_runs_each_value_at_its_tuned_signal():
    from dataclasses import replace
    from semicp.datagen import tune_signal
    config = small_config(source=synth_source(n_classes=4, n_samples=1000),
                          trials=3)
    values = [0.6, 0.8]
    want = []
    for value in values:
        synthetic = replace(config.source.synthetic, signal=tune_signal(
            value, config.source.synthetic)[0])
        tuned = replace(config, source=DataSource(synthetic=synthetic))
        want += results_records(tuned, run_experiment(tuned), extra={
            "sweep_axis": "accuracy", "sweep_value": value})
    got = run_sweep(config, "accuracy", values)
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("case,message", [
    ("labeled_row_unlabeled", "the labeled pool source contains unlabeled rows"),
    ("test_unlabeled", "coverage evaluation needs labels on the test source"),
    ("classes_disagree", "data sources disagree on the number of classes"),
])
def test_source_data_errors_before_any_trial(tmp_path, case, message):
    from semicp.dataio import save_dataset
    from semicp.dataset import ProbabilityDataset
    from semicp.datagen import generate_synthetic
    from semicp.errors import DataError
    ds = generate_synthetic(SyntheticConfig(n_classes=3, n_samples=60, seed=3))
    other = ProbabilityDataset(probs=ds.probs, labels=ds.labels.copy())
    if case == "labeled_row_unlabeled":
        other.labels[7] = -1
    elif case == "test_unlabeled":
        other.labels[:] = -1
    else:
        other = generate_synthetic(SyntheticConfig(n_classes=4, n_samples=60,
                                                   seed=3))
    paths = {}
    for name, data in (("main", ds), ("other", other)):
        paths[name] = str(tmp_path / f"{name}.csv")
        save_dataset(data, paths[name])
    source = DataSource(labeled_file=paths["main"], test_file=paths["other"]) \
        if case == "test_unlabeled" else \
        DataSource(labeled_file=paths["other"], unlabeled_file=paths["main"])
    config = small_config(source=source, n=10, N=20, test_size=10, trials=2)
    with mock.patch.object(runner, "run_trial") as no_trials, \
            pytest.raises(DataError, match=f"^{message}$"):
        run_experiment(config)
    no_trials.assert_not_called()
