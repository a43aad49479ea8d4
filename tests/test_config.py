"""The config reader against the hand-written section parsers it replaced.

``reference_config_from_dict`` is the earlier parser, kept verbatim as the
oracle: on every valid document it and ``config_from_dict`` must give equal
``ExperimentConfig``s, or both reject the document with a
``ConfigurationError``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from semicp.datagen import SyntheticConfig
from semicp.errors import ConfigurationError, InputError
from semicp.runner import (CALIBRATION_MODES, GROUP_RULES, METHOD_KINDS,
                           CalibrationPlan, DataSource, ExperimentConfig,
                           MethodSpec, config_from_dict)
from semicp.scores import SCORE_KINDS, ScoreSpec
from semicp.unlabeled import CRITERION_KINDS, ESTIMATOR_KINDS, EstimatorSpec


def reference_config_from_dict(doc: dict) -> ExperimentConfig:
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


def integer(lo, hi):
    """An int, sometimes written as an integral float."""
    return st.integers(lo, hi).flatmap(lambda i: st.sampled_from([i, float(i)]))


def real(lo, hi):
    """A float, or an int in range."""
    return st.one_of(st.floats(lo, hi, allow_nan=False),
                     st.integers(int(lo), int(hi)))


def section(required=None, **optional):
    return st.fixed_dictionaries(required or {}, optional=optional)


ESTIMATOR = section(kind=st.sampled_from(ESTIMATOR_KINDS), k=integer(1, 5),
                    criterion=st.sampled_from(CRITERION_KINDS))
METHOD = st.one_of(
    st.sampled_from(METHOD_KINDS),
    section({"kind": st.sampled_from(METHOD_KINDS)},
            name=st.sampled_from(["a", "b", "semicp"]), estimator=ESTIMATOR))
SYNTHETIC = st.integers(2, 6).flatmap(lambda k: section(
    {"classes": st.sampled_from([k, float(k)]), "samples": integer(0, 500)},
    signal=real(0, 5), noise_sigma=real(0.1, 3), temperature=real(0.1, 3),
    prior=st.sampled_from([None, [1 / k] * k]), seed=integer(0, 2**40)))
FILES = section({"labeled_file": st.sampled_from(["lab.csv", "pool.csv"])},
                unlabeled_file=st.sampled_from([None, "pool.csv"]),
                test_file=st.sampled_from([None, "test.csv"]))
DOCUMENT = section(
    {"n": integer(1, 50), "test_size": integer(1, 50),
     "data": st.one_of(section({"synthetic": SYNTHETIC}), FILES)},
    version=st.just("v1"), seed=integer(0, 2**63), alpha=real(0.01, 0.99),
    N=integer(0, 100), trials=integer(1, 20),
    score=section(kind=st.sampled_from(SCORE_KINDS), k_reg=integer(1, 4),
                  weight=real(0, 1), randomized=st.booleans(),
                  **{"lambda": real(0, 1)}),
    methods=st.one_of(st.none(), st.lists(METHOD, max_size=4)),
    estimator=ESTIMATOR,
    calibration=section(
        mode=st.sampled_from(CALIBRATION_MODES),
        groups=st.one_of(st.none(), integer(1, 5)),
        rule=st.sampled_from(GROUP_RULES), external_column=integer(0, 3),
        clusters=st.one_of(st.none(), integer(1, 5)),
        min_class_count=integer(1, 4)),
    sweep=st.just({"axis": "n", "values": [5, 10]}))


def outcome(parse, doc):
    try:
        return parse(doc)
    except ConfigurationError:
        return ConfigurationError


@settings(max_examples=500, deadline=None)
@given(doc=DOCUMENT)
def test_reader_matches_hand_written_parsers(doc):
    assert outcome(config_from_dict, doc) == \
        outcome(reference_config_from_dict, doc)
