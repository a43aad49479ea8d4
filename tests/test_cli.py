import json
from pathlib import Path

import pytest

from semicp import runner
from semicp.cli import main
from semicp.calibration import conformal_quantile
from semicp.dataio import load_dataset
from semicp.scores import ScoreSpec, score_all_labels_batch

REPO = Path(__file__).resolve().parents[1]


def test_gen_calibrate_predict_flow(tmp_path, capsys):
    lab = tmp_path / "lab.csv"
    pool = tmp_path / "pool.csv"
    assert main(["gen", "--classes", "10", "--samples", "150", "--signal",
                 "2.4", "--seed", "11", "--out", str(lab)]) == 0
    assert main(["gen", "--classes", "10", "--samples", "800", "--signal",
                 "2.4", "--seed", "12", "--out", str(pool)]) == 0

    thr_file = tmp_path / "thr.json"
    assert main(["calibrate", "--labeled", str(lab), "--unlabeled", str(pool),
                 "--alpha", "0.1", "--score", "aps",
                 "--out", str(thr_file)]) == 0
    out = capsys.readouterr().out
    assert "threshold=" in out and "epsilon=" in out
    assert thr_file.exists()

    sets_file = tmp_path / "sets.csv"
    assert main(["predict", "--test", str(pool), "--threshold-file",
                 str(thr_file), "--score", "aps", "--out", str(sets_file)]) == 0
    out = capsys.readouterr().out
    assert "coverage=" in out
    lines = sets_file.read_text().splitlines()
    assert lines[0] == "index,label,set_size,covered,classes"
    assert len(lines) == 801


def test_calibrate_without_unlabeled_matches_plain_quantile(tmp_path, capsys):
    lab = tmp_path / "lab.csv"
    main(["gen", "--classes", "5", "--samples", "40", "--signal", "2.0",
          "--seed", "3", "--out", str(lab)])
    capsys.readouterr()
    assert main(["calibrate", "--labeled", str(lab), "--alpha", "0.2"]) == 0
    out = capsys.readouterr().out
    ds = load_dataset(lab)
    scores = score_all_labels_batch(ds.probs, ScoreSpec("thr"))
    expected = conformal_quantile(scores[range(len(ds)), ds.labels], 0.2)
    assert f"threshold={expected.value:.12g}" in out
    assert "N=0" in out and "epsilon=0" in out


def test_gen_with_target_accuracy(tmp_path, capsys):
    out_file = tmp_path / "d.csv"
    assert main(["gen", "--classes", "10", "--samples", "5000",
                 "--target-accuracy", "0.8", "--seed", "7",
                 "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "signal=" in out
    acc = float(out.split("top-1 accuracy ")[1].rstrip(")\n"))
    assert abs(acc - 0.8) < 0.03


def test_invalid_alpha_exits_with_config_code(tmp_path, capsys):
    lab = tmp_path / "lab.csv"
    main(["gen", "--classes", "3", "--samples", "20", "--out", str(lab),
          "--seed", "1"])
    capsys.readouterr()
    assert main(["calibrate", "--labeled", str(lab), "--alpha", "1.2"]) == 2


def test_missing_data_file_exits_with_data_code(capsys):
    assert main(["calibrate", "--labeled", "/no/such/file.csv"]) == 3


def test_argparse_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # --config is required
    assert exc.value.code == 2


def test_run_example_config_reproduces_pinned_summary(tmp_path, capsys):
    out_file = tmp_path / "results.json"
    assert main(["run", "--config", str(REPO / "configs" / "example.json"),
                 "--out", str(out_file)]) == 0
    results = json.loads(out_file.read_text())["results"]
    by_method = {r["method"]: r for r in results}
    # reference values pinned from the first run of the shipped config
    assert by_method["standard"]["cov_gap"] == pytest.approx(4.949, abs=1e-9)
    assert by_method["semicp"]["cov_gap"] == pytest.approx(1.962, abs=1e-9)
    assert by_method["oracle"]["cov_gap"] == pytest.approx(1.121, abs=1e-9)
    assert by_method["semicp"]["avg_size"] == pytest.approx(3.92934, abs=1e-9)
    assert by_method["standard"]["mean_coverage"] == pytest.approx(0.90601,
                                                                   abs=1e-9)
    assert by_method["semicp"]["improvement"] == pytest.approx(
        100 * (4.949 - 1.962) / (4.949 - 1.121), abs=1e-6)


def test_sweep_cli(tmp_path, capsys):
    config = {
        "version": "v1",
        "seed": 2,
        "n": 10, "N": 50, "test_size": 50, "trials": 3,
        "data": {"synthetic": {"classes": 5, "samples": 500, "signal": 2.0,
                               "seed": 6}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_file = tmp_path / "sweep.json"
    assert main(["sweep", "--config", str(cfg_path), "--axis", "n",
                 "--values", "5,10", "--out", str(out_file)]) == 0
    records = json.loads(out_file.read_text())["results"]
    assert {r["sweep_value"] for r in records} == {5, 10}

    config["sweep"] = {"axis": "N", "values": [0, 40]}
    cfg_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg_path), "--out",
                 str(out_file)]) == 0
    records = json.loads(out_file.read_text())["results"]
    assert {r["sweep_value"] for r in records} == {0, 40}


def test_run_seed_override_changes_results(tmp_path):
    config = {
        "version": "v1", "seed": 1,
        "n": 10, "N": 100, "test_size": 100, "trials": 5,
        "data": {"synthetic": {"classes": 5, "samples": 1000, "signal": 2.0,
                               "seed": 6}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for i, extra in enumerate(([], ["--seed", "99"], ["--seed", "99"])):
        out = tmp_path / f"o{i}.json"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]
                    + extra) == 0
        outs.append(out.read_bytes())
    assert outs[0] != outs[1]   # override takes effect
    assert outs[1] == outs[2]   # and is deterministic


def test_run_csv_results(tmp_path):
    config = {
        "version": "v1", "seed": 1,
        "n": 10, "N": 50, "test_size": 50, "trials": 3,
        "data": {"synthetic": {"classes": 4, "samples": 500, "signal": 2.0,
                               "seed": 2}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "r.csv"
    assert main(["run", "--config", str(cfg_path), "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("method,score,n,N,alpha,trials,cov_gap")
    assert len(lines) == 4  # header + standard/semicp/oracle


def test_predict_with_numeric_threshold(tmp_path, capsys):
    data = tmp_path / "d.csv"
    main(["gen", "--classes", "4", "--samples", "50", "--signal", "2.0",
          "--seed", "5", "--out", str(data)])
    capsys.readouterr()
    assert main(["predict", "--test", str(data), "--threshold", "0.99",
                 "--score", "aps"]) == 0
    out = capsys.readouterr().out
    assert "avg_size=" in out and "coverage=" in out


def test_sweep_flag_pairing_enforced(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "version": "v1", "n": 5, "N": 0, "test_size": 20, "trials": 2,
        "data": {"synthetic": {"classes": 3, "samples": 100, "seed": 1}}}))
    assert main(["sweep", "--config", str(cfg_path), "--axis", "n"]) == 2


def test_shipped_configs_parse_and_run_briefly(tmp_path):
    from semicp import runner as R
    for name in ("example.json", "sweep_n.json", "group_conditional.json"):
        config = R.load_config(REPO / "configs" / name)
        small = json.loads((REPO / "configs" / name).read_text())
        small["trials"] = 2
        p = tmp_path / name
        p.write_text(json.dumps(small))
        cfg = R.load_config(p)
        summaries = R.run_experiment(cfg)
        assert set(summaries) == {"standard", "semicp", "oracle"}


SWEEP_DOC = {
    "version": "v1", "n": 5, "N": 10, "test_size": 20, "trials": 2,
    "data": {"synthetic": {"classes": 3, "samples": 100, "seed": 1}},
    "sweep": {"axis": "n", "values": [5]},
}
BAD_CONFIG_FILES = {
    "missing": None,
    "not_json": "{not json",
    "not_an_object": "[1, 2]",
    "bad_value": json.dumps({**SWEEP_DOC, "n": "many"}),
    "score_not_an_object": json.dumps({**SWEEP_DOC, "score": []}),
    "estimator_not_an_object": json.dumps({**SWEEP_DOC, "estimator": []}),
    "calibration_not_an_object": json.dumps({**SWEEP_DOC,
                                             "calibration": "marginal"}),
    "score_unknown_key": json.dumps({**SWEEP_DOC,
                                     "score": {"kindd": "raps"}}),
    "synthetic_unknown_key": json.dumps({**SWEEP_DOC, "data": {"synthetic": {
        "classes": 3, "samples": 100, "signall": 3.0}}}),
    "method_unknown_key": json.dumps({**SWEEP_DOC, "methods": [
        {"kind": "semicp", "estimater": {"kind": "naive"}}]}),
    "randomized_not_a_boolean": json.dumps({**SWEEP_DOC, "score": {
        "kind": "aps", "randomized": "false"}, "estimator": {"kind": "naive"}}),
    "n_not_integral": json.dumps({**SWEEP_DOC, "n": 20.9}),
    "synthetic_and_labeled_file": json.dumps({**SWEEP_DOC, "data": {
        "synthetic": {"classes": 3, "samples": 100},
        "labeled_file": "lab.csv"}}),
    "labeled_file_not_a_string": json.dumps({**SWEEP_DOC,
                                             "data": {"labeled_file": 5}}),
    "alpha_beyond_float_range": json.dumps({**SWEEP_DOC, "alpha": 10**400}),
    "integer_too_long": json.dumps(SWEEP_DOC)[:-1] + ', "seed": 1' + "0" * 5000 + "}",
    "not_utf8": json.dumps(SWEEP_DOC).encode() + b"\xff",
}
BAD_SWEEP_SECTIONS = {
    "no_values": {"axis": "n"},
    "bad_values": {"axis": "n", "values": ["x"]},
    "value_not_integral": {"axis": "n", "values": [5.5]},
    "value_beyond_float_range": {"axis": "alpha", "values": [10**400]},
    "not_an_object": ["n", 5],
}


def _exit_code_and_stderr(tmp_path, capsys, command, content):
    cfg_path = tmp_path / "cfg.json"
    if isinstance(content, bytes):
        cfg_path.write_bytes(content)
    elif content is not None:
        cfg_path.write_text(content)
    code = main([command, "--config", str(cfg_path)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("case", sorted(BAD_CONFIG_FILES))
def test_bad_config_file_exits_2_with_one_line(tmp_path, capsys, command, case):
    code, err = _exit_code_and_stderr(tmp_path, capsys, command,
                                      BAD_CONFIG_FILES[case])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("case", sorted(BAD_SWEEP_SECTIONS))
def test_bad_sweep_section_exits_2_with_one_line(tmp_path, capsys, case):
    content = json.dumps({**SWEEP_DOC, "sweep": BAD_SWEEP_SECTIONS[case]})
    code, err = _exit_code_and_stderr(tmp_path, capsys, "sweep", content)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


DATA = "#semicp,v1,K=2,features=0\nlabel,p_0,p_1\n0,0.25,0.75\n1,0.5,0.5\n"
UNLABELED_DATA = "#semicp,v1,K=2,features=0\nlabel,p_0,p_1\n-1,0.25,0.75\n-1,0.5,0.5\n"
RUN_DOC = {**SWEEP_DOC, "n": 5, "N": 10, "test_size": 20}


def _data_file(tmp_path, content=DATA):
    path = tmp_path / "data.csv"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


def _threshold_file(tmp_path, content):
    path = tmp_path / "thr.json"
    if content is not None:
        path.write_text(content)
    return ["predict", "--test", _data_file(tmp_path),
            "--threshold-file", str(path)]


def _config_file(tmp_path, **changes):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**RUN_DOC, **changes}))
    return str(path)


def _run_with_plan(tmp_path, **calibration):
    return ["run", "--config", _config_file(tmp_path, calibration=calibration)]


def _unwritable(tmp_path):
    return str(tmp_path / "no_such_dir" / "out")


# (argv builder, exit code) for every input error the CLI maps to one line
CLI_ERRORS = {
    "magic_K_not_int": (lambda t: ["calibrate", "--labeled", _data_file(
        t, DATA.replace("K=2", "K=abc"))], 3),
    "dataset_not_utf8": (lambda t: ["calibrate", "--labeled", _data_file(
        t, DATA.encode() + b"\xff,0.5,0.5\n")], 3),
    "threshold_file_missing": (lambda t: _threshold_file(t, None), 3),
    "threshold_file_bad_json": (lambda t: _threshold_file(t, "{oops"), 3),
    "threshold_file_no_include_all": (
        lambda t: _threshold_file(t, '{"value": 0.5}'), 3),
    "gen_out_unwritable": (lambda t: ["gen", "--classes", "3", "--samples",
                                      "10", "--out", _unwritable(t)], 3),
    "calibrate_labeled_file_without_labels": (lambda t: [
        "calibrate", "--labeled", _data_file(t, UNLABELED_DATA)], 3),
    "calibrate_out_unwritable": (lambda t: ["calibrate", "--labeled",
                                            _data_file(t), "--out",
                                            _unwritable(t)], 3),
    "predict_out_unwritable": (lambda t: ["predict", "--test", _data_file(t),
                                          "--threshold", "0.5", "--out",
                                          _unwritable(t)], 3),
    "run_out_unwritable": (lambda t: ["run", "--config", _config_file(t),
                                      "--out", _unwritable(t)], 3),
    "sweep_out_unwritable": (lambda t: ["sweep", "--config", _config_file(t),
                                        "--out", _unwritable(t)], 3),
    "gen_prior_not_numbers": (lambda t: ["gen", "--classes", "3", "--samples",
                                         "10", "--prior", "a,b,c", "--out",
                                         str(t / "g.csv")], 2),
    "gen_prior_nan": (lambda t: ["gen", "--classes", "2", "--samples", "10",
                                 "--prior", "0.5,nan", "--out",
                                 str(t / "g.csv")], 2),
    "predict_threshold_nan": (lambda t: ["predict", "--test", _data_file(t),
                                         "--threshold", "nan"], 2),
    "plan_unknown_group_rule": (lambda t: _run_with_plan(
        t, mode="group_conditional", groups=2, rule="nope"), 2),
    "plan_min_class_count_zero": (lambda t: _run_with_plan(
        t, mode="clustercp", clusters=2, min_class_count=0), 2),
    "plan_external_column_negative": (lambda t: _run_with_plan(
        t, mode="group_conditional", groups=2, rule="external_column",
        external_column=-1), 2),
    "config_synthetic_prior_nan": (lambda t: ["run", "--config", _config_file(
        t, data={"synthetic": {"classes": 2, "samples": 100,
                               "prior": [0.5, float("nan")]}})], 2),
    "config_synthetic_signal_negative": (lambda t: ["run", "--config",
                                                    _config_file(t, data={
        "synthetic": {"classes": 3, "samples": 100, "signal": -1}})], 2),
}


@pytest.mark.parametrize("case", sorted(CLI_ERRORS))
def test_cli_input_error_exits_with_one_line(tmp_path, capsys, monkeypatch,
                                             case):
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran before the input error was found")

    # run and sweep must reject an unwritable --out before any trial runs
    monkeypatch.setattr(runner, "run_experiment", no_trials)
    monkeypatch.setattr(runner, "run_sweep", no_trials)
    build_argv, want = CLI_ERRORS[case]
    code = main(build_argv(tmp_path))
    err = capsys.readouterr().err
    assert code == want
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_calibrate_labeled_file_without_labels_names_the_empty_set(tmp_path,
                                                                   capsys):
    argv = CLI_ERRORS["calibrate_labeled_file_without_labels"][0](tmp_path)
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: labeled calibration set is empty\n"
