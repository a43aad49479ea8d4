import hashlib
import json
import tracemalloc
import warnings
from pathlib import Path

import pytest

from semicp import runner
from semicp.cli import main
from semicp.calibration import conformal_quantile
from semicp.dataio import load_dataset

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
    thr_scores = 1.0 - ds.probs[range(len(ds)), ds.labels]
    expected = conformal_quantile(thr_scores, 0.2)
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


# sha256 of `gen` stdout, with its tmp directory written "{tmp}", and of its
# --out file; the generation blocks of GEN_CELLS cells are 8,192 rows at K=4,
# 10,922 at K=3, 3,276 at K=10 and 327 at K=100, so each case crosses
# block edges, and 50,000 rows are the signal bisection's probe rows
GEN_DIGESTS = {
    "signal_k4": (
        ["--classes", "4", "--samples", "12345", "--signal", "1.7", "--seed",
         "3"],
        "3601b7a23828f966f8bf7d48782eb9f21884c83b0d15dde8de18c575eed304af",
        "ba1231c24c274c2487bfac9e99ec937bc628f32ac07c11284e7065d1c1dfc0b2"),
    "target_at_probe_size": (
        ["--classes", "10", "--samples", "50000", "--target-accuracy", "0.8",
         "--temperature", "0.5", "--seed", "9"],
        "c2bc7dc3dd3644a06953244a5f7e672200d3d187283e11a454dc56421d38ca5f",
        "74accab4cf606578eaaddc479de80310ac91a73abbd6670f9937f477a79c0260"),
    "target_other_size": (
        ["--classes", "6", "--samples", "7000", "--target-accuracy", "0.7",
         "--seed", "4"],
        "13453b34966d3a96f3f378f88c799cfe0041a76cb96a1fe059f4a48799f16677",
        "710d03d43b187c4aee921dd9224eb448de7e3532de0ec51a4b8a08b133f10030"),
    "prior_k3": (
        ["--classes", "3", "--samples", "20000", "--prior", "0.5,0.3,0.2",
         "--signal", "1.2", "--seed", "5"],
        "1908882a53625bafdc995995d2853c73ca59cdd9ccf1a37c50a28a394b8183b9",
        "f0553e4d0d35671c9e9eb6f3a970e3807084b6542ca1f4515e460c3163179a1e"),
    "k100": (
        ["--classes", "100", "--samples", "1000", "--signal", "3.0",
         "--noise-sigma", "0.7", "--seed", "6"],
        "cf38ef7f1281eac22d0387516b0299faea868e3486ab1f4650d0db1be5615feb",
        "020015552fd33c473d59ec994dfea1bf1e74c2dbe61e80bacfc6bc51052fc12a"),
}


@pytest.mark.parametrize("case", sorted(GEN_DIGESTS))
def test_gen_byte_identical_to_pinned(tmp_path, capsys, case):
    flags, stdout_digest, out_digest = GEN_DIGESTS[case]
    out = tmp_path / "g.csv"
    capsys.readouterr()
    assert main(["gen"] + flags + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "{tmp}")
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_digest
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_digest


@pytest.mark.parametrize("target", [[], ["--target-accuracy", "0.8"]])
def test_gen_memory_does_not_grow_with_samples(tmp_path, capsys, target):
    # gen holds one block of rows (plus the 50,000-row probe draw when it
    # tunes the signal), not the dataset: 100,000 x 10 rows are 16 MB
    main(["gen", "--classes", "10", "--samples", "2000", "--out",
          str(tmp_path / "warm.csv")])  # imports and caches outside the trace
    tracemalloc.start()
    try:
        assert main(["gen", "--classes", "10", "--samples", "100000",
                     "--out", str(tmp_path / "g.csv")] + target) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("flags", [
    ["--samples", "10"],
    # the bisection's probe rows are checked before any file is written
    ["--samples", "20000", "--target-accuracy", "0.5"],
])
def test_gen_non_finite_rows_exit_3_and_leave_no_file(tmp_path, capsys,
                                                      flags):
    out = tmp_path / "g.csv"
    with warnings.catch_warnings():  # logits / 1e-310 overflow, silently
        warnings.simplefilter("error")
        code = main(["gen", "--classes", "3", "--temperature", "1e-310",
                     "--out", str(out)] + flags)
    assert code == 3
    assert capsys.readouterr().err == "error: row 0: non-finite value\n"
    assert not out.exists()


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


INCLUDE_ALL = ('{"value": null, "include_all": true, "level_index": 11, '
               '"pool_size": 10, "alpha": 0.1}')
# sha256 of the `predict --out` file; "{thr}" stands for an include-all
# threshold file
PREDICT_DIGESTS = {
    "aps": (
        ["--score", "aps", "--threshold", "0.9"],
        "fa5c213225d5524bf8d4e06395a86d14c0790528f49ad579b08224157deb663e"),
    "raps_randomized": (
        ["--score", "raps", "--randomized", "--seed", "5", "--threshold",
         "0.95"],
        "dd43a3e16166bd162be9fec9a069de4d59a7d125be652d547eb8965298034355"),
    "saps_randomized_include_all": (
        ["--score", "saps", "--randomized", "--threshold-file", "{thr}"],
        "a22bc043ebd48bdd46e8921e7f9c9b2e388719a3796e74d225fca1532ea39a8f"),
    "thr_include_all": (
        ["--score", "thr", "--threshold-file", "{thr}"],
        "a22bc043ebd48bdd46e8921e7f9c9b2e388719a3796e74d225fca1532ea39a8f"),
}


@pytest.mark.parametrize("case", sorted(PREDICT_DIGESTS))
def test_predict_sets_byte_identical_to_pinned(tmp_path, capsys, case):
    from semicp.dataio import save_dataset
    from semicp.datagen import SyntheticConfig, generate_synthetic
    ds = generate_synthetic(SyntheticConfig(n_classes=5, n_samples=240,
                                            signal=1.5, seed=21))
    ds.labels[::7] = -1  # unlabeled rows leave `covered` empty
    data, thr, out = (tmp_path / name for name in ("d.csv", "t.json", "s.csv"))
    save_dataset(ds, data)
    thr.write_text(INCLUDE_ALL)
    flags, digest = PREDICT_DIGESTS[case]
    flags = [f.replace("{thr}", str(thr)) for f in flags]
    assert main(["predict", "--test", str(data), "--out", str(out)]
                + flags) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of `calibrate` stdout, with its tmp directory written "{tmp}", and
# of its --out file; "{pool}" stands for the unlabeled file
CALIBRATE_DIGESTS = {
    "thr": (
        ["--score", "thr"],
        "d33864eaff221cfe48c327b579ccecc00fd8f0cf1dc14ecb8997b60a34a0b4ed",
        "04764b75f4db6f6c0a059c7b584b8d7e9bee3bf34521500f6adfaa04e19b11d6"),
    "aps_nnm": (
        ["--score", "aps", "--unlabeled", "{pool}", "--estimator", "nnm"],
        "330142cab72ce443baf660aebc7ec688ffd2224183137add1dd44d28ab3a5586",
        "58b2fff0fd02e87c4d126de15f9fcb267374345c05c4121c4076a14672c93785"),
    "aps_nnm_k3_confidence": (
        ["--score", "aps", "--unlabeled", "{pool}", "--estimator", "nnm",
         "--neighbors", "3", "--criterion", "confidence"],
        "6356043a5866d5f866f9690b99b53b3aa574a48ff233c8b128a7b8391d654b72",
        "a1f2ff6b8a308b4e18b7cec83d49b0350ec44d89f479fed8b7a8fe3c96e4c220"),
    "aps_debias": (
        ["--score", "aps", "--unlabeled", "{pool}", "--estimator", "debias"],
        "1f3b8d25c4ce4076c1c5928a845d6e8235e638547538c3abde8c0fe35ed85052",
        "6dc4ee38f9718191c614ded4e0ac0df349588283e4a0c5820d7f9217d28bcb40"),
    "aps_random_match": (
        ["--score", "aps", "--unlabeled", "{pool}", "--estimator",
         "random_match", "--seed", "3"],
        "a7ce38ce8d25fc1daba6896285893ed7b56f38c118333832ab068665b37d00e3",
        "28d34c3006a6b48a57d1abc51a99564ad9e9cfbf4fac1105772fecb134baa0e1"),
    "raps_randomized_nnm_r": (
        ["--score", "raps", "--randomized", "--unlabeled", "{pool}",
         "--estimator", "nnm_r", "--seed", "5"],
        "85b081bbf24e40f46bf43be217acf7a8958720acd89545629c08a48bad07bf2e",
        "568361be36c6fb72a444411b6089804270c6e5258b4770d19db6003e5ff13aba"),
    "saps_randomized_naive": (
        ["--score", "saps", "--randomized", "--unlabeled", "{pool}",
         "--estimator", "naive"],
        "6f8777a44f2827fb8987f1991d39331ca32915b61a83b60b637cd9c626406b09",
        "62f8afc0bd1983a525ead8f0f8fb1229869dca14e2a37d33d304c19240c0872f"),
    "aps_include_all": (
        ["--score", "aps", "--unlabeled", "{pool}", "--alpha", "0.001"],
        "059e6f655169359621b71460403700dbc9ca2bf7cb6c058612d12ebb9e103714",
        "4afdf52a4e6b29ea075c1878d3e3fafa09f69d05bf742f7e2abbdc5961a86d6f"),
}


@pytest.mark.parametrize("case", sorted(CALIBRATE_DIGESTS))
def test_calibrate_byte_identical_to_pinned(tmp_path, capsys, case):
    from semicp.dataio import save_dataset
    from semicp.datagen import SyntheticConfig, generate_synthetic
    lab = generate_synthetic(SyntheticConfig(n_classes=5, n_samples=240,
                                             signal=1.5, seed=21))
    lab.labels[::7] = -1  # calibrate reads the labeled rows only
    pool = generate_synthetic(SyntheticConfig(n_classes=5, n_samples=300,
                                              signal=1.5, seed=22))
    data, unlabeled, out = (tmp_path / name
                            for name in ("d.csv", "u.csv", "t.json"))
    save_dataset(lab, data)
    save_dataset(pool, unlabeled)
    flags, stdout_digest, out_digest = CALIBRATE_DIGESTS[case]
    flags = [f.replace("{pool}", str(unlabeled)) for f in flags]
    capsys.readouterr()
    assert main(["calibrate", "--labeled", str(data), "--out", str(out)]
                + flags) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "{tmp}")
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_digest
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_digest


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
    "nnm_r_with_deterministic_score": json.dumps({**SWEEP_DOC, "estimator": {
        "kind": "nnm_r"}}),
    "nnm_r_with_two_neighbors": json.dumps({**SWEEP_DOC, "score": {
        "kind": "aps", "randomized": True}, "estimator": {"kind": "nnm_r", "k": 2}}),
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
LOGITS_INF_DATA = "#semicp,v1,K=2,features=0\nlabel,z_0,z_1\n0,1.5,inf\n"
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


def _calibrate_across_class_counts(tmp_path):
    """A 3-class labeled file with a 5-class unlabeled file."""
    files = []
    for k in (3, 5):
        path = tmp_path / f"k{k}.csv"
        probs = ",".join([format(1 / k, ".17g")] * k)
        path.write_text(f"#semicp,v1,K={k},features=0\nlabel,"
                        + ",".join(f"p_{j}" for j in range(k))
                        + "".join(f"\n{i % k},{probs}" for i in range(6))
                        + "\n")
        files.append(str(path))
    return ["calibrate", "--labeled", files[0], "--unlabeled", files[1]]


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
    "threshold_file_include_all_string": (lambda t: _threshold_file(
        t, '{"value": 0.5, "include_all": "false", "level_index": 1, '
           '"pool_size": 2, "alpha": 0.1}'), 3),
    "calibrate_class_counts_disagree": (_calibrate_across_class_counts, 3),
    "dataset_logits_only_inf": (lambda t: ["calibrate", "--labeled",
                                           _data_file(t, LOGITS_INF_DATA)], 3),
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
    "run_jobs_zero": (lambda t: ["run", "--config", _config_file(t),
                                 "--jobs", "0"], 2),
    "sweep_jobs_negative": (lambda t: ["sweep", "--config", _config_file(t),
                                       "--jobs", "-3"], 2),
    "sweep_out_unwritable": (lambda t: ["sweep", "--config", _config_file(t),
                                        "--out", _unwritable(t)], 3),
    "gen_prior_not_numbers": (lambda t: ["gen", "--classes", "3", "--samples",
                                         "10", "--prior", "a,b,c", "--out",
                                         str(t / "g.csv")], 2),
    "gen_prior_nan": (lambda t: ["gen", "--classes", "2", "--samples", "10",
                                 "--prior", "0.5,nan", "--out",
                                 str(t / "g.csv")], 2),
    "gen_classes_one": (lambda t: ["gen", "--classes", "1", "--samples", "10",
                                   "--out", str(t / "g.csv")], 2),
    "gen_signal_negative": (lambda t: ["gen", "--classes", "3", "--samples",
                                       "10", "--signal", "-1", "--out",
                                       str(t / "g.csv")], 2),
    "gen_signal_nan": (lambda t: ["gen", "--classes", "3", "--samples", "10",
                                  "--signal", "nan", "--out",
                                  str(t / "g.csv")], 2),
    "gen_noise_sigma_nan": (lambda t: ["gen", "--classes", "3", "--samples",
                                       "10", "--noise-sigma", "nan", "--out",
                                       str(t / "g.csv")], 2),
    "gen_temperature_zero": (lambda t: ["gen", "--classes", "3", "--samples",
                                        "10", "--temperature", "0", "--out",
                                        str(t / "g.csv")], 2),
    "gen_prior_not_summing_to_one": (lambda t: [
        "gen", "--classes", "2", "--samples", "10", "--prior", "0.5,0.6",
        "--out", str(t / "g.csv")], 2),
    "gen_samples_zero": (lambda t: ["gen", "--classes", "3", "--samples", "0",
                                    "--out", str(t / "g.csv")], 2),
    "predict_threshold_nan": (lambda t: ["predict", "--test", _data_file(t),
                                         "--threshold", "nan"], 2),
    "calibrate_raps_lambda_nan": (lambda t: [
        "calibrate", "--labeled", _data_file(t), "--score", "raps",
        "--lambda", "nan"], 2),
    "calibrate_saps_weight_nan": (lambda t: [
        "calibrate", "--labeled", _data_file(t), "--score", "saps",
        "--weight", "nan"], 2),
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


@pytest.mark.filterwarnings("error")  # a numpy warning adds lines to stderr
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


def test_gen_without_samples_writes_no_file(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["gen", "--classes", "3", "--samples", "0", "--out",
                 str(out)]) == 2
    assert not out.exists()


def test_calibrate_labeled_file_without_labels_names_the_empty_set(tmp_path,
                                                                   capsys):
    argv = CLI_ERRORS["calibrate_labeled_file_without_labels"][0](tmp_path)
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: labeled calibration set is empty\n"


@pytest.mark.parametrize("criterion", ["pseudo_score", "score_vector"])
def test_calibrate_across_class_counts_names_the_mismatch(tmp_path, capsys,
                                                          criterion):
    argv = _calibrate_across_class_counts(tmp_path)
    assert main(argv + ["--criterion", criterion]) == 3
    assert capsys.readouterr().err == \
        "error: data sources disagree on the number of classes\n"
