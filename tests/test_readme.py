"""The README's library example runs as written, its config example
parses, and its results-record field list is the one the writer uses."""

import json
import re
from pathlib import Path

from semicp.cli import main
from semicp.dataio import RESULT_FIELDS
from semicp.runner import config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    for name, seed in (("lab.csv", "1"), ("pool.csv", "2")):
        assert main(["gen", "--classes", "3", "--samples", "200",
                     "--seed", seed, "--out", name]) == 0
    capsys.readouterr()
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["threshold"].pool_size == 400  # 200 labeled + 200 estimated
    assert scope["mask"].shape == (1, 3) and len(scope["sets"]) == 1


def test_experiment_config_example_parses():
    section = README.read_text().split("## Experiment config (v1)", 1)[1]
    doc = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    config = config_from_dict(doc)
    assert config.score.kind == "aps" and config.source.synthetic.n_classes == 10
    assert [m.kind for m in config.methods] == ["standard", "semicp", "oracle"]


def test_results_field_list_matches_result_fields():
    section = README.read_text().split("## Results files", 1)[1]
    listed = re.search(r"one record per method:\s*`([^`]*)`", section).group(1)
    names = [name.strip() for name in re.sub(r"[\[\]]", "", listed).split(",")]
    assert names == list(RESULT_FIELDS)
