"""The README's library example runs as written."""

import re
from pathlib import Path

from semicp.cli import main

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
