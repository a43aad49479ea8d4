"""List the statements of ``src/semicp`` that no traffic runs.

The traffic is every call the program is known to serve:

* each benchmark workload's timed call (``perfbench/workloads.py``,
  imported and left as it is) at a few trials, at one job and, where the
  workload runs a process pool, at its own job count as well;
* ``semicp run`` and ``semicp sweep`` of every shipped config in
  ``configs/``;
* ``semicp gen``, ``calibrate`` (with and without an unlabeled pool) and
  ``predict`` on small generated files.

All of it runs in this process under ``sys.settrace``, which records the
lines run in ``src/semicp``; the modules are imported under the trace, so
their top-level statements count too.  A process pool's workers are forked
children whose lines are not recorded, which is why each workload also runs
at one job.  The script then prints, for each
module, the executable statements (statement start lines that compile to
code) that none of the traffic ran.  Run it from anywhere as

    python tests/traffic.py [--trials 3]

It writes its files to a temporary directory that it removes.
"""

import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import sys
import tempfile
import types
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "semicp"


def executable_lines(source: str, filename: str = "<module>") -> set:
    """Start lines of the statements of ``source`` that compile to code:
    a statement with no instruction of its own (``global``, a function's
    docstring) cannot be run, so it is left out."""
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    lines, stack = set(), [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return starts & lines


@contextlib.contextmanager
def collecting(root):
    """Record the lines run in the files under ``root`` while the block
    runs; yields {file path: set of line numbers}, filled as they run."""
    root = os.path.realpath(root) + os.sep
    hits, inside = {}, {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in inside:
            inside[path] = os.path.realpath(path).startswith(root)
        if not inside[path]:
            return None
        hits.setdefault(path, set()).add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        yield hits
    finally:
        sys.settrace(previous)


def not_run(root, hits) -> dict:
    """{file path: sorted executable lines not in ``hits``} for every
    ``.py`` file under ``root``."""
    ran = {os.path.realpath(path): lines for path, lines in hits.items()}
    out = {}
    for path in sorted(Path(root).rglob("*.py")):
        lines = executable_lines(path.read_text(), str(path))
        out[str(path)] = sorted(lines - ran.get(os.path.realpath(path), set()))
    return out


def _cli(main, argv):
    """``semicp`` with ``argv``; fails unless it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"semicp {' '.join(argv)} exited {code}")


def run_traffic(trials: int, workdir: Path):
    """Run every call of the traffic (see the module docstring)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    workloads = importlib.import_module("workloads")
    main = importlib.import_module("semicp.cli").main
    for seed, cls in enumerate(workloads.WORKLOADS.values()):
        load = cls(str(ROOT), seed, str(workdir))
        input_job = getattr(load, "input_job", None)
        if input_job is not None:  # file-pool-large writes its input files
            job, args = input_job()
            job(*args)
        if hasattr(load, "config"):
            load.config = replace(load.config, trials=trials)
        load.setup()
        for jobs in sorted({1, load.jobs}):
            load.call(jobs)
    for config in sorted((ROOT / "configs").glob("*.json")):
        _cli(main, ["run", "--config", str(config), "--out",
                    str(workdir / f"{config.stem}.json")])
        if "sweep" in json.loads(config.read_text()):
            _cli(main, ["sweep", "--config", str(config), "--format", "csv",
                        "--out", str(workdir / f"{config.stem}.csv")])
    lab, pool = workdir / "lab.csv", workdir / "pool.csv"
    _cli(main, ["gen", "--classes", "4", "--samples", "300", "--seed", "1",
                "--out", str(lab)])
    _cli(main, ["gen", "--classes", "4", "--samples", "2000", "--prior",
                "0.4,0.3,0.2,0.1", "--seed", "2", "--out", str(pool)])
    threshold = workdir / "threshold.json"
    _cli(main, ["calibrate", "--labeled", str(lab)])
    _cli(main, ["calibrate", "--labeled", str(lab), "--unlabeled", str(pool),
                "--out", str(threshold)])
    _cli(main, ["predict", "--test", str(pool), "--threshold-file",
                str(threshold), "--out", str(workdir / "sets.csv")])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=3,
                        help="trials of each workload's experiments")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        with collecting(PACKAGE) as hits:
            run_traffic(args.trials, Path(tmp))
    for path, lines in not_run(PACKAGE, hits).items():
        text = Path(path).read_text().splitlines()
        print(f"{Path(path).relative_to(ROOT)}: {len(lines)} not run")
        for line in lines:
            print(f"  {line:4d}  {text[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
