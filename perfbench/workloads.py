"""The four benchmark workloads.

Each workload builds its inputs from a seed before any timing, exposes the
user-facing call that is timed (``call``), one build of its data source
(``setup``, timed separately as ``setup_s``), a reduced warm-up call, and
output checks.  Outputs are deterministic, so every repeat of one
invocation must give the same digest.
"""

import contextlib
import hashlib
import io
import json
import os
from dataclasses import replace

from semicp import cli, datagen, dataio, runner
from semicp.datagen import SyntheticConfig
from semicp.dataset import ProbabilityDataset
from semicp.runner import (CalibrationPlan, DataSource, ExperimentConfig,
                           MethodSpec)
from semicp.scores import ScoreSpec
from semicp.unlabeled import EstimatorSpec

# mean coverage of standard and oracle may fall this far below 1 - alpha
COVERAGE_TOL = 0.03

# the n = 20 point of configs/example.json at its shipped seeds, as pinned
# by tests/test_cli.py
PINNED_N20 = {
    ("standard", "cov_gap"): 4.949,
    ("semicp", "cov_gap"): 1.962,
    ("oracle", "cov_gap"): 1.121,
    ("semicp", "avg_size"): 3.92934,
    ("standard", "mean_coverage"): 0.90601,
}


def nproc():
    return len(os.sched_getaffinity(0))


def records_digest(records):
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def coverage_problems(records, alpha, n_classes, trials):
    """Invariants every results record must satisfy."""
    problems = []
    for rec in records:
        tag = f"{rec.get('sweep_value', '')} {rec['method']}".strip()
        if rec["trials"] != trials:
            problems.append(f"{tag}: {rec['trials']} trials, expected {trials}")
        if not 0.0 <= rec["avg_size"] <= n_classes:
            problems.append(f"{tag}: avg_size {rec['avg_size']} outside [0, K]")
        if rec["method"] in ("standard", "oracle") \
                and rec["mean_coverage"] < 1.0 - alpha - COVERAGE_TOL:
            problems.append(f"{tag}: mean coverage {rec['mean_coverage']} "
                            f"below 1 - alpha - {COVERAGE_TOL}")
    return problems


def count_trial_rows(config, values=None, axis=None):
    """Rows a run must score at least once: trials x (n + N + test_size)."""
    configs = [config] if axis is None else \
        [runner.apply_sweep_value(config, axis, v) for v in values]
    return sum(c.trials * (c.n + c.N + c.test_size) for c in configs)


class Workload:
    name = ""
    why = ""
    jobs = 1
    # spans whose subtrees the layer self times must account for
    trace_roots = ("runner.run_trial",)
    # trials x (n + N + test_size) summed over the run's experiments
    trial_rows = 0

    def __init__(self, root, seed, workdir):
        self.root = root
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def call(self, jobs):
        raise NotImplementedError

    def digest(self, output):
        return records_digest(output)

    def check(self, output):
        return []

    def check_reference(self, output):
        """Checks made once per invocation, on the first good output."""
        return []

    def array_bytes(self):
        """Bytes of the data source's arrays (probs, labels and any logits
        and features), computed from their shapes."""
        s = self.config.source.synthetic
        return _source_bytes(s.n_samples, s.n_classes, 3)


def _source_bytes(rows, k, channels):
    return rows * (8 * k * channels + 8)


class SweepNSmall(Workload):
    name = "sweep-n-small"
    why = ("configs/example.json swept over n at jobs=1: many small trials, "
           "so per-trial overhead and repeated scoring dominate")
    AXIS, VALUES = "n", (10, 20, 50, 100)

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        shipped = runner.load_config(os.path.join(root, "configs", "example.json"))
        synthetic = replace(shipped.source.synthetic,
                            seed=shipped.source.synthetic.seed + seed)
        self.config = replace(shipped, base_seed=shipped.base_seed + seed,
                              source=DataSource(synthetic=synthetic))
        self.trial_rows = count_trial_rows(self.config, self.VALUES, self.AXIS)

    def setup(self):
        datagen.generate_synthetic(self.config.source.synthetic)

    def warm_up(self):
        runner.run_sweep(replace(self.config, trials=10), self.AXIS,
                         list(self.VALUES))

    def call(self, jobs):
        return runner.run_sweep(self.config, self.AXIS, list(self.VALUES), jobs=jobs)

    def check(self, output):
        problems = coverage_problems(output, self.config.alpha,
                                     self.config.source.synthetic.n_classes,
                                     self.config.trials)
        if sorted({r["sweep_value"] for r in output}) != list(self.VALUES):
            problems.append("sweep values missing from the records")
        return problems

    def check_reference(self, output):
        if self.seed != 0:
            return []
        got = {r["method"]: r for r in output if r["sweep_value"] == 20}
        return [f"n=20 {method} {key} = {got[method][key]}, pinned {want}"
                for (method, key), want in PINNED_N20.items()
                if abs(got[method][key] - want) > 1e-9]


def write_file_pool(seed, labeled_path, pool_path, labeled_rows, pool_rows,
                    n_classes):
    """Write the file-pool inputs with save_dataset: probs and labels only.

    Runs in a child process so the benchmark process's peak memory covers
    the workload alone; the arguments must be JSON values.
    """
    ds = datagen.generate_synthetic(SyntheticConfig(
        n_classes, labeled_rows + pool_rows, signal=2.4414, temperature=0.5,
        seed=seed))
    for path, rows in ((labeled_path, slice(0, labeled_rows)),
                       (pool_path, slice(labeled_rows, None))):
        dataio.save_dataset(
            ProbabilityDataset(probs=ds.probs[rows], labels=ds.labels[rows]), path)


class FilePoolLarge(Workload):
    name = "file-pool-large"
    why = ("a 60k-row CSV pool made by save_dataset: file loading, NNM on "
           "30k queries and big sorts and permutations carry the load")
    K, LABELED_ROWS, POOL_ROWS = 10, 5000, 60_000

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.labeled_path = os.path.join(workdir, "labeled.csv")
        self.pool_path = os.path.join(workdir, "pool.csv")
        self.config = ExperimentConfig(
            source=DataSource(labeled_file=self.labeled_path,
                              unlabeled_file=self.pool_path),
            n=1000, N=30_000, test_size=6_000, trials=20,
            score=ScoreSpec("thr"), base_seed=seed)
        self.trial_rows = count_trial_rows(self.config)

    def input_job(self):
        """(function, args) that writes this workload's input files."""
        return write_file_pool, (self.seed, self.labeled_path, self.pool_path,
                                 self.LABELED_ROWS, self.POOL_ROWS, self.K)

    def setup(self):
        dataio.load_dataset(self.labeled_path)
        dataio.load_dataset(self.pool_path)

    def warm_up(self):
        runner.run_experiment(replace(self.config, trials=2))

    def call(self, jobs):
        return runner.run_experiment(self.config, jobs=jobs)

    def digest(self, output):
        return records_digest({k: v.to_dict() for k, v in output.items()})

    def check(self, output):
        return coverage_problems([s.to_dict() for s in output.values()],
                                 self.config.alpha, self.K, self.config.trials)

    def array_bytes(self):
        return _source_bytes(self.LABELED_ROWS + self.POOL_ROWS, self.K, 1)


class ConditionalRandomizedParallel(Workload):
    name = "conditional-randomized-parallel"
    why = ("randomized RAPS with nnm_r over the three conditional "
           "calibration modes in a process pool of nproc workers")
    AXIS = "calibration"
    VALUES = ("group_conditional", "class_conditional", "clustercp")

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.jobs = nproc()
        self.config = ExperimentConfig(
            source=DataSource(synthetic=SyntheticConfig(
                10, 20_000, signal=2.4414, temperature=0.5, seed=seed)),
            n=250, N=2000, test_size=1000, trials=100,
            score=ScoreSpec("raps", randomized=True),
            methods=(MethodSpec("standard", "standard"),
                     MethodSpec("semicp", "semicp", EstimatorSpec("nnm_r")),
                     MethodSpec("oracle", "oracle")),
            calibration=CalibrationPlan(mode="group_conditional", n_groups=5,
                                        n_clusters=3),
            base_seed=seed)
        self.trial_rows = count_trial_rows(self.config, self.VALUES, self.AXIS)

    def setup(self):
        datagen.generate_synthetic(self.config.source.synthetic)

    def warm_up(self):
        runner.run_sweep(replace(self.config, trials=8), self.AXIS,
                         list(self.VALUES), jobs=self.jobs)

    def call(self, jobs):
        return runner.run_sweep(self.config, self.AXIS, list(self.VALUES), jobs=jobs)

    def check(self, output):
        return coverage_problems(output, self.config.alpha,
                                 self.config.source.synthetic.n_classes,
                                 self.config.trials)


class GenTargetAccuracy(Workload):
    name = "gen-target-accuracy"
    why = ("semicp gen with a target accuracy: signal bisection, generation "
           "and save_dataset, the only workload writing a dataset")
    trace_roots = ("bench.call",)
    TARGET, SAMPLES, K = 0.8, 50_000, 10

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.runs = 0
        template = SyntheticConfig(self.K, self.SAMPLES, temperature=0.5,
                                   seed=seed)
        signal, _ = datagen.calibrate_signal_for_accuracy(self.TARGET, template)
        self.source = replace(template, signal=signal)

    def argv(self, samples, out):
        return ["gen", "--classes", str(self.K), "--samples", str(samples),
                "--target-accuracy", str(self.TARGET), "--temperature", "0.5",
                "--seed", str(self.seed), "--out", out]

    def setup(self):
        datagen.generate_synthetic(self.source)

    def warm_up(self):
        self._gen(2000)

    def _gen(self, samples):
        """Run gen into a new file; {"code", "printed", "out"}."""
        self.runs += 1
        out = os.path.join(self.workdir, f"gen-{self.runs}.csv")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(self.argv(samples, out))
        return {"code": code, "printed": printed.getvalue(), "out": out}

    def call(self, jobs):
        return self._gen(self.SAMPLES)

    def digest(self, output):
        with open(output["out"], "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def check(self, output):
        return [] if output["code"] == 0 else [f"gen exited {output['code']}"]

    def check_reference(self, output):
        ds = dataio.load_dataset(output["out"])
        acc = datagen.measure_top1_accuracy(ds)
        problems = []
        if len(ds) != self.SAMPLES or ds.n_classes != self.K:
            problems.append(f"loaded {len(ds)} x {ds.n_classes}")
        if abs(acc - self.TARGET) > 0.01:
            problems.append(f"top-1 accuracy {acc:.4f} not within 0.01 of "
                            f"{self.TARGET}")
        if f"(top-1 accuracy {acc:.4f})" not in output["printed"]:
            problems.append("accuracy of the loaded file differs from the "
                            "one gen printed")
        return problems

    def array_bytes(self):
        return _source_bytes(self.SAMPLES, self.K, 3)


WORKLOADS = {w.name: w for w in (SweepNSmall, FilePoolLarge,
                                 ConditionalRandomizedParallel,
                                 GenTargetAccuracy)}
