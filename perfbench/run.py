"""semicp benchmark: one workload per invocation, or all four in turn.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` the workload's user-facing call is repeated for
``--seconds`` seconds with tracing off, and the end-to-end metrics are
printed: ``run_s`` (median wall seconds of the call), ``setup_s`` (median
seconds of one data-source build, repeated for a third of ``--seconds``),
``peak_rss_mb`` and ``failed_ratio``.
With ``--trace 1`` the call runs at jobs=1, first untraced and then with
spans around every public semicp function, and the per-layer metrics are
printed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller result,
with provenance, goes to ``perfbench/_work/``.

The benchmark imports semicp from ``src/`` next to this directory and exits
with an error when that tree is missing.
"""

import os

# one thread per process for BLAS/OpenMP pools, inherited by pool workers
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

from layers import layer_metrics  # noqa: E402
from tracing import ROOT as ROOT_SPAN, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / "_work"
WORKLOAD_NAMES = ("sweep-n-small", "file-pool-large",
                  "conditional-randomized-parallel", "gen-target-accuracy")
MAX_REPS = 1000
# data-source builds are repeated for this share of --seconds
SETUP_SHARE = 1 / 3
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Rep:
    """One timed call: wall seconds, its output, or the traceback it raised."""

    def __init__(self, seconds, output=None, error=None):
        self.seconds = seconds
        self.output = output
        self.error = error


def repeat(call, seconds, max_reps=MAX_REPS):
    """Call ``call()`` until ``seconds`` have passed, at least once.

    A call that raises is recorded with its traceback and the loop goes on.
    """
    reps = []
    start = time.perf_counter()
    while not reps or (time.perf_counter() - start < seconds
                       and len(reps) < max_reps):
        t0 = time.perf_counter()
        try:
            output = call()
        except Exception:  # counted in failed_ratio; the run goes on
            rep = Rep(time.perf_counter() - t0, error=traceback.format_exc())
            print(rep.error, file=sys.stderr)
        else:
            rep = Rep(time.perf_counter() - t0, output)
        reps.append(rep)
    return reps


def _guarded(fn, *args):
    try:
        return fn(*args)
    except Exception:
        return ["check raised: " + traceback.format_exc().strip().splitlines()[-1]]


def tally(reps, workload, extra_reference_check=None):
    """Problems per repeat; a repeat with any problem counts as failed.

    Every good output must have the first good output's digest.  The
    workload's once-per-invocation checks run on that first output, and
    their problems apply to every repeat that shares its digest.
    """
    problems = [[] for _ in reps]
    digests = [None] * len(reps)
    for i, rep in enumerate(reps):
        if rep.error is not None:
            problems[i].append("raised: " + rep.error.strip().splitlines()[-1])
            continue
        try:
            digests[i] = workload.digest(rep.output)
        except Exception:
            problems[i].append("digest raised: "
                               + traceback.format_exc().strip().splitlines()[-1])
            continue
        problems[i] += _guarded(workload.check, rep.output)
    good = [i for i, d in enumerate(digests) if d is not None]
    if good:
        first = reps[good[0]].output
        once = _guarded(workload.check_reference, first)
        if extra_reference_check is not None:
            once += _guarded(extra_reference_check, first)
        for i in good:
            if digests[i] != digests[good[0]]:
                problems[i].append("output differs from the first repeat")
            else:
                problems[i] += once
    return problems


def median_seconds(reps):
    good = [r.seconds for r in reps if r.error is None]
    return statistics.median(good or [r.seconds for r in reps])


def peak_rss_mb(jobs):
    """Peak resident memory of this process, or of its largest worker."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if jobs > 1:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


# run in the input writer: sys.argv = [-c, src dir, bench dir, function, args]
INPUT_WRITER = ("import json, sys; sys.path[:0] = sys.argv[1:3]; "
                "import workloads; "
                "getattr(workloads, sys.argv[3])(*json.loads(sys.argv[4]))")


def build_inputs(workload):
    """Write the workload's input files in a child process and wait for it.

    A plain subprocess rather than multiprocessing, whose spawn start
    method leaves a resource-tracker process behind.
    """
    job = getattr(workload, "input_job", None)
    if job is None:
        return
    fn, args = job()
    proc = subprocess.run(
        [sys.executable, "-c", INPUT_WRITER, str(ROOT / "src"), str(BENCH_DIR),
         fn.__name__, json.dumps(args)], check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"input writer exited with code {proc.returncode}")


def end_to_end(workload, seconds):
    workload.warm_up()
    reps = repeat(lambda: workload.call(workload.jobs), seconds)
    # read before the checks below, which run the program again (jobs=1)
    # or load what it wrote
    rss_mb = peak_rss_mb(workload.jobs)
    # timed after the calls, which build the same source and so warm it up
    setup_reps = repeat(workload.setup, seconds * SETUP_SHARE)
    for rep in setup_reps:
        if rep.error is not None:
            raise RuntimeError("data-source build raised:\n" + rep.error)

    def same_at_jobs_1(output):
        if workload.jobs <= 1:
            return []
        other = workload.call(1)
        return [] if workload.digest(other) == workload.digest(output) else \
            [f"records at jobs=1 differ from jobs={workload.jobs}"]

    problems = tally(reps, workload, same_at_jobs_1)
    values = (median_seconds(reps), median_seconds(setup_reps), rss_mb)
    metrics = {name: (value, unit)
               for (name, unit), value in zip(END_TO_END, values)}
    detail = {"run_s_reps": [r.seconds for r in reps],
              "setup_s_reps": [r.seconds for r in setup_reps]}
    return reps, problems, metrics, detail


def traced(workload, seconds):
    workload.warm_up()
    base = repeat(lambda: workload.call(1), seconds / 2)
    parallel = repeat(lambda: workload.call(workload.jobs), seconds / 2) \
        if workload.jobs > 1 else []
    tracer = Tracer()
    spans = []
    with tracer:
        root = tracer.wrap(ROOT_SPAN, "bench", workload.call)

        def traced_call():
            tracer.enabled = True
            try:
                return root(1)
            finally:
                tracer.enabled = False
                spans.append(tracer.take())

        traced_reps = repeat(traced_call, seconds / 2)
    reps = base + parallel + traced_reps
    problems = tally(reps, workload)
    metrics, profiles = layer_metrics(
        spans, workload, median_seconds(base), median_seconds(traced_reps),
        median_seconds(parallel) if parallel else None)
    overhead = metrics["trace.overhead_ratio"][0]
    for i, profile in enumerate(profiles):
        if abs(1.0 - profile.accounted) > max(overhead, 0.01):
            problems[len(base) + len(parallel) + i].append(
                f"layer self times account for {profile.accounted:.4f} of the "
                f"traced roots {workload.trace_roots}")
    detail = {"untraced_s_reps": [r.seconds for r in base],
              "parallel_s_reps": [r.seconds for r in parallel],
              "traced_s_reps": [r.seconds for r in traced_reps],
              "spans": spans[-1] if spans else []}
    return reps, problems, metrics, detail


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def git_sha():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if sha is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def provenance(workload):
    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(os.path.join(index, "size"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "jobs": workload.jobs,
        # computed from array shapes, not measured: no bandwidth claim
        "source_array_bytes": workload.array_bytes(),
    }


def import_semicp():
    src = ROOT / "src"
    if not (src / "semicp" / "__init__.py").is_file():
        raise SystemExit(f"error: semicp sources not found under {src}")
    sys.path.insert(0, str(src))
    import semicp
    if Path(semicp.__file__).resolve().parent != (src / "semicp").resolve():
        raise SystemExit(f"error: imported semicp from {semicp.__file__}, "
                         f"not from {src}")


def run_one(name, seed, seconds, trace):
    import_semicp()
    from workloads import WORKLOADS

    WORK.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        workload = WORKLOADS[name](str(ROOT), seed, workdir)
        build_inputs(workload)
        measure = traced if trace else end_to_end
        reps, problems, metrics, detail = measure(workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for p in problems if p)
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = provenance(workload)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    spans = detail.pop("spans", None)
    if spans:
        (WORK / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "parent", "start", "end", "counts"],
             "spans": [s.to_list() for s in spans]}))
    (WORK / f"{stem}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
         "provenance": info, "result": result, "detail": detail,
         "problems": [p for p in problems if p]}, indent=1))

    print(f"workload {name} seed={seed} trace={int(trace)}")
    print("provenance " + json.dumps(info))
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    if not trace:
        print(f"  failed_ratio = {failed / len(reps):.6g} "
              f"({failed} of {len(reps)} runs)")
    for i, p in enumerate(problems):
        for line in p:
            print(f"  run {i} failed: {line}")
    print(json.dumps(result))


def run_all(seed, seconds, trace):
    """Each workload in its own process, so peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, json.JSONDecodeError):
            result = None
        if result is None:
            raise SystemExit(f"error: workload {name} exited "
                             f"{proc.returncode} without a result")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args.seed, args.seconds, bool(args.trace))
    else:
        run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
