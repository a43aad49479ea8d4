"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload <name> [--seeds 10] [--first-seed 1]

Runs ``perfbench/run.py`` once per seed, one after the other, and prints for
each metric the median, the quartiles and the quartile distance as a share
of the median, next to the bound in ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {line} "
              f"(wall {time.perf_counter() - start:.1f} s)", flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
    for key, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        print(f"{key}: median {q2:.6g} quartiles {q1:.6g}..{q3:.6g} "
              f"spread {spread:.4f} bound {bounds.get(key)}")


if __name__ == "__main__":
    main()
