"""Run the lkplo benchmark from the root of a checkout.

    python3 perfbench/run.py --workload tuned_cv --seed 0 --seconds 20 --trace 0

Workloads: tuned_cv, fit_large, score_grid, cli_score, or `all`, which
runs each of them in a fresh process. With --trace 0 the run reports
the end-to-end metrics, with --trace 1 the per-layer ones. The last line
of stdout is one JSON object with the keys correct, attempted, failed
and metrics; every run is also appended to .perfbench_run/results.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("tuned_cv", "fit_large", "score_grid", "cli_score")
# One BLAS thread for this process and its children: timings then do not
# depend on what else runs on the machine's other cores.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_ALL_TIMEOUT_S = 900


def prepare_environment():
    """Pin the BLAS thread count before numpy loads and import lkplo from
    this checkout's src/. Exits when the sources are not there."""
    if not os.path.isfile(os.path.join(SRC, "lkplo", "__init__.py")):
        raise SystemExit(f"error: no lkplo package under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload;
    the last line combines their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_ALL_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    prepare_environment()
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
