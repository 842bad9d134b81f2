"""Record the answers the benchmark checks later runs against.

    python3 perfbench/reference.py --seeds 0-63

For every workload and seed it runs set-up and one operation at full
size and writes the operation's answer (AUC, and a score checksum where
the output is scores) to perfbench/reference.json. Run it only on code
whose answers are the accepted ones; a run whose answer differs from
the recorded one counts every operation as failed.
"""

import argparse
import json
import os
import shutil
import tempfile

import run

run.prepare_environment()

import workloads  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range FIRST-LAST")
    args = parser.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    reference = {name: {} for name in workloads.WORKLOADS}
    os.makedirs(workloads.RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=workloads.RUN_DIR)
    try:
        for seed in range(first, last + 1):
            for name, workload in workloads.WORKLOADS.items():
                state = workload.setup(seed, workloads.FULL, workdir)
                answer, problems = workload.check(state, workload.op(state, None))
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {'; '.join(problems)}")
                reference[name][str(seed)] = answer
            print(f"seed {seed}: " + ", ".join(
                f"{name} auc={reference[name][str(seed)]['auc']:.4f}"
                for name in workloads.WORKLOADS), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
