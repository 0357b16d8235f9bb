"""Run the benchmark command over several seeds and report each metric's
median and spread, as the acceptance rule computes them: the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median.

    python3 bench/steady.py --workload gauss_many_groups --seeds 1-10 \\
        [--trace 1] [--log runs.jsonl]

Runs one process at a time, from the repository root, with the command and
run length in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", help="append each run's result to this file")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=180)
        wall = time.perf_counter() - t0
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(seed=seed, exit=proc.returncode, wall_s=wall,
                      note=proc.stderr.strip().splitlines()[-1:])
        runs.append(result)
        print(json.dumps(result), flush=True)
        if args.log:
            with open(args.log, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, **result})
                         + "\n")

    print(f"\n{args.workload}: {len(runs)} runs, wall "
          f"{min(r['wall_s'] for r in runs):.1f}-"
          f"{max(r['wall_s'] for r in runs):.1f} s, failed shares "
          f"{sorted({r['failed'] / r['attempted'] for r in runs})}, "
          f"all correct: {all(r['correct'] for r in runs)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2 and med:
            q = statistics.quantiles(values, n=4)
            spread = f"{(q[2] - q[0]) / med:.3f}"
        else:
            spread = "-"
        bound = bounds.get(name)
        print(f"  {name:28s} median {med:<12.6g} spread {spread:>6s}"
              + (f"  bound {bound}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
