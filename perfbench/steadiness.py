#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --workload paper --seeds 0-9 [--pin]

Runs perfbench/run.py once per seed (from the repository root) and prints,
per end-to-end metric, the median of the runs' values and the distance
between their first and third quartile as a share of that median, which
BENCHMARK.json's bounds are set against (each bound at least three times
the spread). The last line is the same table as JSON.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, required=True, help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", default="20")
    p.add_argument("--pin", action="store_true", help="pass --pin to every run")
    args = p.parse_args()

    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"] + (["--pin"] if args.pin else [])
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: run was not correct")
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)

    table = {}
    for k, v in values.items():
        table[k] = {"median": stats.median(v), "spread": stats.spread(v), "runs": len(v)}
        print(f"{k:<16} median {table[k]['median']:<12.6g} spread {table[k]['spread']:.4f}")
    print(json.dumps({"workload": args.workload, "seeds": [args.seeds[0], args.seeds[-1]], "metrics": table}))


if __name__ == "__main__":
    main()
