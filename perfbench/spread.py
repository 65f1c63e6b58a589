#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs one workload once per seed through perfbench/run.py (untraced) and
prints, per end-to-end metric, the median and the distance between the
first and third quartile as a share of the median, next to the bound
BENCHMARK.json fixes for it. A metric is steady when its spread is below a
third of its bound; setup_s is held to that too. With --save the values go
to a JSON file; with --against a file saved from an earlier set, each
median is also compared with that set's median, and a metric that got
worse by more than its bound fails. Run from the root of a checkout:

    python3 perfbench/spread.py --workload serve_mixed_64 --seeds 1-5
    python3 perfbench/spread.py --workload serve_mixed_64 --save a.json
    python3 perfbench/spread.py --workload serve_mixed_64 --against a.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT_BENCHMARK = "BENCHMARK.json"


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--save", help="write the values to this file")
    parser.add_argument("--against", help="values saved from another set")
    args = parser.parse_args()

    with open(ROOT_BENCHMARK) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

    values = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, run, "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)

    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f)
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    ok = True
    print(f"\n{args.workload}: {len(values.get('setup_s', []))} runs of "
          f"{seconds:g} s")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        vals = values.get(name, [])
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        steady = spread < bound / 3
        ok = ok and steady
        line = (f"  {name:16s} median {med:12.6g}  spread {spread:7.2%}  "
                f"bound {bound:5.0%}  {'steady' if steady else 'WIDE'}")
        if name in earlier:
            before = statistics.median(earlier[name])
            change = (med - before) / before if before else 0.0
            worse = change if metric["better"] == "lower" else -change
            agrees = worse <= bound
            ok = ok and agrees
            line += (f"  vs earlier {before:.6g} ({change:+.2%}) "
                     f"{'agrees' if agrees else 'WORSE'}")
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
