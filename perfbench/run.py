#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flow_batch_128 --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (the ldmo libraries plus the ldmo_perfbench binary) as a
Release CMake package in .bench_build (or $CARGO_TARGET_DIR), then runs the
workload. With --trace 0 the set-up is repeated in SETUP_RUNS fresh
processes and setup_s is their median; every repetition must train
bit-identical predictor weights. The last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}; the exit code is 0
only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("flow_batch_128", "serve_mixed_64", "cluster_warm_64")
# Per-layer metrics of the layers a workload does not exercise, by name
# prefix: they read 0 there. Every other per-layer metric in BENCHMARK.json
# must come from ldmo_perfbench itself, or the run fails.
UNEXERCISED = {
    "flow_batch_128": ("serve.", "net.", "loadgen."),  # no server, no wire
    "serve_mixed_64": ("net.",),                       # in-process server
    "cluster_warm_64": ("loadgen.",),                  # closed loop
}
SETUP_RUNS = 3           # fresh-process set-ups behind the setup_s median
RUN_LIMIT_S = 170.0      # whole-command budget once the build is done
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds ldmo_perfbench; returns its path."""
    jobs = str(os.cpu_count() or 1)
    generated = any(os.path.exists(os.path.join(build_dir, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "ldmo_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "ldmo_perfbench")


def git_provenance(root):
    """(sha, dirty) of the checkout, or ("unknown", "unknown") when `root`
    is not the top of a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", root, *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != \
                os.path.realpath(root):
            return "unknown", "unknown"
        return git("rev-parse", "HEAD"), "1" if git("status", "--porcelain") \
            else "0"
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"


def source_digest(root):
    """sha256 over the library sources and the benchmark: identifies the
    measured code even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def complete_per_layer(workload, metrics):
    """Adds the zero metrics of the layers `workload` does not exercise;
    returns the problems found (missing or unknown metrics)."""
    root = os.path.dirname(BENCH_DIR)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        specs = json.load(f)["per_layer"]
    skipped = UNEXERCISED[workload]
    problems = [f"unknown per-layer metric {name}" for name in
                set(metrics) - {spec["name"] for spec in specs}]
    for spec in specs:
        name = spec["name"]
        if name in metrics:
            continue
        if name.startswith(skipped):
            metrics[name] = {"value": 0.0, "unit": spec["unit"]}
        else:
            problems.append(f"{workload} reported no {name}")
    return problems


def run_bench(cmd, deadline):
    """Runs ldmo_perfbench; returns (exit code, stdout lines)."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return None, []
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one returned result (check drill)")
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # Compiler and runtime temporaries stay inside the checkout too.
    tmp_dir = os.path.join(root, ".bench_work", "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    try:
        binary = build(os.path.join(root, build_dir))
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    sha, dirty = git_provenance(root)
    work_dir = os.path.join(root, ".bench_work", args.workload)
    common = [binary, "--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", work_dir, "--git-sha", sha, "--git-dirty", dirty,
              "--source-digest", source_digest(root)]

    setups = []
    if args.trace == "0":
        for _ in range(SETUP_RUNS - 1):
            code, lines = run_bench(common + ["--setup-only"], deadline)
            if code != 0 or not lines:
                log("set-up repetition failed")
                return 3
            setups.append(json.loads(lines[-1]))

    cmd = common + ["--seconds", str(args.seconds), "--trace", args.trace]
    if args.corrupt:
        cmd.append("--corrupt")
    code, lines = run_bench(cmd, deadline)
    if code is None or not lines:
        return 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("ldmo_perfbench printed no result")
        return 3
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("ldmo_perfbench printed no result")
        return 3
    for line in lines[:-1]:
        print(line)

    if args.trace == "1":
        problems = complete_per_layer(args.workload, result["metrics"])
        for problem in problems:
            log(problem)
        if problems:
            return 3
    else:
        main_setup = result["metrics"]["setup_s"]["value"]
        details = json.loads(lines[-2])["details"]
        times = [s["setup_s"] for s in setups] + [main_setup]
        digests = {s["weights_digest"] for s in setups}
        digests.add(details["weights_digest"])
        result["metrics"]["setup_s"]["value"] = statistics.median(times)
        print(json.dumps({"setup": {"runs": len(times), "seconds": times,
                                    "weights_digests": sorted(digests)}}))
        if len(digests) != 1:
            log("set-up repetitions trained different weights")
            result["correct"] = False
            result["failed"] += 1

    print(json.dumps(result), flush=True)
    if code != 0:
        return code
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
