#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

Runs every workload at a tiny budget, untraced and traced, and checks that
every end-to-end and per-layer metric named in BENCHMARK.json is present,
finite and carries its unit, and that every output check passed. A
per-layer metric must also read non-zero on the workload its layer shows
on, unless it is listed in MAY_BE_ZERO. Then runs each workload with one
returned result corrupted and checks that the command fails. Run from the
root of a checkout:

    python3 perfbench/smoke_test.py
"""

import json
import math
import os
import subprocess
import sys

SECONDS = "2"

# The workload each layer's metrics show on, by name prefix (the longest
# matching prefix wins); None means every workload.
SHOWS_ON = {
    "opc.": "flow_batch_128",
    "litho.": "flow_batch_128",
    "fft.": "flow_batch_128",
    "nn.gemm_gflops": "flow_batch_128",
    "kernels.": "flow_batch_128",
    "runtime.": "flow_batch_128",
    "workspace.": "flow_batch_128",
    "core.": "flow_batch_128",
    "mpl.": "serve_mixed_64",
    "nn.": "serve_mixed_64",
    "serve.": "serve_mixed_64",
    "loadgen.": "serve_mixed_64",
    "net.": "cluster_warm_64",
    "obs.": None,
}

# Per-layer metrics that read 0 on a healthy run of their workload.
MAY_BE_ZERO = {
    "opc.aborts_per_clip": "no request carries a deadline",
    "kernels.backend_id": "0 is the generic backend",
    "workspace.miss_ratio": "warmed pools serve every checkout",
    "serve.batch_coalesced_ratio": "at 1 new clip per second, two are "
                                   "rarely scored at the same moment",
    "serve.score_cache_hit_ratio": "every new clip is distinct, so no "
                                   "candidate score repeats",
    "serve.queue_depth_max": "a tiny budget may never queue",
    "net.retries": "no transport faults on loopback",
    "net.failovers": "no worker goes down",
}


def shows_on(name):
    prefix = max((p for p in SHOWS_ON if name.startswith(p)), key=len)
    return SHOWS_ON[prefix]


def run(workload, trace, corrupt=False):
    cmd = [sys.executable,
           os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", SECONDS,
           "--trace", trace]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def check_metrics(label, result, specs, workload=None):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    for spec in specs:
        m = metrics.get(spec["name"])
        if m is None:
            problems.append(f"{label}: missing {spec['name']}")
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"{label}: {spec['name']} not finite: {m}")
        elif m.get("unit") != spec["unit"]:
            problems.append(f"{label}: {spec['name']} unit {m.get('unit')} "
                            f"!= {spec['unit']}")
        elif workload and m["value"] == 0 and \
                shows_on(spec["name"]) in (None, workload) and \
                spec["name"] not in MAY_BE_ZERO:
            problems.append(f"{label}: {spec['name']} reads 0 on the "
                            f"workload it shows on")
    extra = set(metrics) - {s["name"] for s in specs}
    if extra:
        problems.append(f"{label}: unexpected metrics {sorted(extra)}")
    return problems


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, specs in (("0", bench["end_to_end"]),
                             ("1", bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            code, result = run(workload, trace)
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}")
                continue
            problems += check_metrics(label, result, specs,
                                      workload if trace == "1" else None)
            print(f"ok   {label}", flush=True)
        code, result = run(workload, "0", corrupt=True)
        if code == 0 or result is None or result["correct"] or \
                result["failed"] < 1:
            problems.append(f"{workload} --corrupt: exit {code}, "
                            f"result {result and result['correct']}")
        else:
            print(f"ok   {workload} --corrupt fails the command", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
