#!/usr/bin/env python3
"""Build the benchmark from source and run it.

One run of one workload:

    python3 benchmark/run.py --workload serve_vq4 --seed 42 --seconds 10 --trace 0

prints every metric as `workload metric value unit`, then, as the last
line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics (from a traced run, whose Chrome
trace lands in build-bench/) with `--trace 1`.

A full set (no --workload):

    python3 benchmark/run.py --seed 42 [--runs N] [--trace 0|1] [--out FILE]

runs every workload untraced and traced (or only as --trace says) on
seeds seed .. seed+N-1, prints every metric, writes
build-bench/results.json (or FILE) for benchmark/compare.py, and exits
non-zero if any correctness gate fails.

Workloads, metrics and bounds: BENCHMARK.json and benchmark/README.md.
"""
import argparse
import json
import math
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
PROGRAM = os.path.join(BUILD, "vqllm_benchmark")
# A run must end within 180 s; the measuring program gets this much.
PROGRAM_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def threads():
    return min(4, os.cpu_count() or 1)


def build():
    """Configure once, then bring the program up to date (a no-op when
    nothing changed).  Build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(threads())],
                   stdout=sys.stderr, check=True)


def run_program(workload, seed, seconds, trace):
    cmd = [PROGRAM, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    trace_path = None
    if trace:
        trace_path = os.path.join(BUILD, f"trace_{workload}_{seed}.json")
        cmd += ["--trace", trace_path]
    env = dict(os.environ, VQLLM_THREADS=str(threads()))
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, check=True,
                         timeout=PROGRAM_TIMEOUT_S, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if trace_path is not None:
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        result["gates"]["trace_is_chrome_json"] = len(events) > 0
        result["correct"] = result["correct"] and len(events) > 0
    return result


def reported_metrics(spec, result, trace):
    """The metrics one run reports: every end-to-end metric
    (never 0), or every per-layer metric (0 where the workload does not
    exercise that layer)."""
    section = "per_layer" if trace else "end_to_end"
    measured = result["per_layer" if trace else "e2e"]
    names = [m["name"] for m in spec[section]]
    unknown = sorted(set(measured) - set(names))
    if unknown:
        raise SystemExit(f"vqllm_benchmark reported metrics missing from "
                         f"BENCHMARK.json: {unknown}")
    metrics = {}
    for m in spec[section]:
        value = measured.get(m["name"], 0.0)
        if not trace and not (value > 0 and math.isfinite(value)):
            raise SystemExit(f"{result['workload']}: end-to-end metric "
                             f"{m['name']} = {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def print_lines(workload, metrics):
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")


def one_run(spec, workload, seed, seconds, trace):
    result = run_program(workload, seed, seconds, trace)
    metrics = reported_metrics(spec, result, trace)
    failed_gates = [g for g, ok in result["gates"].items() if not ok]
    if failed_gates:
        print(f"{workload}: failed gates {failed_gates}", file=sys.stderr)
    return {"workload": workload, "seed": seed, "trace": bool(trace),
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "gates": result["gates"],
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--out", default=os.path.join(BUILD, "results.json"))
    args = ap.parse_args()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        raise SystemExit(f"unknown workload {args.workload}; "
                         f"choose from {workloads}")
    seconds = args.seconds or spec["run_seconds"]
    build()

    if args.workload is not None:
        run = one_run(spec, args.workload, args.seed, seconds,
                      args.trace or 0)
        print_lines(args.workload, run["metrics"])
        print(json.dumps({k: run[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0 if run["correct"] else 1

    runs = []
    for seed in range(args.seed, args.seed + args.runs):
        for workload in workloads:
            for trace in (0, 1) if args.trace is None else (args.trace,):
                run = one_run(spec, workload, seed, seconds, trace)
                print_lines(workload, run["metrics"])
                runs.append(run)
    with open(args.out, "w") as f:
        json.dump({"machine": platform.platform(),
                   "processor": platform.processor(),
                   "nproc": os.cpu_count(), "threads": threads(),
                   "seconds": seconds, "runs": runs}, f, indent=1)
    bad = [(r["workload"], r["seed"]) for r in runs if not r["correct"]]
    print(f"wrote {args.out}; {len(runs)} runs, "
          f"{len(bad)} failed correctness{': ' + str(bad) if bad else ''}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
