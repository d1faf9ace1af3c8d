"""Run the benchmark over several seeds and print every metric.

    python3 bench/report.py [--seeds 1-10] [--trace] [--write]

For each workload it runs `bench/run.py` once per seed, with the run length
from BENCHMARK.json, and prints each end-to-end metric by name and unit with
its median, its tail (the worst value: the largest for a lower-is-better
metric, the smallest for a higher-is-better one), the sample count and the
spread: the distance between the first and third quartile as a share of the
median. A spread above a third of the metric's bound is flagged. It also
prints failed/attempted jobs. `--trace` adds one traced run per workload
(first seed) and prints its per-layer metrics. `--write` saves everything,
with the machine and commit, to bench/RESULTS.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def summarize(values: list[float], better: str) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "tail": max(values) if better == "lower" else min(values),
            "n": len(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": model, "commit": commit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds = parse_seeds(args.seeds)
    results = {"machine": machine(), "run_seconds": spec["run_seconds"],
               "seeds": seeds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(name, seed, spec["run_seconds"], 0) for seed in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"failed": failed, "attempted": attempted,
                 "failed_ratio": failed / attempted, "end_to_end": {},
                 "run_elapsed_s": summarize([r["elapsed_s"] for r in runs], "lower")}
        print(f"\n{name}: {failed}/{attempted} jobs failed "
              f"(failed_ratio {failed / attempted:.4g}); runs took "
              f"{entry['run_elapsed_s']['median']:.1f} s median")
        print(f"  {'metric':<16} {'unit':<6} {'median':>12} {'tail':>12} {'n':>3} "
              f"{'spread':>7} {'bound':>6}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            stats = summarize(values, metric["better"])
            entry["end_to_end"][metric["name"]] = dict(stats, unit=metric["unit"])
            flag = "" if stats["spread"] <= metric["bound"] / 3 else "  <- above bound/3"
            print(f"  {metric['name']:<16} {metric['unit']:<6} {stats['median']:>12.5g} "
                  f"{stats['tail']:>12.5g} {stats['n']:>3} {stats['spread']:>7.3f} "
                  f"{metric['bound']:>6}{flag}")
        if args.trace:
            traced = run_once(name, seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["trace_failed"] = traced["failed"]
            print(f"  per-layer (traced run, seed {seeds[0]}, "
                  f"{traced['failed']}/{traced['attempted']} failed):")
            for metric in spec["per_layer"]:
                value = traced["metrics"][metric["name"]]
                print(f"    {metric['name']:<32} {value['value']:>14.6g} {value['unit']}")
        results["workloads"][name] = entry
    if args.write:
        with open(os.path.join(BENCH_DIR, "RESULTS.json"), "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
