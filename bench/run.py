"""hallcontract benchmark: one run of one workload.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; it measures the library in `src/`. The
last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

With --trace 0 the run starts PARTS worker processes one after another. Each
sets the workload up from scratch and then measures for S/PARTS seconds.
Where set-up is cheap (orbits-cold: imports only), up to SETUP_EXTRA_MAX
more processes that only set up add samples of it, within SETUP_EXTRA_S
seconds. Times are in seconds scaled to the machine's speed (clock.py).
The metrics:

- setup_s: median set-up time over these processes (import, seeded inputs,
  filling the orbit cache for the warm workloads).
- wall_s: one pass over the workload's job list, as the sum over jobs of
  each job's median time.
- items_per_s: items decided in one pass over wall_s; items are points
  classified on orbits-cold and basis-level checks on the other workloads.
  The items in a pass are fixed by the job list, so this is a constant over
  wall_s: it carries the same noise and is not separate evidence.
- peak_rss_mib: the largest peak resident memory among the workers.

With --trace 1 one worker runs an untraced pass and a traced pass, reports
the per-layer metrics of the traced pass (see tracer.py) and writes its
spans to .bench_work/; then the `hallc hall verify embedding` command is
timed as its own processes for the `cli.*` metrics.

Everything the run writes stays under .bench_work/ in the checkout; its
caches are removed at the end. Every process it starts is waited for.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
PARTS = 3
SETUP_EXTRA_S = 2.0
SETUP_EXTRA_MAX = 12
DEADLINE_S = 170
CLI_REPEATS = 3
KRONECKER_JSON = {"vertices": ["p", "m"],
                  "edges": [{"id": "e", "source": "p", "target": "m"},
                            {"id": "f", "source": "p", "target": "m"}]}


class BenchError(Exception):
    """The run cannot produce a result."""


def _child_env(cache_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["HALL_CACHE_DIR"] = cache_dir
    return env


def _remaining(t_start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - t_start)
    if left <= 0:
        raise BenchError(f"the run exceeded {DEADLINE_S} s")
    return left


def _worker(args, work: str, extra: list, t_start: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--work", work] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(work),
                              stdout=subprocess.PIPE, timeout=_remaining(t_start))
    except subprocess.TimeoutExpired:
        raise BenchError("a worker did not finish before the deadline") from None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(args, work: str, t_start: float) -> tuple[dict, list]:
    parts = []
    for i in range(PARTS):
        extra = ["--budget", str(args.seconds / PARTS), "--part", str(i),
                 "--parts", str(PARTS)]
        parts.append(_worker(args, os.path.join(work, f"part{i}"), extra, t_start))
    setups = [p["setup_s"] for p in parts]
    # cheap set-ups are sampled in extra processes, as their noise is large
    extra = min(SETUP_EXTRA_MAX, int(SETUP_EXTRA_S / statistics.median(setups)))
    for i in range(extra):
        setups.append(_worker(args, os.path.join(work, f"setup{i}"), ["--setup-only"],
                              t_start)["setup_s"])
    durations: dict = {}
    items: dict = {}
    for part in parts:
        for name, values in part["durations"].items():
            durations.setdefault(name, []).extend(values)
        items.update(part["items"])
    wall = sum(statistics.median(values) for values in durations.values())
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(wall, "s"),
        "items_per_s": _metric(sum(items.values()) / wall, "1/s"),
        "peak_rss_mib": _metric(max(p["peak_rss_kib"] for p in parts) / 1024, "MiB"),
    }
    return metrics, parts


def _timed_command(cmd: list, cache_dir: str, t_start: float) -> tuple[float, str]:
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(cache_dir),
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=_remaining(t_start))
    except subprocess.TimeoutExpired:
        raise BenchError("a CLI command did not finish before the deadline") from None
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[2:])} exited with code {proc.returncode}")
    return elapsed, proc.stdout.decode()


def cli_metrics(work: str, t_start: float) -> dict:
    """cli.import_s: interpreter start plus `import hallcontract.cli`;
    cli.verify_cold_s / cli.verify_warm_s: `hallc hall verify embedding` on
    Kronecker, q=3, max-dim 2, with an empty and then a filled cache. Each
    is the median of CLI_REPEATS processes."""
    quiver = os.path.join(work, "kronecker.json")
    with open(quiver, "w", encoding="utf-8") as fh:
        json.dump(KRONECKER_JSON, fh)
    verify = [sys.executable, "-m", "hallcontract.cli", "hall", "verify", "embedding",
              quiver, "--q", "3", "--plus", "p", "--minus", "m", "--max-dim", "2"]
    imports, cold, warm = [], [], []
    for i in range(CLI_REPEATS):
        cache_dir = os.path.join(work, f"cli-cache-{i}")
        imports.append(_timed_command(
            [sys.executable, "-c", "import hallcontract.cli"], cache_dir, t_start)[0])
        for times in (cold, warm):
            elapsed, report = _timed_command(verify, cache_dir, t_start)
            if json.loads(report)["status"] != "pass":
                raise BenchError("hallc hall verify embedding did not pass")
            times.append(elapsed)
    return {"cli.import_s": statistics.median(imports),
            "cli.verify_cold_s": statistics.median(cold),
            "cli.verify_warm_s": statistics.median(warm)}


def _unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if ".bytes_" in name:
        return "B"
    return "count"


def traced_run(args, work: str, t_start: float) -> tuple[dict, list]:
    spans = os.path.join(WORK_ROOT, f"spans-{args.workload}-seed{args.seed}.json")
    part = _worker(args, os.path.join(work, "traced"), ["--spans", spans], t_start)
    values = dict(part["metrics"])
    values.update(cli_metrics(work, t_start))
    metrics = {name: _metric(value, _unit_of(name))
               for name, value in sorted(values.items())}
    return metrics, [part]


def main() -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="orbits-cold, hall-warm or oracle-check")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "hallcontract", "__init__.py")):
        print(f"error: no hallcontract package under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        run = traced_run if args.trace else timed_run
        metrics, parts = run(args, work, t_start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
