"""One benchmark process: set up a workload, then run its jobs.

    python3 bench/worker.py --workload W --seed N --work DIR --budget S --part I --parts K
    python3 bench/worker.py --workload W --seed N --work DIR --spans FILE
    python3 bench/worker.py --workload W --seed N --work DIR --setup-only

The first form (timed) runs the seeded job order from job I*n/K on, until
`--budget` seconds have passed and at least n/K jobs are done. The second
form (traced) runs one untraced pass and one traced pass over every job.
The third only sets up, as one more sample of the set-up time.
Each prints one JSON object as the last line of stdout. `run.py` starts
these processes, each in a fresh interpreter, so that interned fields,
`lru_cache`s and peak memory start the same for every commit.

Set-up is the import of the library, generating the seeded inputs and, for
the warm workloads, filling the orbit cache under DIR with every orbit table
the jobs read, classified by the code under test. Set-up and every job are
timed with clock.Stopwatch, in seconds scaled to the machine's speed.
"""

import clock

SETUP = clock.Stopwatch()
if __name__ == "__main__":
    SETUP.start()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from hallcontract.cache import OrbitCache  # noqa: E402

import workloads  # noqa: E402

GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")


def digest(output) -> str:
    blob = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Runner:
    """Runs jobs, times them and judges every output; never aborts on a
    failed job."""

    def __init__(self, workload: str, seed: int, golden: dict | None):
        """With `golden` None the runner records digests instead of
        comparing them."""
        self.workload, self.seed, self.golden = workload, seed, golden
        self.recorded: dict = {}
        self.attempted = 0
        self.failed = 0
        self.watch = clock.Stopwatch()

    def execute(self, job, cache, tracer=None):
        """Returns (scaled seconds, items), or None if the job raised."""
        self.attempted += 1
        self.watch.start()
        try:
            if tracer is None:
                output, items = job.run(cache)
            else:
                with tracer, tracer.span("job", job=job.name):
                    output, items = job.run(cache)
        except Exception as exc:  # a failed job is counted, not fatal
            self.watch.stop()
            self._fail(job, f"raised {type(exc).__name__}: {exc}")
            return None
        elapsed = self.watch.stop()
        problems = job.check(output)
        if self.golden is None:
            found = digest(output)
            if self.recorded.setdefault(job.name, found) != found:
                problems.append("output differs between two runs")
        elif not job.seeded or self.seed == workloads.DEFAULT_SEED:
            expected = self.golden.get(self.workload, {}).get(job.name)
            if expected is None:
                problems.append("no golden digest recorded")
            elif digest(output) != expected:
                problems.append("output differs from the golden digest")
        if problems:
            self._fail(job, "; ".join(problems))
        return elapsed, items

    def _fail(self, job, message: str) -> None:
        self.failed += 1
        print(f"FAIL {self.workload} seed {self.seed}: {job.name}: {message}",
              file=sys.stderr)


def prepare(workload: str, seed: int, work: str, after_table=lambda: None):
    """Set up `workload`: returns (jobs in seeded order, caches). Each call
    of caches() gives a fresh cache_for(job) that starts from the orbit
    cache exactly as set-up left it, so no pass sees what another stored."""
    jobs = workloads.fixed_jobs(workload)
    if workload == "orbits-cold":
        fresh = itertools.count()

        def caches():
            def cache_for(job):
                # every execution classifies from an empty cache
                return OrbitCache(os.path.join(work, f"cold-{next(fresh)}"))
            return cache_for
    else:
        filled = OrbitCache(os.path.join(work, "filled"))
        passes = itertools.count()
        workloads.fill_cache(jobs, filled, after_table)
        if workload == "hall-warm":
            jobs += workloads.random_jobs(seed, filled)

        def caches():
            copy = os.path.join(work, f"warm-{next(passes)}")
            shutil.copytree(filled.directory, copy)
            warm = OrbitCache(copy)
            return lambda job: warm
    random.Random(seed).shuffle(jobs)
    return jobs, caches


def load_golden() -> dict:
    try:
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def timed(args, runner, jobs, caches) -> dict:
    cache_for = caches()
    n = len(jobs)
    start = args.part * n // args.parts
    least = -(-n // args.parts)
    durations = defaultdict(list)
    items = {}
    t0 = time.perf_counter()
    done = 0
    while done < least or time.perf_counter() - t0 < args.budget:
        job = jobs[(start + done) % n]
        done += 1
        result = runner.execute(job, cache_for(job))
        if result is not None:
            durations[job.name].append(result[0])
            items[job.name] = result[1]
    return {"durations": durations, "items": items}


def traced(args, runner, jobs, caches) -> dict:
    """The traced pass reads its own copy of the set-up cache, so a table
    that set-up left out shows as cache misses and points classified."""
    from tracer import Tracer

    untraced_for, traced_for = caches(), caches()
    untraced = 0.0
    for job in jobs:
        result = runner.execute(job, untraced_for(job))
        untraced += result[0] if result else 0.0
    tracer = Tracer()
    traced_s = checks = 0
    for job in jobs:
        result = runner.execute(job, traced_for(job), tracer)
        if result is not None:
            traced_s += result[0]
            checks += result[1] if job.unit == "checks" else 0
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans": tracer.spans}, fh)
    metrics = tracer.metrics(checks)
    metrics["trace.overhead_ratio"] = traced_s / untraced if untraced else 0.0
    metrics["machine.probe_s"] = statistics.median(runner.watch.probes)
    return {"metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    os.makedirs(args.work, exist_ok=True)
    jobs, caches = prepare(args.workload, args.seed, args.work, SETUP.lap)
    SETUP.stop()
    result = {"setup_s": SETUP.total}
    runner = Runner(args.workload, args.seed, load_golden())
    if args.spans:
        result.update(traced(args, runner, jobs, caches))
    elif not args.setup_only:
        result.update(timed(args, runner, jobs, caches))
    result.update({
        "attempted": runner.attempted, "failed": runner.failed,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
