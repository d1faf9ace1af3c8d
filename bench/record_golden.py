"""Record bench/golden.json, the digests of every job's output.

    python3 bench/record_golden.py

Run it only at a commit whose outputs are trusted: later runs of the
benchmark count any output that differs from these digests as failed. The
seeded jobs are recorded for the default seed only. Every job runs twice and
must give the same output both times; nothing is written if any job fails
its own checks.
"""

import json
import os
import shutil
import sys
import tempfile

import worker
import workloads


def main() -> int:
    golden, failed = {}, 0
    root = os.path.dirname(worker.BENCH_DIR)
    for name in workloads.WORKLOADS:
        work = tempfile.mkdtemp(prefix="golden-", dir=root)
        try:
            runner = worker.Runner(name, workloads.DEFAULT_SEED, None)
            jobs, caches = worker.prepare(name, workloads.DEFAULT_SEED, work)
            for cache_for in (caches(), caches()):
                for job in jobs:
                    runner.execute(job, cache_for(job))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        golden[name] = dict(sorted(runner.recorded.items()))
        failed += runner.failed
        print(f"{name}: {len(runner.recorded)} digests, {runner.failed} failed")
    if failed:
        print("not written: some jobs failed", file=sys.stderr)
        return 1
    with open(worker.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
