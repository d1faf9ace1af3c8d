"""Vacuous-check sweep: which verify checks could pass no matter what?

Each `_check(...)` call in src/hallcontract/hall.py is a site. For each site
in turn, a temporary copy of the repository gets that call's `passed`
argument replaced by `True or (...)`, and the tier-1 suite runs on the copy
with -x. A site whose mutant still passes the whole suite survives: no test
notices that its check can no longer fail.

    python3 scripts/vacuous_checks.py

Stdlib only (the suite itself needs the test dependencies). Each site costs
one tier-1 run, about 10-15 s on two cores. The exit code is 1 if a site
survives, else 0.
"""

import ast
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HALL = os.path.join("src", "hallcontract", "hall.py")


@dataclass(frozen=True)
class Site:
    check_id: str
    line: int
    call: str    # the source text of the whole _check(...) call
    passed: str  # the source text of its passed argument


def sites(source: str) -> list[Site]:
    """Every _check(...) call in source, in line order, found through the
    syntax tree so that a call split over lines is still found."""
    calls = sorted((node for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_check"),
                   key=lambda node: (node.lineno, node.col_offset))
    # the source is split into lines once; ast.get_source_segment would
    # split it again for every segment
    data = source.encode()
    starts = list(itertools.accumulate(
        map(len, data.splitlines(keepends=True)), initial=0))

    def segment(node: ast.AST) -> str:
        """node's source text, cut at its UTF-8 byte offsets as
        ast.get_source_segment cuts it."""
        return data[starts[node.lineno - 1] + node.col_offset:
                    starts[node.end_lineno - 1] + node.end_col_offset].decode()
    return [Site(call.args[1].value, call.lineno, segment(call), segment(call.args[2]))
            for call in calls]


def patch(source: str, site: Site) -> str:
    """source with the site's passed argument made vacuous. The call must
    occur exactly once in source and its passed text once in the call, so
    the patch cannot land anywhere else."""
    if source.count(site.call) != 1 or site.call.count(site.passed) != 1:
        raise ValueError(f"site {site.check_id} at line {site.line} is not unique")
    vacuous = site.call.replace(site.passed, f"True or ({site.passed})")
    return source.replace(site.call, vacuous)


def survives(source: str, site: Site) -> bool:
    """Whether tier-1 passes on a copy of the repository with the site
    patched."""
    with tempfile.TemporaryDirectory(prefix="vacuous-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hallcache", ".bench_work", ".hypothesis",
            ".pytest_cache"))
        with open(os.path.join(copy, HALL), "w", encoding="utf-8") as fh:
            fh.write(patch(source, site))
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return run.returncode == 0


def main() -> int:
    with open(os.path.join(ROOT, HALL), encoding="utf-8") as fh:
        source = fh.read()
    survivors = 0
    for site in sites(source):
        alive = survives(source, site)
        survivors += alive
        print(f"{site.check_id} (line {site.line}): "
              f"{'SURVIVES' if alive else 'killed'}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
