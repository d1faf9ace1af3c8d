"""Per-layer tracing for one benchmark pass, done from outside the library.

Two instruments run together while a traced pass executes:

- cProfile gives each layer's self time (a function's own time, with the
  builtins it calls charged to it) and exact call counts of the fine-grained
  public functions, such as `Mat.__matmul__` and `SqrtQScalar.__init__`.
- Wrappers patched over the layers' coarser public functions record spans
  (id, parent id, name, start, end) at job and table granularity, and the
  counts that depend on a result: cache hits and bytes, orbit tables built,
  stable subspaces found, extensions and fiber points yielded.

`hall` imports several `repspace` functions by name, so each wrapper is
installed in every module namespace that holds the function. A layer is a
module of `hallcontract`; `fractions` is reported on its own because the
exact scalars spend most of their time there.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from collections import Counter

from hallcontract import cache as cache_mod
from hallcontract import ffalg, hall
from hallcontract import repspace as rs
from hallcontract import scalars

#: Fine-grained calls counted through the profiler: metric -> function.
PROFILED_CALLS = {
    "ffalg.matmul_calls": ffalg.Mat.__matmul__,
    "ffalg.inverse_calls": ffalg.Mat.inverse,
    "ffalg.mat_built": ffalg.Mat.__init__,
    "repspace.group_actions": rs.act,
    "repspace.stable_candidates": rs.is_stable,
    "hall.circ_calls": hall.circ,
    "hall.coproduct_calls": hall.coproduct,
    "scalars.ops": scalars.SqrtQScalar.__init__,
}


def _code_key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _layer_of(func: tuple) -> str:
    filename = func[0]
    parent, base = os.path.split(filename)
    if os.path.basename(parent) == "hallcontract":
        return os.path.splitext(base)[0]
    if base == "fractions.py":
        return "fractions"
    if os.path.dirname(os.path.abspath(__file__)) == parent:
        return "bench"
    return "other"


class Tracer:
    """Install with `with tracer:`; read `metrics()` and `spans` afterwards."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._profile = cProfile.Profile()
        self._t0 = time.perf_counter()

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, **attrs):
        return _Span(self, name, attrs)

    # -- patching ------------------------------------------------------------

    def _patch(self, owners, attr: str, make_wrapper) -> None:
        original = getattr(owners[0], attr)
        wrapper = make_wrapper(original)
        for owner in owners:
            if getattr(owner, attr, None) is original:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def __enter__(self):
        self._patch([cache_mod.OrbitCache], "load", self._wrap_load)
        self._patch([cache_mod.OrbitCache], "store", self._wrap_store)
        self._patch([rs, hall], "orbits", self._wrap_orbits)
        self._patch([rs, hall], "stable_subspaces", self._wrap_stable)
        self._patch([ffalg, rs], "enumerate_subspaces",
                    lambda fn: self._wrap_sized(fn, "ffalg.subspaces_enumerated"))
        self._patch([ffalg, rs], "enumerate_gl",
                    lambda fn: self._wrap_sized(fn, "ffalg.gl_enumerated"))
        self._patch([rs, hall], "extensions_over",
                    lambda fn: self._wrap_yields(fn, "repspace.extensions_enumerated"))
        self._patch([rs], "fiber_of_contraction",
                    lambda fn: self._wrap_yields(fn, "repspace.fiber_points"))
        self._patch([hall], "diagram_star_oracle",
                    lambda fn: self._wrap_timed(fn, "hall.oracle", None))
        # private table builders: renaming one must break the traced run
        self._patch([hall], "_flag_table",
                    lambda fn: self._wrap_timed(fn, "hall.flag_table", "stable_calls"))
        self._patch([hall], "_ext_table",
                    lambda fn: self._wrap_timed(fn, "hall.ext_table",
                                                "repspace.extensions_enumerated"))
        self._profile.enable()
        return self

    def __exit__(self, *exc):
        self._profile.disable()
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    # -- wrappers ------------------------------------------------------------

    def _wrap_load(self, fn):
        def load(cache, key):
            with self.span("cache.load"):
                value = fn(cache, key)
            path = cache._path(key)
            if value is not None:
                self.counts["cache.hits"] += 1
                self.counts["cache.bytes_read"] += os.path.getsize(path)
            else:
                self.counts["cache.misses"] += 1
                if os.path.exists(path):
                    self.counts["cache.rejected"] += 1
            return value
        return load

    def _wrap_store(self, fn):
        def store(cache, key, value):
            with self.span("cache.store"):
                fn(cache, key, value)
            self.counts["cache.bytes_written"] += os.path.getsize(cache._path(key))
        return store

    def _wrap_orbits(self, fn):
        def orbits(space, *args, **kwargs):
            hits = self.counts["cache.hits"]
            cache_time = self.times["cache.load"] + self.times["cache.store"]
            with self.span("repspace.orbits") as span:
                table = fn(space, *args, **kwargs)
            if self.counts["cache.hits"] == hits:
                self.counts["repspace.points_classified"] += space.total_points
                cache_time = (self.times["cache.load"] + self.times["cache.store"]
                              - cache_time)
                self.times["repspace.orbit_build"] += span.duration - cache_time
            return table
        return orbits

    def _wrap_stable(self, fn):
        def stable_subspaces(*args, **kwargs):
            found = fn(*args, **kwargs)
            self.counts["stable_calls"] += 1
            self.counts["repspace.stable_found"] += len(found)
            return found
        return stable_subspaces

    def _wrap_sized(self, fn, counter):
        def sized(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts[counter] += len(out)
            return out
        return sized

    def _wrap_yields(self, fn, counter):
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[counter] += 1
                yield item
        return counted

    def _wrap_timed(self, fn, name, work_counter):
        """Time every call; count a build when `work_counter` moved inside."""
        def timed(*args, **kwargs):
            before = self.counts[work_counter] if work_counter else 0
            with self.span(name):
                out = fn(*args, **kwargs)
            if work_counter and self.counts[work_counter] > before:
                self.counts[f"{name}s_built"] += 1
            return out
        return timed

    # -- results -------------------------------------------------------------

    @staticmethod
    def self_times(stats: dict) -> Counter:
        """Self time per layer; a builtin's time goes to the layer calling it."""
        out: Counter = Counter()
        for func, (_, _, tottime, _, callers) in stats.items():
            if func[0] != "~":
                out[_layer_of(func)] += tottime
                continue
            for caller, edge in callers.items():
                out[_layer_of(caller) if caller[0] != "~" else "other"] += edge[2]
        return out

    def metrics(self, checks: int) -> dict:
        """Every per-layer metric except the `cli.*` timings and the trace
        overhead, which need runs of their own."""
        stats = pstats.Stats(self._profile).stats
        self_s = self.self_times(stats)
        c, t = self.counts, self.times
        out = {
            "ffalg.self_s": self_s["ffalg"],
            "ffalg.subspaces_enumerated": c["ffalg.subspaces_enumerated"],
            "ffalg.gl_enumerated": c["ffalg.gl_enumerated"],
            "repspace.self_s": self_s["repspace"],
            "repspace.orbit_build_s": t["repspace.orbit_build"],
            "repspace.points_classified": c["repspace.points_classified"],
            "repspace.points_per_s": (c["repspace.points_classified"]
                                      / t["repspace.orbit_build"]
                                      if t["repspace.orbit_build"] else 0.0),
            "repspace.stable_found": c["repspace.stable_found"],
            "repspace.extensions_enumerated": c["repspace.extensions_enumerated"],
            "repspace.fiber_points": c["repspace.fiber_points"],
            "cache.hits": c["cache.hits"],
            "cache.misses": c["cache.misses"],
            "cache.rejected": c["cache.rejected"],
            "cache.load_s": t["cache.load"],
            "cache.store_s": t["cache.store"],
            "cache.bytes_read": c["cache.bytes_read"],
            "cache.bytes_written": c["cache.bytes_written"],
            "hall.self_s": self_s["hall"],
            "hall.flag_table_s": t["hall.flag_table"],
            "hall.flag_tables_built": c["hall.flag_tables_built"],
            "hall.ext_table_s": t["hall.ext_table"],
            "hall.ext_tables_built": c["hall.ext_tables_built"],
            "hall.oracle_s": t["hall.oracle"],
            "hall.checks": checks,
            "scalars.self_s": self_s["scalars"],
            "scalars.fraction_s": self_s["fractions"],
            "trace.self_total_s": sum(v for k, v in self_s.items() if k != "bench"),
        }
        out.update({metric: stats.get(_code_key(fn), (0, 0))[1]
                    for metric, fn in PROFILED_CALLS.items()})
        candidates = out["repspace.stable_candidates"]
        out["repspace.stable_hit_ratio"] = (c["repspace.stable_found"] / candidates
                                            if candidates else 0.0)
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer, self.name, self.attrs = tracer, name, attrs
        self.duration = 0.0

    def __enter__(self):
        tracer = self.tracer
        self.id = len(tracer.spans)
        self.record = {"id": self.id,
                       "parent": tracer._stack[-1] if tracer._stack else None,
                       "name": self.name, **self.attrs}
        tracer.spans.append(self.record)
        tracer._stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.duration = end - self.start
        tracer = self.tracer
        tracer._stack.pop()
        tracer.times[self.name] += self.duration
        self.record["start"] = self.start - tracer._t0
        self.record["end"] = end - tracer._t0
        return False
