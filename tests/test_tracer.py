"""The benchmark's tracer patches library functions by name; a rename in the
library must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from hallcontract import cache, ffalg, hall, repspace
from hallcontract.hall import HallContext, char_function, circ

from conftest import jordan_quiver

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

#: Every name bench/tracer.py wraps while it is entered.
WRAPPED = {"load", "store", "orbits", "stable_subspaces", "enumerate_subspaces",
           "enumerate_gl", "extensions_over", "fiber_of_contraction",
           "diagram_star_oracle", "_flag_table", "_ext_table"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_library_and_restores_it():
    tracer_module = _load_tracer()
    owners = (cache.OrbitCache, ffalg, hall, repspace)
    before = {(owner, name): value for owner in owners
              for name, value in vars(owner).items()}
    with tracer_module.Tracer() as tracer:
        inside = {(owner, name): value for owner in owners
                  for name, value in vars(owner).items()}
        ctx = HallContext(jordan_quiver(), 2)
        f = char_function(ctx, (1,), 0)
        circ(f, f)
    assert {name for owner, name in before
            if inside[owner, name] is not before[owner, name]} == WRAPPED
    after = {(owner, name): value for owner in owners
             for name, value in vars(owner).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.metrics(checks=0)["repspace.points_classified"] > 0


def test_profiled_calls_are_plain_functions():
    # the tracer counts calls by code object: a memo or other decorator over
    # one of them would hide its __code__
    tracer_module = _load_tracer()
    assert tracer_module.PROFILED_CALLS
    for name, fn in tracer_module.PROFILED_CALLS.items():
        assert hasattr(fn, "__code__"), name
