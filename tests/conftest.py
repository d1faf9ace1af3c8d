"""Shared quivers, Cartan data, and Hall contexts for the test suite.

The heavy orbit tables live in session-scoped contexts backed by one shared
on-disk cache, so each table is computed at most once per test run.
"""

import base64
import os
import random
import shutil
import struct
import tempfile

import pytest
from hypothesis import settings

import hallcontract as hc
from hallcontract import quiver as qv
from hallcontract.cache import OrbitCache
from hallcontract.cartan import CartanDatum, ContractionPair

settings.register_profile("exact", max_examples=50, deadline=None)
settings.load_profile("exact")

# One cache directory per test run, in place before any OrbitCache() is built
# and removed when the run ends.
_CACHE_DIR = tempfile.mkdtemp(prefix="hallcache-test-")
os.environ["HALL_CACHE_DIR"] = _CACHE_DIR


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_CACHE_DIR, ignore_errors=True)


def packed_index(ordinals, width=1):
    """The cached form of an orbit index, built here without the library's
    encoder: base64 text of the ordinals, little-endian, width bytes each."""
    code = {1: "B", 2: "H", 4: "I", 8: "Q"}[width]
    raw = struct.pack(f"<{len(ordinals)}{code}", *ordinals)
    return base64.b64encode(raw).decode("ascii")


def flag_table_by_mat(ctx, tkey, wkey):
    """The flag table of the split (tkey, wkey) counted through the Mat
    geometry: for each big representative y, its stable graded subspaces U
    (stable_subspaces), each under the orbits of quotient_point(y, U) and
    sub_point(y, U)."""
    nkey = tuple(a + b for a, b in zip(tkey, wkey))
    space, big = ctx.space(nkey), ctx.table(nkey)
    ttable, wtable = ctx.table(tkey), ctx.table(wkey)
    out = {}
    for o in range(big.count):
        y = big.representative(o)
        for U in hc.stable_subspaces(space, y, wkey):
            pair = (ttable.ordinal_of(hc.quotient_point(space, y, U)),
                    wtable.ordinal_of(hc.sub_point(space, y, U)))
            bucket = out.setdefault(pair, {})
            bucket[o] = bucket.get(o, 0) + 1
    return out


def a1_quiver():
    return qv.Quiver(("1",), ())


def jordan_quiver():
    return qv.Quiver(("1",), (qv.Edge("l", "1", "1"),))


def kronecker_quiver():
    return qv.Quiver(("p", "m"),
                     (qv.Edge("e", "p", "m"), qv.Edge("f", "p", "m")))


def kronecker_datum():
    """Two labels of orbit size 1, no loops, two joining edges."""
    return CartanDatum.make(["i+", "i-"], [[2, -2], [-2, 2]],
                            {"i+": 1, "i-": 1}, {"i+": 0, "i-": 0})


def mixed_orbit_datum():
    """Three labels with orbit sizes (2, 3, 1) and loop counts (2, 1, 3)."""
    return CartanDatum.make(
        ["a", "b", "c"],
        [[-4, -6, 0], [-6, 0, -3], [0, -3, -4]],
        {"a": 2, "b": 3, "c": 1},
        {"a": 2, "b": 1, "c": 3})


def double_orbit_datum():
    """Two loop-free labels of orbit size 2 joined by six edges; contracting
    gives phi2 = 6/2 - 1 = 2 on the merged label."""
    return CartanDatum.make(["i+", "i-"], [[4, -6], [-6, 4]],
                            {"i+": 2, "i-": 2}, {"i+": 0, "i-": 0})


def contractible_extension_datum():
    """The mixed-orbit datum extended by a fresh contractible pair (d+, d-)
    attached to label a, so the reflection identity runs in an ambient
    lattice containing labels with nonzero loop counts."""
    labels = ["a", "b", "c", "d+", "d-"]
    form = [
        [-4, -6, 0, -2, 0],
        [-6, 0, -3, 0, 0],
        [0, -3, -4, 0, 0],
        [-2, 0, 0, 2, -1],
        [0, 0, 0, -1, 2],
    ]
    phi1 = {"a": 2, "b": 3, "c": 1, "d+": 1, "d-": 1}
    phi2 = {"a": 2, "b": 1, "c": 3, "d+": 0, "d-": 0}
    return CartanDatum.make(labels, form, phi1, phi2), ContractionPair("d+", "d-")


def random_contractible_datum(rng: random.Random):
    """A random valid datum carrying a designated valid contraction pair
    (p0, m0): equal orbit sizes, no loops on the pair, nonzero joining form.
    Off-diagonal entries are multiples of the lcm of the orbit sizes, which
    both satisfies the divisibility condition and keeps the datum realizable
    as a graph. The label order is drawn too, so p0 and m0 land in either
    order, anywhere, with other labels between them or not."""
    extra = rng.randint(0, 3)
    labels = ["p0", "m0"] + [f"x{k}" for k in range(extra)]
    rng.shuffle(labels)
    size = rng.randint(1, 3)
    phi1 = {"p0": size, "m0": size}
    phi2 = {"p0": 0, "m0": 0}
    for lab in labels:
        if lab not in phi1:
            phi1[lab] = rng.randint(1, 3)
            phi2[lab] = rng.randint(0, 2)
    n = len(labels)
    form = [[0] * n for _ in range(n)]
    for i, lab in enumerate(labels):
        form[i][i] = 2 * (phi1[lab] - phi1[lab] * phi2[lab])
    for i in range(n):
        for j in range(i + 1, n):
            step = _lcm(phi1[labels[i]], phi1[labels[j]])
            value = -step * rng.randint(0, 2)
            form[i][j] = form[j][i] = value
    i, j = labels.index("p0"), labels.index("m0")
    form[i][j] = form[j][i] = -size * rng.randint(1, 3)
    datum = CartanDatum.make(labels, form, phi1, phi2)
    return datum, ContractionPair("p0", "m0")


def _lcm(a: int, b: int) -> int:
    import math
    return a * b // math.gcd(a, b)


@pytest.fixture(scope="session")
def a1_ctx():
    return hc.HallContext(a1_quiver(), 2, cache=OrbitCache())


@pytest.fixture(scope="session")
def a1_ctx3():
    return hc.HallContext(a1_quiver(), 3, cache=OrbitCache())


@pytest.fixture(scope="session")
def jordan_ctx():
    return hc.HallContext(jordan_quiver(), 2, cache=OrbitCache())


@pytest.fixture(scope="session")
def kron_ctx():
    return hc.HallContext(kronecker_quiver(), 2, cache=OrbitCache())


@pytest.fixture(scope="session")
def kron_ctx3():
    return hc.HallContext(kronecker_quiver(), 3, cache=OrbitCache())


@pytest.fixture(scope="session")
def kron_heart(kron_ctx):
    return hc.HeartContext(kron_ctx, "p", "m", "e")


@pytest.fixture(scope="session")
def kron_heart3(kron_ctx3):
    return hc.HeartContext(kron_ctx3, "p", "m", "e")
