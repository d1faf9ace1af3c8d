"""The benchmark's workloads: quivers, jobs, seeded inputs and known answers.

A job is one call a `hallc` user would make: it builds a fresh HallContext
over the given orbit cache, does its work through the library's public
functions and returns a canonical JSON output plus the number of items it
decided (points classified, or basis-level checks). The checks that judge an
output run outside the timed region and use only arithmetic written here, so
they share no code with the library under test.

Library functions are always looked up on their module at call time
(`hall.circ`, never a name bound at import), so the tracer's patches see
every call.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from hallcontract import hall
from hallcontract import repspace as rs
from hallcontract.quiver import (Edge, Quiver, contract_quiver,
                                 identity_automorphism, make_orbit_pair)
from hallcontract.scalars import SqrtQScalar

A1 = Quiver(("1",), ())
JORDAN = Quiver(("1",), (Edge("l", "1", "1"),))
KRONECKER = Quiver(("p", "m"), (Edge("e", "p", "m"), Edge("f", "p", "m")))
QUIVERS = {"a1": A1, "jordan": JORDAN, "kronecker": KRONECKER}


def _contracted(quiver: Quiver) -> Quiver:
    autom = identity_automorphism(quiver)
    pair = make_orbit_pair(quiver, autom, "p", "m", "e")
    return contract_quiver(quiver, autom, pair).quiver


#: The one-vertex, one-loop quiver that contracting p --e--> m leaves.
KRONECKER_HAT = _contracted(KRONECKER)

#: The seed whose random-element outputs have golden digests.
DEFAULT_SEED = 1


@dataclass
class Job:
    """One unit of work. `run(cache)` is timed and returns (output, items),
    items counted in `unit`; `check(output)` is not timed and returns a list
    of problems. `tables` lists the orbit tables (quiver, q, dims) the job
    reads, which set-up puts in the cache of a warm workload."""

    name: str
    run: Callable
    check: Callable
    tables: list
    seeded: bool = False
    unit: str = "checks"


# -- arithmetic the checks rely on, independent of hallcontract ------------

def gl_order(n: int, q: int) -> int:
    out = 1
    for k in range(n):
        out *= q ** n - q ** k
    return out


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def similarity_classes(n: int, q: int) -> int:
    """Number of similarity classes of n x n matrices over F_q: the x^n
    coefficient of prod_{r>=1} 1 / (1 - q x^r)."""
    series = [1] + [0] * n
    for r in range(1, n + 1):
        for i in range(r, n + 1):
            series[i] += q * series[i - r]
    return series[n]


def point_entries(quiver: Quiver, dims: tuple) -> int:
    d = dict(zip(quiver.vertices, dims))
    return sum(d[e.source] * d[e.target] for e in quiver.edges)


def group_order(quiver: Quiver, dims: tuple, q: int) -> int:
    out = 1
    for n in dims:
        out *= gl_order(n, q)
    return out


def _table_problems(quiver, q, dims, sizes, index=None) -> list[str]:
    problems = []
    total = q ** point_entries(quiver, dims)
    order = group_order(quiver, dims, q)
    if sum(sizes) != total:
        problems.append(f"orbit sizes at {dims} sum to {sum(sizes)}, not q^N = {total}")
    if any(order % s for s in sizes):
        problems.append(f"an orbit size at {dims} does not divide |G| = {order}")
    if index is not None and len(index) != total:
        problems.append(f"orbit index at {dims} has {len(index)} entries, not {total}")
    if quiver is JORDAN and len(sizes) != similarity_classes(dims[0], q):
        problems.append(f"{len(sizes)} Jordan orbits at {dims}, expected "
                        f"{similarity_classes(dims[0], q)} similarity classes")
    if quiver is JORDAN and q == 2 and dims == (2,) and sorted(sizes) != [1, 1, 2, 3, 3, 6]:
        problems.append(f"Jordan q=2 (2,) orbit sizes {sorted(sizes)}")
    if quiver is KRONECKER and q == 3 and dims == (1, 1) and len(sizes) != 5:
        problems.append(f"Kronecker q=3 (1,1) has {len(sizes)} orbits, expected 5")
    return problems


def _no_failures(output) -> list[str]:
    return [f"verdict failed: {item}" for item in output.get("failures", [])[:3]]


# -- orbits-cold ------------------------------------------------------------

ORBIT_SPACES = [
    # closure path (group order above 10,000)
    ("kronecker", 4, (2, 2)), ("jordan", 2, (4,)), ("jordan", 3, (3,)),
    ("kronecker", 3, (1, 3)),
    # sweep path
    ("kronecker", 3, (2, 2)), ("kronecker", 2, (2, 3)), ("kronecker", 2, (3, 2)),
    ("jordan", 4, (2,)),
]


def orbit_job(qname: str, q: int, dims: tuple) -> Job:
    quiver = QUIVERS[qname]

    def run(cache):
        ctx = hall.HallContext(quiver, q, cache=cache)
        payload = ctx.table(dims).to_payload()
        return payload, ctx.space(dims).total_points

    def check(payload):
        return _table_problems(quiver, q, dims, payload["sizes"], payload["index"])

    return Job(f"orbits {qname} q{q} {dims}", run, check, [], unit="points")


# -- hall-warm --------------------------------------------------------------

def _basis(ctx, keys):
    return [(k, o) for k in keys for o in range(ctx.table(k).count)]


def _keys_below(bound: tuple):
    return list(itertools.product(*(range(n + 1) for n in bound)))


def _triples_below(bound: tuple):
    """Grade triples (k1, k2, k3) with k1 + k2 + k3 <= bound."""
    return [t for t in itertools.product(_keys_below(bound), repeat=3)
            if all(a + b + c <= n for a, b, c, n in zip(*t, bound))]


def _tables_below(quiver: Quiver, q: int, bound: tuple) -> list:
    return [(quiver, q, key) for key in _keys_below(bound)]


def assoc_job(qname: str, q: int, bound: tuple) -> Job:
    """(f o g) o h == f o (g o h) on every basis triple whose grades sum to
    at most `bound`."""
    quiver = QUIVERS[qname]

    def run(cache):
        ctx = hall.HallContext(quiver, q, cache=cache)
        products, failures = [], []
        for k1, k2, k3 in _triples_below(bound):
            for o1 in range(ctx.table(k1).count):
                f = hall.char_function(ctx, k1, o1)
                for o2 in range(ctx.table(k2).count):
                    g = hall.char_function(ctx, k2, o2)
                    fg = hall.circ(f, g)
                    for o3 in range(ctx.table(k3).count):
                        h = hall.char_function(ctx, k3, o3)
                        lhs = hall.circ(fg, h)
                        label = f"{k1}o{o1}*{k2}o{o2}*{k3}o{o3}"
                        if lhs != hall.circ(f, hall.circ(g, h)):
                            failures.append(label)
                        products.append([label, lhs.to_json()])
        return {"products": products, "failures": failures}, len(products)

    return Job(f"assoc {qname} q{q} <={bound}", run, _no_failures,
               _tables_below(quiver, q, bound))


def _report_check(report) -> list[str]:
    problems = []
    if not report.get("checks"):
        problems.append("report decided no checks")
    if report.get("status") != "pass":
        problems.append(f"status {report.get('status')!r}, "
                        f"{report.get('failures')} failed checks")
    return problems


def bialgebra_job(qname: str, q: int, max_dim: int) -> Job:
    quiver = QUIVERS[qname]

    def run(cache):
        report = hall.verify_bialgebra(hall.HallContext(quiver, q, cache=cache), max_dim)
        return report, len(report["checks"])

    return Job(f"bialgebra {qname} q{q} d{max_dim}", run, _report_check,
               _tables_below(quiver, q, (2 * max_dim,) * len(quiver.vertices)))


def _heart_tables(q: int, max_dim: int) -> list:
    return (_tables_below(KRONECKER, q, (max_dim, max_dim))
            + _tables_below(KRONECKER_HAT, q, (max_dim,)))


def heart_job(suite: str, q: int, max_dim: int) -> Job:
    def run(cache):
        ctx = hall.HallContext(KRONECKER, q, cache=cache)
        verify = getattr(hall, f"verify_{suite}")
        report = verify(hall.HeartContext(ctx, "p", "m", "e"), max_dim)
        return report, len(report["checks"])

    return Job(f"{suite} kronecker q{q} d{max_dim}", run, _report_check,
               _heart_tables(q, max_dim))


def comult_job(q: int, max_dim: int) -> Job:
    def run(cache):
        ctx = hall.HallContext(KRONECKER, q, cache=cache)
        report = hall.comult_compat(hall.HeartContext(ctx, "p", "m", "e"), max_dim)
        return report, len(report["cases"])

    def check(report):
        if report.get("status") != "observed" or not report.get("cases"):
            return ["comult-compat reported no observations"]
        return []

    return Job(f"comult-compat kronecker q{q} d{max_dim}", run, check,
               _heart_tables(q, max_dim))


def _random_element(rng: random.Random, q: int, basis: list) -> list:
    """Up to three terms (key, ordinal, a, b) with coefficient a + b*sqrt(q);
    b is nonzero on about half of them."""
    terms = []
    for key, o in rng.sample(basis, min(len(basis), 3)):
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(1, 3), rng.randint(1, 2)) if rng.random() < 0.5 else 0
        terms.append((key, o, a, b))
    return terms


def _element(ctx, terms):
    out = hall.zero_element(ctx)
    for key, o, a, b in terms:
        out = out + hall.char_function(ctx, key, o).scale(SqrtQScalar(ctx.q, a, b))
    return out


def random_job(qname: str, q: int, bound: tuple, instances: int, seed: int,
               basis_of: Callable) -> Job:
    """Associativity and the bialgebra identity on seeded random elements
    f, g, h whose top grades sum to at most `bound`. The library only
    receives the generated coefficients, never the seed."""
    quiver = QUIVERS[qname]
    name = f"random {qname} q{q} <={bound}"
    rng = random.Random(f"{seed}:{name}")
    # The grades are the same for every seed, spread over the triples that
    # sum to `bound`, so that the work of a job hardly depends on the seed;
    # the seed draws the support within each grade and the coefficients.
    tops = [t for t in _triples_below(bound) if tuple(map(sum, zip(*t))) == bound]
    inputs = [[_random_element(rng, q, basis_of(quiver, q, [grade]))
               for grade in tops[n * len(tops) // instances]]
              for n in range(instances)]

    def run(cache):
        ctx = hall.HallContext(quiver, q, cache=cache)
        outputs, failures = [], []
        for n, (ft, gt, ht) in enumerate(inputs):
            f, g, h = (_element(ctx, t) for t in (ft, gt, ht))
            fg = hall.circ(f, g)
            assoc = hall.circ(fg, h)
            if assoc != hall.circ(f, hall.circ(g, h)):
                failures.append(f"associativity, instance {n}")
            green = hall.coproduct(fg)
            if green != hall.tensor_mult(hall.coproduct(f), hall.coproduct(g)):
                failures.append(f"coproduct multiplicative, instance {n}")
            outputs.append([assoc.to_json(), green.to_json()])
        return {"outputs": outputs, "failures": failures}, 2 * len(inputs)

    return Job(name, run, _no_failures, _tables_below(quiver, q, bound), seeded=True)


HALL_WARM_FIXED = (
    [assoc_job("jordan", 2, (3,)), assoc_job("jordan", 3, (2,)),
     assoc_job("jordan", 4, (2,)), assoc_job("kronecker", 2, (2, 3)),
     assoc_job("kronecker", 2, (3, 2)), assoc_job("kronecker", 3, (2, 2)),
     assoc_job("a1", 3, (4,))]
    + [bialgebra_job("jordan", 2, 2), bialgebra_job("jordan", 3, 1),
       bialgebra_job("kronecker", 2, 1), bialgebra_job("kronecker", 3, 1)]
    + [heart_job(suite, q, 2) for suite in ("embedding", "pbw", "ideal", "ses")
       for q in (2, 3)]
    + [comult_job(2, 1), comult_job(3, 1)])


def random_jobs(seed: int, cache) -> list[Job]:
    """The seeded jobs. Their inputs are drawn over orbit tables read through
    `cache`, so they are generated after the cache is filled."""

    def basis_of(quiver, q, keys):
        return _basis(hall.HallContext(quiver, q, cache=cache), keys)

    return [random_job("jordan", 2, (3,), 8, seed, basis_of),
            random_job("jordan", 3, (2,), 8, seed, basis_of),
            random_job("kronecker", 3, (2, 2), 8, seed, basis_of)]


# -- oracle-check -----------------------------------------------------------

def oracle_job(qname: str, q: int, max_dim: int) -> Job:
    """star(f, g) == diagram_star_oracle(f, g) on every basis pair with
    grades at most max_dim at each vertex."""
    quiver = QUIVERS[qname]
    keys = _keys_below((max_dim,) * len(quiver.vertices))

    def run(cache):
        ctx = hall.HallContext(quiver, q, cache=cache)
        products, failures = [], []
        for (k1, o1), (k2, o2) in itertools.product(_basis(ctx, keys), repeat=2):
            f = hall.char_function(ctx, k1, o1)
            g = hall.char_function(ctx, k2, o2)
            prod = hall.star(f, g)
            if prod != hall.diagram_star_oracle(f, g):
                failures.append(f"{k1}o{o1}*{k2}o{o2}")
            products.append({"f": [k1, o1], "g": [k2, o2], "product": prod.to_json()})
        tables = {str(k): list(ctx.table(k).sizes) for k in keys}
        return {"products": products, "failures": failures, "tables": tables}, len(products)

    def check(output):
        problems = _no_failures(output)
        for k in keys:
            problems += _table_problems(quiver, q, k, output["tables"][str(k)])
        if quiver is A1:
            problems += _a1_binomial_problems(q, output["products"])
        return problems

    return Job(f"oracle {qname} q{q} d{max_dim}", run, check,
               _tables_below(quiver, q, (2 * max_dim,) * len(quiver.vertices)))


def _a1_binomial_problems(q: int, products) -> list[str]:
    """On the edgeless vertex every class is semisimple and the product of
    dims a and b is [a+b choose b]_q times the class of dim a+b."""
    problems = []
    for entry in products:
        (a,), (b,) = entry["f"][0], entry["g"][0]
        expected = [{"coeff": {"a": str(gaussian_binomial(a + b, b, q)), "b": "0"},
                     "dim": {"1": a + b}, "orbit": "o0"}]
        if entry["product"]["terms"] != expected:
            problems.append(f"A1 q={q} product of dims {a} and {b} is not "
                            f"[{a + b} choose {b}]_q")
    return problems


def fiber_job(q: int, dims: tuple) -> Job:
    """Every contracted point has a fiber of |GL| heart points, each of which
    contracts back onto it, and the fibers cover the heart (c05)."""

    def run(cache):
        ctx = hall.HallContext(KRONECKER, q, cache=cache)
        heart = hall.HeartContext(ctx, "p", "m", "e")
        space = ctx.space(dims)
        hat_space = heart.hat.space(heart.drop_key(dims))
        heart_points = sum(1 for x in rs.enumerate_points(space)
                           if rs.is_heart(space, heart.con, x))
        sizes, bad = [], 0
        for xhat in rs.enumerate_points(hat_space):
            fiber = list(rs.fiber_of_contraction(space, heart.con, xhat, hat_space))
            sizes.append(len(fiber))
            bad += sum(1 for y in fiber
                       if not rs.is_heart(space, heart.con, y)
                       or rs.contract_point(space, heart.con, y, hat_space) != xhat)
        output = {"heart_points": heart_points, "fiber_sizes": sizes, "bad_points": bad}
        return output, sum(sizes)

    def check(output):
        n = dims[1]
        problems = []
        if any(s != gl_order(n, q) for s in output["fiber_sizes"]):
            problems.append(f"a fiber is not of size |GL_{n}(F_{q})| = {gl_order(n, q)}")
        if sum(output["fiber_sizes"]) != output["heart_points"]:
            problems.append("the fibers do not cover the heart")
        if output["bad_points"]:
            problems.append(f"{output['bad_points']} fiber points do not contract back")
        return problems

    return Job(f"fibers kronecker q{q} {dims}", run, check, [])


def extension_job(q: int) -> Job:
    """Extension counts between heart points of dims (1,1) equal q times the
    counts between their contractions (c11)."""

    def run(cache):
        ctx = hall.HallContext(KRONECKER, q, cache=cache)
        heart = hall.HeartContext(ctx, "p", "m", "e")
        con, key = heart.con, (1, 1)
        space, big_space = ctx.space(key), ctx.space((2, 2))
        hat_space = heart.hat.space(heart.drop_key(key))
        big_hat_space = heart.hat.space((2,))
        points = [x for x in rs.enumerate_points(space) if rs.is_heart(space, con, x)]
        pairs = []
        for xt, xw in itertools.product(points, repeat=2):
            counts: dict = {}
            for y in rs.extensions_over(space, space, xt, xw, big_space):
                rank = big_hat_space.point_rank(
                    rs.contract_point(big_space, con, y, big_hat_space))
                counts[rank] = counts.get(rank, 0) + 1
            hat_counts: dict = {}
            that = rs.contract_point(space, con, xt, hat_space)
            what = rs.contract_point(space, con, xw, hat_space)
            for y in rs.extensions_over(hat_space, hat_space, that, what, big_hat_space):
                rank = big_hat_space.point_rank(y)
                hat_counts[rank] = hat_counts.get(rank, 0) + 1
            pairs.append([counts, hat_counts])
        return {"pairs": pairs}, len(pairs)

    def check(output):
        bad = sum(1 for counts, hat_counts in output["pairs"]
                  if counts != {r: q * c for r, c in hat_counts.items()})
        return [f"{bad} heart pairs do not factor by q"] if bad else []

    return Job(f"extensions kronecker q{q} (1,1)", run, check, [])


ORACLE_CHECK = (
    [oracle_job("a1", 2, 2), oracle_job("a1", 3, 2), oracle_job("jordan", 2, 2),
     oracle_job("jordan", 3, 1), oracle_job("kronecker", 2, 1),
     oracle_job("kronecker", 3, 1)]
    + [fiber_job(3, (2, 2)), extension_job(2), extension_job(3)])

WORKLOADS = ("orbits-cold", "hall-warm", "oracle-check")


def fixed_jobs(workload: str) -> list[Job]:
    if workload == "orbits-cold":
        return [orbit_job(*spec) for spec in ORBIT_SPACES]
    if workload == "hall-warm":
        return list(HALL_WARM_FIXED)
    return list(ORACLE_CHECK)


def fill_cache(jobs: list[Job], cache, after_table=lambda: None) -> None:
    """Classify every orbit table the jobs read and store it in `cache`,
    calling `after_table()` after each."""
    contexts: dict = {}
    for quiver, q, dims in sorted({t for job in jobs for t in job.tables},
                                  key=lambda t: (t[0].content_hash(), t[1], t[2])):
        if (quiver, q) not in contexts:
            contexts[(quiver, q)] = hall.HallContext(quiver, q, cache=cache)
        contexts[(quiver, q)].table(dims)
        after_table()
