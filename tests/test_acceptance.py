"""Acceptance checks, one test per criterion, every assertion exact.

Each test times its own body against the stated budget so a regression in the
enumeration kernels shows up here and not as a vague slowdown.  Random
families use a fixed seed; the instances are therefore reproducible.
"""

import itertools
import random
import time

from hallcontract import (
    CartanDatum,
    ContractionPair,
    HallContext,
    HeartContext,
    char_function,
    check_psi_identity,
    circ,
    contract_cartan,
    diagram_star_oracle,
    generalized_reflection,
    build_root_datum,
    realize_graph,
    reflection,
    star,
    validate_cartan,
    validate_pair,
    verify_bialgebra,
    verify_embedding,
    verify_ideal,
    verify_pbw,
    verify_ses,
    weyl_word_search,
)
from hallcontract import quiver as qv
from hallcontract import repspace as rs
from hallcontract.cache import OrbitCache
from hallcontract.ffalg import gaussian_binomial, gl_order

from conftest import (
    a1_quiver,
    contractible_extension_datum,
    double_orbit_datum,
    jordan_quiver,
    kronecker_quiver,
    random_contractible_datum,
)

SEED = 20260816


def _done(label: str, budget: float, t0: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{label}: {elapsed:.1f}s over the {budget:.0f}s budget"
    print(f"[acceptance] {label}: PASS ({elapsed:.2f}s / {budget:.0f}s)")


def test_c01_contraction_preserves_validity():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    for _ in range(200):
        datum, pair = random_contractible_datum(rng)
        assert validate_cartan(datum) == []
        assert validate_pair(datum, pair) == []
        out = contract_cartan(datum, pair)
        assert validate_cartan(out) == []
        assert len(out.labels) == len(datum.labels) - 1
    _done("c01 contracted data stay valid", 1.0, t0)


def test_c02_graph_and_cartan_contraction_commute():
    t0 = time.perf_counter()
    quiver = kronecker_quiver()
    autom = qv.identity_automorphism(quiver)
    pair = qv.make_orbit_pair(quiver, autom, "p", "m")
    agree, mapping, via_graph, via_cartan = qv.cartan_contraction_commutes(
        quiver, autom, pair)
    assert agree
    assert mapping == {"p+m": "p"}

    quiver, autom = realize_graph(double_orbit_datum())
    pair = qv.make_orbit_pair(quiver, autom, "i+@0", "i-@0")
    assert qv.check_contraction_assumptions(quiver, autom, pair) == []
    agree, mapping, _, _ = qv.cartan_contraction_commutes(quiver, autom, pair)
    assert agree
    assert mapping == {"i+@0+i-@0": "i+@0"}

    rng = random.Random(SEED)
    for _ in range(100):
        datum, _ = random_contractible_datum(rng)
        quiver, autom = realize_graph(datum)
        pair = qv.make_orbit_pair(quiver, autom, "p0@0", "m0@0")
        assert qv.check_contraction_assumptions(quiver, autom, pair) == []
        agree, mapping, via_graph, _ = qv.cartan_contraction_commutes(quiver, autom, pair)
        assert agree
        # the merged label names the plus vertex, every other label itself
        plus, minus = pair.plus_orbit[0], pair.minus_orbit[0]
        assert mapping == {(f"{plus}+{minus}" if x == plus else x): x
                           for x in via_graph.labels}
    _done("c02 contraction commutes with taking Cartan data", 5.0, t0)


def test_c03_reflection_identity_and_word_search():
    t0 = time.perf_counter()
    datum, pair = contractible_extension_datum()
    holds, lhs, rhs = check_psi_identity(datum, pair)
    assert holds and lhs.matrix == rhs.matrix

    double = double_orbit_datum()
    dpair = ContractionPair("i+", "i-")
    holds, lhs, rhs = check_psi_identity(double, dpair)
    assert holds and lhs.matrix == rhs.matrix

    rng = random.Random(SEED)
    for _ in range(100):
        rdatum, rpair = random_contractible_datum(rng)
        holds, _, _ = check_psi_identity(rdatum, rpair)
        assert holds

    # the middle factor of the identity is not itself a word in the simple
    # reflections: exhaustive search to depth 8 comes back empty
    rd = build_root_datum(double)
    target = generalized_reflection(rd, {"i-": 1, "i+": 2})
    assert weyl_word_search(double, target, max_depth=8) is None
    found = weyl_word_search(double, reflection(rd, "i+"), max_depth=2)
    assert found == ["i+"]
    _done("c03 reflection identity holds, middle factor has no word", 10.0, t0)


def test_c04_orbit_counts_and_sizes():
    t0 = time.perf_counter()
    jordan = HallContext(jordan_quiver(), 2, cache=OrbitCache())
    table = jordan.table((2,))
    assert table.count == 6
    assert sorted(table.sizes) == [1, 1, 2, 3, 3, 6]
    assert sum(table.sizes) == 16

    kron3 = HallContext(kronecker_quiver(), 3, cache=OrbitCache())
    ktable = kron3.table((1, 1))
    assert ktable.count == 5
    assert sorted(ktable.sizes) == [1, 2, 2, 2, 2]
    assert sum(ktable.sizes) == 9

    for ctx, key in ((jordan, (0,)), (jordan, (1,)), (jordan, (2,)),
                     (kron3, (1, 1)), (kron3, (2, 2))):
        table = ctx.table(key)
        order = rs.group_order(ctx.space(key))
        assert all(order % size == 0 for size in table.sizes)
        assert sum(table.sizes) == ctx.space(key).total_points
    _done("c04 orbit tables match the known counts", 5.0, t0)


def test_c05_contraction_fibers_are_gl_torsors():
    t0 = time.perf_counter()
    for q, key in ((2, (1, 1)), (2, (2, 2)), (3, (1, 1))):
        ctx = HallContext(kronecker_quiver(), q, cache=OrbitCache())
        heart = HeartContext(ctx, "p", "m", "e")
        space = ctx.space(key)
        hat_space = heart.hat.space(heart.drop_key(key))
        n = heart.minus_dim(key)
        expected = gl_order(n, q)
        heart_points = [x for x in rs.enumerate_points(space)
                        if rs.is_heart(space, heart.con, x)]
        covered = 0
        for xhat in rs.enumerate_points(hat_space):
            fiber = list(rs.fiber_of_contraction(space, heart.con, xhat, hat_space))
            assert len(fiber) == expected
            for y in fiber:
                assert rs.is_heart(space, heart.con, y)
                assert rs.contract_point(space, heart.con, y, hat_space) == xhat
            covered += len(fiber)
        assert covered == len(heart_points)
    _done("c05 fibers over contracted points are GL-sized", 30.0, t0)


def test_c06_product_against_flag_diagram_oracle():
    t0 = time.perf_counter()
    cases = [
        (HallContext(a1_quiver(), 2, cache=OrbitCache()), 2),
        (HallContext(jordan_quiver(), 2, cache=OrbitCache()), 2),
        (HallContext(kronecker_quiver(), 2, cache=OrbitCache()), 1),
    ]
    checked = 0
    for ctx, max_dim in cases:
        nvert = len(ctx.quiver.vertices)
        keys = list(itertools.product(range(max_dim + 1), repeat=nvert))
        for tk in keys:
            for wk in keys:
                for o1 in range(ctx.table(tk).count):
                    f = char_function(ctx, tk, o1)
                    for o2 in range(ctx.table(wk).count):
                        g = char_function(ctx, wk, o2)
                        assert star(f, g) == diagram_star_oracle(f, g)
                        checked += 1
    assert checked > 0

    # products of semisimple classes on the edgeless one-vertex graph count
    # subspaces: the coefficient is a Gaussian binomial
    for q in (2, 3):
        ctx = HallContext(a1_quiver(), q, cache=OrbitCache())
        for total in range(5):
            for n in range(total + 1):
                f = char_function(ctx, (total - n,), 0)
                g = char_function(ctx, (n,), 0)
                prod = star(f, g)
                assert list(prod.terms) == [((total,), 0)]
                assert prod.terms[((total,), 0)] == gaussian_binomial(total, n, q)
    _done("c06 convolution product equals the diagram oracle", 120.0, t0)


def test_c07_associativity_and_bialgebra():
    t0 = time.perf_counter()
    for quiver in (a1_quiver(), jordan_quiver(), kronecker_quiver()):
        ctx = HallContext(quiver, 2, cache=OrbitCache())
        nvert = len(quiver.vertices)
        keys = list(itertools.product(range(4), repeat=nvert))
        triples = [(k1, k2, k3)
                   for k1 in keys for k2 in keys for k3 in keys
                   if all(a + b + c <= 3 for a, b, c in zip(k1, k2, k3))]
        for k1, k2, k3 in triples:
            for o1 in range(ctx.table(k1).count):
                f = char_function(ctx, k1, o1)
                for o2 in range(ctx.table(k2).count):
                    g = char_function(ctx, k2, o2)
                    fg = circ(f, g)
                    for o3 in range(ctx.table(k3).count):
                        h = char_function(ctx, k3, o3)
                        assert circ(fg, h) == circ(f, circ(g, h))

    report = verify_bialgebra(HallContext(a1_quiver(), 2, cache=OrbitCache()), 2)
    assert report["status"] == "pass", report["failures"]
    report = verify_bialgebra(HallContext(jordan_quiver(), 2, cache=OrbitCache()), 2)
    assert report["status"] == "pass", report["failures"]
    _done("c07 associativity and bialgebra checks", 300.0, t0)


def test_c08_contraction_embedding():
    t0 = time.perf_counter()
    for q in (2, 3):
        ctx = HallContext(kronecker_quiver(), q, cache=OrbitCache())
        heart = HeartContext(ctx, "p", "m", "e")
        report = verify_embedding(heart, max_dim=2)
        assert report["status"] == "pass", report["failures"]
    _done("c08 twisted embedding of the contracted algebra", 300.0, t0)


def test_c09_orbit_transport():
    t0 = time.perf_counter()
    ctx = HallContext(kronecker_quiver(), 2, cache=OrbitCache())
    heart = HeartContext(ctx, "p", "m", "e")
    report = verify_pbw(heart, max_dim=2)
    assert report["status"] == "pass", report["failures"]
    _done("c09 orbit transport along the contraction", 60.0, t0)


def test_c10_ideal_and_exact_sequence():
    t0 = time.perf_counter()
    ctx = HallContext(kronecker_quiver(), 2, cache=OrbitCache())
    heart = HeartContext(ctx, "p", "m", "e")
    report = verify_ideal(heart, max_dim=2)
    assert report["status"] == "pass", report["failures"]
    report = verify_ses(heart, max_dim=2)
    assert report["status"] == "pass", report["failures"]
    _done("c10 complement ideal and split exact sequence", 120.0, t0)


def test_c11_heart_extension_counts_factor():
    t0 = time.perf_counter()
    q = 2
    ctx = HallContext(kronecker_quiver(), q, cache=OrbitCache())
    heart = HeartContext(ctx, "p", "m", "e")
    key = (1, 1)
    space = ctx.space(key)
    con = heart.con
    hat_space = heart.hat.space(heart.drop_key(key))
    big_space = ctx.space((2, 2))
    big_hat_space = heart.hat.space((2,))
    factor = q ** (1 * 1 * 1)  # phi1(i+) * tau_{i+} * omega_{i-}

    heart_points = [x for x in rs.enumerate_points(space)
                    if rs.is_heart(space, con, x)]
    assert len(heart_points) == 2
    for xt in heart_points:
        for xw in heart_points:
            counts: dict[int, int] = {}
            for y in rs.extensions_over(space, space, xt, xw, big_space):
                assert rs.is_heart(big_space, con, y)
                yhat = rs.contract_point(big_space, con, y, big_hat_space)
                rank = big_hat_space.point_rank(yhat)
                counts[rank] = counts.get(rank, 0) + 1
            that = rs.contract_point(space, con, xt, hat_space)
            what = rs.contract_point(space, con, xw, hat_space)
            hat_counts: dict[int, int] = {}
            for yhat in rs.extensions_over(hat_space, hat_space, that, what,
                                           big_hat_space):
                rank = big_hat_space.point_rank(yhat)
                hat_counts[rank] = hat_counts.get(rank, 0) + 1
            assert counts == {r: factor * c for r, c in hat_counts.items()}
    _done("c11 heart extension counts factor through the contraction", 60.0, t0)
