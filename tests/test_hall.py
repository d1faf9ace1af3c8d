"""Hall algebra products, coproducts, and the contraction transport."""

import gc
import itertools
import json
import random
import time
import weakref
from fractions import Fraction

import pytest

from hallcontract.ffalg import EnumerationBoundError, Mat
from hallcontract import ffalg, hall, repspace
from hallcontract.cache import OrbitCache
from hallcontract.hall import (
    HallContext,
    HallElement,
    HeartContext,
    _ext_table,
    _half_power_exponent,
    TensorElement,
    char_function,
    circ,
    complement_split,
    comult_compat,
    coproduct,
    diagram_star_oracle,
    j_shriek,
    j_star,
    m_omega,
    m_star_omega,
    mu_lower_star,
    mu_star,
    psi,
    res,
    star,
    tensor,
    tensor_mult,
    verify_bialgebra,
    verify_embedding,
    verify_ideal,
    verify_pbw,
    verify_ses,
    zero_element,
)
from hallcontract.quiver import Edge, Quiver
from hallcontract.repspace import (enumerate_points, extensions_over,
                                   fiber_of_contraction)
from hallcontract.scalars import SqrtQScalar

from conftest import a1_quiver, flag_table_by_mat, jordan_quiver, kronecker_quiver


def sq(ctx, a=0, b=0):
    return SqrtQScalar(ctx.q, Fraction(a), Fraction(b))


def unit(ctx):
    """The characteristic function of the zero representation."""
    return char_function(ctx, (0,) * len(ctx.quiver.vertices), 0)


def test_unit_is_neutral(a1_ctx, jordan_ctx):
    for ctx, f in ((a1_ctx, char_function(a1_ctx, (1,), 0)),
                   (jordan_ctx, char_function(jordan_ctx, (2,), 2))):
        assert circ(unit(ctx), f) == f
        assert circ(f, unit(ctx)) == f
        assert star(unit(ctx), f) == f


def test_semisimple_square_on_one_vertex(a1_ctx, a1_ctx3):
    theta1 = char_function(a1_ctx, (1,), 0)
    prod = star(theta1, theta1)
    assert prod.terms == {((2,), 0): sq(a1_ctx, 3)}
    twisted = circ(theta1, theta1)
    assert twisted.terms == {((2,), 0): sq(a1_ctx, 0, Fraction(3, 2))}

    theta1 = char_function(a1_ctx3, (1,), 0)
    assert star(theta1, theta1).terms == {((2,), 0): sq(a1_ctx3, 4)}


def test_nilpotent_square_on_the_loop(jordan_ctx):
    p0 = char_function(jordan_ctx, (1,), 0)
    prod = circ(p0, p0)
    assert prod.terms == {
        ((2,), 0): sq(jordan_ctx, Fraction(3, 2)),
        ((2,), 2): sq(jordan_ctx, Fraction(1, 2)),
    }


def test_star_is_bilinear(jordan_ctx):
    f = char_function(jordan_ctx, (1,), 0)
    g = char_function(jordan_ctx, (1,), 1)
    h = char_function(jordan_ctx, (1,), 0).scale(3)
    assert star(f + g, h) == star(f, h) + star(g, h)
    assert star(h, f - g) == star(h, f) - star(h, g)


def test_scale_refuses_floats(jordan_ctx):
    f = char_function(jordan_ctx, (1,), 0)
    assert f.scale(Fraction(1, 2)) == f.scale(sq(jordan_ctx, Fraction(1, 2)))
    with pytest.raises(TypeError):
        f.scale(0.5)
    with pytest.raises(TypeError):
        SqrtQScalar(jordan_ctx.q, 0.1)


def test_oracle_agrees_on_spot_checks(jordan_ctx, kron_ctx):
    f = char_function(jordan_ctx, (1,), 1) + char_function(jordan_ctx, (1,), 0)
    g = char_function(jordan_ctx, (2,), 2)
    assert diagram_star_oracle(f, g) == star(f, g)

    f = char_function(kron_ctx, (1, 0), 0)
    g = char_function(kron_ctx, (0, 1), 0)
    assert diagram_star_oracle(f, g) == star(f, g)
    assert diagram_star_oracle(g, f) == star(g, f)


def test_oracle_respects_its_bound(jordan_ctx, monkeypatch):
    """Also once a default-bound call has warmed the memo; and a fresh
    context gives the same products as the warmed one."""
    f = char_function(jordan_ctx, (2,), 2)

    def refused():
        with monkeypatch.context() as m:
            m.setattr(hall, "ORACLE_MAX_FLAGS", 10)
            with pytest.raises(EnumerationBoundError):
                diagram_star_oracle(f, f)

    refused()
    warm = diagram_star_oracle(f, f)
    assert ((2,), (2,)) in jordan_ctx._memo[hall._oracle_flags.__wrapped__]
    refused()
    assert diagram_star_oracle(f, f) == warm

    fresh = HallContext(jordan_ctx.quiver, 2, cache=OrbitCache())

    def products(ctx):
        basis = [char_function(ctx, (n,), o) for n in range(3)
                 for o in range(ctx.table((n,)).count)]
        return [diagram_star_oracle(f, g).terms
                for f, g in itertools.product(basis, repeat=2)]

    assert products(fresh) == products(jordan_ctx)


def test_hall_bounds_refuse_before_counting(monkeypatch):
    """A restriction or a product of A1 at dim 1200 over F_2 is refused from
    the exponent 600 * 600 or 1200 * 1200 of its graded subspaces, before
    any group order or Gaussian binomial is formed."""
    ctx = HallContext(a1_quiver(), 2)
    f, g = char_function(ctx, (1200,), 0), char_function(ctx, (600,), 0)

    def forbidden(*args):
        raise AssertionError("a count was formed before the bound")
    for module, name in itertools.product((ffalg, repspace),
                                          ("gl_order", "gaussian_binomial")):
        monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(EnumerationBoundError,
                       match=r"^at least 2\^360000 graded subspaces exceed the bound"):
        res(f, {"1": 600}, {"1": 600})
    with pytest.raises(EnumerationBoundError,
                       match=r"^at least 2\^1440000 graded subspaces exceed the bound"):
        circ(f, f)
    with pytest.raises(EnumerationBoundError, match=r"^at least 2\^360000 "):
        star(g, g)


def test_a_coproduct_past_the_bound_is_refused_promptly():
    """The coproduct of A1 at dim 1200 over F_2 computes its split (0, 1200),
    whose one graded subspace is the whole space (Gaussian binomial
    [1200, 1200] = 1, one point on each side), before (1, 1199) is
    refused."""
    f = char_function(HallContext(a1_quiver(), 2), (1200,), 0)
    start = time.perf_counter()
    with pytest.raises(EnumerationBoundError, match=r"^at least 2\^1199 "):
        coproduct(f)
    assert time.perf_counter() - start < 1.5


@pytest.mark.parametrize("quiver, big, unit_key", [
    (a1_quiver(), (3000,), (0,)), (kronecker_quiver(), (3000, 0), (0, 0))])
def test_unit_products_form_no_group_order(monkeypatch, quiver, big, unit_key):
    """circ and star of a one-point grade at dim 3000 over F_2 with the
    unit, on either side, return the element unchanged and promptly: the
    flag count reads orbit sizes and the one graded subspace, and forms no
    |GL_3000(F_2)|."""
    def forbidden(*args):
        raise AssertionError("a group order was formed")
    for target in ("repspace.group_order", "hall.group_order",
                   "ffalg.gl_order", "repspace.gl_order"):
        monkeypatch.setattr(f"hallcontract.{target}", forbidden)
    ctx = HallContext(quiver, 2)
    f, one = char_function(ctx, big, 0), char_function(ctx, unit_key, 0)
    for op in (circ, star):
        for args in ((f, one), (one, f)):
            start = time.perf_counter()
            assert op(*args) == f, (op.__name__, args)
            assert time.perf_counter() - start < 0.5


def test_oracle_shares_no_state_with_the_flag_table():
    """One flag count, corrupted before any product on a fresh context,
    moves star but not the oracle, which is computed after it."""
    clean = HallContext(jordan_quiver(), 2, cache=OrbitCache())
    f = char_function(clean, (1,), 0)
    expected = star(f, f).to_json()
    assert diagram_star_oracle(f, f).to_json() == expected
    ctx = HallContext(jordan_quiver(), 2, cache=OrbitCache())
    f = char_function(ctx, (1,), 0)
    bucket = hall._flag_table(ctx, (1,), (1,))[(0, 0)]
    bucket[min(bucket)] += 1
    assert star(f, f).to_json() != expected
    assert diagram_star_oracle(f, f).to_json() == expected


def test_memos_live_exactly_as_long_as_their_context():
    """Every memoized function files its values in its own context's store,
    and dropping the contexts frees them with everything memoized, so two
    bench jobs or two hallc runs never share a table."""
    ctx = HallContext(kronecker_quiver(), 2, cache=OrbitCache())
    assert verify_bialgebra(ctx, max_dim=1)["status"] == "pass"
    f, g = char_function(ctx, (1, 0), 0), char_function(ctx, (0, 1), 0)
    assert diagram_star_oracle(f, g) == star(f, g)
    heart = HeartContext(ctx, "p", "m", "e")
    heart.orbit_maps((1, 1))
    assert {fn.__name__ for fn in ctx._memo} == {
        "_table", "_flag_table", "_product_row", "_ext_table",
        "_coproduct_row", "_oracle_flags", "_group_profile"}
    assert {fn.__name__ for fn in heart._memo} == {"orbit_maps"}
    assert heart.hat._memo and heart.hat._memo is not ctx._memo
    refs = [weakref.ref(x) for x in (ctx, heart, heart.hat, ctx.table((1, 1)),
                                     ctx.space((1, 1)))]
    del ctx, f, g, heart
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def _seeded_element(ctx, rng, keys):
    """Up to three basis vectors at the grade keys: the first with
    coefficient 1 (multiplied by nothing), the others a + b sqrt(q), b
    nonzero on about half of them."""
    basis = [(k, o) for k in keys for o in range(ctx.table(k).count)]
    first, *rest = rng.sample(basis, min(3, len(basis)))
    out = char_function(ctx, *first)
    for key, o in rest:
        b = Fraction(rng.randint(1, 3), rng.randint(1, 2)) if rng.random() < 0.5 else 0
        c = SqrtQScalar(ctx.q, Fraction(rng.randint(-4, 4), rng.randint(1, 3)), b)
        out = out + char_function(ctx, key, o).scale(c)
    return out


def _structure_outputs(ctx, seed):
    """circ, star, coproduct, res and tensor_mult on seeded elements of
    grade at most 1 at each vertex, as JSON."""
    rng = random.Random(seed)
    keys = list(itertools.product(range(2), repeat=len(ctx.quiver.vertices)))
    f, g = _seeded_element(ctx, rng, keys), _seeded_element(ctx, rng, keys)
    fg = circ(f, g)
    top = max(k for k, _ in fg.terms)
    tau = tuple((n + 1) // 2 for n in top)
    outputs = [fg, star(f, g), star(g, f), coproduct(f), coproduct(fg),
               res(fg, tau, tuple(n - t for n, t in zip(top, tau))),
               tensor_mult(coproduct(f), coproduct(g))]
    return [x.to_json() for x in outputs]


@pytest.mark.parametrize("quiver, q", [(jordan_quiver(), 2), (jordan_quiver(), 3),
                                       (kronecker_quiver(), 3)],
                         ids=["jordan-q2", "jordan-q3", "kronecker-q3"])
def test_memoized_structure_constants_are_invisible(quiver, q):
    """The per-basis product and coproduct rows memoized on a context change
    no result: a fresh context and one warmed by a full verify_bialgebra
    pass give the same JSON, and mutating a returned element's terms leaves
    the next call's result unchanged."""
    warm = HallContext(quiver, q, cache=OrbitCache())
    assert verify_bialgebra(warm, max_dim=1)["status"] == "pass"
    assert warm._memo[hall._product_row.__wrapped__]
    assert warm._memo[hall._coproduct_row.__wrapped__]
    for seed in range(4):
        fresh = HallContext(quiver, q, cache=OrbitCache())
        assert _structure_outputs(warm, seed) == _structure_outputs(fresh, seed)
    rng = random.Random(99)
    keys = list(itertools.product(range(2), repeat=len(quiver.vertices)))
    f = _seeded_element(warm, rng, keys)
    junk = SqrtQScalar(q, 7, 1)
    for op in (lambda: circ(f, f), lambda: star(f, f), lambda: coproduct(f),
               lambda: coproduct(circ(f, f))):
        before = op().to_json()
        out = op()
        out.terms.update(dict.fromkeys(out.terms, junk))
        out.terms[None] = junk
        assert op().to_json() == before


def test_star_and_the_oracle_share_no_flag_code(monkeypatch):
    """star, circ and coproduct count flags on codes only, never through
    the Mat flag geometry; the oracle uses that geometry only, never the
    extension code counter. Each route, with the other's code made to
    raise, gives the products the other gave."""
    quiver = kronecker_quiver()
    basis_keys = [(0, 1), (1, 0), (1, 1)]

    def basis(ctx):
        return [char_function(ctx, k, o) for k in basis_keys
                for o in range(ctx.table(k).count)]

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return refused

    ctx = HallContext(quiver, 3, cache=OrbitCache())
    oracle = [diagram_star_oracle(f, g).terms
              for f, g in itertools.product(basis(ctx), repeat=2)]
    with monkeypatch.context() as patch:
        for module in ("hall", "repspace"):
            for name in ("stable_subspaces", "quotient_point", "sub_point"):
                patch.setattr(f"hallcontract.{module}.{name}", refuse(name))
        patch.setattr("hallcontract.repspace.is_stable", refuse("is_stable"))
        ctx = HallContext(quiver, 3, cache=OrbitCache())
        products = [star(f, g).terms
                    for f, g in itertools.product(basis(ctx), repeat=2)]
        assert products == oracle
        for f, g in itertools.product(basis(ctx), repeat=2):
            circ(f, g)
            coproduct(f + g)
    for module in ("hall", "repspace"):
        monkeypatch.setattr(f"hallcontract.{module}.extension_code_counts",
                            refuse("extension_code_counts"))
    ctx = HallContext(quiver, 3, cache=OrbitCache())
    assert [diagram_star_oracle(f, g).terms
            for f, g in itertools.product(basis(ctx), repeat=2)] == products


def test_exponent_bookkeeping():
    jq, kq = jordan_quiver(), kronecker_quiver()
    assert m_omega(jq, (1,), (1,)) == 2
    assert m_star_omega(jq, (1,), (1,)) == 0
    kt = (1, 1)
    assert m_omega(kq, kt, kt) == 4
    assert m_star_omega(kq, kt, kt) == 0
    assert m_omega(jq, (2,), (1,)) == 4
    assert m_star_omega(jq, (2,), (1,)) == 0


@pytest.mark.parametrize("ctx_name, bound", [
    ("a1_ctx3", 3), ("jordan_ctx", 3), ("kron_ctx", 2)])
def test_extension_counts_follow_from_flag_counts(request, ctx_name, bound):
    """The extension table, counted on codes, equals a direct count of
    block-triangular extensions of every representative pair, built as Mat
    points. The splits include those whose M holds every entry of a big
    point, and Kronecker (0,1)+(1,0), whose x_t and x_w have no entries
    but whose zero block does."""
    ctx = request.getfixturevalue(ctx_name)
    nvert = len(ctx.quiver.vertices)
    for tk in itertools.product(range(bound + 1), repeat=nvert):
        for wk in itertools.product(*(range(bound - t + 1) for t in tk)):
            nk = tuple(a + b for a, b in zip(tk, wk))
            ttable, wtable, big = ctx.table(tk), ctx.table(wk), ctx.table(nk)
            direct = {}
            for t in range(ttable.count):
                for w in range(wtable.count):
                    counter = direct[(t, w)] = {}
                    for y in extensions_over(ctx.space(tk), ctx.space(wk),
                                             ttable.representative(t),
                                             wtable.representative(w),
                                             ctx.space(nk)):
                        o = big.ordinal_of(y)
                        counter[o] = counter.get(o, 0) + 1
            assert _ext_table(ctx, tk, wk) == direct, (tk, wk)


def _quiver(vertices, edges):
    return Quiver(tuple(vertices), tuple(Edge(f"h{i}", s, t)
                                         for i, (s, t) in enumerate(edges)))


#: (quiver, q, top grade): every split of every grade up to the top one,
#: leaving out spaces of more than 300,000 points.
ROUTE_GRID = [
    *((jordan_quiver(), q, top) for q, top in ((2, (4,)), (3, (3,)), (4, (2,)),
                                               (5, (2,)), (9, (2,)), (8, (1,)),
                                               (27, (1,)))),
    *((kronecker_quiver(), q, top) for q, top in ((2, (3, 3)), (3, (2, 2)),
                                                  (4, (2, 2)), (8, (1, 1)),
                                                  (9, (1, 1)))),
    *((_quiver("pm", [("p", "m")] * 3), q, (2, 2)) for q in (2, 3)),
    *((_quiver("pm", [("p", "m"), ("m", "p")]), q, (2, 2)) for q in (2, 3)),
    (_quiver("abc", [("a", "b"), ("b", "c")]), 2, (2, 2, 2)),
    (_quiver("abc", [("a", "b"), ("b", "c")]), 3, (1, 1, 1)),
    (_quiver("apm", [("a", "p"), ("a", "a"), ("p", "m"), ("p", "m")]), 2,
     (1, 1, 1)),
    (a1_quiver(), 2, (5,)), (a1_quiver(), 7, (3,)),
    (_quiver("1", [("1", "1")] * 2), 2, (2,)),
    (_quiver("1", [("1", "1")] * 2), 3, (1,)),
]


def test_riedtmann_flag_tables_match_the_mat_geometry():
    """Each split's flag table, derived by Riedtmann's formula from the
    extension table counted on codes, equals the flag table counted through
    the Mat geometry (stable_subspaces, quotient_point, sub_point), on all
    684 splits of the grid."""
    splits = 0
    for quiver, q, top in ROUTE_GRID:
        ctx = HallContext(quiver, q)
        for nk in itertools.product(*(range(n + 1) for n in top)):
            if ctx.space(nk).total_points > 300_000:
                continue
            for tk in itertools.product(*(range(n + 1) for n in nk)):
                wk = tuple(n - t for n, t in zip(nk, tk))
                assert hall._flag_table(ctx, tk, wk) == flag_table_by_mat(
                    ctx, tk, wk), (quiver.vertices, q, tk, wk)
                splits += 1
    assert splits == 684


def test_restriction_values(a1_ctx, jordan_ctx):
    theta2 = char_function(a1_ctx, (2,), 0)
    t = res(theta2, (1,), (1,))
    assert t.terms == {(((1,), 0), ((1,), 0)): sq(a1_ctx, 0, 1)}

    nilp = char_function(jordan_ctx, (2,), 2)
    t = res(nilp, (1,), (1,))
    assert t.terms == {(((1,), 0), ((1,), 0)): sq(jordan_ctx, 1)}


def test_restriction_rejects_mismatched_grades(a1_ctx):
    theta1 = char_function(a1_ctx, (1,), 0)
    with pytest.raises(ValueError):
        res(theta1, (1,), (1,))
    assert res(zero_element(a1_ctx), (1,), (1,)).is_zero()


def test_coproduct_of_theta2(a1_ctx):
    theta = [char_function(a1_ctx, (n,), 0) for n in range(3)]
    expected = (tensor(theta[0], theta[2])
                + tensor(theta[1], theta[1]).scale(sq(a1_ctx, 0, 1))
                + tensor(theta[2], theta[0]))
    assert coproduct(theta[2]) == expected


def test_tensor_mult_applies_the_crossing_twist(a1_ctx):
    theta1 = char_function(a1_ctx, (1,), 0)
    t = tensor(theta1, theta1)
    # twist q^{(1,1)/2} = 2 and each factor contributes (3/2) sqrt(2)
    out = tensor_mult(t, t)
    assert out.terms == {(((2,), 0), ((2,), 0)): sq(a1_ctx, 9)}


def test_coproduct_is_multiplicative_on_a_spot(a1_ctx):
    theta1 = char_function(a1_ctx, (1,), 0)
    lhs = coproduct(circ(theta1, theta1))
    rhs = tensor_mult(coproduct(theta1), coproduct(theta1))
    assert lhs == rhs


def test_element_json_roundtrip(a1_ctx, a1_ctx3, jordan_ctx):
    theta1 = char_function(a1_ctx, (1,), 0)
    f = circ(theta1, theta1) + theta1.scale(Fraction(-2, 7))
    payload = f.to_json()
    assert HallElement.from_json(a1_ctx, payload) == f
    with pytest.raises(ValueError):
        HallElement.from_json(a1_ctx3, payload)
    with pytest.raises(ValueError):
        HallElement.from_json(jordan_ctx, payload)


def test_value_at_reads_orbit_coefficients(jordan_ctx):
    p0 = char_function(jordan_ctx, (1,), 0)
    prod = circ(p0, p0)
    space = jordan_ctx.space((2,))
    f = space.field
    zero = space.point_from_rank(0)
    nilp = (Mat(f, ((0, 0), (1, 0))),)
    idem = (Mat(f, ((0, 0), (0, 1))),)
    assert prod.value_at((2,), zero) == sq(jordan_ctx, Fraction(3, 2))
    assert prod.value_at((2,), nilp) == sq(jordan_ctx, Fraction(1, 2))
    assert prod.value_at((2,), idem).is_zero()


def test_char_function_rejects_unknown_orbits(jordan_ctx):
    with pytest.raises(KeyError):
        char_function(jordan_ctx, (1,), 5)
    with pytest.raises(KeyError):
        char_function(jordan_ctx, (1,), "o9")
    assert char_function(jordan_ctx, (1,), "o1") == char_function(jordan_ctx, (1,), 1)


@pytest.mark.parametrize("bad", [True, 1.0])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_element_keys_are_the_interned_int_keys(bad, warm):
    # True and 1.0 equal and hash like 1, so a warm memo would find the int
    # grade; elements are keyed by the interned space's checked int key, and
    # a grade named through such a dimension is refused, met first or not
    ctx = HallContext(kronecker_quiver(), 2)
    f = char_function(ctx, (2, 0), 0)
    if warm:
        good, split = char_function(ctx, (1, 0), 0), res(f, (1, 0), (1, 0))
        assert '"p": 1' in json.dumps(good.to_json())
        assert {type(n) for t, w in split.terms for n in t[0] + w[0]} == {int}
    with pytest.raises(ValueError, match="must be integers"):
        char_function(ctx, (bad, 0), 0)
    with pytest.raises(ValueError, match="must be integers"):
        res(f, (bad, 0), (1, 0))


@pytest.mark.parametrize("form", ["dict", "sequence"])
def test_dims_key_refuses_entries_that_are_not_int(form):
    """A bool or float entry is refused by space, table and sym_pairing,
    before and after the int grade it equals has been interned."""
    ctx = HallContext(kronecker_quiver(), 2)

    def dims(key):
        return dict(zip(ctx.quiver.vertices, key)) if form == "dict" else list(key)
    for interned in (False, True):
        if interned:
            ctx.table((1, 1)), ctx.table((0, 0))
        for bad in ((True, 1), (1.0, 1), (0.5, 0), (0, False)):
            for call in (ctx.space, ctx.table,
                         lambda d: ctx.sym_pairing(d, dims((1, 0)))):
                with pytest.raises(ValueError, match="must be integers"):
                    call(dims(bad))
    assert ctx.space(dims((1, 1))).key == (1, 1)
    assert ctx.sym_pairing(dims((1, 0)), dims((1, 0))) == 2


def test_contexts_do_not_mix(a1_ctx, jordan_ctx):
    f = char_function(a1_ctx, (1,), 0)
    g = char_function(jordan_ctx, (1,), 0)
    with pytest.raises(ValueError):
        star(f, g)
    with pytest.raises(ValueError):
        f + g
    assert f != g


def test_pullback_moves_one_basis_vector(kron_heart):
    hat = kron_heart.hat
    f0 = char_function(hat, (1,), 0)
    lifted = mu_star(kron_heart, f0)
    assert lifted.terms == {((1, 1), 2): sq(kron_heart.ctx, 0, Fraction(1, 2))}
    untwisted = mu_star(kron_heart, f0, twisted=False)
    assert untwisted == char_function(kron_heart.ctx, (1, 1), 2)
    with pytest.raises(ValueError):
        mu_star(kron_heart, char_function(kron_heart.ctx, (1, 1), 2))


def test_pullback_pushforward_roundtrips(kron_heart):
    hat = kron_heart.hat
    for key, count in (((0,), 1), ((1,), 2), ((2,), 6)):
        for o in range(hat.table(key).count):
            fhat = char_function(hat, key, o)
            assert mu_lower_star(kron_heart, mu_star(kron_heart, fhat)) == fhat
    for key in ((1, 1), (2, 2)):
        for o in kron_heart.heart_ordinals(key):
            f = char_function(kron_heart.ctx, key, o)
            assert mu_star(kron_heart, mu_lower_star(kron_heart, f)) == f


def test_pushforward_rejects_non_heart_support(kron_heart):
    nonheart = char_function(kron_heart.ctx, (1, 1), 0)
    with pytest.raises(ValueError):
        mu_lower_star(kron_heart, nonheart)
    with pytest.raises(ValueError):
        mu_lower_star(kron_heart, char_function(kron_heart.hat, (1,), 0))


KEY_MAP_SITES = {
    # minus vertex first, and a third vertex feeding the plus one
    "three-vertex": (Quiver(("m", "a", "p"), (
        Edge("e", "p", "m"), Edge("f", "p", "m"), Edge("x", "a", "p"))),
        "p", "m", "e", 36),
    "five-edge": (Quiver(("a", "b", "c"), (
        Edge("x", "a", "b"), Edge("y", "b", "c"), Edge("z", "b", "c"),
        Edge("w", "c", "a"), Edge("v", "a", "c"))), "b", "c", "y", 72),
    # the named roles are swapped against the edge direction
    "kronecker-swapped": (kronecker_quiver(), "m", "p", "e", 11),
}


@pytest.mark.parametrize("site", sorted(KEY_MAP_SITES))
def test_key_maps_match_a_dict_reference(site):
    """lift_key, drop_key, minus_dim and is_balanced index grade keys; they
    agree with maps written on dicts over the vertex names, on every grade
    up to 2 at each vertex, and the embedding suite passes at the site."""
    quiver, plus, minus, edge, checks = KEY_MAP_SITES[site]
    hc = HeartContext(HallContext(quiver, 2), plus, minus, edge)
    big, hat = hc.ctx.quiver.vertices, hc.hat.quiver.vertices
    for key in itertools.product(range(3), repeat=len(big)):
        dims = dict(zip(big, key))
        balanced = dims[hc.plus_vertex] == dims[hc.minus_vertex]
        assert hc.is_balanced(key) == balanced
        assert hc.minus_dim(key) == dims[hc.minus_vertex]
        if balanced:
            assert hc.drop_key(key) == tuple(dims[v] for v in hat)
        else:
            with pytest.raises(ValueError, match="not balanced"):
                hc.drop_key(key)
    for hat_key in itertools.product(range(3), repeat=len(hat)):
        dims = dict(zip(hat, hat_key))
        dims[hc.minus_vertex] = dims[hc.plus_vertex]
        lifted = tuple(dims[v] for v in big)
        assert hc.lift_key(hat_key) == lifted
        assert hc.drop_key(lifted) == hat_key
    # a key of one entry, of the other side's length, or one entry too long,
    # is refused
    for length in (1, len(hat), len(big) + 1):
        for key_map in (hc.drop_key, hc.is_balanced, hc.minus_dim):
            with pytest.raises(ValueError, match=f"has {len(big)} entries"):
                key_map((1,) * length)
    for length in (len(big), len(hat) + 1):
        with pytest.raises(ValueError, match=f"has {len(hat)} entries"):
            hc.lift_key((1,) * length)
    report = verify_embedding(hc, max_dim=1)
    assert report["status"] == "pass" and len(report["checks"]) == checks


def test_pushforward_agrees_with_fiber_averaging(kron_heart):
    """An independent route to the same values: evaluate the heart element
    over one whole fiber, divide by the gauge group order, apply the
    reciprocal twist, and compare pointwise on the contracted side."""
    ctx, hat = kron_heart.ctx, kron_heart.hat
    con = kron_heart.con
    for big_key, gauge in (((1, 1), 1), ((2, 2), 6)):
        hat_key = kron_heart.drop_key(big_key)
        space = ctx.space(big_key)
        hat_space = hat.space(hat_key)
        n = kron_heart.minus_dim(big_key)
        twist = SqrtQScalar.half_power(ctx.q, n * n)
        f = zero_element(ctx)
        for o in sorted(kron_heart.heart_ordinals(big_key)):
            f = f + char_function(ctx, big_key, o).scale(2 + o)
        pushed = mu_lower_star(kron_heart, f)
        for xhat in enumerate_points(hat_space):
            total = SqrtQScalar.zero(hat.q)
            for y in fiber_of_contraction(space, con, xhat, hat_space):
                v = f.value_at(big_key, y)
                total = total + SqrtQScalar(hat.q, v.a, v.b)
            expect = total * SqrtQScalar(hat.q, Fraction(1, gauge)) * twist
            assert pushed.value_at(hat_key, xhat) == expect


def test_extension_by_zero_validates_support(kron_heart):
    heart = char_function(kron_heart.ctx, (1, 1), 2)
    assert j_shriek(kron_heart, heart) == heart
    with pytest.raises(ValueError):
        j_shriek(kron_heart, char_function(kron_heart.ctx, (1, 1), 0))


def test_restriction_to_heart_truncates(kron_heart):
    ctx = kron_heart.ctx
    f = (char_function(ctx, (1, 1), 0) + char_function(ctx, (1, 1), 2).scale(4)
         + char_function(ctx, (1, 1), 3))
    cut = j_star(kron_heart, f)
    assert cut == char_function(ctx, (1, 1), 2).scale(4) + char_function(ctx, (1, 1), 3)
    with pytest.raises(ValueError):
        j_star(kron_heart, char_function(ctx, (1, 0), 0))

    heart, rest = complement_split(kron_heart, f)
    assert heart == cut
    assert rest == char_function(ctx, (1, 1), 0)
    assert heart + rest == f


def test_psi_lands_on_the_heart(kron_heart):
    hat = kron_heart.hat
    for key in ((1,), (2,)):
        for o in range(hat.table(key).count):
            image = psi(kron_heart, char_function(hat, key, o))
            big_key = kron_heart.lift_key(key)
            for (bk, ordinal) in image.terms:
                assert bk == big_key
                assert ordinal in kron_heart.heart_ordinals(bk)


def test_verification_reports_pass_at_depth_one(kron_heart):
    for fn in (verify_embedding, verify_pbw, verify_ideal, verify_ses):
        report = fn(kron_heart, max_dim=1)
        assert report["status"] == "pass", report
        assert report["failures"] == 0
        assert report["checks"]
        assert all(c["check_id"] for c in report["checks"])


def test_failing_checks_carry_their_witnesses(kron_heart, monkeypatch):
    """With the pushforward doubled, every embedding round trip fails and so
    does every projection check whose two sides then differ; each failure
    carries its witness elements as JSON, and no passing check carries one."""
    real = hall.mu_lower_star
    monkeypatch.setattr(hall, "mu_lower_star",
                        lambda hc, f: real(hc, f).scale(2))
    hat = kron_heart.hat

    def project(f):
        return real(kron_heart, j_star(kron_heart, f))

    roundtrips, projections = {}, {}
    keys = [(0,), (1,)]
    for nk in keys:
        for o in range(hat.table(nk).count):
            f = char_function(hat, nk, o)
            roundtrips[f"round trip on P[{nk},o{o}]"] = {
                "f": f.to_json(), "back": f.scale(2).to_json()}
    for tk_hat, wk_hat in itertools.product(keys, repeat=2):
        tk, wk = kron_heart.lift_key(tk_hat), kron_heart.lift_key(wk_hat)
        for o1 in range(kron_heart.ctx.table(tk).count):
            f = char_function(kron_heart.ctx, tk, o1)
            for o2 in range(kron_heart.ctx.table(wk).count):
                g = char_function(kron_heart.ctx, wk, o2)
                lhs = project(circ(f, g)).scale(2)
                rhs = circ(project(f), project(g)).scale(4)
                projections[
                    f"projection multiplicative on P[{tk},o{o1}]*P[{wk},o{o2}]"] = (
                    None if lhs == rhs else
                    {"projected_product": lhs.to_json(),
                     "product_of_projections": rhs.to_json()})
    for fn, check_id, witnesses in (
            (verify_embedding, "embedding-injective-roundtrip", roundtrips),
            (verify_ses, "quotient-algebra-map", projections)):
        report = fn(kron_heart, max_dim=1)
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        assert failed and report["failures"] == len(failed)
        assert {c["check_id"] for c in failed} == {check_id}
        for c in report["checks"]:
            if c["status"] == "pass":
                assert "witness" not in c and witnesses.get(c["name"]) is None
            else:
                assert list(c["witness"]) == list(witnesses[c["name"]])
                assert c["witness"] == witnesses[c["name"]]


def test_half_power_exponent_is_exact():
    for q in (2, 3, 4):
        for n in (-200, -65, -1, 0, 1, 2, 65, 200):
            assert _half_power_exponent(SqrtQScalar.half_power(q, n), q) == n
        for a, b in ((1, 1), (-1, 0), (5, 0), (Fraction(1, 6), 0), (0, 5),
                     (0, Fraction(-1, q))):
            assert _half_power_exponent(SqrtQScalar(q, a, b), q) is None


def test_bialgebra_report_shape(a1_ctx):
    report = verify_bialgebra(a1_ctx, max_dim=1)
    assert report["status"] == "pass"
    ids = {c["check_id"] for c in report["checks"]}
    assert "coproduct-algebra-map" in ids
    assert "coproduct-coassociative" in ids


def test_comult_compat_reports_observations_only(kron_heart):
    report = comult_compat(kron_heart, max_dim=1)
    assert report["status"] == "observed"
    assert report["cases"]
    for case in report["cases"]:
        assert set(case) == {
            "element",
            "shared_component_exponents",
            "non_power_ratios",
            "components_only_in_big_coproduct",
            "components_only_in_transported_coproduct",
        }
        assert case["non_power_ratios"] == []
        # where both sides share a component they agree exactly
        assert case["shared_component_exponents"] in ([], [0])
