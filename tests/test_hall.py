"""Hall algebra products, coproducts, and the contraction transport."""

import itertools
from fractions import Fraction

import pytest

from hallcontract.ffalg import EnumerationBoundError, Mat
from hallcontract.cache import OrbitCache
from hallcontract.hall import (
    HallContext,
    HallElement,
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
    unit,
    verify_bialgebra,
    verify_embedding,
    verify_ideal,
    verify_pbw,
    verify_ses,
    zero_element,
)
from hallcontract.repspace import (enumerate_points, extensions_over,
                                   fiber_of_contraction)
from hallcontract.scalars import SqrtQScalar

from conftest import jordan_quiver, kronecker_quiver


def sq(ctx, a=0, b=0):
    return ctx.scalar(Fraction(a), Fraction(b))


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
        jordan_ctx.scalar(0.1)


def test_oracle_agrees_on_spot_checks(jordan_ctx, kron_ctx):
    f = char_function(jordan_ctx, (1,), 1) + char_function(jordan_ctx, (1,), 0)
    g = char_function(jordan_ctx, (2,), 2)
    assert diagram_star_oracle(f, g) == star(f, g)

    f = char_function(kron_ctx, (1, 0), 0)
    g = char_function(kron_ctx, (0, 1), 0)
    assert diagram_star_oracle(f, g) == star(f, g)
    assert diagram_star_oracle(g, f) == star(g, f)


def test_oracle_respects_its_bound(jordan_ctx):
    """Also once a default-bound call has warmed the memo; and a fresh
    context gives the same products as the warmed one."""
    f = char_function(jordan_ctx, (2,), 2)
    with pytest.raises(EnumerationBoundError):
        diagram_star_oracle(f, f, max_flags=10)
    warm = diagram_star_oracle(f, f)
    assert ((2,), (2,)) in jordan_ctx._oracle_flags
    with pytest.raises(EnumerationBoundError):
        diagram_star_oracle(f, f, max_flags=10)
    assert diagram_star_oracle(f, f) == warm

    fresh = HallContext(jordan_ctx.quiver, 2, cache=OrbitCache())

    def products(ctx):
        basis = [char_function(ctx, (n,), o) for n in range(3)
                 for o in range(ctx.table((n,)).count)]
        return [diagram_star_oracle(f, g).terms
                for f, g in itertools.product(basis, repeat=2)]

    assert products(fresh) == products(jordan_ctx)


def test_oracle_shares_no_state_with_the_flag_table():
    """One corrupted flag count moves star but not the oracle."""
    ctx = HallContext(jordan_quiver(), 2, cache=OrbitCache())
    f = char_function(ctx, (1,), 0)
    before = diagram_star_oracle(f, f)
    assert star(f, f) == before
    bucket = ctx._flag_tables[((1,), (1,))][(0, 0)]
    bucket[min(bucket)] += 1
    assert star(f, f) != diagram_star_oracle(f, f)
    assert diagram_star_oracle(f, f) == before


def test_exponent_bookkeeping():
    jq, kq = jordan_quiver(), kronecker_quiver()
    assert m_omega(jq, {"1": 1}, {"1": 1}) == 2
    assert m_star_omega(jq, {"1": 1}, {"1": 1}) == 0
    kt = {"p": 1, "m": 1}
    assert m_omega(kq, kt, kt) == 4
    assert m_star_omega(kq, kt, kt) == 0
    assert m_omega(jq, {"1": 2}, {"1": 1}) == 4
    assert m_star_omega(jq, {"1": 2}, {"1": 1}) == 0


@pytest.mark.parametrize("ctx_name, bound", [
    ("a1_ctx3", 3), ("jordan_ctx", 3), ("kron_ctx", 2)])
def test_extension_counts_follow_from_flag_counts(request, ctx_name, bound):
    """The extension table derived by Riedtmann's formula equals a direct
    count of block-triangular extensions of every representative pair."""
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
    zero = space.zero_point()
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


def test_contexts_do_not_mix(a1_ctx, jordan_ctx):
    f = char_function(a1_ctx, (1,), 0)
    g = char_function(jordan_ctx, (1,), 0)
    with pytest.raises(ValueError):
        star(f, g)
    with pytest.raises(ValueError):
        f + g
    assert f != g


def test_homogeneous_grading(a1_ctx):
    f = char_function(a1_ctx, (1,), 0) + char_function(a1_ctx, (2,), 0).scale(5)
    assert f.grades() == [(1,), (2,)]
    parts = f.homogeneous()
    assert set(parts) == {(1,), (2,)}
    assert parts[(1,)] + parts[(2,)] == f
    assert f.support_ids() == [{"dim": {"1": 1}, "orbit": "o0"},
                               {"dim": {"1": 2}, "orbit": "o0"}]


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
        twist = SqrtQScalar.half_power(ctx.q, n * n * kron_heart.orbit_size)
        f = zero_element(ctx)
        for o in sorted(kron_heart.heart_ordinals(big_key)):
            f = f + char_function(ctx, big_key, o).scale(2 + o)
        pushed = mu_lower_star(kron_heart, f)
        for xhat in enumerate_points(hat_space):
            total = hat.scalar(0)
            for y in fiber_of_contraction(space, con, xhat, hat_space):
                v = f.value_at(big_key, y)
                total = total + hat.scalar(v.a, v.b)
            expect = total * hat.scalar(Fraction(1, gauge)) * twist
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
