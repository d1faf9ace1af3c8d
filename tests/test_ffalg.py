"""Finite fields, exact matrices, subspaces, and the GL enumerations."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from hallcontract import ffalg
from hallcontract.ffalg import (
    EnumerationBoundError,
    Field,
    Mat,
    Subspace,
    UnsupportedFieldError,
    block2x2,
    check_count,
    enumerate_gl,
    enumerate_subspaces,
    gaussian_binomial,
    gl_generators,
    gl_order,
    split2x2,
)


def test_small_field_tables():
    f2 = Field(2)
    assert f2.add(1, 1) == 0
    f3 = Field(3)
    assert f3.inv(2) == 2
    assert f3.neg(1) == 2
    # F4 = F2[t]/(t^2+t+1); t is element 2, t+1 is element 3
    f4 = Field(4)
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    assert f4.primitive() == 2


def test_fields_are_interned():
    assert Field(3) is Field(3)


def test_unsupported_sizes():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(UnsupportedFieldError):
        Field(121)
    with pytest.raises(ZeroDivisionError):
        Field(5).inv(0)


@given(st.sampled_from([2, 3, 4, 9]), st.data())
def test_field_axioms_sampled(q, data):
    field = Field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert field.add(a, b) == field.add(b, a)
    assert field.mul(a, b) == field.mul(b, a)
    assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
    assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
    assert field.add(a, field.neg(a)) == 0
    assert field.mul(a, 1) == a
    if a:
        assert field.mul(a, field.inv(a)) == 1


def test_mat_basic_ops():
    f = Field(2)
    m = Mat(f, ((1, 1), (0, 1)))
    assert m.shape == (2, 2)
    assert m.flat == (1, 1, 0, 1)
    assert Mat.from_flat(f, 2, 2, m.flat) == m
    assert m @ Mat.identity(f, 2) == m
    assert m.vec((1, 0)) == (1, 0)
    assert m.vec((0, 1)) == (1, 1)
    assert m.transpose() == Mat(f, ((1, 0), (1, 1)))
    assert Mat.zeros(f, 2, 3).rank() == 0
    assert m.rank() == 2
    assert Mat(f, ((1, 1), (1, 1))).rank() == 1
    assert not Mat(f, ((1, 1), (1, 1))).is_invertible()


def test_inverse_roundtrip_over_all_of_gl2():
    for q in (2, 3):
        f = Field(q)
        eye = Mat.identity(f, 2)
        group = enumerate_gl(f, 2)
        assert len(group) == gl_order(2, q)
        for g in group:
            assert g @ g.inverse() == eye
            assert g.inverse() @ g == eye


def test_gl_orders():
    assert gl_order(1, 5) == 4
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(3, 2) == 168
    assert gl_order(4, 2) == 20160


def test_gl_generators_generate():
    # n >= 3 (no transposition among the generators) and non-prime q
    for q, n in ((2, 2), (3, 2), (2, 3), (2, 4), (3, 3), (4, 2), (8, 2), (9, 2)):
        f = Field(q)
        gens = gl_generators(f, n)
        seen = {Mat.identity(f, n)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for m in frontier:
                for g in gens:
                    prod = g @ m
                    if prod not in seen:
                        seen.add(prod)
                        nxt.append(prod)
            frontier = nxt
        assert len(seen) == gl_order(n, q)


def test_block_split_roundtrip():
    f = Field(3)
    tl = Mat(f, ((1,),))
    tr = Mat(f, ((2, 0),))
    bl = Mat(f, ((0,), (1,)))
    br = Mat(f, ((1, 2), (0, 1)))
    big = block2x2(f, tl, tr, bl, br)
    assert big == Mat(f, ((1, 2, 0), (0, 1, 2), (1, 0, 1)))
    assert split2x2(big, 1, 1) == (tl, tr, bl, br)


def test_lower_triangular_blocks_compose_blockwise():
    # products of [[A,0],[C,B]] shapes stay lower triangular with corner
    # blocks multiplying; the extension bookkeeping depends on this
    f = Field(3)
    z = Mat.zeros(f, 1, 2)
    for a1 in (1, 2):
        for b1flat in ((1, 0, 0, 1), (2, 1, 0, 1)):
            m1 = block2x2(f, Mat(f, ((a1,),)), z, Mat(f, ((1,), (2,))),
                          Mat.from_flat(f, 2, 2, b1flat))
            m2 = block2x2(f, Mat(f, ((2,),)), z, Mat(f, ((0,), (1,))),
                          Mat.from_flat(f, 2, 2, (1, 1, 0, 2)))
            tl, tr, bl, br = split2x2(m1 @ m2, 1, 1)
            assert tr == z
            assert tl == Mat(f, ((a1,),)) @ Mat(f, ((2,),))
            assert br == (Mat.from_flat(f, 2, 2, b1flat)
                          @ Mat.from_flat(f, 2, 2, (1, 1, 0, 2)))


def test_subspace_canonical_form_is_basis_independent():
    f = Field(2)
    u1 = Subspace.spanned_by(f, 3, [(1, 0, 1), (0, 1, 1)])
    u2 = Subspace.spanned_by(f, 3, [(1, 1, 0), (0, 1, 1)])
    assert u1 == u2
    assert u1.dim == 2
    assert u1.contains((1, 1, 0))
    assert not u1.contains((1, 1, 1))


def _all_matrices(field, rows, cols):
    for flat in itertools.product(range(field.q), repeat=rows * cols):
        yield Mat.from_flat(field, rows, cols, flat)


def _span(field, vectors, n):
    """Every linear combination of the vectors in F_q^n, by brute force."""
    out = set()
    for coeffs in itertools.product(range(field.q), repeat=len(vectors)):
        acc = (0,) * n
        for c, v in zip(coeffs, vectors):
            acc = tuple(field.add(a, field.mul(c, x)) for a, x in zip(acc, v))
        out.add(acc)
    return frozenset(out)


@pytest.mark.parametrize("q,max_n", [(2, 3), (3, 2)])
def test_rank_and_inverse_against_brute_force(q, max_n):
    """Over every matrix up to the size: rank is log_q of the image size,
    and inverse() is a two-sided inverse that exists exactly at full rank."""
    f = Field(q)
    for rows in range(max_n + 1):
        for cols in range(max_n + 1):
            vectors = list(itertools.product(range(q), repeat=cols))
            for m in _all_matrices(f, rows, cols):
                image = len({m.vec(v) for v in vectors})
                assert q ** m.rank() == image, m
                if rows != cols:
                    continue
                eye = Mat.identity(f, rows)
                if m.rank() < rows:
                    with pytest.raises(ZeroDivisionError):
                        m.inverse()
                else:
                    assert m @ m.inverse() == eye and m.inverse() @ m == eye


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 3), (5, 2)])
def test_spanned_by_is_the_enumerated_subspace_with_its_members(q, n):
    f = Field(q)
    by_members: dict = {}
    for k in range(n + 1):
        for sub in enumerate_subspaces(f, n, k):
            columns = [sub.basis.column(j) for j in range(k)]
            by_members.setdefault(_span(f, columns, n), []).append(sub)
    assert all(len(subs) == 1 for subs in by_members.values())
    rng = random.Random(q * 100 + n)
    for _ in range(150):
        vectors = [tuple(rng.choice([0] * q + list(range(q))) for _ in range(n))
                   for _ in range(rng.randrange(5))]
        (expected,) = by_members[_span(f, vectors, n)]
        got = Subspace.spanned_by(f, n, vectors)
        assert got == expected and got.pivots == expected.pivots, vectors


def test_subspace_counts_are_gaussian_binomials():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 5, 2) == 0
    for q in (2, 3):
        f = Field(q)
        for n in range(4):
            for k in range(n + 1):
                subs = enumerate_subspaces(f, n, k)
                assert len(subs) == gaussian_binomial(n, k, q)
                assert len(set(subs)) == len(subs)


def test_enumeration_bound_is_enforced():
    with pytest.raises(EnumerationBoundError):
        enumerate_gl(Field(2), 4, max_count=100)
    with pytest.raises(EnumerationBoundError):
        enumerate_subspaces(Field(3), 6, 3, max_count=10)
    # str() refuses ints of more than 4,300 digits; a bound message writes
    # such a count by its bit length instead
    check_count(10, "things", 10)
    with pytest.raises(EnumerationBoundError,
                       match=r"^18446744073709551615 things exceed the bound 1$"):
        check_count(2 ** 64 - 1, "things", 1)
    with pytest.raises(EnumerationBoundError, match=r"^at least 2\^64 things"):
        check_count(2 ** 64, "things", 1)
    with pytest.raises(EnumerationBoundError, match=r"^at least 2\^22\d{3} subspaces"):
        enumerate_subspaces(Field(2), 300, 150)
    with pytest.raises(EnumerationBoundError,
                       match=r"^at least 2\^40000 candidates for GL_200\(F_2\)"):
        enumerate_gl(Field(2), 200)


def test_memo_keys_on_the_field():
    # det = 3: singular over F_3, invertible over F_5, whichever comes first
    data = ((2, 1), (1, 2))
    for order in ((3, 5), (5, 3)):
        ffalg._rank.cache_clear()
        ffalg._inverse.cache_clear()
        for q in order:
            m = Mat(Field(q), data)
            for _ in range(2):  # cold, then a memo hit
                if q == 3:
                    assert m.rank() == 1 and not m.is_invertible()
                    with pytest.raises(ZeroDivisionError):
                        m.inverse()
                else:
                    assert m.rank() == 2 and m.is_invertible()
                    assert m @ m.inverse() == Mat.identity(m.field, 2)


@pytest.mark.parametrize("q,n", [(4, 2), (2, 3)])
def test_inverses_from_a_cold_and_a_warm_memo(q, n):
    f = Field(q)
    eye = Mat.identity(f, n)
    group = enumerate_gl(f, n)
    assert len(group) == gl_order(n, q)
    ffalg._inverse.cache_clear()
    for _ in range(2):
        assert all(g @ g.inverse() == eye == g.inverse() @ g for g in group)
    assert ffalg._inverse.cache_info().hits >= len(group)


def test_memos_are_bounded():
    for memo in (ffalg._rank, ffalg._inverse):
        maxsize = memo.cache_info().maxsize
        assert maxsize is not None and maxsize <= 4096


def test_internal_results_equal_checked_matrices():
    f = Field(3)
    a = Mat(f, ((1, 2, 0), (0, 1, 1)))
    b = Mat(f, ((2, 1), (1, 0), (0, 2)))
    g = Mat(f, ((1, 2), (0, 1)))

    def checked(m):
        return Mat(m.field, m.data, m.cols)
    built = [a @ b, b @ a, g.inverse(), a.transpose(), Mat.zeros(f, 0, 2).transpose(),
             Mat.from_flat(f, 2, 3, a.flat), Mat.from_flat(f, 0, 4, ()),
             Mat.from_flat(f, 2, 0, ()), Mat.zeros(f, 2, 3), Mat.identity(f, 3),
             block2x2(f, g, a, b, Mat.zeros(f, 3, 3)),
             *split2x2(block2x2(f, g, a, b, Mat.zeros(f, 3, 3)), 2, 2)]
    for m in built:
        assert m == checked(m) and hash(m) == hash(checked(m)), m
        assert type(m.data) is tuple and all(type(r) is tuple for r in m.data)
        assert (m.rows, m.cols) == (len(m.data), len(m.data[0]) if m.data else m.cols)
    with pytest.raises(ValueError):
        split2x2(g, 3, 0)


def test_public_constructor_checks_its_rows():
    f = Field(2)
    with pytest.raises(ValueError):
        Mat(f, ((1, 0), (1,)))
    with pytest.raises(ValueError):
        Mat(f, ((1, 0), (0, 1)), cols=3)
    with pytest.raises(ValueError):
        Mat(f, ())
    assert Mat(f, [[1, 0], [0, 1]]) == Mat.identity(f, 2)
