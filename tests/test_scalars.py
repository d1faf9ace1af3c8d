"""Exact arithmetic in Q(sqrt q)."""

import math
import operator
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hallcontract.scalars import SqrtQScalar


def test_half_power_parity():
    s = SqrtQScalar.half_power(2, 3)
    assert (s.a, s.b) == (0, 2)
    s = SqrtQScalar.half_power(2, -1)
    assert (s.a, s.b) == (0, Fraction(1, 2))
    s = SqrtQScalar.half_power(3, 4)
    assert (s.a, s.b) == (9, 0)
    assert SqrtQScalar.half_power(5, 0) == SqrtQScalar.one(5)
    # memoized and shared, which immutability makes safe
    assert SqrtQScalar.half_power(3, 5) is SqrtQScalar.half_power(3, 5)
    for name in ("q", "a", "_a", "_d", "extra"):
        with pytest.raises(AttributeError):
            setattr(s, name, 1)


def test_perfect_square_base_normalizes():
    # sqrt(4) = 2, so the b part folds into a and equality stays honest
    s = SqrtQScalar(4, 1, 3)
    assert (s.a, s.b) == (7, 0)
    assert SqrtQScalar(4, 7) == SqrtQScalar(4, 1, 3)


def test_multiplication_squares_the_radical():
    r = SqrtQScalar(2, 0, 1)
    assert r * r == SqrtQScalar(2, 2)
    s = SqrtQScalar(2, 1, 1) * SqrtQScalar(2, 1, -1)
    assert s == SqrtQScalar(2, -1)


def test_int_and_fraction_coerce_on_both_sides():
    s = SqrtQScalar(2, Fraction(1, 2), 1)
    assert 1 + s == s + 1 == SqrtQScalar(2, Fraction(3, 2), 1)
    assert 2 * s == s * 2 == SqrtQScalar(2, 1, 2)
    assert Fraction(1, 3) * s == s * Fraction(1, 3)
    assert 1 - s == -(s - 1)
    assert s == Fraction(1, 2) + SqrtQScalar(2, 0, 1)


def test_inverse_and_division():
    s = SqrtQScalar(2, 1, 1)
    assert s * s.inverse() == SqrtQScalar.one(2)
    assert (s / s) == SqrtQScalar.one(2)
    assert SqrtQScalar(2, 0, 1).inverse() == SqrtQScalar(2, 0, Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        SqrtQScalar.zero(2).inverse()


def test_mixed_base_fields_refuse_to_combine():
    with pytest.raises(ValueError):
        SqrtQScalar(2, 1) + SqrtQScalar(3, 1)
    with pytest.raises(ValueError):
        SqrtQScalar(2, 1) * SqrtQScalar(3, 1)


def test_json_roundtrip():
    s = SqrtQScalar(3, Fraction(-7, 3), Fraction(1, 6))
    assert SqrtQScalar.from_json(3, s.to_json()) == s
    payload = s.to_json()
    assert payload == {"a": "-7/3", "b": "1/6"}


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


@given(rationals, rationals, rationals, rationals)
def test_field_axioms_sampled(a1, b1, a2, b2):
    """Commutativity, associativity of *, distributivity, and inverses,
    over random rational coordinates in Q(sqrt 2)."""
    x = SqrtQScalar(2, a1, b1)
    y = SqrtQScalar(2, a2, b2)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + y) == x * y + x * y
    assert (x + y) - y == x
    if not y.is_zero():
        assert (x * y) / y == x


@given(st.integers(min_value=-12, max_value=12),
       st.integers(min_value=-12, max_value=12))
def test_half_powers_multiply_by_adding_exponents(m, n):
    q = 3
    lhs = SqrtQScalar.half_power(q, m) * SqrtQScalar.half_power(q, n)
    assert lhs == SqrtQScalar.half_power(q, m + n)


def test_floats_and_other_non_rationals_are_refused():
    for bad in (0.1, 0.5, 1.0, "3/2", Decimal("0.5"), None):
        with pytest.raises(TypeError):
            SqrtQScalar(2, bad)
        with pytest.raises(TypeError):
            SqrtQScalar(2, 0, bad)
    s = SqrtQScalar(2, 1, 1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(s, 0.5)
        with pytest.raises(TypeError):
            op(0.5, s)


# -- brute-force reference on Fraction pairs --------------------------------

def ref_fold(q, a, b):
    """(a, b) with sqrt(q) folded into a when q is a perfect square."""
    r = math.isqrt(q)
    return (a + b * r, Fraction(0)) if r * r == q else (a, b)


def ref_mul(q, x, y):
    return ref_fold(q, x[0] * y[0] + x[1] * y[1] * q, x[0] * y[1] + x[1] * y[0])


def ref_inverse(q, x):
    norm = x[0] * x[0] - x[1] * x[1] * q
    return x[0] / norm, -x[1] / norm


def ref_half_power(q, n):
    """sqrt(q)^n by repeated multiplication, inverted for negative n."""
    out, root = (Fraction(1), Fraction(0)), ref_fold(q, Fraction(0), Fraction(1))
    for _ in range(abs(n)):
        out = ref_mul(q, out, root)
    return out if n >= 0 else ref_inverse(q, out)


def assert_matches(q, value, ref):
    """The scalar equals the reference pair in value, ==, hash and text."""
    a, b = ref
    assert (value.a, value.b) == (a, b)
    assert value == SqrtQScalar(q, a, b)
    assert hash(value) == hash(SqrtQScalar(q, a, b))
    assert value.to_json() == {"a": str(a), "b": str(b)}
    if b == 0:
        assert value == a and a == value
        assert hash(value) == hash(a)
        assert repr(value) == f"SqrtQScalar({q}, {a})"
        assert str(value) == str(a)
    else:
        assert value != a
        assert repr(value) == f"SqrtQScalar({q}, {a}, {b})"
        text = f"{b}*sqrt({q})" if a == 0 else f"{a} + {b}*sqrt({q})"
        assert str(value) == text
    assert SqrtQScalar.from_json(q, value.to_json()) == value


coefficients = (st.integers(min_value=-60, max_value=60)
                | st.fractions(min_value=-60, max_value=60, max_denominator=40))


@given(st.sampled_from([2, 3, 4, 9]), coefficients, coefficients,
       coefficients, coefficients, st.integers(min_value=-60, max_value=60),
       st.integers(min_value=-9, max_value=9))
def test_integer_arithmetic_matches_fraction_reference(q, a1, b1, a2, b2, k, n):
    """+, -, *, /, inverse, int and Fraction operands, and half powers, each
    against the same operation on Fraction pairs; q = 4 and 9 are perfect
    squares, so the fold into b = 0 is covered."""
    x = SqrtQScalar(q, a1, b1)
    y = SqrtQScalar(q, a2, b2)
    rx = ref_fold(q, Fraction(a1), Fraction(b1))
    ry = ref_fold(q, Fraction(a2), Fraction(b2))
    assert_matches(q, x, rx)
    assert_matches(q, x + y, (rx[0] + ry[0], rx[1] + ry[1]))
    assert_matches(q, x - y, (rx[0] - ry[0], rx[1] - ry[1]))
    assert_matches(q, -x, (-rx[0], -rx[1]))
    assert_matches(q, x * y, ref_mul(q, rx, ry))
    assert_matches(q, x * k, (rx[0] * k, rx[1] * k))
    assert_matches(q, k * x, (rx[0] * k, rx[1] * k))
    assert_matches(q, x + a2, (rx[0] + a2, rx[1]))
    assert_matches(q, a2 - x, (a2 - rx[0], -rx[1]))
    assert_matches(q, x * Fraction(a2), (rx[0] * a2, rx[1] * a2))
    if ry != (0, 0):
        assert_matches(q, y.inverse(), ref_inverse(q, ry))
        assert_matches(q, x / y, ref_mul(q, rx, ref_inverse(q, ry)))
        assert_matches(q, k / y, ref_mul(q, (Fraction(k), Fraction(0)),
                                         ref_inverse(q, ry)))
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    if k:
        assert_matches(q, x / k, (rx[0] / k, rx[1] / k))
    assert_matches(q, SqrtQScalar.half_power(q, n), ref_half_power(q, n))


@given(st.sampled_from([2, 3, 4, 9]), coefficients)
def test_rationals_compare_and_hash_as_themselves(q, c):
    s = SqrtQScalar(q, c)
    assert s == c and c == s and hash(s) == hash(c)
    assert s == Fraction(c) and hash(s) == hash(Fraction(c))
    assert SqrtQScalar(q, c) + 1 != c
    assert {s: 1}[c] == 1
