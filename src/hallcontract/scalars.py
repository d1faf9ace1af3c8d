"""Exact scalars a + b*sqrt(q) with rational a, b.

All Hall-algebra coefficients live here; there is no floating point. A value
is stored as plain integers (A, B, D) with a = A/D, b = B/D, D > 0 and
gcd(A, B, D) = 1, so each value has exactly one representation and equality
is field equality. When q is a perfect square the representation is
normalized to b = 0 so equality stays honest. `Fraction` appears only at the
edges: constructor input, the first computation of each `half_power`, reading
JSON, `repr`, the `.a`/`.b` properties and the hash of a rational. JSON is
written from the stored integers, A/D and B/D each over one gcd, in the
text `str(Fraction)` gives.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .ffalg import EnumerationBoundError


class SqrtQScalar:
    """An element a + b*sqrt(q) of Q(sqrt(q)), exact and immutable."""

    __slots__ = ("q", "_a", "_b", "_d")

    def __init__(self, q: int, a=0, b=0):
        if q < 2:
            raise ValueError("q must be at least 2")
        for x in (a, b):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"coefficient must be an int or Fraction, got {x!r}")
        an, bn = a.numerator * b.denominator, b.numerator * a.denominator
        r = math.isqrt(q)
        if r * r == q:
            an, bn = an + bn * r, 0
        _make(q, an, bn, a.denominator * b.denominator, self)

    def __setattr__(self, name, value):
        raise AttributeError("SqrtQScalar is immutable")

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._d)

    @classmethod
    def zero(cls, q: int) -> "SqrtQScalar":
        return cls(q)

    @classmethod
    def one(cls, q: int) -> "SqrtQScalar":
        return cls.half_power(q, 0)

    @classmethod
    @functools.lru_cache(maxsize=4096)
    def half_power(cls, q: int, n: int) -> "SqrtQScalar":
        """q^(n/2) for any integer n (negative allowed); memoized, which is
        safe because values are immutable."""
        if n % 2 == 0:
            return cls(q, Fraction(q) ** (n // 2))
        return cls(q, 0, Fraction(q) ** ((n - 1) // 2))

    def _coerce(self, other):
        if isinstance(other, SqrtQScalar):
            if other.q != self.q:
                raise ValueError(f"mixed base fields: sqrt({self.q}) vs sqrt({other.q})")
            return other
        if isinstance(other, (int, Fraction)):
            return _make(self.q, other.numerator, 0, other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, od = self._d, o._d
        return _make(self.q, self._a * od + o._a * d, self._b * od + o._b * d,
                     d * od)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.q, -self._a, -self._b, self._d)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            return _make(self.q, self._a * other, self._b * other, self._d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, oa, ob = self._a, self._b, o._a, o._b
        return _make(self.q, a * oa + b * ob * self.q, a * ob + b * oa,
                     self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "SqrtQScalar":
        a, b, d = self._a, self._b, self._d
        norm = a * a - b * b * self.q
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        if norm < 0:
            d, norm = -d, -norm
        return _make(self.q, d * a, -d * b, norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, SqrtQScalar):
            return (self.q == other.q and self._a == other._a
                    and self._b == other._b and self._d == other._d)
        if isinstance(other, (int, Fraction)):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        return False

    def __hash__(self):
        if self._b == 0:
            return hash(self.a)
        return hash((self.q, self._a, self._b, self._d))

    def to_json(self) -> dict:
        """{"a", "b"} as rational text. An integer too long for str (more
        than 4,300 digits) raises EnumerationBoundError."""
        try:
            return {"a": _ratio_text(self._a, self._d),
                    "b": _ratio_text(self._b, self._d)}
        except ValueError:
            bits = max(abs(self._a), abs(self._b), self._d).bit_length()
            raise EnumerationBoundError(
                f"a coefficient of {bits} bits is too long to write") from None

    @classmethod
    def from_json(cls, q: int, payload: dict) -> "SqrtQScalar":
        """Read {"a", "b"} as exact rationals: strings such as "3/2" or
        "1.5", or integers. A float (inexact), exponent notation (which
        Fraction would expand to 10**exponent) or a zero denominator is a
        ValueError."""
        parts = []
        for name in ("a", "b"):
            value = payload[name]
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise ValueError(f"coefficient {name!r} must be a rational "
                                 f"string, got {value!r}")
            if isinstance(value, str) and "e" in value.lower():
                raise ValueError(f"coefficient {name!r} must not use "
                                 f"exponent notation, got {value!r}")
            try:
                parts.append(Fraction(value))
            except ZeroDivisionError:
                raise ValueError(f"coefficient {name!r} has a zero "
                                 f"denominator: {value!r}") from None
        return cls(q, *parts)

    def __repr__(self):
        if self._b == 0:
            return f"SqrtQScalar({self.q}, {self.a})"
        return f"SqrtQScalar({self.q}, {self.a}, {self.b})"

    def __str__(self):
        if self._b == 0:
            return str(self.a)
        if self._a == 0:
            return f"{self.b}*sqrt({self.q})"
        return f"{self.a} + {self.b}*sqrt({self.q})"


_set_q, _set_a, _set_b, _set_d = (SqrtQScalar.__dict__[name].__set__
                                  for name in SqrtQScalar.__slots__)
_new = object.__new__


def _make(q: int, a: int, b: int, d: int, into=None) -> SqrtQScalar:
    """The value (a + b*sqrt(q))/d from raw integers, d > 0, over their gcd:
    no coercion and no perfect-square fold, which every operation on folded
    values keeps. Fills `into` (the constructor's instance) or a new one;
    the slot setters get past the immutability guard."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    s = _new(SqrtQScalar) if into is None else into
    _set_q(s, q)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)
    return s


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, over one gcd: "n" or "n/d" in lowest
    terms."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"
