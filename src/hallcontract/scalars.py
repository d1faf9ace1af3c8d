"""Exact scalars a + b*sqrt(q) with rational a, b.

All Hall-algebra coefficients live here; there is no floating point. When q
is a perfect square the representation is normalized to b = 0 so equality
stays honest.
"""

from __future__ import annotations

import math
from fractions import Fraction

_RAT = (int, Fraction)


class SqrtQScalar:
    """An element a + b*sqrt(q) of Q(sqrt(q)), exact."""

    __slots__ = ("q", "a", "b")

    def __init__(self, q: int, a=0, b=0):
        if q < 2:
            raise ValueError("q must be at least 2")
        a = Fraction(a)
        b = Fraction(b)
        r = math.isqrt(q)
        if r * r == q and b:
            a += b * r
            b = Fraction(0)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("SqrtQScalar is immutable")

    @classmethod
    def zero(cls, q: int) -> "SqrtQScalar":
        return cls(q)

    @classmethod
    def one(cls, q: int) -> "SqrtQScalar":
        return cls(q, 1)

    @classmethod
    def half_power(cls, q: int, n: int) -> "SqrtQScalar":
        """q^(n/2) for any integer n (negative allowed)."""
        if n % 2 == 0:
            return cls(q, Fraction(q) ** (n // 2))
        return cls(q, 0, Fraction(q) ** ((n - 1) // 2))

    def _coerce(self, other):
        if isinstance(other, SqrtQScalar):
            if other.q != self.q:
                raise ValueError(f"mixed base fields: sqrt({self.q}) vs sqrt({other.q})")
            return other
        if isinstance(other, _RAT):
            return SqrtQScalar(self.q, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtQScalar(self.q, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return SqrtQScalar(self.q, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtQScalar(self.q, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtQScalar(self.q,
                           self.a * o.a + self.b * o.b * self.q,
                           self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "SqrtQScalar":
        norm = self.a * self.a - self.b * self.b * self.q
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return SqrtQScalar(self.q, self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, _RAT):
            return self.b == 0 and self.a == other
        return (isinstance(other, SqrtQScalar) and self.q == other.q
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.q, self.a, self.b))

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b)}

    @classmethod
    def from_json(cls, q: int, payload: dict) -> "SqrtQScalar":
        """Read {"a", "b"} as exact rationals: strings such as "3/2" or
        integers. A float (inexact) or a zero denominator is a ValueError."""
        parts = []
        for name in ("a", "b"):
            value = payload[name]
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise ValueError(f"coefficient {name!r} must be a rational "
                                 f"string, got {value!r}")
            try:
                parts.append(Fraction(value))
            except ZeroDivisionError:
                raise ValueError(f"coefficient {name!r} has a zero "
                                 f"denominator: {value!r}") from None
        return cls(q, *parts)

    def __repr__(self):
        if self.b == 0:
            return f"SqrtQScalar({self.q}, {self.a})"
        return f"SqrtQScalar({self.q}, {self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.q})"
        return f"{self.a} + {self.b}*sqrt({self.q})"
