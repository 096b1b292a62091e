"""Exact scalar fields: the rationals and prime fields F_p.

All arithmetic in the engine is exact; a field object owns parsing,
formatting and the distinguished constants.  Rational scalars are plain
`fractions.Fraction`; prime-field scalars are `FpElement` wrappers so that
generic matrix code can use ordinary operators on either kind.
"""

from __future__ import annotations

import math
from fractions import Fraction


class FieldError(ValueError):
    pass


class FpElement:
    """An element of F_p.  Immutable, hashable, normalised to 0 <= v < p."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "v", v % p)

    def __setattr__(self, name, value):
        raise AttributeError("FpElement is immutable")

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldError("mixed prime fields F_%d and F_%d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return FpElement(self.p, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(self.p, self.v * pow(o.v, -1, self.p))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FpElement(self.p, -self.v)

    def __pow__(self, k):
        return FpElement(self.p, pow(self.v, k, self.p))

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "%d" % self.v


class Field:
    """Common interface of the two exact fields."""

    def zero(self):
        """The zero scalar: one shared immutable object per field, so
        matrix code can skip zero cells by identity before a truth test."""
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n):
        raise NotImplementedError

    def parse(self, text):
        """Parse a scalar literal: an integer or `p/q`."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.from_int(int(num)) / self.from_int(int(den))
        return self.from_int(int(text))

    def format(self, x):
        return str(x)


class RationalField(Field):
    characteristic = 0
    _zero = Fraction(0)

    def zero(self):
        return self._zero

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise FieldError("%r is not prime" % (p,))
        self.p = p
        self._zero = FpElement(p, 0)

    @property
    def characteristic(self):
        return self.p

    def zero(self):
        return self._zero

    def one(self):
        return FpElement(self.p, 1)

    def from_int(self, n):
        return FpElement(self.p, n)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()
