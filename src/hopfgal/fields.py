"""Exact scalar fields: the rationals and prime fields F_p.

All arithmetic in the engine is exact; a field object owns parsing,
formatting and the distinguished constants.  Rational scalars are plain
`fractions.Fraction`; prime-field scalars are `FpElement` wrappers so that
generic matrix code can use ordinary operators on either kind.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


def parse_int(text):
    """An integer token, `-?[0-9]+`: an optional minus sign, then ASCII digits.

    `int()` also reads underscores, a plus sign, surrounding whitespace and
    non-ASCII digits, none of which the instance format defines.
    """
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise FieldError("invalid integer %r" % (text,))
    return int(text)


# Miller-Rabin on the first 13 prime bases decides primality below
# PROVABLE_PRIME_BOUND (Sorenson and Webster, 2015); the bound itself is a
# strong pseudoprime to all 13 bases.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROVABLE_PRIME_BOUND = 3317044064679887385961981


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n):
    """Whether n is prime; a FieldError when n is a probable prime at or
    above PROVABLE_PRIME_BOUND, which this test cannot prove."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    if not all(_strong_probable_prime(n, a) for a in _WITNESSES):
        return False
    if n >= PROVABLE_PRIME_BOUND:
        raise FieldError("cannot prove %d prime: primes from %d on are "
                         "not supported" % (n, PROVABLE_PRIME_BOUND))
    return True


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
            return self.from_int(parse_int(num)) / self.from_int(parse_int(den))
        return self.from_int(parse_int(text))

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
        if not is_prime(p):
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
