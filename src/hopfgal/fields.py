"""Exact scalar fields: the rationals and prime fields F_p.

All arithmetic in the engine is exact.  A scalar is a plain Python number
everywhere: over QQ an int when the value is integral and otherwise a
`fractions.Fraction` with denominator > 1, over F_p an int in [0, p).
0 and 1 are the ints 0 and 1 in both fields, written as literals.
Generic code uses the ordinary operators on either kind; a field object
owns parsing and the two operations the operators cannot do alone:
`reduce` (back into the canonical form after ring arithmetic: an
integral Fraction to its numerator, an int into [0, p)) and `inv`.
Plain `/` is never applied to scalars, since `/` on two ints gives a
float.
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


class Field:
    """What the two exact fields share; each defines `reduce`, the
    canonical scalar equal to a ring expression, and `inv`, 1 / x with a
    ZeroDivisionError when x is zero."""

    def from_int(self, n):
        return self.reduce(n)

    def parse(self, text):
        """Parse a scalar literal: an integer or `p/q`."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.reduce(parse_int(num) * self.inv(parse_int(den)))
        return self.reduce(parse_int(text))


class RationalField(Field):
    characteristic = 0

    def reduce(self, x):
        if type(x) is Fraction and x.denominator == 1:
            return x.numerator
        return x

    def inv(self, x):
        if type(x) is int and (x == 1 or x == -1):
            return x
        return self.reduce(Fraction(1) / x)

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

    @property
    def characteristic(self):
        return self.p

    def reduce(self, x):
        return x % self.p

    def inv(self, x):
        if not x % self.p:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return pow(x, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()
