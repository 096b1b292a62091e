"""Grading groups, bicharacters and finite-dimensional graded vector spaces.

Supported gradings are the trivial group and cyclic groups Z_n with a
bicharacter chi valued in the scalar field; chi drives the braiding.  The
tensor-product basis is ordered lexicographically with the left factor
major, and that convention is fixed throughout the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldError


class GradingGroup:
    """Z_n together with a bicharacter chi(a, b) = gen^(a*b).

    For n = 1 this is the trivial grading of plain vector spaces.  The
    generator value must satisfy gen^n = 1 so that chi is a well-defined
    bicharacter on Z_n x Z_n.
    """

    def __init__(self, n, field, gen=None):
        if n < 1:
            raise ValueError("group order must be positive")
        self.n = n
        self.field = field
        if gen is None:
            gen = field.one()
        if gen ** n != field.one():
            raise FieldError(
                "bicharacter generator %r is not an %d-th root of unity" % (gen, n))
        self.gen = gen

    @classmethod
    def trivial(cls, field):
        return cls(1, field)

    @classmethod
    def cyclic(cls, n, field, gen):
        return cls(n, field, gen)

    def chi(self, a, b):
        n = self.n
        # for n = 1, gen^1 = 1 makes gen the one
        return self.gen ** ((a * b) % n) if n > 1 else self.gen

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def check(self, a):
        if not (0 <= a < self.n):
            raise ValueError("degree %r outside Z_%d" % (a, self.n))
        return a

    @property
    def is_trivial(self):
        # every chi value is a power of gen = chi(1, 1)
        return self.n == 1 or self.gen == self.field.one()

    def __eq__(self, other):
        return (isinstance(other, GradingGroup) and other.n == self.n
                and other.field == self.field and other.gen == self.gen)

    def __hash__(self):
        return hash((self.n, self.field, self.gen))

    def __repr__(self):
        if self.n == 1:
            return "Trivial"
        return "Z%d(chi=%r)" % (self.n, self.gen)


@dataclass(frozen=True)
class GradedSpace:
    """An ordered basis with one grading-group degree per basis vector."""

    group: GradingGroup
    degrees: tuple

    def __post_init__(self):
        degs = self.degrees
        if degs and (min(degs) < 0 or max(degs) >= self.group.n):
            for d in degs:
                self.group.check(d)

    @property
    def dim(self):
        return len(self.degrees)

    @property
    def field(self):
        return self.group.field

    def tensor(self, other):
        if other.group != self.group:
            raise TypeError("tensor of spaces over different grading groups")
        n = self.group.n
        if n == 1:  # Z_1 has the one degree 0
            degs = (0,) * (self.dim * other.dim)
        else:
            degs = tuple((a + b) % n for a in self.degrees for b in other.degrees)
        return GradedSpace(self.group, degs)

    def dual(self):
        return GradedSpace(self.group, tuple(self.group.neg(d) for d in self.degrees))

    @property
    def is_unit(self):
        return self.degrees == (0,)

    def __repr__(self):
        return "Space(dim=%d, deg=%s)" % (self.dim, list(self.degrees))


def unit_space(group):
    return GradedSpace(group, (0,))


def zero_space(group):
    return GradedSpace(group, ())
