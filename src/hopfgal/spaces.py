"""Grading groups, bicharacters and finite-dimensional graded vector spaces.

Supported gradings are the trivial group and cyclic groups Z_n with a
bicharacter chi valued in the scalar field; chi drives the braiding.  The
tensor-product basis is ordered lexicographically with the left factor
major, and that convention is fixed throughout the engine.

A space remembers the products it has formed as the left factor: a
repeated V (x) W returns the space formed the first time, while anything
still uses it.  The memo is keyed by the `id` of the right factor and holds
both that factor and the product only through weak references, so it keeps
no space alive and makes no reference cycle, V (x) V included; a hit needs
the reference to give the same right factor back, and an entry is dropped
when its right factor dies.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from weakref import ref

from .fields import FieldError

# The most chi values (powers of gen) a grading group keeps.
MAX_CHI_ORDER = 1 << 16

# The largest space an input declares or an expression forms: a degree tuple
# takes 8 bytes a basis vector, and no check reaches a space of this dimension.
MAX_DIM = 1 << 24

# The most entries an `id` or `br` atom of an expression may hold when it is
# built: a morphism entry takes about 128 bytes (its key tuple, the two
# index ints and its dict slot), so such an atom takes up to 128 MiB, where
# one of MAX_DIM entries would take 2 GiB.
MAX_ATOM_ENTRIES = 1 << 20


class GradingGroup:
    """Z_n together with a bicharacter chi(a, b) = gen^(a*b).

    For n = 1 this is the trivial grading of plain vector spaces.  The
    generator value must satisfy gen^n = 1 so that chi is a well-defined
    bicharacter on Z_n x Z_n: over QQ only 1 and -1 (n even) do, over F_p
    one `pow` decides.  The powers of gen up to its order k, which divides
    n, are the only chi values, kept so that chi is one lookup.  The walk
    over them stops at MAX_CHI_ORDER: a generator of larger order (over
    F_p, k can be close to p) is rejected with no more powers kept.
    """

    def __init__(self, n, field, gen=None):
        if n < 1:
            raise ValueError("group order must be positive")
        self.n = n
        self.field = field
        gen = 1 if gen is None else field.reduce(gen)
        p = field.characteristic
        if p:
            root = pow(gen, n, p) == 1
        else:
            root = gen == 1 or (gen == -1 and n % 2 == 0)
        if not root:
            raise FieldError(
                "bicharacter generator %r is not an %d-th root of unity" % (gen, n))
        self.gen = gen
        powers = [1]
        power = gen
        while power != 1:
            if len(powers) == MAX_CHI_ORDER:
                raise FieldError(
                    "bicharacter generator %r has order above the limit %d"
                    % (gen, MAX_CHI_ORDER))
            powers.append(power)
            power = field.reduce(power * gen)
        self._powers = tuple(powers)

    @classmethod
    def trivial(cls, field):
        return cls(1, field)

    @classmethod
    def cyclic(cls, n, field, gen):
        return cls(n, field, gen)

    def chi(self, a, b):
        powers = self._powers
        return powers[(a * b) % len(powers)]

    def check(self, a):
        if not (0 <= a < self.n):
            raise ValueError("degree %r outside Z_%d" % (a, self.n))
        return a

    @property
    def is_trivial(self):
        # every chi value is a power of gen = chi(1, 1)
        return self.n == 1 or self.gen == 1

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GradingGroup) and other.n == self.n
            and other.field == self.field and other.gen == self.gen)

    def __hash__(self):
        return hash((self.n, self.field, self.gen))

    def __repr__(self):
        if self.n == 1:
            return "Trivial"
        return "Z%d(chi=%r)" % (self.n, self.gen)


class GradedSpace:
    """An ordered basis with one grading-group degree per basis vector.

    `dim` is the number of degrees, stored when the space is made.
    `_products` maps id(W) to weak references to W and to self (x) W.
    """

    __slots__ = ("group", "degrees", "dim", "_products", "__weakref__")

    def __init__(self, group, degrees):
        if degrees and (min(degrees) < 0 or max(degrees) >= group.n):
            for d in degrees:
                group.check(d)
        self.group = group
        self.degrees = degrees
        self.dim = len(degrees)
        self._products = None

    @classmethod
    def _of_valid(cls, group, degrees):
        """A space whose degrees are in range by construction, unchecked."""
        space = cls.__new__(cls)
        space.group = group
        space.degrees = degrees
        space.dim = len(degrees)
        space._products = None
        return space

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not GradedSpace or other.group != self.group:
            return False
        # Z_1 has the one degree 0, so the dims decide without a tuple compare
        if self.group.n == 1:
            return other.dim == self.dim
        return other.degrees == self.degrees

    def __hash__(self):
        # trivially graded spaces of one dim have one degree tuple, so this
        # agrees with __eq__
        return hash((self.group, self.degrees))

    @property
    def field(self):
        return self.group.field

    def tensor(self, other):
        products = self._products
        if products is None:
            products = self._products = {}
        else:
            # a hit needs the right factor itself and a product still in use
            known = products.get(id(other))
            if known is not None and known[0]() is other:
                product = known[1]()
                if product is not None:
                    return product
        if other.group != self.group:
            raise TypeError("tensor of spaces over different grading groups")
        n = self.group.n
        if n == 1:  # Z_1 has the one degree 0
            degs = (0,) * (self.dim * other.dim)
        else:  # one shifted copy of other's degrees per degree of self
            shifted = {a: [(a + b) % n for b in other.degrees]
                       for a in set(self.degrees)}
            degs = tuple(chain.from_iterable(
                [shifted[a] for a in self.degrees]))
        product = GradedSpace._of_valid(self.group, degs)
        key = id(other)
        products[key] = (ref(other, partial(_forget, ref(self), key)),
                         ref(product))
        return product

    def dual(self):
        n = self.group.n
        if n == 1:
            return self
        return GradedSpace._of_valid(
            self.group, tuple([(-d) % n for d in self.degrees]))

    @property
    def is_unit(self):
        return self.degrees == (0,)

    def __repr__(self):
        return "Space(dim=%d, deg=%s)" % (self.dim, list(self.degrees))


def _forget(left, key, _):
    """Drop the entry of a right factor that has died from the products of
    the left factor, if that is still alive."""
    space = left()
    if space is not None:
        space._products.pop(key, None)


def unit_space(group):
    return GradedSpace(group, (0,))
