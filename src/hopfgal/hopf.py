"""Algebras, coalgebras, bialgebras and Hopf algebras in the braided category.

Structures are given by structure-constant matrices on a graded space and
verified, never constructed from presentations.  The braided tensor
product of algebras uses (m_A (x) m_B) o (id (x) tau (x) id); in the
trivially graded case it reduces to the classical tensor algebra.  It is
never built: `braided_tensor_mult` applies it through `braided_compose`.
"""

from __future__ import annotations

from .morphism import (Morphism, braided_compose, braiding, compose,
                       compose_tensor, dualize, is_isomorphism, tensor,
                       tensor_compose)
from .report import Report, equality_check
from .spaces import unit_space


class _Structure:
    """Structure maps compared by value: equal when of one class with equal
    fields, in `__slots__` order."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return (other.__class__ is self.__class__
                and other._fields() == self._fields())

    def __hash__(self):
        return hash(self._fields())


class Algebra(_Structure):
    __slots__ = ("space", "mult", "unit")

    def __init__(self, space, mult, unit):
        AA = space.tensor(space)
        if mult.dom != AA or mult.cod != space:
            raise TypeError("multiplication has wrong shape")
        if unit.dom != unit_space(space.group) or unit.cod != space:
            raise TypeError("unit has wrong shape")
        self.space = space
        self.mult = mult    # A (x) A -> A
        self.unit = unit    # 1 -> A

    def dualize(self):
        return Coalgebra(self.space.dual(), dualize(self.mult), dualize(self.unit))


class Coalgebra(_Structure):
    __slots__ = ("space", "comult", "counit")

    def __init__(self, space, comult, counit):
        CC = space.tensor(space)
        if comult.dom != space or comult.cod != CC:
            raise TypeError("comultiplication has wrong shape")
        if counit.dom != space or counit.cod != unit_space(space.group):
            raise TypeError("counit has wrong shape")
        self.space = space
        self.comult = comult    # C -> C (x) C
        self.counit = counit    # C -> 1

    def dualize(self):
        return Algebra(self.space.dual(), dualize(self.comult), dualize(self.counit))


class HopfAlgebra(_Structure):
    __slots__ = ("algebra", "coalgebra", "antipode")

    def __init__(self, algebra, coalgebra, antipode):
        if algebra.space != coalgebra.space:
            raise TypeError("algebra and coalgebra live on different spaces")
        if antipode.dom != algebra.space or antipode.cod != algebra.space:
            raise TypeError("antipode has wrong shape")
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.antipode = antipode  # H -> H

    @property
    def space(self):
        return self.algebra.space

    @property
    def mult(self):
        return self.algebra.mult

    @property
    def unit(self):
        return self.algebra.unit

    @property
    def comult(self):
        return self.coalgebra.comult

    @property
    def counit(self):
        return self.coalgebra.counit

    def dualize(self):
        return HopfAlgebra(self.coalgebra.dualize(), self.algebra.dualize(),
                           dualize(self.antipode))


def check_algebra(a):
    A = a.space
    idA = Morphism.identity(A)
    rep = Report()
    rep.items.append(equality_check(
        "associativity",
        tensor_compose(a.mult, [a.mult, idA]),
        tensor_compose(a.mult, [idA, a.mult])))
    rep.items.append(equality_check(
        "unit_left", tensor_compose(a.mult, [a.unit, idA]), idA))
    rep.items.append(equality_check(
        "unit_right", tensor_compose(a.mult, [idA, a.unit]), idA))
    return rep


def check_coalgebra(c):
    C = c.space
    idC = Morphism.identity(C)
    rep = Report()
    rep.items.append(equality_check(
        "coassociativity",
        compose_tensor([c.comult, idC], c.comult),
        compose_tensor([idC, c.comult], c.comult)))
    rep.items.append(equality_check(
        "counit_left", compose_tensor([c.counit, idC], c.comult), idC))
    rep.items.append(equality_check(
        "counit_right", compose_tensor([idC, c.counit], c.comult), idC))
    return rep


def braided_tensor_mult(a, b, f, g):
    """m o (f (x) g), m = (m_A (x) m_B) o (id (x) tau (x) id) the
    multiplication of the braided tensor product algebra A (x) B."""
    AB = (a.space, b.space)
    return braided_compose(a.mult, b.mult, f, g, AB, AB)


def check_hopf(h):
    H = h.space
    idH = Morphism.identity(H)
    rep = Report()
    rep.extend(check_algebra(h.algebra), prefix="algebra.")
    rep.extend(check_coalgebra(h.coalgebra), prefix="coalgebra.")

    # bialgebra law: Delta and eps are algebra maps into/out of the braided
    # tensor algebra on H (x) H
    rep.items.append(equality_check(
        "bialgebra_comult_mult",
        compose(h.comult, h.mult),
        braided_tensor_mult(h.algebra, h.algebra, h.comult, h.comult)))
    rep.items.append(equality_check(
        "bialgebra_comult_unit", compose(h.comult, h.unit),
        tensor(h.unit, h.unit)))
    rep.items.append(equality_check(
        "bialgebra_counit_mult",
        compose(h.counit, h.mult),
        tensor(h.counit, h.counit)))
    rep.items.append(equality_check(
        "bialgebra_counit_unit", compose(h.counit, h.unit),
        Morphism.identity(unit_space(H.group))))

    unit_eps = compose(h.unit, h.counit)
    rep.items.append(equality_check(
        "antipode_left",
        compose(h.mult, compose_tensor([h.antipode, idH], h.comult)),
        unit_eps))
    rep.items.append(equality_check(
        "antipode_right",
        compose(h.mult, compose_tensor([idH, h.antipode], h.comult)),
        unit_eps))

    inv = is_isomorphism(h.antipode)
    rep.add("antipode_bijective", inv.is_iso,
            details={"rank": inv.rank, "dim": H.dim})
    # involutivity is recorded as a flag, never as a failure
    ss = compose(h.antipode, h.antipode)
    rep.add("antipode_order", True,
            details={"involutive": "true" if ss == idH else "false"})
    return rep


def antipode_antihomomorphism_check(h):
    """m o (S (x) S) o tau = S o m, the braided anti-homomorphism law."""
    return equality_check(
        "antipode_antihom",
        compose(tensor_compose(h.mult, [h.antipode, h.antipode]),
                braiding(h.space, h.space)),
        compose(h.antipode, h.mult))
