"""Algebras, coalgebras, bialgebras and Hopf algebras in the braided category.

Structures are given by structure-constant matrices on a graded space and
verified, never constructed from presentations.  Each structure law is
written once here and returns its equality items under the caller's
names: (co)actions, maps into (out of) the braided tensor (co)algebra,
whose structure (m_A (x) m_B) o (id (x) tau (x) id) (or its dual) is
applied through `braided_compose` and never built, maps of coalgebras,
and the (co)invariants of a (co)action.  The bundle's laws on its base
map pi are written once, in `bundle.Bundle`, for both directions.
"""

from __future__ import annotations

from .morphism import (Morphism, braided_compose, braiding, coequaliser,
                       compose, compose_tensor, dualize, equaliser,
                       is_isomorphism, tensor, tensor_compose)
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


def action_laws(act, A, assoc, unit):
    """A right action act: X (x) A -> X of the algebra A is associative
    and unital: the items `assoc` and `unit`."""
    idX, idA = Morphism.identity(act.cod), Morphism.identity(A.space)
    return [equality_check(assoc, tensor_compose(act, [act, idA]),
                           tensor_compose(act, [idX, A.mult])),
            equality_check(unit, tensor_compose(act, [idX, A.unit]), idX)]


def coaction_laws(coact, C, coassoc, counit):
    """A right coaction coact: X -> X (x) C of the coalgebra C is
    coassociative and counital: the items `coassoc` and `counit`."""
    idX, idC = Morphism.identity(coact.dom), Morphism.identity(C.space)
    return [equality_check(coassoc, compose_tensor([coact, idC], coact),
                           compose_tensor([idX, C.comult], coact)),
            equality_check(counit, compose_tensor([idX, C.counit], coact),
                           idX)]


def algebra_map_laws(f, A, B, C, mult, unit):
    """f: A -> B (x) C is an algebra map into the braided tensor algebra,
    multiplication (m_B (x) m_C) o (id (x) tau (x) id): the items `mult`
    and `unit`."""
    BC = (B.space, C.space)
    return [equality_check(mult, compose(f, A.mult),
                           braided_compose(B.mult, C.mult, f, f, BC, BC)),
            equality_check(unit, compose(f, A.unit), tensor(B.unit, C.unit))]


def coalgebra_map_laws(g, A, B, C, comult, counit):
    """g: B (x) C -> A is a coalgebra map out of the braided tensor
    coalgebra, comultiplication (id (x) tau (x) id) o (Delta_B (x)
    Delta_C): the items `comult` and `counit`."""
    return [equality_check(comult, compose(A.comult, g),
                           braided_compose(g, g, B.comult, C.comult,
                                           (B.space, B.space),
                                           (C.space, C.space))),
            equality_check(counit, compose(A.counit, g),
                           tensor(B.counit, C.counit))]


def coalgebra_hom_laws(g, A, B, comult, counit):
    """g: A -> B is a map of coalgebras: the items `comult` and `counit`."""
    return [equality_check(comult, compose(B.comult, g),
                           compose_tensor([g, g], A.comult)),
            equality_check(counit, compose(B.counit, g), A.counit)]


def coinvariants_of(coact, H):
    """(X^coH, iota): the equaliser of coact: X -> X (x) H and id (x) 1."""
    return equaliser(coact, tensor(Morphism.identity(coact.dom), H.unit))


def invariants_of(act, H):
    """(X_H, Pi): the coequaliser of id (x) eps and act: X (x) H -> X."""
    return coequaliser(tensor(Morphism.identity(act.cod), H.counit), act)


def check_algebra(a):
    idA = Morphism.identity(a.space)
    return Report(action_laws(a.mult, a, "associativity", "unit_right") + [
        equality_check("unit_left", tensor_compose(a.mult, [a.unit, idA]),
                       idA)])


def check_coalgebra(c):
    idC = Morphism.identity(c.space)
    return Report(coaction_laws(c.comult, c, "coassociativity",
                                "counit_right") + [
        equality_check("counit_left",
                       compose_tensor([c.counit, idC], c.comult), idC)])


def check_hopf(h):
    H = h.space
    idH = Morphism.identity(H)
    rep = Report()
    rep.extend(check_algebra(h.algebra), prefix="algebra.")
    rep.extend(check_coalgebra(h.coalgebra), prefix="coalgebra.")

    # bialgebra law: Delta and eps are algebra maps into/out of the braided
    # tensor algebra on H (x) H
    rep.items.extend(algebra_map_laws(h.comult, h, h, h,
                                      "bialgebra_comult_mult",
                                      "bialgebra_comult_unit"))
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
