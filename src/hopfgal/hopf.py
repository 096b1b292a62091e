"""Algebras, coalgebras, bialgebras and Hopf algebras in the braided category.

Structures are given by structure-constant matrices on a graded space and
verified, never constructed from presentations.  A coalgebra is a monoid
in Vect^op, so each structure law is written once here, in Vect, against
an operation table (`VECT`, or `VECT_OP` for the comonoid reading), and
returns its equality items under the caller's names: (co)actions,
(co)monoid laws, maps of (co)monoids, maps into (out of) the braided
tensor (co)algebra, whose structure (m_A (x) m_B) o (id (x) tau (x) id)
(or its dual) is applied through `braided_compose` and never built, and
the (co)invariants of a (co)action.  The bundle pipeline in
`bundle.Bundle` runs against the same tables.
"""

from __future__ import annotations

from types import SimpleNamespace

from .morphism import (Morphism, braided_compose, coequaliser, compose,
                       compose_tensor, cotensor, dualize, equaliser,
                       factor_through_coequaliser, factor_through_equaliser,
                       is_isomorphism, tensor, tensor_compose, tensor_over)
from .report import Report, equality_check
from .spaces import unit_space


class Value:
    """A structure or an expression compared by value: equal when of one
    class with equal fields, in `__slots__` order."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return (other.__class__ is self.__class__
                and other._fields() == self._fields())

    def __hash__(self):
        return hash(self._fields())


class Algebra(Value):
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


class Coalgebra(Value):
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


class HopfAlgebra(Value):
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


# -- the two categories ------------------------------------------------------
#
# Each structure law is written once, in Vect, against the operations of
# these tables.  A map X -> Y of Vect^op is a linear map Y -> X, so there
# f o g is compose(g, f), (f_1 (x) ... (x) f_k) o g is g o (f_1 (x) ...),
# domain and codomain, equalisers and coequalisers and the two
# factorisations trade places, the tensor product over a base is the
# cotensor product, a monoid's multiplication and unit are a comonoid's
# comultiplication and counit, and the braided sandwich takes its two
# halves the other way round; the tensor product of maps and the
# identities are the same.  Each entry looks its function up in this
# module's globals when it is called, so a rebinding of `compose` and the
# rest (bench/tracer.py counts calls that way) reaches Vect^op's calls too.

VECT = SimpleNamespace(
    dom=lambda f: f.dom,
    cod=lambda f: f.cod,
    mult=lambda A: A.mult,
    unit=lambda A: A.unit,
    compose=lambda f, g: compose(f, g),
    compose_tensor=lambda fs, g: compose_tensor(fs, g),
    tensor_compose=lambda f, gs: tensor_compose(f, gs),
    braided_compose=lambda m1, m2, f, g, U, V: braided_compose(
        m1, m2, f, g, U, V),
    equaliser=lambda f, g: equaliser(f, g),
    factor_through_equaliser=lambda c, i: factor_through_equaliser(c, i),
    factor_through_coequaliser=lambda c, p: factor_through_coequaliser(c, p),
    tensor_over=lambda right, left: tensor_over(right, left))

VECT_OP = SimpleNamespace(
    dom=lambda f: f.cod,
    cod=lambda f: f.dom,
    mult=lambda A: A.comult,
    unit=lambda A: A.counit,
    compose=lambda f, g: compose(g, f),
    compose_tensor=lambda fs, g: tensor_compose(g, fs),
    tensor_compose=lambda f, gs: compose_tensor(gs, f),
    braided_compose=lambda m1, m2, f, g, U, V: braided_compose(
        f, g, m1, m2, (U[0], V[0]), (U[1], V[1])),
    equaliser=lambda f, g: coequaliser(f, g),
    factor_through_equaliser=lambda c, i: factor_through_coequaliser(c, i),
    factor_through_coequaliser=lambda c, p: factor_through_equaliser(c, p),
    tensor_over=lambda right, left: cotensor(right, left))


# -- the laws ----------------------------------------------------------------

def action_laws(act, A, assoc, unit, ops=VECT):
    """A right action act: X (x) A -> X of the monoid A is associative
    and unital: the items `assoc` and `unit`.  In `VECT_OP`, a right
    coaction X -> X (x) A of a coalgebra, coassociative and counital."""
    idX, idA = Morphism.identity(ops.cod(act)), Morphism.identity(A.space)
    return [equality_check(assoc, ops.tensor_compose(act, [act, idA]),
                           ops.tensor_compose(act, [idX, ops.mult(A)])),
            equality_check(unit, ops.tensor_compose(act, [idX, ops.unit(A)]),
                           idX)]


def algebra_map_laws(f, A, B, C, mult, unit, ops=VECT):
    """f: A -> B (x) C is a monoid map into the braided tensor monoid,
    multiplication (m_B (x) m_C) o (id (x) tau (x) id): the items `mult`
    and `unit`.  In `VECT_OP`, f: B (x) C -> A is a coalgebra map out of
    the braided tensor coalgebra."""
    BC = (B.space, C.space)
    return [equality_check(mult, ops.compose(f, ops.mult(A)),
                           ops.braided_compose(ops.mult(B), ops.mult(C),
                                               f, f, BC, BC)),
            equality_check(unit, ops.compose(f, ops.unit(A)),
                           tensor(ops.unit(B), ops.unit(C)))]


def hom_laws(f, A, B, mult, unit, ops=VECT):
    """f: A -> B is a map of monoids: the items `mult` and `unit`.  In
    `VECT_OP`, f: B -> A is a map of coalgebras."""
    return [equality_check(mult, ops.compose(f, ops.mult(A)),
                           ops.tensor_compose(ops.mult(B), [f, f])),
            equality_check(unit, ops.compose(f, ops.unit(A)), ops.unit(B))]


def coinvariants_of(coact, H, ops=VECT):
    """(X^coH, iota): the equaliser of coact: X -> X (x) H and id (x) 1.
    In `VECT_OP`, (X_H, Pi): the coequaliser of act: X (x) H -> X and
    id (x) eps."""
    return ops.equaliser(coact, tensor(Morphism.identity(ops.dom(coact)),
                                       ops.unit(H)))


def check_algebra(a, assoc="associativity", unit_right="unit_right",
                  unit_left="unit_left", ops=VECT):
    """The monoid laws of a, under the three item names; in `VECT_OP`,
    the comonoid laws of a coalgebra."""
    m, idA = ops.mult(a), Morphism.identity(a.space)
    return Report(action_laws(m, a, assoc, unit_right, ops) + [
        equality_check(unit_left, ops.tensor_compose(m, [ops.unit(a), idA]),
                       idA)])


def unit_algebra(group):
    """The monoidal unit as an algebra: its multiplication and unit are
    the identity of the unit space."""
    ident = Morphism.identity(unit_space(group))
    return Algebra(ident.dom, ident, ident)


def check_hopf(h):
    H = h.space
    idH = Morphism.identity(H)
    rep = Report()
    rep.extend(check_algebra(h.algebra), prefix="algebra.")
    rep.extend(check_algebra(h.coalgebra, "coassociativity", "counit_right",
                             "counit_left", VECT_OP), prefix="coalgebra.")

    # bialgebra law: Delta and eps are algebra maps into the braided
    # tensor algebra on H (x) H and into the unit algebra
    rep.items.extend(algebra_map_laws(h.comult, h, h, h,
                                      "bialgebra_comult_mult",
                                      "bialgebra_comult_unit"))
    rep.items.extend(hom_laws(h.counit, h, unit_algebra(H.group),
                              "bialgebra_counit_mult",
                              "bialgebra_counit_unit"))

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
