"""Algebras, coalgebras, bialgebras and Hopf algebras in the braided category.

Structures are given by structure-constant matrices on a graded space and
verified, never constructed from presentations.  The braided tensor
product of algebras uses (m_A (x) m_B) o (id (x) tau (x) id); in the
trivially graded case it reduces to the classical tensor algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .morphism import (Morphism, braiding, compose, compose_tensor, dualize,
                       is_isomorphism, tensor)
from .report import Report, equality_check
from .spaces import unit_space


@dataclass(frozen=True)
class Algebra:
    space: object
    mult: Morphism      # A (x) A -> A
    unit: Morphism      # 1 -> A

    def __post_init__(self):
        AA = self.space.tensor(self.space)
        if self.mult.dom != AA or self.mult.cod != self.space:
            raise TypeError("multiplication has wrong shape")
        if self.unit.dom != unit_space(self.space.group) or self.unit.cod != self.space:
            raise TypeError("unit has wrong shape")

    def dualize(self):
        return Coalgebra(self.space.dual(), dualize(self.mult), dualize(self.unit))


@dataclass(frozen=True)
class Coalgebra:
    space: object
    comult: Morphism    # C -> C (x) C
    counit: Morphism    # C -> 1

    def __post_init__(self):
        CC = self.space.tensor(self.space)
        if self.comult.dom != self.space or self.comult.cod != CC:
            raise TypeError("comultiplication has wrong shape")
        if self.counit.dom != self.space or self.counit.cod != unit_space(self.space.group):
            raise TypeError("counit has wrong shape")

    def dualize(self):
        return Algebra(self.space.dual(), dualize(self.comult), dualize(self.counit))


@dataclass(frozen=True)
class HopfAlgebra:
    algebra: Algebra
    coalgebra: Coalgebra
    antipode: Morphism  # H -> H

    def __post_init__(self):
        if self.algebra.space != self.coalgebra.space:
            raise TypeError("algebra and coalgebra live on different spaces")
        if self.antipode.dom != self.space or self.antipode.cod != self.space:
            raise TypeError("antipode has wrong shape")

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
        compose(a.mult, tensor(a.mult, idA)),
        compose(a.mult, tensor(idA, a.mult))))
    rep.items.append(equality_check(
        "unit_left", compose(a.mult, tensor(a.unit, idA)), idA))
    rep.items.append(equality_check(
        "unit_right", compose(a.mult, tensor(idA, a.unit)), idA))
    return rep


def check_coalgebra(c):
    C = c.space
    idC = Morphism.identity(C)
    rep = Report()
    rep.items.append(equality_check(
        "coassociativity",
        compose(tensor(c.comult, idC), c.comult),
        compose(tensor(idC, c.comult), c.comult)))
    rep.items.append(equality_check(
        "counit_left", compose(tensor(c.counit, idC), c.comult), idC))
    rep.items.append(equality_check(
        "counit_right", compose(tensor(idC, c.counit), c.comult), idC))
    return rep


def braided_tensor_mult(a, b, g):
    """m o g for the multiplication m = (m_A (x) m_B) o (id (x) tau (x) id)
    of the braided tensor product algebra A (x) B.

    Computed as (m_A (x) m_B) o ((id (x) tau (x) id) o g) without building
    m, whose domain A (x) B (x) A (x) B has dim(A)^2 dim(B)^2 columns.
    """
    A, B = a.space, b.space
    swapped = compose_tensor(
        [Morphism.identity(A), braiding(B, A), Morphism.identity(B)], g)
    return compose_tensor([a.mult, b.mult], swapped)


def braided_tensor_coalgebra(c, d):
    C, D = c.space, d.space
    idC, idD = Morphism.identity(C), Morphism.identity(D)
    comult = compose_tensor([idC, braiding(C, D), idD],
                            tensor(c.comult, d.comult))
    return Coalgebra(C.tensor(D), comult, tensor(c.counit, d.counit))


def opposite_coalgebra(c):
    """Comultiplication replaced by tau_{C,C} o Delta, same counit."""
    return Coalgebra(c.space, compose(braiding(c.space, c.space), c.comult),
                     c.counit)


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
        braided_tensor_mult(h.algebra, h.algebra,
                            tensor(h.comult, h.comult))))
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
        compose(h.mult, compose(tensor(h.antipode, idH), h.comult)),
        unit_eps))
    rep.items.append(equality_check(
        "antipode_right",
        compose(h.mult, compose(tensor(idH, h.antipode), h.comult)),
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
        compose(h.mult, compose(tensor(h.antipode, h.antipode),
                                braiding(h.space, h.space))),
        compose(h.antipode, h.mult))
