from fractions import Fraction

import pytest

from hopfgal.bundle import (AlgebraBundle, ComoduleAlgebra, ModuleCoalgebra,
                            canonical_map_linearity, check_comodule_algebra,
                            check_module_coalgebra, coinvariants,
                            invariants_base)
from hopfgal.fields import QQ, PrimeField
from hopfgal.morphism import (Morphism, compose, cotensor, dualize,
                              factor_through_equaliser, tensor, tensor_over)
from hopfgal.samples import (braided_line, cyclic_group_algebra,
                             free_z2_bundle, fun_z2, nonflat_bundle,
                             nonfree_z2_bundle, s3_group_algebra,
                             sweedler_hopf, trivial_algebra_bundle,
                             trivial_coalgebra_bundle, unit_algebra)

F7 = PrimeField(7)


def sample_hopfs():
    return [cyclic_group_algebra(QQ, 2), cyclic_group_algebra(QQ, 3),
            sweedler_hopf(QQ), fun_z2(QQ), braided_line(F7, 3, F7.from_int(2))]


def test_check_comodule_algebra_trivial_bundles():
    for h in sample_hopfs():
        b = trivial_algebra_bundle(h)
        rep = check_comodule_algebra(b.como)
        assert rep.ok, rep.render()


def test_check_module_coalgebra_trivial_bundles():
    for h in sample_hopfs():
        b = trivial_coalgebra_bundle(h)
        rep = check_module_coalgebra(b.modc)
        assert rep.ok, rep.render()


def test_module_coalgebra_forced_failure():
    h = sweedler_hopf(QQ)
    idH = Morphism.identity(h.space)
    broken = ModuleCoalgebra(h.coalgebra, h,
                             compose(h.mult, tensor(idH, h.antipode)))
    rep = check_module_coalgebra(broken)
    assert not rep.ok


def test_coinvariants_trivial_coaction():
    h = cyclic_group_algebra(QQ, 2)
    como = ComoduleAlgebra(h.algebra, h,
                           tensor(Morphism.identity(h.space), h.unit))
    B, iota = coinvariants(como)
    assert B.space == h.space and iota == Morphism.identity(h.space)


def test_coinvariants_regular_coaction():
    # P = H = QZ2 coacting by Delta: invariants are the span of 1
    b = trivial_algebra_bundle(cyclic_group_algebra(QQ, 2))
    B, iota = b.coinvariants()
    assert B.space.dim == 1
    assert compose(iota, B.unit) == b.P.unit


def test_coinvariants_free_action():
    b = free_z2_bundle(QQ)
    B, _ = b.coinvariants()
    assert B.space.dim == 1


def test_invariants_base_regular_action():
    b = trivial_coalgebra_bundle(cyclic_group_algebra(QQ, 2))
    B, _ = b.invariants_base()
    assert B.space.dim == 1


def test_tensor_and_cotensor_degenerate():
    h = cyclic_group_algebra(QQ, 2)
    P = h.space
    idP = Morphism.identity(P)
    # B = 1: tensor over B is the plain tensor product
    Q, Pi = tensor_over(idP, idP)
    assert Q.dim == P.dim * P.dim
    # M = N = B regular: collapses to B
    Q2, _ = tensor_over(h.mult, h.mult)
    assert Q2.dim == P.dim
    E, _ = cotensor(idP, idP)
    assert E.dim == P.dim * P.dim
    E2, _ = cotensor(h.comult, h.comult)
    assert E2.dim == P.dim


def test_trivial_bundle_conditions():
    for h in sample_hopfs():
        b = trivial_algebra_bundle(h)
        assert b.condition_A().ok
        assert b.condition_B().ok
        # translation identity: can^{-1}(1 (x) h) = (S (x) id) Delta(h),
        # transported along the quotient P (x) P -> P (x)_B P
        _, Pi = b.p_tensor_p()
        idH = Morphism.identity(h.space)
        lhs = b.translation_map()
        rhs = compose(Pi, compose(tensor(h.antipode, idH), h.comult))
        assert lhs == rhs


def test_trivial_bundle_principal():
    for h in sample_hopfs():
        rep = trivial_algebra_bundle(h).check_principal()
        assert rep["principal"].ok, rep.render()


def test_free_action_principal():
    b = free_z2_bundle(QQ)
    rep = b.check_principal()
    assert rep["principal"].ok, rep.render()
    can = b.canonical_map()
    assert can.dom.dim == 4 and can.cod.dim == 4


def test_nonfree_action_fails_condition_B():
    b = nonfree_z2_bundle(QQ)
    assert b.condition_A().ok
    rep = b.condition_B()
    assert not rep.ok
    assert rep["B.can_bijective"].details["corank"] == 1
    assert not b.check_principal()["principal"].ok


def test_nonflat_bundle_fails_flatness():
    b = nonflat_bundle(QQ)
    rep = b.faithful_flatness()
    assert not rep["C.projective"].ok
    assert rep["C.trace_ideal_full"].details["trace_rank"] == 1
    assert not rep["C.faithfully_flat"].ok


def test_equivariant_projectivity_free_action():
    b = free_z2_bundle(QQ)
    rep = b.equivariant_projectivity()
    assert rep.ok
    s = b.section()
    # section splits the restricted multiplication
    assert compose(b.left_action(), s) == Morphism.identity(b.como.space)


def test_canonical_map_linearity():
    for b in (trivial_algebra_bundle(cyclic_group_algebra(QQ, 2)),
              trivial_algebra_bundle(sweedler_hopf(QQ)),
              free_z2_bundle(QQ)):
        rep = canonical_map_linearity(b)
        assert rep.ok, rep.render()
        rep_d = canonical_map_linearity(b.dualize())
        assert rep_d.ok, rep_d.render()


def test_duality_verdicts_and_can_transpose():
    for b in (trivial_algebra_bundle(cyclic_group_algebra(QQ, 2)),
              trivial_algebra_bundle(sweedler_hopf(QQ)),
              free_z2_bundle(QQ), nonfree_z2_bundle(QQ)):
        d = b.dualize()
        assert b.condition_A().ok == d.condition_A().ok
        assert b.condition_B().ok == d.condition_B().ok
        # the two canonical maps are mutual transposes after the recorded
        # identification of the dual quotient with the cotensor product
        can = b.canonical_map()
        _, Pi = b.p_tensor_p()
        _, iota = d.p_cotensor_p()
        psi = factor_through_equaliser(dualize(Pi), iota)
        assert compose(psi, dualize(can)) == d.canonical_map()


def test_comonoid_side_native_pipeline():
    for h in sample_hopfs():
        b = trivial_coalgebra_bundle(h)
        assert b.condition_A().ok, b.condition_A().render()
        assert b.condition_B().ok
        assert b.check_principal()["principal"].ok


def test_h_trivial_degenerate():
    # H = 1 and bundle data P = B: can is the identity-sized isomorphism
    b = nonflat_bundle(QQ)
    can = b.canonical_map()
    assert can.dom.dim == can.cod.dim == 1
    assert b.condition_B().ok
