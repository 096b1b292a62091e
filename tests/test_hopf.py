from fractions import Fraction

from hopfgal.bundle import (ComoduleAlgebra, check_comodule_algebra,
                            check_module_coalgebra)
from hopfgal.fields import QQ, PrimeField
from hopfgal.hopf import (Algebra, HopfAlgebra,
                          antipode_antihomomorphism_check, check_algebra,
                          check_coalgebra, check_hopf)
from hopfgal.morphism import Morphism, braiding, compose, tensor, tensor_many
from hopfgal.report import equality_check
from hopfgal.samples import (braided_line, cyclic_group_algebra, fun_z2,
                             s3_group_algebra, superline, sweedler_hopf,
                             trivial_hopf)
from hopfgal.spaces import GradedSpace, GradingGroup, unit_space


def braided_tensor_algebra(a, b):
    """The algebra on A (x) B with multiplication (m_A (x) m_B)(id tau id),
    with its multiplication built as a morphism: the reference for
    `hopf.braided_tensor_mult`."""
    A, B = a.space, b.space
    idA, idB = Morphism.identity(A), Morphism.identity(B)
    mult = compose(tensor(a.mult, b.mult),
                   tensor(tensor(idA, braiding(B, A)), idB))
    return Algebra(A.tensor(B), mult, tensor(a.unit, b.unit))


F7 = PrimeField(7)


def assert_all_pass(report):
    for item in report.items:
        assert item.ok, item.render()


def test_trivial_hopf():
    assert_all_pass(check_hopf(trivial_hopf(QQ)))


def test_group_algebras():
    for h in (cyclic_group_algebra(QQ, 2), cyclic_group_algebra(QQ, 3),
              cyclic_group_algebra(F7, 3), s3_group_algebra(QQ)):
        rep = check_hopf(h)
        assert_all_pass(rep)
        assert rep["antipode_bijective"].ok
    # S_3 is noncommutative, its antipode is still involutive
    rep = check_hopf(s3_group_algebra(QQ))
    assert rep["antipode_order"].details["involutive"] == "true"


def test_fun_z2():
    h = fun_z2(QQ)
    assert_all_pass(check_hopf(h))
    # Fun(Z_2) is isomorphic to its dual up to basis; the dual passes too
    assert_all_pass(check_hopf(h.dualize()))


def test_sweedler():
    h = sweedler_hopf(QQ)
    rep = check_hopf(h)
    assert_all_pass(rep)
    assert rep["antipode_order"].details["involutive"] == "false"
    # S^2 != id but S^4 = id
    s = h.antipode
    s2 = compose(s, s)
    assert compose(s2, s2) == Morphism.identity(h.space)
    assert antipode_antihomomorphism_check(h).ok


def test_braided_line_f7():
    h = braided_line(F7, 3, F7.from_int(2))
    rep = check_hopf(h)
    assert_all_pass(rep)
    assert antipode_antihomomorphism_check(h).ok


def test_superline():
    h = superline(QQ)
    assert_all_pass(check_hopf(h))
    # (1 (x) x)(x (x) 1) = -(x (x) x) in the braided tensor square
    hh = braided_tensor_algebra(h.algebra, h.algebra)
    rows = hh.mult.to_rows()
    # basis of HxH is (1x1, 1xx, xx1, xxx); the argument (1xx)(x(x)xx1)
    # sits in column 1*4 + 2 of the multiplication matrix
    prod_col = 1 * 4 + 2
    vals = [rows[i][prod_col] for i in range(4)]
    assert vals == [Fraction(0), Fraction(0), Fraction(0), Fraction(-1)]


def test_forced_failures():
    group = GradingGroup.trivial(QQ)
    V = GradedSpace(group, (0, 0))
    one = Fraction(1)
    # non-associative "multiplication"
    mult = Morphism(V.tensor(V), V, {(0, 0): one, (1, 3): one, (1, 1): one})
    unit = Morphism(unit_space(group), V, {(0, 0): one})
    a = Algebra(V, mult, unit)
    rep = check_algebra(a)
    assert not all(item.ok for item in rep.items)
    # a failing unit law is reported with a witness
    bad_unit = Morphism(unit_space(group), V, {(1, 0): one})
    rep2 = check_algebra(Algebra(V, mult, bad_unit))
    failures = [i for i in rep2.items if not i.ok]
    assert failures and all(i.witness is not None for i in failures)


def test_dualize_verdict_symmetry():
    for h in (cyclic_group_algebra(QQ, 3), sweedler_hopf(QQ),
              braided_line(F7, 3, F7.from_int(2))):
        rep = check_hopf(h)
        rep_d = check_hopf(h.dualize())
        assert all(i.ok for i in rep.items) == all(i.ok for i in rep_d.items)


def test_check_coalgebra_dual_of_algebra():
    h = s3_group_algebra(QQ)
    assert all(i.ok for i in check_coalgebra(h.algebra.dualize()).items)


def clifford_superline():
    """The superline's coalgebra and antipode on k[x]/(x^2 - 1), x odd.

    Delta(x) = x (x) 1 + 1 (x) x is not an algebra map for x^2 = 1: the
    braided cross terms cancel and Delta(x)^2 = 2 (1 (x) 1) != Delta(1).
    """
    h = superline(QQ)
    V = h.space
    one = Fraction(1)
    mult = Morphism(V.tensor(V), V,
                    {(0, 0): one, (1, 1): one, (1, 2): one, (0, 3): one})
    return HopfAlgebra(Algebra(V, mult, h.unit), h.coalgebra, h.antipode)


def assert_same_failure(item, expected):
    assert not item.ok
    assert item.details == expected.details
    assert item.witness == expected.witness


def test_braided_law_witnesses_match_materialised_path():
    """The law checks that skip the braided tensor structure maps fail with
    the defect the materialised maps give."""
    h = clifford_superline()
    hh = braided_tensor_algebra(h.algebra, h.algebra)
    rep = check_hopf(h)
    assert_same_failure(rep["bialgebra_comult_mult"], equality_check(
        "", compose(h.comult, h.mult),
        compose(hh.mult, tensor(h.comult, h.comult))))
    assert rep["bialgebra_comult_unit"].ok
    assert compose(h.comult, h.unit) == hh.unit

    # the superline coacting on itself through the Clifford Hopf algebra:
    # rho(x)^2 = 1 (x) x^2 = 1 (x) 1, but rho(x^2) = 0
    sl = superline(QQ)
    x = ComoduleAlgebra(sl.algebra, h, sl.comult)
    ph = braided_tensor_algebra(x.algebra, x.hopf.algebra)
    rep = check_comodule_algebra(x)
    assert_same_failure(rep["coaction_mult"], equality_check(
        "", compose(x.coaction, x.algebra.mult),
        compose(ph.mult, tensor(x.coaction, x.coaction))))
    assert rep["coaction_unit"].ok
    assert compose(x.coaction, x.algebra.unit) == ph.unit

    # its dual, a module coalgebra whose action is not comultiplicative
    y = x.dualize()
    P, H = y.space, y.hopf.space
    comult = compose(
        tensor_many(Morphism.identity(P), braiding(P, H), Morphism.identity(H)),
        tensor(y.coalgebra.comult, y.hopf.comult))
    assert_same_failure(check_module_coalgebra(y)["action_comult"],
                        equality_check(
        "", compose(y.coalgebra.comult, y.action),
        compose(tensor(y.action, y.action), comult)))
