import itertools
from fractions import Fraction

import pytest

from hopfgal.bundle import (ComoduleAlgebra, check_comodule_algebra,
                            check_module_coalgebra)
from hopfgal.fields import QQ, PrimeField
from hopfgal.hopf import (VECT_OP, Algebra, Coalgebra, HopfAlgebra,
                          action_laws, algebra_map_laws, check_algebra,
                          check_hopf, coinvariants_of, hom_laws)
from hopfgal.morphism import (Morphism, braided_compose, braiding,
                              coequaliser, compose, compose_tensor, tensor,
                              tensor_compose, tensor_many)
from hopfgal.report import Report, equality_check
from hopfgal.samples import (braided_line, cyclic_group_algebra, fun_z2,
                             function_hopf, s3_group_algebra, superline,
                             sweedler_hopf, trivial_hopf)
from hopfgal.spaces import GradedSpace, GradingGroup, unit_space
from test_morphism import difference


def braided_tensor_algebra(a, b):
    """The algebra on A (x) B with multiplication (m_A (x) m_B)(id tau id),
    with its multiplication built as a morphism: the reference for
    `hopf.algebra_map_laws`."""
    A, B = a.space, b.space
    idA, idB = Morphism.identity(A), Morphism.identity(B)
    mult = compose(tensor(a.mult, b.mult),
                   tensor(tensor(idA, braiding(B, A)), idB))
    return Algebra(A.tensor(B), mult, tensor(a.unit, b.unit))


def braided_tensor_coalgebra(b, c):
    """The coalgebra on B (x) C with comultiplication (id tau id)(Delta_B
    (x) Delta_C), built as a morphism: the reference for
    `hopf.algebra_map_laws` read in `VECT_OP`."""
    B, C = b.space, c.space
    idB, idC = Morphism.identity(B), Morphism.identity(C)
    comult = compose(tensor(tensor(idB, braiding(B, C)), idC),
                     tensor(b.comult, c.comult))
    return Coalgebra(B.tensor(C), comult, tensor(b.counit, c.counit))


F7 = PrimeField(7)


# -- the comonoid laws written out in Vect ------------------------------------
#
# Each comonoid law used to be written a second time, in Vect, as the mirror
# image of its monoid law.  Those functions are kept here as the reference
# that the monoid laws, read in `VECT_OP`, reproduce item for item.

def reference_coaction_laws(coact, C, coassoc, counit):
    """A right coaction coact: X -> X (x) C of the coalgebra C is
    coassociative and counital: the items `coassoc` and `counit`."""
    idX, idC = Morphism.identity(coact.dom), Morphism.identity(C.space)
    return [equality_check(coassoc, compose_tensor([coact, idC], coact),
                           compose_tensor([idX, C.comult], coact)),
            equality_check(counit, compose_tensor([idX, C.counit], coact),
                           idX)]


def reference_coalgebra_map_laws(g, A, B, C, comult, counit):
    """g: B (x) C -> A is a coalgebra map out of the braided tensor
    coalgebra, comultiplication (id (x) tau (x) id) o (Delta_B (x)
    Delta_C): the items `comult` and `counit`."""
    return [equality_check(comult, compose(A.comult, g),
                           braided_compose(g, g, B.comult, C.comult,
                                           (B.space, B.space),
                                           (C.space, C.space))),
            equality_check(counit, compose(A.counit, g),
                           tensor(B.counit, C.counit))]


def reference_coalgebra_hom_laws(g, A, B, comult, counit):
    """g: A -> B is a map of coalgebras: the items `comult` and `counit`."""
    return [equality_check(comult, compose(B.comult, g),
                           compose_tensor([g, g], A.comult)),
            equality_check(counit, compose(B.counit, g), A.counit)]


def reference_invariants_of(act, H):
    """(X_H, Pi): the coequaliser of id (x) eps and act: X (x) H -> X."""
    return coequaliser(tensor(Morphism.identity(act.cod), H.counit), act)


def reference_check_coalgebra(c):
    idC = Morphism.identity(c.space)
    return Report(reference_coaction_laws(c.comult, c, "coassociativity",
                                          "counit_right") + [
        equality_check("counit_left",
                       compose_tensor([c.counit, idC], c.comult), idC)])


COALGEBRA_NAMES = ("coassociativity", "counit_right", "counit_left")


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


def antipode_antihomomorphism_check(h):
    """m o (S (x) S) o tau = S o m, the braided anti-homomorphism law."""
    return equality_check(
        "antipode_antihom",
        compose(tensor_compose(h.mult, [h.antipode, h.antipode]),
                braiding(h.space, h.space)),
        compose(h.antipode, h.mult))


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


def bump(f):
    """f with one more at its first degree-preserving entry."""
    for i in range(f.cod.dim):
        for j in range(f.dom.dim):
            if f.cod.degrees[i] == f.dom.degrees[j]:
                entries = dict(f.entries)
                entries[(i, j)] = entries.get((i, j), 0) + 1
                return Morphism(f.dom, f.cod, entries)
    raise ValueError("no degree-preserving entry")


def assert_items_match(items, sides):
    """Each item's verdict and witness are those of the dense (lhs, rhs)."""
    assert len(items) == len(sides)
    for item, (lhs, rhs) in zip(items, sides):
        assert item.ok == (lhs == rhs)
        assert item.witness == (None if item.ok else difference(lhs, rhs))


@pytest.mark.parametrize("h", [braided_line(F7, 3, F7.from_int(2)),
                               superline(QQ)],
                         ids=["braided_line_f7", "superline"])
def test_map_laws_match_the_dense_braided_tensor_product(h):
    """Delta and (Delta (x) id) Delta are algebra maps into braided tensor
    algebras, m and m (m (x) id) coalgebra maps out of braided tensor
    coalgebras; each with one entry perturbed fails with the dense
    lhs - rhs as its witness."""
    idH = Morphism.identity(h.space)
    hh = braided_tensor_algebra(h, h)
    cc = braided_tensor_coalgebra(h, h)
    delta2 = compose(tensor(h.comult, idH), h.comult)
    mult2 = compose(h.mult, tensor(h.mult, idH))
    verdicts = []
    for f, B in ((h.comult, h), (bump(h.comult), h), (delta2, hh),
                 (bump(delta2), hh)):
        BC = braided_tensor_algebra(B, h)
        items = algebra_map_laws(f, h, B, h, "mult", "unit")
        assert [item.name for item in items] == ["mult", "unit"]
        assert_items_match(items, [
            (compose(f, h.mult), compose(BC.mult, tensor(f, f))),
            (compose(f, h.unit), BC.unit)])
        verdicts.append([item.ok for item in items])
    for g, B in ((h.mult, h), (bump(h.mult), h), (mult2, cc),
                 (bump(mult2), cc)):
        BC = braided_tensor_coalgebra(B, h)
        items = algebra_map_laws(g, h, B, h, "comult", "counit", VECT_OP)
        assert [item.name for item in items] == ["comult", "counit"]
        assert_items_match(items, [
            (compose(h.comult, g), compose(tensor(g, g), BC.comult)),
            (compose(h.counit, g), BC.counit)])
        verdicts.append([item.ok for item in items])
    assert verdicts == [[True, True], [False, False]] * 4


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
    rep = check_algebra(h.algebra.dualize(), *COALGEBRA_NAMES, ops=VECT_OP)
    assert [i.name for i in rep.items] == list(COALGEBRA_NAMES)
    assert all(i.ok for i in rep.items)


def column(f, c):
    """f applied to basis vector c, as {row: scalar}."""
    return {r: v for (r, k), v in f.entries.items() if k == c}


@pytest.mark.parametrize("field", [QQ, F7], ids=["qq", "f7"])
def test_function_hopf_pointwise_formulas(field):
    """Fun(G) = k[G]* on the point indicators delta_g of S_3, where the
    order of the factors in ab = g matters: delta_g delta_h = [g = h]
    delta_g, 1 = sum of delta_g, Delta(delta_g) = sum over ab = g of
    delta_a (x) delta_b, eps(delta_g) = [g = e] and S(delta_g) =
    delta_{g^-1}."""
    elements = sorted(itertools.permutations(range(3)))
    op = lambda a, b: tuple(a[b[i]] for i in range(3))
    inv = lambda a: tuple(sorted(range(3), key=a.__getitem__))
    h = function_hopf(field, elements, op, inv)
    n = len(elements)
    index = {g: i for i, g in enumerate(elements)}
    e = index[(0, 1, 2)]
    assert column(h.unit, 0) == {i: 1 for i in range(n)}
    for g, i in index.items():
        for j in range(n):
            assert column(h.mult, i * n + j) == ({i: 1} if i == j else {})
        assert column(h.comult, i) == {
            index[a] * n + index[b]: 1 for a in elements for b in elements
            if op(a, b) == g}
        assert column(h.counit, i) == ({0: 1} if i == e else {})
        assert column(h.antipode, i) == {index[inv(g)]: 1}
    assert_all_pass(check_hopf(h))


def bumped_variants(h):
    """h, then h with one more at the first degree-preserving entry of
    each of its four (co)monoid structure maps in turn."""
    a, c = h.algebra, h.coalgebra
    V = h.space
    return [("exact", h),
            ("mult+1", HopfAlgebra(Algebra(V, bump(a.mult), a.unit), c,
                                   h.antipode)),
            ("unit+1", HopfAlgebra(Algebra(V, a.mult, bump(a.unit)), c,
                                   h.antipode)),
            ("comult+1", HopfAlgebra(a, Coalgebra(V, bump(c.comult),
                                                  c.counit), h.antipode)),
            ("counit+1", HopfAlgebra(a, Coalgebra(V, c.comult,
                                                  bump(c.counit)),
                                     h.antipode))]


LAW_HOPFS = {
    "z2_qq": lambda: cyclic_group_algebra(QQ, 2),
    "z3_qq": lambda: cyclic_group_algebra(QQ, 3),
    "sweedler_qq": lambda: sweedler_hopf(QQ),
    "fun_z2_qq": lambda: fun_z2(QQ),
    "superline_qq": lambda: superline(QQ),
    "braided_line_z3_f7": lambda: braided_line(F7, 3, F7.from_int(2)),
}


def as_tuples(items):
    return [(i.name, i.ok, i.details, i.witness) for i in items]


@pytest.mark.parametrize("name", sorted(LAW_HOPFS))
def test_comonoid_laws_are_the_monoid_laws_in_vect_op(name):
    """Each comonoid law is its monoid law read in Vect^op: the same items,
    name, verdict, details and witness, as the law written out in Vect, on
    exact and perturbed structures.  The braided line's braiding is not
    symmetric, and a map out of the braided tensor coalgebra (H (x) H)
    (x) H has two different tensor factors, so the order in which Vect^op
    hands `braided_compose` its halves and spaces shows."""
    failing = 0
    for variant, h in bumped_variants(LAW_HOPFS[name]()):
        where = "%s %s" % (name, variant)
        H = h.space
        idH = Morphism.identity(H)
        one = Morphism.identity(unit_space(H.group))
        k = Coalgebra(one.dom, one, one)
        hh = braided_tensor_coalgebra(h, h)
        mult2 = compose(h.mult, tensor(h.mult, idH))
        pairs = [
            (check_algebra(h.coalgebra, *COALGEBRA_NAMES, ops=VECT_OP).items,
             reference_check_coalgebra(h.coalgebra).items),
            (action_laws(h.comult, h, "coassoc", "counit", VECT_OP),
             reference_coaction_laws(h.comult, h, "coassoc", "counit")),
            (algebra_map_laws(h.mult, h, h, h, "comult", "counit", VECT_OP),
             reference_coalgebra_map_laws(h.mult, h, h, h, "comult",
                                          "counit")),
            (algebra_map_laws(mult2, h, hh, h, "comult", "counit", VECT_OP),
             reference_coalgebra_map_laws(mult2, h, hh, h, "comult",
                                          "counit")),
            (hom_laws(h.counit, k, h, "comult", "counit", VECT_OP),
             reference_coalgebra_hom_laws(h.counit, h, k, "comult",
                                          "counit")),
        ]
        for g in (idH, bump(idH), h.antipode,
                  compose(h.antipode, h.antipode)):
            pairs.append(
                (hom_laws(g, h, h, "comult", "counit", VECT_OP),
                 reference_coalgebra_hom_laws(g, h, h, "comult", "counit")))
        for mine, theirs in pairs:
            assert as_tuples(mine) == as_tuples(theirs), where
            failing += sum(not i.ok for i in mine)
        for act in (h.mult, tensor(idH, h.counit)):
            assert (coinvariants_of(act, h, VECT_OP)
                    == reference_invariants_of(act, h)), where
    assert failing > 0


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
