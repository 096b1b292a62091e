import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal import linalg
from hopfgal.bundle import (AlgebraBundle, CoalgebraBundle,
                            ComoduleAlgebra, ModuleCoalgebra,
                            _assemble_system,
                            canonical_map_linearity, check_comodule_algebra,
                            check_module_coalgebra, morphism_nullspace,
                            solve_morphism_system)
from hopfgal.corpus import default_root
from hopfgal.fields import QQ, PrimeField
from hopfgal.hopf import (VECT, VECT_OP, Algebra, HopfAlgebra,
                          coinvariants_of, unit_algebra)
from hopfgal.instances import parse_instance
from hopfgal.morphism import (FactorizationError, Morphism, coequaliser,
                              cokernel, compose, compose_tensor, cotensor,
                              dualize, factor_through_coequaliser,
                              factor_through_equaliser, is_isomorphism,
                              tensor, tensor_compose, tensor_over)
from hopfgal.report import Report, equality_check
from hopfgal.samples import (braided_line, cyclic_group_algebra,
                             free_z2_bundle, fun_z2, nonflat_bundle,
                             nonfree_z2_bundle, pair_groupoid_bundle,
                             set_action_bundle, superline, sweedler_hopf,
                             trivial_algebra_bundle, trivial_coalgebra_bundle)
from hopfgal.spaces import GradedSpace, GradingGroup, unit_space
from test_hopf import reference_coalgebra_hom_laws
from test_morphism import (ELIMINATION_GROUPS, GROUPS, difference,
                           graded_morphism, graded_space, nonzero_scalar)

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


def assert_unit_in_image(unit, iota, ops):
    """The (co)unit factors through the (co)invariants: unit = iota o u
    (in Vect^op, counit = u o Pi)."""
    u = ops.factor_through_equaliser(unit, iota)
    assert ops.compose(iota, u) == unit


def test_coinvariants_trivial_coaction():
    h = cyclic_group_algebra(QQ, 2)
    como = ComoduleAlgebra(h.algebra, h,
                           tensor(Morphism.identity(h.space), h.unit))
    B, iota = coinvariants_of(como.coaction, como.hopf, VECT)
    assert B == h.space and iota == Morphism.identity(h.space)
    assert_unit_in_image(como.algebra.unit, iota, VECT)


def test_coinvariants_regular_coaction():
    # P = H = QZ2 coacting by Delta: invariants are the span of 1
    b = trivial_algebra_bundle(cyclic_group_algebra(QQ, 2))
    B, iota = coinvariants_of(b.rho, b.H, VECT)
    assert B.dim == 1
    assert iota.dom == B and iota.cod == b.P.space
    assert_unit_in_image(b.P.unit, iota, VECT)


def test_coinvariants_free_action():
    b = free_z2_bundle(QQ)
    B, iota = coinvariants_of(b.rho, b.H, VECT)
    assert B.dim == 1
    assert_unit_in_image(b.P.unit, iota, VECT)


def test_invariants_base_regular_action():
    b = trivial_coalgebra_bundle(cyclic_group_algebra(QQ, 2))
    B, Pi = coinvariants_of(b.action, b.H, VECT_OP)
    assert B.dim == 1
    assert Pi.dom == b.P.space and Pi.cod == B
    assert_unit_in_image(b.P.counit, Pi, VECT_OP)


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


def translation_map(b):
    """h -> can^{-1}(1 (x) h) of an algebra-side bundle, or None when
    condition B fails."""
    inv = b.can_inverse()
    if inv is None:
        return None
    return tensor_compose(inv, [b.P.unit, Morphism.identity(b.H.space)])


def test_trivial_bundle_conditions():
    for h in sample_hopfs():
        b = trivial_algebra_bundle(h)
        assert b.condition_A().ok
        assert b.condition_B().ok
        # translation identity: can^{-1}(1 (x) h) = (S (x) id) Delta(h),
        # transported along the quotient P (x) P -> P (x)_B P
        _, Pi = b.p_tensor_p()
        idH = Morphism.identity(h.space)
        lhs = translation_map(b)
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


def truncated_polynomials(group, dim, degree=0):
    """k[x]/(x^dim) on the basis (1, x, ..., x^(dim-1)), x in `degree`."""
    A = GradedSpace(group, tuple(k * degree % group.n for k in range(dim)))
    mult = Morphism(A.tensor(A), A, {(i + j, i * dim + j): 1
                                     for i in range(dim)
                                     for j in range(dim - i)})
    return Algebra(A, mult, Morphism(unit_space(group), A, {(0, 0): 1}))


def unit_hopf(group):
    """H = 1, the monoidal unit of the category `group` grades and braids."""
    k = unit_algebra(group)
    return HopfAlgebra(k, k.dualize(), k.unit)


def power_extension_bundle(group, n, d):
    """P = k[x]/(x^n) with x in degree 1 over B = k[y]/(y^m), m = ceil(n/d),
    with pi(y) = x^d, H = k and rho = id."""
    h = unit_hopf(group)
    m = -(-n // d)
    P = truncated_polynomials(group, n, 1)
    B = truncated_polynomials(group, m, d)
    pi = Morphism(B.space, P.space, {(d * k, k): 1 for k in range(m)})
    return AlgebraBundle(ComoduleAlgebra(P, h, Morphism.identity(P.space)),
                         B, pi)


def condition_C_sides(b):
    """The condition-C report of b and of its dual, and the algebra-side
    bundle each one solves."""
    out = []
    for side in (b, b.dualize()):
        rep = Report()
        rep.extend(side.equivariant_projectivity())
        rep.extend(side.faithful_flatness())
        out.append((rep, side if isinstance(side, AlgebraBundle)
                    else side.dualize()))
    return out


@pytest.mark.parametrize("field", [QQ, F7])
def test_condition_C_on_truncated_polynomials_is_d_divides_n(field):
    # B is local, so P is projective over B exactly when it is free, which
    # it is exactly when d divides n; P always has the free summand B.1, so
    # the trace ideal is all of B
    for n in range(1, 7):
        for d in range(1, n + 1):
            b = power_extension_bundle(GradingGroup.trivial(field), n, d)
            free = n % d == 0
            sides = []
            for rep, solved in condition_C_sides(b):
                sides.append([(it.name, it.ok, it.details)
                              for it in rep.items])
                for name in ("C.equivariant_projective", "C.projective",
                             "C.faithfully_flat"):
                    assert rep[name].ok == free, (n, d, name)
                trace = rep["C.trace_ideal_full"]
                assert trace.ok and trace.details["trace_rank"] == -(-n // d)
                assert_condition_C_matches_the_reference(solved)
            assert sides[0] == sides[1], (n, d)


@pytest.mark.parametrize("group", [
    GradingGroup.cyclic(2, QQ, -1), GradingGroup.cyclic(3, F7, 2),
    GradingGroup.cyclic(6, F7, 3)], ids=repr)
def test_condition_C_on_graded_truncated_polynomials_is_d_divides_n(group):
    # x in degree 1 and y in degree d: P is graded free over B, on 1, x,
    # ..., x^(d-1), exactly when d divides n, and the sections are sums of
    # B-linear maps into B shifted by each of those degrees
    for n in range(1, 7):
        for d in range(1, n + 1):
            b = power_extension_bundle(group, n, d)
            for rep, solved in condition_C_sides(b):
                for name in ("C.equivariant_projective", "C.projective"):
                    assert rep[name].ok == (n % d == 0), (n, d, name)
                assert_condition_C_matches_the_reference(solved)
                assert_linear_maps_match_evaluation(solved)


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


def test_comonoid_side_coactions_are_memoised():
    b = free_z2_bundle(QQ).dualize()
    assert b.right_coaction() is b.right_coaction()
    assert b.left_coaction() is b.left_coaction()


def test_can_verdict_is_condition_B_s():
    for b in (free_z2_bundle(QQ), nonfree_z2_bundle(QQ)):
        verdict = b.can_verdict()
        item = b.condition_B()["B.can_bijective"]
        assert verdict.is_iso == item.ok
        assert verdict.cokernel_dim == item.details["corank"]
        assert b.can_inverse() is verdict.inverse
    assert nonfree_z2_bundle(QQ).can_inverse() is None


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


# -- condition A when the (co)invariants are no sub(co)algebra ---------------

def truncated_polynomial_bundle():
    """P = QQ[x]/(x^3) with x^2 put in degree 1 under the coaction of QZ_2,
    base k and pi the unit.  rho is no algebra map, so the coinvariants
    span{1, x} are no subalgebra, but pi lands in them."""
    h = cyclic_group_algebra(QQ, 2)
    P = truncated_polynomials(h.space.group, 3)
    rho = Morphism(P.space, P.space.tensor(h.space),
                   {(0, 0): 1, (2, 1): 1, (5, 2): 1})
    return AlgebraBundle(ComoduleAlgebra(P, h, rho),
                         truncated_polynomials(h.space.group, 1), P.unit)


def test_condition_A_compares_with_coinvariants_that_are_no_subalgebra():
    rep = truncated_polynomial_bundle().condition_A()
    assert rep["A.pi_equalises"].ok
    item = rep["A.comparison_iso"]
    assert not item.ok
    assert item.details == {"rank": 1, "kernel_dim": 0, "cokernel_dim": 1}


def test_condition_A_compares_with_invariants_that_are_no_quotient_coalgebra():
    rep = truncated_polynomial_bundle().dualize().condition_A()
    assert rep["A.pi_coequalises"].ok
    item = rep["A.comparison_iso"]
    assert not item.ok
    assert item.details == {"rank": 1, "kernel_dim": 1, "cokernel_dim": 0}


# -- the comonoid side against its hand-dualised pipeline -------------------
#
# The comonoid side's maps used to be written out in Vect, each the mirror
# image of an algebra-side one.  Those methods are kept here as the
# reference that the shared pipeline, read in Vect^op, reproduces entry for
# entry.

def reference_right_coaction(b):
    """P -> P (x) B through pi."""
    return compose_tensor([Morphism.identity(b.modc.space), b.pi],
                          b.P.comult)


def reference_left_coaction(b):
    """P -> B (x) P through pi."""
    return compose_tensor([b.pi, Morphism.identity(b.modc.space)],
                          b.P.comult)


def reference_p_cotensor_p(b):
    return cotensor(reference_right_coaction(b), reference_left_coaction(b))


def reference_canonical_map(b):
    idP, idH = Morphism.identity(b.modc.space), Morphism.identity(b.H.space)
    composite = compose_tensor([idP, b.action], tensor(b.P.comult, idH))
    _, iota = reference_p_cotensor_p(b)
    return factor_through_equaliser(composite, iota)


def reference_base_laws(b):
    idP = Morphism.identity(b.modc.space)
    return reference_coalgebra_hom_laws(b.pi, b.P, b.base, "A.pi_comult",
                                        "A.pi_counit") + [
        equality_check("A.pi_coequalises", compose(b.pi, b.action),
                       tensor_compose(b.pi, [idP, b.H.counit]))]


def reference_comparison_map(b):
    """pi factored through the coequaliser of id (x) eps and the action."""
    idP = Morphism.identity(b.modc.space)
    _, Pi0 = coequaliser(tensor(idP, b.H.counit), b.action)
    return factor_through_coequaliser(b.pi, Pi0)


def reference_linearity_sides(b):
    idP, idH = Morphism.identity(b.modc.space), Morphism.identity(b.H.space)
    _, iota = reference_p_cotensor_p(b)
    can = reference_canonical_map(b)
    lcoact = factor_through_equaliser(
        compose_tensor([b.P.comult, idP], iota), tensor(idP, iota))
    ract = factor_through_equaliser(
        compose_tensor([idP, b.action], tensor(iota, idH)), iota)
    return ((compose(lcoact, can),
             compose_tensor([idP, can], tensor(b.P.comult, idH))),
            (tensor_compose(can, [idP, b.H.mult]),
             tensor_compose(ract, [can, idH])))


def reference_condition_A(b):
    rep = Report(reference_base_laws(b))
    try:
        phi = reference_comparison_map(b)
    except FactorizationError:
        return rep.add("A.comparison_iso", False,
                       details={"reason": "pi does not factor the quotient"})
    inv = is_isomorphism(phi)
    return rep.add("A.comparison_iso", inv.is_iso,
                   details={"rank": inv.rank, "kernel_dim": inv.kernel_dim,
                            "cokernel_dim": inv.cokernel_dim})


def reference_condition_B(b):
    rep = Report()
    try:
        can = reference_canonical_map(b)
    except FactorizationError as err:
        return rep.add("B.can_bijective", False, details={"reason": str(err)})
    inv = is_isomorphism(can)
    return rep.add("B.can_bijective", inv.is_iso,
                   details={"rank": inv.rank, "kernel_dim": inv.kernel_dim,
                            "corank": inv.cokernel_dim, "dim_dom": can.dom.dim,
                            "dim_cod": can.cod.dim},
                   witness=inv.kernel_inclusion)


def reference_linearity(b):
    names = ("can_left_P_colinear", "can_right_H_linear")
    rep = Report()
    try:
        sides = reference_linearity_sides(b)
    except FactorizationError as err:
        for name in names:
            rep.add(name, False, details={"reason": str(err)})
        return rep
    for name, (lhs, rhs) in zip(names, sides):
        rep.items.append(equality_check(name, lhs, rhs))
    return rep


def outcome(build):
    """build()'s value, or the FactorizationError's message it raises."""
    try:
        return build()
    except FactorizationError as err:
        return "FactorizationError: %s" % err


def comonoid_bundles():
    """name -> comonoid-side bundle: the two comonoid samples and corpus
    entries, the dual of every algebra-side corpus bundle, and set-action
    bundles read on the comonoid side."""
    out = {"trivial_coalgebra_%d" % k: trivial_coalgebra_bundle(h)
           for k, h in enumerate(sample_hopfs())}
    out["pair_groupoid_qq"] = pair_groupoid_bundle(QQ)
    root = default_root()
    for entry in sorted(os.listdir(root)):
        with open(os.path.join(root, entry, "instance.txt"),
                  encoding="utf-8") as fh:
            inst = parse_instance(fh.read())
        for key, b in inst.bundles.items():
            out["corpus_%s_%s" % (entry, key)] = (
                b if isinstance(b, CoalgebraBundle) else b.dualize())
    for name, build in SAMPLE_BUNDLES.items():
        if name.startswith("set_action"):
            out[name] = build().dualize()
    for suffix, field in (("qq", QQ), ("f7", F7)):
        out["free_z2_" + suffix] = free_z2_bundle(field).dualize()
        out["nonfree_z2_" + suffix] = nonfree_z2_bundle(field).dualize()
    return out


def test_comonoid_side_is_the_algebra_side_in_vect_op():
    bundles = comonoid_bundles()
    assert "corpus_trivial_braided_line_f7_main" in bundles
    assert "corpus_mc_trivial_z2_main" in bundles
    for name, b in bundles.items():
        assert b.right_coaction() == reference_right_coaction(b), name
        assert b.left_coaction() == reference_left_coaction(b), name
        assert b.p_cotensor_p() == reference_p_cotensor_p(b), name
        assert (outcome(b.canonical_map)
                == outcome(lambda: reference_canonical_map(b))), name
        assert (outcome(b._comparison_map)
                == outcome(lambda: reference_comparison_map(b))), name
        assert (outcome(b.linearity_sides)
                == outcome(lambda: reference_linearity_sides(b))), name
        for mine, theirs in (
                (b.condition_A(), reference_condition_A(b)),
                (b.condition_B(), reference_condition_B(b)),
                (canonical_map_linearity(b), reference_linearity(b))):
            assert mine.render() == theirs.render(), name


# -- differential tests: term-built systems against per-unknown evaluation --

def term_callable(terms):
    """The linear map on s that a term list stands for, built from
    compose and tensor: the sum of c * f o T(s) o g."""
    def lin(s):
        total = None
        for c, f, X, Y, g in terms:
            t = s
            if X is not None:
                t = tensor(Morphism.identity(X), t)
            if Y is not None:
                t = tensor(t, Morphism.identity(Y))
            v = compose(t, g) if f is None else compose(f, compose(t, g))
            if total is None:
                total = Morphism.zero(v.dom, v.cod)
            total = difference(total, Morphism(
                v.dom, v.cod, {k: -c * x for k, x in v.entries.items()}))
        return total
    return lin


def assemble_by_evaluation(dom, cod, equations):
    """The reference for `_assemble_system`: evaluate each equation's linear
    callable on the basis morphism of every degree-matched unknown and
    scatter the image into that unknown's column.  Returns (positions, A, b)
    with dense rows; equations are (callable, rhs) pairs."""
    positions = [(i, j) for i in range(cod.dim) for j in range(dom.dim)
                 if cod.degrees[i] == dom.degrees[j]]
    n = len(positions)
    blocks = [[[0] * n for _ in range(rhs.cod.dim * rhs.dom.dim)]
              for _, rhs in equations]
    for k, (i, j) in enumerate(positions):
        basis = Morphism(dom, cod, {(i, j): 1})
        for (lin, rhs), block in zip(equations, blocks):
            width = rhs.dom.dim
            for (r, c), v in lin(basis).entries.items():
                block[r * width + c][k] = v
    A, b = [], []
    for (_, rhs), block in zip(equations, blocks):
        width = rhs.dom.dim
        rhs_rows = [[0] for _ in block]
        for (r, c), v in rhs.entries.items():
            rhs_rows[r * width + c][0] = v
        A.extend(block)
        b.extend(rhs_rows)
    return positions, A, b


def assembled_rows(dom, cod, equations, entries):
    """`_assemble_system`'s (n, rows, forced), after checking that n is the
    right-hand side's column cod.dim * dom.dim, that forced holds only
    unknowns (the degree-matched entries listed in `entries`), and that
    the rows hold only nonzero canonical scalars, ascending in row and in
    column, in the right-hand side's column or a live unknown's."""
    p = dom.field.characteristic
    n, rows, forced = _assemble_system(dom, cod, equations)
    assert n == cod.dim * dom.dim
    unknowns = set(entries)
    assert forced <= unknowns
    m = sum(rhs.cod.dim * rhs.dom.dim for _, rhs in equations)
    assert list(rows) == sorted(rows) and all(0 <= r < m for r in rows)
    for row in rows.values():
        assert row and list(row) == sorted(row)
        for k, v in row.items():
            assert (k == n or k in unknowns and k not in forced) and v
            if p:
                assert type(v) is int and 0 < v < p
            else:
                assert type(v) is int or (
                    type(v) is Fraction and v.denominator > 1)
    return n, rows, forced


def dense_pivot_rows(field, A, b):
    """The pivot rows of the dense oracle's RREF of [A | b], as
    {pivot column: {column: nonzero scalar}}."""
    R, pivots = linalg.rref(field, [a + c for a, c in zip(A, b)])
    return {c: {j: v for j, v in enumerate(row) if v}
            for c, row in zip(pivots, R)}


def check_against_evaluation(dom, cod, equations):
    """The term-built system has the reference's unknowns and, presolved,
    with the unit row {k: 1} of each forced unknown k added back, the
    canonical RREF of the reference's [A | b], once the reference's column
    of unknown (i, j) is renamed i * dom.dim + j and b's is renamed n; its
    solution and its nullspace equal the reference's.  Returns (entries,
    rows, forced, A, b), with entries[k] the column of reference unknown k."""
    reference = [(term_callable(terms), rhs) for terms, rhs in equations]
    positions, A, b = assemble_by_evaluation(dom, cod, reference)
    entries = [i * dom.dim + j for i, j in positions]
    n, rows, forced = assembled_rows(dom, cod, equations, entries)
    field = dom.field
    pivot_rows = linalg.rref_rows(field, [dict(row) for row in rows.values()])
    assert pivot_rows.keys().isdisjoint(forced)
    pivot_rows.update({k: {k: 1} for k in forced})
    column = entries + [n]
    assert pivot_rows == {
        column[c]: {column[j]: v for j, v in row.items()}
        for c, row in dense_pivot_rows(field, A, b).items()}
    X = linalg.solve(field, A, b)
    expected = None if X is None else Morphism(
        dom, cod, {ij: x[0] for ij, x in zip(positions, X)})
    assert solve_morphism_system(dom, cod, equations) == expected
    basis = [Morphism(dom, cod, dict(zip(positions, v)))
             for v in linalg.kernel_basis(field, A, ncols=len(positions))]
    assert morphism_nullspace(dom, cod, equations) == basis
    return entries, rows, forced, A, b


def _shift_action(n, k):
    return lambda x, g: (x + k * g) % n


def zero_pi_bundle():
    """QZ_2 over B = QQ with pi = 0: B acts on P by zero, so the only
    B-linear map P -> B is zero, and K = 0."""
    b = trivial_algebra_bundle(cyclic_group_algebra(QQ, 2))
    k = truncated_polynomials(b.P.space.group, 1)
    return AlgebraBundle(b.como, k, Morphism.zero(k.space, b.P.space))


SAMPLE_BUNDLES = {
    "sweedler_qq": lambda: trivial_algebra_bundle(sweedler_hopf(QQ)),
    "sweedler_f7_comonoid":
        lambda: trivial_coalgebra_bundle(sweedler_hopf(F7)).dualize(),
    "superline_qq": lambda: trivial_algebra_bundle(superline(QQ)),
    "superline_f7_comonoid":
        lambda: trivial_coalgebra_bundle(superline(F7)).dualize(),
    "braided_line_z3_f7": lambda: trivial_algebra_bundle(
        braided_line(F7, 3, F7.from_int(2))),
    # free Z_2-action x -> x + 2g on Z_4: two orbits, so B has dim 2
    "set_action_free_x4_qq": lambda: set_action_bundle(
        QQ, [0, 1, 2, 3], [0, 1], _shift_action(2, 1), lambda a: a,
        _shift_action(4, 2)),
    # Z_2 swapping 1 and 2 and fixing 0: not free
    "set_action_nonfree_x3_f5": lambda: set_action_bundle(
        PrimeField(5), [0, 1, 2], [0, 1], _shift_action(2, 1), lambda a: a,
        lambda x, g: x if x == 0 or g == 0 else 3 - x),
    "nonflat_qq": lambda: nonflat_bundle(QQ),
    "zero_pi_qq": zero_pi_bundle,
}


# -- Condition C against the system it replaced ------------------------------
#
# The section used to be solved as the unknown s: P -> B (x) P itself, with
# its B-linearity as a block of its own.  That system is kept here as the
# reference the solve for C in s = (id_B (x) C) o Phi reproduces, verdict
# for verdict.

def reference_projectivity_equations(b, colinear):
    """Linear conditions on a section s: P -> B (x) P of the left action:
    q s = id, s q = (m_B (x) id)(id_B (x) s) and, when colinear,
    (id_B (x) rho) s = (s (x) id_H) rho."""
    P, B, H = b.como.space, b.base.space, b.H.space
    BP = B.tensor(P)
    idP, idB, idBP = (Morphism.identity(V) for V in (P, B, BP))
    q = b.left_action()
    eqs = [
        ([(1, q, None, None, idP)], idP),
        ([(1, idBP, None, None, q),
          (-1, tensor(b.base.mult, idP), B, None, idBP)],
         Morphism.zero(BP, BP)),
    ]
    if colinear:
        eqs.append(
            ([(1, tensor(idB, b.rho), None, None, idP),
              (-1, Morphism.identity(BP.tensor(H)), None, H, b.rho)],
             Morphism.zero(P, BP.tensor(H))))
    return eqs


def assert_condition_C_matches_the_reference(b):
    """b has a colinear section, and a section, exactly when the reference
    system has one, each section b solves for solves the reference system,
    and the report's witnesses are those sections."""
    P = b.como.space
    BP = b.base.space.tensor(P)
    found = {}
    for colinear in (True, False):
        equations = reference_projectivity_equations(b, colinear)
        expected = solve_morphism_system(P, BP, equations)
        s = found[colinear] = b._solve_section(colinear)
        assert (s is None) == (expected is None), colinear
        if s is not None:
            for terms, rhs in equations:
                assert term_callable(terms)(s) == rhs, colinear
    assert b.section() == found[True]
    assert b.equivariant_projectivity()[
        "C.equivariant_projective"].witness == found[True]
    projective = b.faithful_flatness()["C.projective"]
    assert projective.ok == (found[False] is not None)
    if found[True] is None:
        assert projective.witness == found[False]


def reference_linear_maps(b, delta):
    """The basis of the left B-linear maps f: P -> B (x) k_delta, k_delta
    the line of degree delta, read off the per-unknown evaluation of
    f q - (m_B (x) id)(id_B (x) f)."""
    P, B = b.como.space, b.base.space
    line = GradedSpace(P.group, (delta,))
    shifted = B.tensor(line)
    m = tensor(b.base.mult, Morphism.identity(line))
    q, idB = b.left_action(), Morphism.identity(B)
    positions, A, _ = assemble_by_evaluation(P, shifted, [(
        lambda f: difference(compose(f, q), compose(m, tensor(idB, f))),
        Morphism.zero(B.tensor(P), shifted))])
    return [Morphism(P, shifted, dict(zip(positions, v)))
            for v in linalg.kernel_basis(P.field, A, ncols=len(positions))]


def assert_linear_maps_match_evaluation(b):
    """b.b_linear_maps() holds the reference basis for delta = 0 and each
    degree of P, and Phi: P -> B (x) K stacks it: the a-th map is Phi
    followed by id_B (x) the a-th coordinate of K."""
    P, B = b.como.space, b.base.space
    maps, K, Phi = b.b_linear_maps()
    assert maps == {delta: reference_linear_maps(b, delta)
                    for delta in sorted({0, *P.degrees})}
    stacked = [(delta, f) for delta in maps for f in maps[delta]]
    assert K.degrees == tuple(delta for delta, _ in stacked)
    idB = Morphism.identity(B)
    for a, (delta, f) in enumerate(stacked):
        coordinate = Morphism(K, GradedSpace(P.group, (delta,)), {(0, a): 1})
        assert compose_tensor([idB, coordinate], Phi) == f


def corpus_bundles():
    """'entry.key' -> each bundle of the corpus instances, on the side its
    instance declares."""
    root = default_root()
    out = {}
    for entry in sorted(os.listdir(root)):
        with open(os.path.join(root, entry, "instance.txt"),
                  encoding="utf-8") as fh:
            inst = parse_instance(fh.read())
        for key, b in sorted(inst.bundles.items()):
            out[entry + "." + key] = b
    return out


def algebra_side(b):
    return b if isinstance(b, AlgebraBundle) else b.dualize()


def test_condition_C_matches_the_reference_system():
    bundles = [build() for build in SAMPLE_BUNDLES.values()]
    bundles.extend(algebra_side(b) for b in corpus_bundles().values())
    assert len(bundles) == len(SAMPLE_BUNDLES) + 11
    assert SAMPLE_BUNDLES["zero_pi_qq"]().b_linear_maps()[1].dim == 0
    for b in bundles:
        assert_condition_C_matches_the_reference(b)
        assert_linear_maps_match_evaluation(b)


def test_condition_C_systems_match_per_unknown_evaluation():
    for name, build in SAMPLE_BUNDLES.items():
        b = build()
        P, B = b.como.space, b.base.space
        BP = B.tensor(P)
        _, K, _ = b.b_linear_maps()
        for colinear in (True, False):
            reference = check_against_evaluation(
                P, BP, reference_projectivity_equations(b, colinear))
            forced = assert_forced_are_dropped(*reference)
            if name.startswith("set_action"):
                assert forced
            check_against_evaluation(K, P, b._section_equations(colinear))
        if name.startswith("superline"):
            # the odd basis vector of P meets no even one of B (x) P
            assert len(reference[0]) < P.dim * BP.dim


def leg_spaces(X, Y, dom, cod):
    """T's domain and codomain for T(s) = id_X (x) s (x) id_Y."""
    if X is not None:
        dom, cod = X.tensor(dom), X.tensor(cod)
    if Y is not None:
        dom, cod = dom.tensor(Y), cod.tensor(Y)
    return dom, cod


@st.composite
def legs(draw, group):
    """The legs (X, Y) of a term: none, either or both."""
    return tuple(draw(graded_space(group, 2)) if draw(st.booleans()) else None
                 for _ in range(2))


@st.composite
def random_block(draw, group, dom, cod):
    """One equation of 1-3 random terms, each with no leg, a left, a right
    or both legs, between random graded spaces.  Sometimes the output is
    the first term's T(s) codomain, and a term with that codomain may then
    have f = None, the identity."""
    term_legs = [draw(legs(group)) for _ in range(draw(st.integers(1, 3)))]
    out_dom, out_cod = draw(graded_space(group)), draw(graded_space(group))
    if draw(st.booleans()):
        out_cod = leg_spaces(*term_legs[0], dom, cod)[1]
    terms = []
    for X, Y in term_legs:
        t_dom, t_cod = leg_spaces(X, Y, dom, cod)
        c = draw(st.sampled_from([1, -1, 2, -3]))
        f = (None if t_cod == out_cod and draw(st.booleans())
             else draw(graded_morphism(t_cod, out_cod)))
        terms.append((c, f, X, Y, draw(graded_morphism(out_dom, t_dom))))
    return terms, draw(graded_morphism(out_dom, out_cod))


@st.composite
def term_system(draw):
    """An unknown's endpoints and one or two random equations."""
    group = draw(st.sampled_from(GROUPS))
    dom, cod = draw(graded_space(group)), draw(graded_space(group))
    return dom, cod, [draw(random_block(group, dom, cod))
                      for _ in range(draw(st.integers(1, 2)))]


@settings(max_examples=60, deadline=None)
@given(term_system())
def test_random_term_systems_match_per_unknown_evaluation(system):
    check_against_evaluation(*system)


# -- presolve: systems with planted one-unknown rows --------------------------
#
# Random term systems almost never hold a row with one unknown, so the
# blocks below plant them: f has one nonzero in each row and g one in each
# column, and each entry of f o T(s) o g is then one unknown times a scalar.

def forced_unknowns(A, b):
    """The unknowns a homogeneous one-unknown row of the full [A | b]
    forces to zero."""
    return {next(k for k, v in enumerate(a) if v) for a, c in zip(A, b)
            if not c[0] and sum(1 for v in a if v) == 1}


def assert_forced_are_dropped(entries, rows, forced, A, b):
    """Each unknown a one-unknown row of the full system forces is in
    forced, and no assembled row holds a forced column; returns how many
    the full system forces."""
    expected = {entries[k] for k in forced_unknowns(A, b)}
    assert expected <= forced
    assert not any(k in forced for row in rows.values() for k in row)
    return len(expected)


@st.composite
def selector(draw, dom, cod, by_row):
    """A degree-preserving dom -> cod with at most one nonzero in each row
    (by_row) or in each column; two of them may pick the same place."""
    value = nonzero_scalar(dom.field)
    outer, inner = (cod, dom) if by_row else (dom, cod)
    entries = {}
    for a, d in enumerate(outer.degrees):
        choices = [b for b, e in enumerate(inner.degrees) if e == d]
        if choices and draw(st.integers(0, 3)):
            b = draw(st.sampled_from(choices))
            entries[(a, b) if by_row else (b, a)] = draw(value)
    return Morphism(dom, cod, entries)


@st.composite
def planted_block(draw, group, dom, cod):
    """One equation c * f o T(s) o g = rhs whose rows hold one unknown at
    most: entry (r, col) is f[r, (x, i, y)] * g[(x, j, y), col] * s_ij for
    the one (x, i, y) and (x, j, y) that f and g pick; f may be None, the
    identity.  rhs is zero but at a few entries, so most of those rows
    force their unknown and some do not."""
    X, Y = draw(legs(group))
    t_dom, t_cod = leg_spaces(X, Y, dom, cod)
    out_dom, out_cod = draw(graded_space(group)), draw(graded_space(group))
    if draw(st.booleans()):
        out_cod, f = t_cod, None
    else:
        f = draw(selector(t_cod, out_cod, True))
    g = draw(selector(out_dom, t_dom, False))
    rhs = draw(graded_morphism(out_dom, out_cod))
    rhs = Morphism(out_dom, out_cod, {
        key: v for key, v in rhs.entries.items() if not draw(st.integers(0, 3))})
    c = draw(st.sampled_from([1, -1, 2, -3]))
    return [(c, f, X, Y, g)], rhs


@st.composite
def planted_system(draw):
    """2-3 blocks over QQ, F_2 or F_101, trivially or Z_n graded, at least
    one of them planted, in any place."""
    group = draw(st.sampled_from(ELIMINATION_GROUPS))
    dom, cod = draw(graded_space(group)), draw(graded_space(group))
    kinds = draw(st.lists(st.booleans(), min_size=2, max_size=3).filter(any))
    return dom, cod, [draw(planted_block(group, dom, cod)) if planted
                      else draw(random_block(group, dom, cod))
                      for planted in kinds]


@settings(max_examples=100, deadline=None)
@given(planted_system())
def test_presolved_systems_match_per_unknown_evaluation(system):
    assert_forced_are_dropped(*check_against_evaluation(*system))


def test_assembly_rejects_a_term_with_wrong_endpoints():
    b = SAMPLE_BUNDLES["set_action_free_x4_qq"]()
    _, K, _ = b.b_linear_maps()
    P, BP = b.como.space, b.base.space.tensor(b.como.space)
    (terms, _), = b._section_equations(colinear=False)
    with pytest.raises(TypeError):
        _assemble_system(K, P, [(terms, Morphism.zero(P, BP))])


# -- Galois implies condition C ----------------------------------------------

C_ITEMS = ("C.equivariant_projective", "C.projective", "C.trace_ideal_full",
           "C.faithfully_flat")


def test_galois_implies_condition_C():
    """Over a finite-dimensional H, an H-Galois extension with B = P^coH is
    a finitely generated projective generator over B, hence faithfully flat
    (Kreimer-Takeuchi, Indiana Univ. Math. J. 30, 1981), and H's antipode
    is bijective, so it is equivariantly projective too.  So when every
    A-item and B.can_bijective pass, all four C-items must pass.  Under the
    trivial grading Z_1 this is a theorem; under a Z_n grading it is only
    an observation on these bundles, with no claim of proof."""
    bundles = {name: build() for name, build in SAMPLE_BUNDLES.items()}
    bundles.update((name, algebra_side(b))
                   for name, b in corpus_bundles().items())
    assert len(bundles) == len(SAMPLE_BUNDLES) + 11
    orders = []  # of the grading group of each Galois bundle
    for name, b in bundles.items():
        if not (b.condition_A().ok and b.condition_B().ok):
            continue
        orders.append(b.P.space.group.n)
        rep = Report().extend(b.equivariant_projectivity()).extend(
            b.faithful_flatness())
        assert [rep[item].ok for item in C_ITEMS] == [True] * 4, name
    # both the theorem (Z_1) and the graded observation are exercised
    assert 1 in orders and max(orders) > 1


# -- certificates that composition alone checks ------------------------------
#
# Each verdict is checked with `compose`, `compose_tensor`, `tensor` and
# `==` only, so the check does not rest on the elimination, the presolve or
# the factorisation shortcuts that produced the witness (McConnell,
# Mehlhorn, Naeher & Schweitzer, "Certifying algorithms", Computer Science
# Review 5, 2011).

def has_unit_rows(f):
    """Whether each column of f has a row whose only nonzero is a 1 there,
    which makes f injective."""
    rows = {}
    for (i, j), v in f.entries.items():
        rows.setdefault(i, []).append((j, v))
    units = {line[0][0] for line in rows.values()
             if len(line) == 1 and line[0][1] == 1}
    return units == set(range(f.dom.dim))


def has_unit_columns(f):
    """Whether each row of f has a column whose only nonzero is a 1 there,
    which makes f surjective."""
    return has_unit_rows(dualize(f))


def assert_certified(b, name):
    """The composition certificates of b's verdicts on conditions A, B
    and, on the algebra side, C.  Returns the verdicts it certified.

    A failing C has no certificate: it stays on the dense reference
    (`reference_projectivity_equations`).  A failing B whose can is
    injective is certified by the projection `cokernel(can)` that
    `principal` prints as `can_defect_cokernel`.
    """
    certified = []
    if b.condition_A().ok:
        phi = b._comparison_map()
        inv = is_isomorphism(phi).inverse
        assert compose(phi, inv) == Morphism.identity(phi.cod), name
        assert compose(inv, phi) == Morphism.identity(phi.dom), name
        certified.append("A")
    verdict = b.can_verdict()
    if verdict is not None:
        can = b.canonical_map()
        if verdict.is_iso:
            inv = verdict.inverse
            assert compose(can, inv) == Morphism.identity(can.cod), name
            assert compose(inv, can) == Morphism.identity(can.dom), name
            certified.append("B pass")
        elif verdict.kernel_dim:
            iota = verdict.kernel_inclusion
            assert has_unit_rows(iota), name
            assert compose(can, iota) == Morphism.zero(iota.dom, can.cod), name
            certified.append("B fail")
        else:
            Q, y = cokernel(can)
            assert Q.dim == verdict.cokernel_dim > 0, name
            assert has_unit_columns(y), name
            assert compose(y, can) == Morphism.zero(can.dom, Q), name
            certified.append("B fail (cokernel)")
    if isinstance(b, AlgebraBundle):
        P, B, H = b.como.space, b.base.space, b.H.space
        idP, idB = Morphism.identity(P), Morphism.identity(B)
        q = b.left_action()
        sections = [(b.section(), True),
                    (b.faithful_flatness()["C.projective"].witness, False)]
        for s, colinear in sections:
            if s is None:
                continue
            assert compose(q, s) == idP, name
            # s is B-linear: s q = (m_B (x) id_P)(id_B (x) s)
            assert compose(s, q) == compose_tensor(
                [b.base.mult, idP], tensor(idB, s)), name
            if colinear:
                assert compose_tensor([idB, b.rho], s) == compose_tensor(
                    [s, Morphism.identity(H)], b.rho), name
                certified.append("C pass")
    return certified


def test_verdicts_carry_composition_certificates():
    # each bundle on both sides: a non-free action's can is injective on
    # the algebra side, and its dual on the comonoid side has a kernel
    bundles = {name: build() for name, build in SAMPLE_BUNDLES.items()}
    bundles.update(corpus_bundles())
    assert len(bundles) == len(SAMPLE_BUNDLES) + 11
    certified = set()
    for name, b in bundles.items():
        certified.update(assert_certified(b, name))
        certified.update(assert_certified(b.dualize(), name + " dualised"))
    assert certified == {"A", "B pass", "B fail", "B fail (cokernel)",
                         "C pass"}


# Z_|G| acting on X = Z_|X|: free by x -> x + (|X|/|G|) g, not free by
# x -> -x, which fixes 0 (and |X|/2 when |X| is even)
SET_ACTION_FAMILY = {
    "free_z4_x8": (8, 4, _shift_action(8, 2)),
    "free_z4_x12": (12, 4, _shift_action(12, 3)),
    "free_z3_x9": (9, 3, _shift_action(9, 3)),
    "nonfree_z2_x6": (6, 2, lambda x, g: -x % 6 if g else x),
    "nonfree_z2_x7": (7, 2, lambda x, g: -x % 7 if g else x),
}


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["qq", "f101"])
def test_set_action_family_carries_composition_certificates(field):
    # a free action's can is invertible on both sides; a non-free action's
    # is injective on the algebra side, and its dual has a kernel
    for name, (npoints, ngroup, act) in SET_ACTION_FAMILY.items():
        b = set_action_bundle(field, list(range(npoints)),
                              list(range(ngroup)), _shift_action(ngroup, 1),
                              lambda a: -a % ngroup, act)
        failing = name.startswith("nonfree")
        assert assert_certified(b, name) == [
            "A", "B fail (cokernel)" if failing else "B pass", "C pass"]
        assert assert_certified(b.dualize(), name + " dualised") == [
            "A", "B fail" if failing else "B pass"]
