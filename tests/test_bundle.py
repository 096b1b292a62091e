from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal import linalg
from hopfgal.bundle import (LEFT, RIGHT, AlgebraBundle, ComoduleAlgebra,
                            ModuleCoalgebra, _assemble_system,
                            canonical_map_linearity, check_comodule_algebra,
                            check_module_coalgebra, coinvariants,
                            invariants_base, morphism_nullspace,
                            solve_morphism_system)
from hopfgal.fields import QQ, PrimeField
from hopfgal.morphism import (Morphism, compose, cotensor, dualize,
                              factor_through_equaliser, tensor, tensor_over)
from hopfgal.samples import (braided_line, cyclic_group_algebra,
                             free_z2_bundle, fun_z2, nonflat_bundle,
                             nonfree_z2_bundle, s3_group_algebra,
                             set_action_bundle, superline, sweedler_hopf,
                             trivial_algebra_bundle, trivial_coalgebra_bundle,
                             unit_algebra)
from test_morphism import GROUPS, graded_morphism, graded_space

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


# -- differential tests: term-built systems against per-unknown evaluation --

def term_callable(terms):
    """The linear map on s that a term list stands for, built from
    compose and tensor: the sum of c * f o T(s) o g."""
    def lin(s):
        total = None
        for c, f, X, side, g in terms:
            if X is None:
                t = s
            elif side == LEFT:
                t = tensor(Morphism.identity(X), s)
            else:
                t = tensor(s, Morphism.identity(X))
            v = compose(f, compose(t, g)).scale(s.field.from_int(c))
            total = v if total is None else total + v
        return total
    return lin


def assemble_by_evaluation(dom, cod, equations):
    """The reference for `_assemble_system`: evaluate each equation's linear
    callable on the basis morphism of every degree-matched unknown and
    scatter the image into that unknown's column.  Returns (positions, A, b)
    with dense rows; equations are (callable, rhs) pairs."""
    field = dom.field
    positions = [(i, j) for i in range(cod.dim) for j in range(dom.dim)
                 if cod.degrees[i] == dom.degrees[j]]
    one, zero = field.one(), field.zero()
    n = len(positions)
    blocks = [[[zero] * n for _ in range(rhs.cod.dim * rhs.dom.dim)]
              for _, rhs in equations]
    for k, (i, j) in enumerate(positions):
        basis = Morphism(dom, cod, {(i, j): one})
        for (lin, rhs), block in zip(equations, blocks):
            width = rhs.dom.dim
            for (r, c), v in lin(basis).entries.items():
                block[r * width + c][k] = v
    A, b = [], []
    for (_, rhs), block in zip(equations, blocks):
        width = rhs.dom.dim
        rhs_rows = [[zero] for _ in block]
        for (r, c), v in rhs.entries.items():
            rhs_rows[r * width + c][0] = v
        A.extend(block)
        b.extend(rhs_rows)
    return positions, A, b


def assembled_dense(dom, cod, equations):
    """`_assemble_system`'s sparse rows as the reference's (positions, A, b),
    after checking they hold only nonzero scalars in ascending rows."""
    field = dom.field
    p = field.characteristic
    positions, rows = _assemble_system(dom, cod, equations)
    n = len(positions)
    m = sum(rhs.cod.dim * rhs.dom.dim for _, rhs in equations)
    assert list(rows) == sorted(rows) and all(0 <= r < m for r in rows)
    zero = field.zero()
    A = [[zero] * n for _ in range(m)]
    b = [[zero] for _ in range(m)]
    for r, row in rows.items():
        assert row
        for k, v in row.items():
            assert 0 <= k <= n and v
            if p:
                assert type(v) is int and 0 < v < p
            else:
                assert type(v) is int or (
                    type(v) is Fraction and v.denominator > 1)
            if k == n:
                b[r][0] = v
            else:
                A[r][k] = v
    return positions, A, b


def check_against_evaluation(dom, cod, equations):
    """The term-built system, its solution and its nullspace equal the
    reference's; returns the positions."""
    reference = [(term_callable(terms), rhs) for terms, rhs in equations]
    positions, A, b = assemble_by_evaluation(dom, cod, reference)
    assert assembled_dense(dom, cod, equations) == (positions, A, b)
    field = dom.field
    n = len(positions)
    X = linalg.solve(field, A, b)
    expected = None if X is None else Morphism(
        dom, cod, {positions[k]: X[k][0] for k in range(n)})
    assert solve_morphism_system(dom, cod, equations) == expected
    basis = [Morphism(dom, cod, {positions[k]: v[k] for k in range(n)})
             for v in linalg.kernel_basis(field, A, ncols=n)]
    assert morphism_nullspace(dom, cod, equations) == basis
    return positions


def _shift_action(n, k):
    return lambda x, g: (x + k * g) % n


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
}


def test_condition_C_systems_match_per_unknown_evaluation():
    for name, build in SAMPLE_BUNDLES.items():
        b = build()
        P, B = b.como.space, b.base.space
        BP = B.tensor(P)
        for colinear in (True, False):
            positions = check_against_evaluation(
                P, BP, b._projectivity_equations(colinear))
        check_against_evaluation(P, B, b._trace_ideal_equations())
        if name.startswith("superline"):
            # the odd basis vector of P meets no even one of B (x) P
            assert len(positions) < P.dim * BP.dim


@st.composite
def term_system(draw):
    """An unknown's endpoints and one or two equations of 1-3 random terms,
    each a plain, left or right leg between random graded spaces."""
    group = draw(st.sampled_from(GROUPS))
    dom, cod = draw(graded_space(group)), draw(graded_space(group))
    equations = []
    for _ in range(draw(st.integers(1, 2))):
        out_dom, out_cod = draw(graded_space(group)), draw(graded_space(group))
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            side = draw(st.sampled_from([None, LEFT, RIGHT]))
            X = None if side is None else draw(graded_space(group, 2))
            t_dom, t_cod = dom, cod
            if side == LEFT:
                t_dom, t_cod = X.tensor(dom), X.tensor(cod)
            elif side == RIGHT:
                t_dom, t_cod = dom.tensor(X), cod.tensor(X)
            c = draw(st.sampled_from([1, -1, 2, -3]))
            terms.append((c, draw(graded_morphism(t_cod, out_cod)), X, side,
                          draw(graded_morphism(out_dom, t_dom))))
        equations.append((terms, draw(graded_morphism(out_dom, out_cod))))
    return dom, cod, equations


@settings(max_examples=60, deadline=None)
@given(term_system())
def test_random_term_systems_match_per_unknown_evaluation(system):
    check_against_evaluation(*system)


def test_assembly_rejects_a_term_with_wrong_endpoints():
    b = SAMPLE_BUNDLES["set_action_free_x4_qq"]()
    P, B = b.como.space, b.base.space
    (terms, rhs), = b._trace_ideal_equations()
    with pytest.raises(TypeError):
        _assemble_system(P, B, [(terms, Morphism.zero(P, B))])
