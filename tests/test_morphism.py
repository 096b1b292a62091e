import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal import linalg
from hopfgal.fields import QQ, PrimeField
from hopfgal import morphism
from hopfgal.morphism import (FactorizationError, Morphism, braided_compose,
                              braiding, cokernel, compose, compose_tensor,
                              coequaliser, dualize, equaliser,
                              factor_through_coequaliser,
                              factor_through_equaliser, is_isomorphism,
                              kernel, kernel_tensor_id, tensor,
                              tensor_compose, tensor_many)
from hopfgal.report import CheckItem, equality_check, matrix_triples
from hopfgal.spaces import GradedSpace, GradingGroup, unit_space

TRIV = GradingGroup.trivial(QQ)
Z2 = GradingGroup.cyclic(2, QQ, Fraction(-1))


def space(n, group=TRIV, degrees=None):
    return GradedSpace(group, tuple(degrees) if degrees else (0,) * n)


def morph(dom, cod, rows):
    return Morphism.from_rows(dom, cod, [[Fraction(x) for x in r] for r in rows])


def test_compose_identity_and_swap():
    V = space(2)
    f = morph(V, V, [[0, 1], [1, 0]])
    assert compose(Morphism.identity(V), f) == f
    assert compose(f, f) == Morphism.identity(V)
    assert compose(Morphism.zero(V, V), f) == Morphism.zero(V, V)


def test_compose_shape_mismatch():
    V, W = space(2), space(3)
    f = Morphism.identity(V)
    g = Morphism.zero(W, W)
    with pytest.raises(TypeError):
        compose(f, g)


def test_tensor_kronecker():
    V1, V2 = space(1), space(2)
    f = morph(V1, V1, [[2]])
    g = morph(V2, V2, [[0, 1], [1, 0]])
    t = tensor(f, g)
    assert t.to_rows() == [[0, 2], [2, 0]]


def test_tensor_unit_strictness():
    V = space(2)
    f = morph(V, V, [[1, 2], [3, 4]])
    one = Morphism.identity(unit_space(TRIV))
    assert tensor(f, one) == f
    assert tensor(one, f) == f


def test_braiding_flip_and_sign():
    V = space(2)
    tau = braiding(V, V)
    # flip permutation on dim 2 (x) dim 2
    assert tau.to_rows() == [
        [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    odd = GradedSpace(Z2, (1,))
    tau_odd = braiding(odd, odd)
    assert tau_odd.to_rows() == [[-1]]
    U = unit_space(Z2)
    W = GradedSpace(Z2, (0, 1))
    assert braiding(U, W) == Morphism.identity(W)
    assert braiding(W, U) == Morphism.identity(W)


def test_braiding_hexagons_and_naturality():
    X = GradedSpace(Z2, (0, 1))
    Y = GradedSpace(Z2, (1,))
    Z = GradedSpace(Z2, (0, 1))
    idX, idY, idZ = (Morphism.identity(s) for s in (X, Y, Z))
    lhs = compose(tensor(idY, braiding(X, Z)), tensor(braiding(X, Y), idZ))
    assert lhs == braiding(X, Y.tensor(Z))
    rhs = compose(tensor(braiding(X, Z), idY), tensor(idX, braiding(Y, Z)))
    assert rhs == braiding(X.tensor(Y), Z)
    # naturality for a degree-preserving map f: X -> Z
    f = Morphism(X, Z, {(0, 0): Fraction(2), (1, 1): Fraction(5)})
    assert compose(braiding(Z, Y), tensor(f, idY)) == \
        compose(tensor(idY, f), braiding(X, Y))


def test_equaliser_cases():
    V = space(2)
    f = morph(V, V, [[1, 0], [0, 0]])
    g = morph(V, V, [[0, 0], [0, 1]])
    E, iota = equaliser(f, g)
    assert E.dim == 0
    E2, iota2 = equaliser(f, f)
    assert E2 == V and iota2 == Morphism.identity(V)
    E3, _ = equaliser(Morphism.identity(V), Morphism.zero(V, V))
    assert E3.dim == 0


def test_coequaliser_cases():
    V = space(2)
    f = morph(V, V, [[1, 0], [0, 0]])
    Q, Pi = coequaliser(f, f)
    assert Q == V and Pi == Morphism.identity(V)
    Q2, Pi2 = coequaliser(Morphism.identity(V), Morphism.zero(V, V))
    assert Q2.dim == 0


def test_factor_through_equaliser():
    V = space(3)
    W = space(2)
    # iota embeds W as first two coordinates
    iota = morph(W, V, [[1, 0], [0, 1], [0, 0]])
    c = morph(W, V, [[2, 0], [0, 3], [0, 0]])
    x = factor_through_equaliser(c, iota)
    assert compose(iota, x) == c
    bad = morph(W, V, [[0, 0], [0, 0], [1, 0]])
    with pytest.raises(FactorizationError):
        factor_through_equaliser(bad, iota)


def test_factor_through_coequaliser():
    V = space(3)
    W = space(2)
    Pi = morph(V, W, [[1, 0, 0], [0, 1, 0]])
    c = morph(V, W, [[5, 0, 0], [0, 7, 0]])
    x = factor_through_coequaliser(c, Pi)
    assert compose(x, Pi) == c
    bad = morph(V, W, [[0, 0, 1], [0, 0, 0]])
    with pytest.raises(FactorizationError):
        factor_through_coequaliser(bad, Pi)


def test_is_isomorphism():
    V = space(2)
    f = morph(V, V, [[1, 1], [0, 1]])
    rep = is_isomorphism(f)
    assert rep.is_iso
    assert compose(rep.inverse, f) == Morphism.identity(V)
    g = morph(V, V, [[1, 1], [1, 1]])
    rep2 = is_isomorphism(g)
    assert not rep2.is_iso
    assert rep2.kernel_dim == 1 and rep2.cokernel_dim == 1
    h = Morphism.zero(V, space(3))
    rep3 = is_isomorphism(h)
    assert not rep3.is_iso and rep3.cokernel_dim == 3


def test_dualize_involution_and_contravariance():
    V = GradedSpace(Z2, (0, 1))
    f = Morphism(V, V, {(0, 0): Fraction(2), (1, 1): Fraction(3)})
    g = Morphism(V, V, {(0, 0): Fraction(1), (1, 1): Fraction(-1)})
    assert dualize(dualize(f)) == f
    assert dualize(compose(f, g)) == compose(dualize(g), dualize(f))
    assert dualize(Morphism.identity(V)) == Morphism.identity(V.dual())


def test_kernel_homogeneous_on_graded():
    V = GradedSpace(Z2, (0, 1, 0))
    W = GradedSpace(Z2, (0, 1))
    f = Morphism(V, W, {(0, 0): Fraction(1), (0, 2): Fraction(1),
                        (1, 1): Fraction(1)})
    K, iota = kernel(f)
    assert K.dim == 1 and K.degrees == (0,)
    assert not compose(f, iota).entries


def test_zero_dimensional_spaces():
    Z = GradedSpace(TRIV, ())
    V = space(2)
    z = Morphism.zero(V, Z)
    K, iota = kernel(z)
    assert K == V
    t = tensor(Morphism.identity(Z), Morphism.identity(V))
    assert t.dom.dim == 0


def test_compose_tensor_shape_mismatch():
    V, W = space(2), space(3)
    with pytest.raises(TypeError):
        compose_tensor([Morphism.identity(V), Morphism.identity(V)],
                       Morphism.identity(W))


def test_tensor_compose_shape_mismatch():
    V, W = space(2), space(3)
    with pytest.raises(TypeError, match="^tensor_compose: inner spaces differ"):
        tensor_compose(Morphism.identity(W),
                       [Morphism.identity(V), Morphism.identity(V)])


def test_fused_composites_reject_equal_dims_with_other_degrees():
    """Under a Z_n grading equal dims are not enough: the degrees of the
    product are compared, in both directions, with the exact message."""
    U, W = space(1, Z2, [1]), space(2, Z2, [0, 1])
    inner = space(2, Z2, [0, 1])  # U (x) W has degrees [1, 0]
    legs = [Morphism.identity(U), Morphism.identity(W)]
    product = "Space(dim=2, deg=[1, 0])"
    with pytest.raises(TypeError, match=_message(
            "compose_tensor: inner spaces differ (%s vs %r)" % (product, inner))):
        compose_tensor(legs, Morphism.identity(inner))
    with pytest.raises(TypeError, match=_message(
            "tensor_compose: inner spaces differ (%r vs %s)" % (inner, product))):
        tensor_compose(Morphism.identity(inner), legs)
    # the other way round: a product in degrees [0, 1] against [1, 0]
    legs = [Morphism.identity(space(1, Z2, [0])), Morphism.identity(inner)]
    other = space(2, Z2, [1, 0])
    with pytest.raises(TypeError, match=_message(
            "compose_tensor: inner spaces differ (%r vs %r)" % (inner, other))):
        compose_tensor(legs, Morphism.identity(other))
    with pytest.raises(TypeError, match=_message(
            "tensor_compose: inner spaces differ (%r vs %r)" % (other, inner))):
        tensor_compose(Morphism.identity(other), legs)


# -- property tests: fused composites against the materialised product -------

F7 = PrimeField(7)
# trivial gradings and Z_n gradings with a nontrivial bicharacter
GROUPS = [TRIV, Z2, GradingGroup.trivial(F7),
          GradingGroup.cyclic(3, F7, F7.from_int(2)),
          GradingGroup.cyclic(6, F7, F7.from_int(3))]
PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def graded_space(draw, group, max_dim=3):
    n = draw(st.integers(1, max_dim))
    return GradedSpace(group, tuple(
        draw(st.integers(0, group.n - 1)) for _ in range(n)))


def nonzero_scalar(field):
    """A nonzero scalar of the field (over QQ, in [-3, 3] with denominator
    at most 2)."""
    if field.characteristic:
        return st.integers(1, field.characteristic - 1).map(field.from_int)
    return st.fractions(min_value=-3, max_value=3, max_denominator=2) \
        .filter(bool)


@st.composite
def graded_morphism(draw, dom, cod):
    """A degree-preserving morphism with each allowed entry nonzero w.p. 1/2."""
    value = nonzero_scalar(dom.field)
    entries = {}
    for i, di in enumerate(cod.degrees):
        for j, dj in enumerate(dom.degrees):
            if di == dj and draw(st.booleans()):
                entries[(i, j)] = draw(value)
    return Morphism(dom, cod, entries)


@st.composite
def near_identity(draw, group):
    """An endomorphism that is not the identity but looks like one: 2 id,
    a permutation of a space concentrated in one degree (all of it under
    the trivial grading), or id with one diagonal entry missing."""
    kind = draw(st.sampled_from(["double", "permutation", "missing"]))
    V = draw(graded_space(group))
    if kind == "double":
        return Morphism(V, V, {(i, i): 2 for i in range(V.dim)})
    if kind == "permutation":
        n = draw(st.integers(2, 3))
        V = GradedSpace(group, (draw(st.integers(0, group.n - 1)),) * n)
        perm = draw(st.permutations(range(n)).filter(
            lambda p: p != list(range(n))))
        return Morphism(V, V, {(perm[j], j): 1 for j in range(n)})
    missing = draw(st.integers(0, V.dim - 1))
    return Morphism(V, V, {(i, i): 1 for i in range(V.dim) if i != missing})


@st.composite
def factor(draw, group):
    """A random morphism, an identity, one that only looks like an identity,
    a braiding, or a map into, out of or on a zero-dimensional space."""
    kind = draw(st.sampled_from(["random", "identity", "near_identity",
                                 "braiding", "zero"]))
    if kind == "braiding":
        return braiding(draw(graded_space(group, 2)),
                        draw(graded_space(group, 2)))
    if kind == "near_identity":
        return draw(near_identity(group))
    V = draw(graded_space(group))
    if kind == "identity":
        return Morphism.identity(V)
    if kind == "zero":
        Z = GradedSpace(group, ())
        return draw(st.sampled_from([Morphism.zero(V, Z), Morphism.zero(Z, V),
                                     Morphism.identity(Z)]))
    return draw(graded_morphism(V, draw(graded_space(group))))


@PROPERTY
@given(st.data())
def test_compose_tensor_matches_materialised_product(data):
    group = data.draw(st.sampled_from(GROUPS))
    fs = data.draw(st.lists(factor(group), min_size=1, max_size=3))
    inner = tensor_many(*fs).dom
    g = data.draw(graded_morphism(data.draw(graded_space(group)), inner))
    assert compose_tensor(fs, g) == compose(tensor_many(*fs), g)


@PROPERTY
@given(st.data())
def test_tensor_compose_matches_materialised_product(data):
    group = data.draw(st.sampled_from(GROUPS))
    gs = data.draw(st.lists(factor(group), min_size=1, max_size=3))
    inner = tensor_many(*gs).cod
    f = data.draw(graded_morphism(inner, data.draw(graded_space(group))))
    assert tensor_compose(f, gs) == compose(f, tensor_many(*gs))


F2, F101 = PrimeField(2), PrimeField(101)
# QQ, F_2 and F_101; Z_1 and Z_n with chi != 1 (10 has order 4 mod 101)
BRAIDED_GROUPS = [TRIV, Z2, GradingGroup.trivial(F2),
                  GradingGroup.cyclic(2, F2, 1), GradingGroup.trivial(F101),
                  GradingGroup.cyclic(4, F101, 10),
                  GradingGroup.cyclic(3, F7, F7.from_int(2))]


def braided_reference(m1, m2, f, g, U, V):
    """(m1 (x) m2) o (id_U1 (x) tau_{U2,V1} (x) id_V2) o (f (x) g), every
    stage built as a morphism."""
    (U1, U2), (V1, V2) = U, V
    middle = tensor_many(Morphism.identity(U1), braiding(U2, V1),
                         Morphism.identity(V2))
    return compose(tensor(m1, m2), compose(middle, tensor(f, g)))


@PROPERTY
@given(st.data())
def test_braided_compose_matches_the_composed_reference(data):
    group = data.draw(st.sampled_from(BRAIDED_GROUPS))
    U1, U2, V1, V2 = (data.draw(graded_space(group, 2)) for _ in range(4))
    UU, VV = U1.tensor(U2), V1.tensor(V2)
    # an identity f is the shape of descent's nu and the diagonal action
    if data.draw(st.booleans()):
        f = Morphism.identity(UU)
    else:
        f = data.draw(graded_morphism(data.draw(graded_space(group)), UU))
    g = data.draw(graded_morphism(data.draw(graded_space(group)), VV))
    m1, m2 = (data.draw(graded_morphism(X.tensor(Y),
                                        data.draw(graded_space(group))))
              for X, Y in ((U1, V1), (U2, V2)))
    U, V = (U1, U2), (V1, V2)
    assert braided_compose(m1, m2, f, g, U, V) == \
        braided_reference(m1, m2, f, g, U, V)


def test_braided_compose_drops_entries_that_cancel_mod_p():
    """Two paths into one entry whose values sum to p leave no entry."""
    group = GradingGroup.trivial(F101)
    one, two = space(1, group), space(2, group)
    f = Morphism(one, two, {(0, 0): 1, (1, 0): 1})  # e (x) (u_0 + u_1)
    g = Morphism.identity(one)
    m1 = Morphism.identity(one)
    m2 = Morphism(two, one, {(0, 0): 1, (0, 1): 100})
    out = braided_compose(m1, m2, f, g, (one, two), (one, one))
    assert not out.entries and out == braided_reference(
        m1, m2, f, g, (one, two), (one, one))
    assert (out.dom.dim, out.cod.dim) == (1, 1)


def test_braided_compose_rejects_mismatched_factors():
    group = GradingGroup.cyclic(4, F101, 10)
    V, W = space(2, group, [0, 1]), space(2, group, [1, 0])
    idVV = Morphism.identity(V.tensor(V))
    mult = Morphism.zero(V.tensor(V), V)
    assert not braided_compose(mult, mult, idVV, idVV, (V, V), (V, V)).entries
    # f.cod, g.cod, m1.dom and m2.dom each against its pair of factors
    for args in [(mult, mult, idVV, idVV, (V, W), (V, V)),
                 (mult, mult, idVV, idVV, (V, V), (W, V)),
                 (Morphism.zero(V.tensor(W), V), mult, idVV, idVV,
                  (V, V), (V, V)),
                 (mult, Morphism.identity(V), idVV, idVV, (V, V), (V, V))]:
        with pytest.raises(TypeError, match="^braided_compose: inner spaces"):
            braided_compose(*args)
    # under the trivial grading the dims are compared
    T = space(2)
    idTT = Morphism.identity(T.tensor(T))
    with pytest.raises(TypeError, match="^braided_compose: inner spaces"):
        braided_compose(Morphism.zero(T.tensor(T), T), Morphism.zero(
            T.tensor(T), T), idTT, idTT, (T, space(3)), (T, T))


@PROPERTY
@given(st.data())
def test_compose_tensor_interchange_and_associativity(data):
    group = data.draw(st.sampled_from(GROUPS))
    f1, f2, f3 = (data.draw(factor(group)) for _ in range(3))
    g1 = data.draw(graded_morphism(data.draw(graded_space(group)), f1.dom))
    g2 = data.draw(graded_morphism(data.draw(graded_space(group)), f2.dom))
    # (f1 (x) f2) o (g1 (x) g2) = (f1 o g1) (x) (f2 o g2)
    assert compose(tensor(f1, f2), tensor(g1, g2)) == \
        tensor(compose(f1, g1), compose(f2, g2))
    assert tensor(tensor(f1, f2), f3) == tensor(f1, tensor(f2, f3))


@PROPERTY
@given(st.data())
def test_dualize_involution_and_contravariance_property(data):
    group = data.draw(st.sampled_from(GROUPS))
    U, V, W = (data.draw(graded_space(group)) for _ in range(3))
    f = data.draw(graded_morphism(V, W))
    g = data.draw(graded_morphism(U, V))
    assert dualize(dualize(f)) == f
    assert dualize(compose(f, g)) == compose(dualize(g), dualize(f))


@PROPERTY
@given(st.data())
def test_is_isomorphism_agrees_with_kernel(data):
    """The report's rank, defect and witness are `kernel`'s."""
    group = data.draw(st.sampled_from(GROUPS))
    V = data.draw(graded_space(group))
    W = V if data.draw(st.booleans()) else data.draw(graded_space(group))
    f = data.draw(graded_morphism(V, W))
    rep = is_isomorphism(f)
    K, iota = kernel(f)
    assert rep.rank == V.dim - K.dim
    assert (rep.kernel_dim, rep.cokernel_dim) == (K.dim, W.dim - rep.rank)
    assert rep.is_iso == (K.dim == 0 and rep.cokernel_dim == 0)
    if rep.is_iso:
        assert rep.kernel_inclusion is None
        assert compose(rep.inverse, f) == Morphism.identity(V)
        assert compose(f, rep.inverse) == Morphism.identity(W)
    else:
        assert rep.inverse is None
        assert rep.kernel_inclusion == (iota if K.dim else None)


# -- the scalar invariant: the one form of each field's entries ----------------

def canonical(field, v):
    """Whether v is a nonzero entry in the one form the engine keeps."""
    p = field.characteristic
    if p:
        return type(v) is int and 0 < v < p
    if type(v) is int:
        return v != 0
    return type(v) is Fraction and v.denominator > 1


def test_canonical_rejects_floats_and_unreduced_ints():
    assert canonical(QQ, Fraction(-1, 2)) and canonical(QQ, -3)
    assert canonical(F7, 6)
    assert not any(canonical(QQ, v)
                   for v in (Fraction(2, 1), 0, 0.5, True, Fraction(0)))
    assert not any(canonical(F7, v) for v in (0, 7, -1, 8, 1.0, True))


@PROPERTY
@given(st.data())
def test_every_operation_returns_canonical_entries(data):
    group = data.draw(st.sampled_from(GROUPS))
    field = group.field
    U, V, W = (data.draw(graded_space(group)) for _ in range(3))
    f, f2 = (data.draw(graded_morphism(V, W)) for _ in range(2))
    g = data.draw(graded_morphism(U, V))
    h = data.draw(graded_morphism(U, V.tensor(U)))
    sq = data.draw(graded_morphism(V, V))
    k = data.draw(graded_morphism(V.tensor(V), W))
    results = [compose(f, g), tensor(f, g), compose_tensor([f, g], h),
               tensor_compose(k, [sq, g]), -f, f + f2, f - f2, kernel(f)[1]]
    inverse = is_isomorphism(sq).inverse
    if inverse is not None:
        results.append(inverse)
    for m in results:
        assert all(canonical(field, v) for v in m.entries.values())


# -- the constructor's rejections, each with its exact message -----------------

def _message(text):
    return "^%s$" % re.escape(text)


@pytest.mark.parametrize("group", GROUPS, ids=repr)
def test_constructor_rejects_entries_outside_the_bounds(group):
    V, W = space(2, group), space(3, group)
    for key in [(3, 0), (0, 2), (-1, 0), (0, -1), (7, 9)]:
        for value in (1, 0):  # a zero-valued key is still checked
            with pytest.raises(TypeError, match=_message(
                    "entry (%d,%d) outside 3x2" % key)):
                Morphism(V, W, {(0, 0): 1, key: value})
    with pytest.raises(TypeError, match=_message("entry (0,0) outside 0x0")):
        Morphism(GradedSpace(group, ()), GradedSpace(group, ()), {(0, 0): 0})


@pytest.mark.parametrize("group", [g for g in GROUPS if g.n > 1], ids=repr)
def test_constructor_rejects_a_nonzero_entry_across_degrees(group):
    field = group.field
    V = GradedSpace(group, (0, 1))
    W = GradedSpace(group, (1, 0, 1))
    for value in (1, field.from_int(-2), Fraction(1, 2)):
        if field.characteristic and type(value) is Fraction:
            continue
        with pytest.raises(TypeError, match=_message(
                "entry (1,1) violates degree preservation (0 vs 1)")):
            Morphism(V, W, {(0, 1): 1, (1, 1): value})
        with pytest.raises(TypeError, match=_message(
                "entry (0,0) violates degree preservation (1 vs 0)")):
            Morphism(V, W, {(0, 0): value})


@pytest.mark.parametrize("group", [g for g in GROUPS if g.n > 1], ids=repr)
def test_constructor_drops_a_zero_entry_across_degrees(group):
    field = group.field
    V = GradedSpace(group, (0, 1))
    W = GradedSpace(group, (1, 0, 1))
    # 0, and a value the field reduces to 0, at mismatched degrees (0, 0)
    zeros = [0, field.from_int(0)]
    zeros.append(field.characteristic or Fraction(0))
    for z in zeros:
        f = Morphism(V, W, {(0, 0): z, (0, 1): 1})
        assert f.entries == {(0, 1): 1}


def test_constructor_rejects_endpoints_over_different_grading_groups():
    pairs = [(GROUPS[3], GROUPS[4]), (TRIV, GROUPS[2]), (TRIV, Z2),
             (GROUPS[2], GradingGroup.trivial(PrimeField(11)))]
    for a, b in pairs:
        with pytest.raises(TypeError, match=_message(
                "domain and codomain over different grading groups")):
            Morphism(space(1, a), space(1, b), {(0, 0): 1})


def test_morphisms_over_different_prime_fields_do_not_mix():
    V7 = space(2, GradingGroup.trivial(F7))
    V11 = space(2, GradingGroup.trivial(PrimeField(11)))
    f, g = Morphism.identity(V7), Morphism.identity(V11)
    for op in (lambda: f + g, lambda: compose(f, g), lambda: tensor(f, g),
               lambda: compose_tensor([f], g), lambda: tensor_compose(f, [g]),
               lambda: Morphism(V7, V11, {})):
        with pytest.raises(TypeError):
            op()


# -- the constructor takes over the dict it is given ---------------------------

def reference_constructor(dom, cod, entries):
    """The copy-based canonicaliser the in-place constructor replaced, in
    its three loops: (canonical copy, None), or (None, the TypeError
    message)."""
    m, n = cod.dim, dom.dim
    for i, j in entries:
        if i < 0 or i >= m or j < 0 or j >= n:
            return None, "entry (%d,%d) outside %dx%d" % (i, j, m, n)
    p = dom.field.characteristic
    if p:
        clean = {}
        for k, v in entries.items():
            v %= p
            if v:
                clean[k] = v
    else:
        clean = {k: (v.numerator if type(v) is Fraction
                     and v.denominator == 1 else v)
                 for k, v in entries.items() if v}
    if dom.group.n != 1:
        cdeg, ddeg = cod.degrees, dom.degrees
        for i, j in clean:
            if cdeg[i] != ddeg[j]:
                return None, ("entry (%d,%d) violates degree preservation "
                              "(%r vs %r)" % (i, j, cdeg[i], ddeg[j]))
    return clean, None


F101 = PrimeField(101)
MERSENNE = PrimeField(2 ** 61 - 1)
# QQ, F_2, F_101 and 2^61 - 1, each under Z_1 and under a Z_n
OWNERSHIP_GROUPS = [
    TRIV, Z2, GradingGroup.cyclic(4, QQ, Fraction(-1)),
    GradingGroup.trivial(PrimeField(2)),
    GradingGroup.cyclic(3, PrimeField(2), 1),
    GradingGroup.trivial(F101), GradingGroup.cyclic(4, F101, 10),
    GradingGroup.trivial(MERSENNE), GradingGroup.cyclic(2, MERSENNE, -1)]


def raw_scalar(field):
    """Any value the constructor must put in canonical form: zero, an
    integral Fraction, a negative int or one >= p."""
    p = field.characteristic
    if p:
        return st.one_of(st.just(0), st.integers(-3 * p, 3 * p),
                         st.sampled_from([p, -p, 2 * p, p - 1, p + 1, -1]))
    return st.one_of(st.just(0), st.just(Fraction(0)), st.just(Fraction(4, 2)),
                     st.integers(-300, 300),
                     st.fractions(min_value=-5, max_value=5,
                                  max_denominator=4))


@st.composite
def raw_entries(draw, dom, cod):
    """Up to 8 keys: mostly in bounds, and then mostly degree-preserving,
    with about one key in ten outside the bounds."""
    value = raw_scalar(dom.field)
    entries = {}
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) == 0:
            key = (draw(st.integers(-1, cod.dim)),
                   draw(st.sampled_from([-1, dom.dim])))
            if draw(st.booleans()):
                key = key[::-1]
        else:
            i = draw(st.integers(0, cod.dim - 1))
            same = [j for j, d in enumerate(dom.degrees)
                    if d == cod.degrees[i]]
            if same and draw(st.integers(0, 3)):
                j = draw(st.sampled_from(same))
            else:
                j = draw(st.integers(0, dom.dim - 1))
            key = (i, j)
        entries[key] = draw(value)
    return entries


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_constructor_matches_the_copy_based_reference(data):
    group = data.draw(st.sampled_from(OWNERSHIP_GROUPS), label="group")
    V, W = data.draw(graded_space(group)), data.draw(graded_space(group))
    entries = data.draw(raw_entries(V, W))
    want, message = reference_constructor(V, W, dict(entries))
    if message is not None:
        with pytest.raises(TypeError, match=_message(message)):
            Morphism(V, W, entries)
        return
    f = Morphism(V, W, entries)
    assert f.entries is entries
    # the same keys in the same order, with values of the same types
    assert list(f.entries.items()) == list(want.items())
    assert [type(v) for v in f.entries.values()] == \
        [type(v) for v in want.values()]
    assert all(canonical(group.field, v) for v in f.entries.values())


@pytest.mark.parametrize("group", [
    TRIV, Z2, GradingGroup.trivial(PrimeField(1009)),
    GradingGroup.cyclic(2, PrimeField(1009), -1)], ids=repr)
def test_constructor_adopts_a_canonical_dict_without_writing_to_it(group):
    # values above 256 are not cached ints, so a value written back (even
    # an equal one) is another object
    field = group.field
    V = GradedSpace(group, (0, group.n - 1, 0))
    values = [field.from_int(int("%d" % v)) for v in (300, 517, 999)]
    if not field.characteristic:
        values[1] = Fraction(517, 2)
    d = {(0, 0): values[0], (1, 1): values[1], (2, 0): values[2]}
    before = list(d.values())
    f = Morphism(V, V, d)
    assert f.entries is d
    assert list(d) == [(0, 0), (1, 1), (2, 0)]
    assert all(a is b for a, b in zip(d.values(), before))


@pytest.mark.parametrize("group", GROUPS, ids=repr)
def test_identity_legs_leave_the_shared_dict_alone(group):
    # with only identity legs the fold hands g's (f's) own canonical dict
    # to the constructor, which must not write to it
    k = group.n - 1
    V = GradedSpace(group, (0, k))
    U = GradedSpace(group, (0, 2 * k % group.n))  # degrees of rows 0 and 3
    field = group.field
    two, three = field.from_int(2), field.from_int(3)
    g = Morphism(U, V.tensor(V), {(0, 0): two, (3, 1): three})
    f = Morphism(V.tensor(V), U, {(0, 0): three, (1, 3): two})
    ids = [Morphism.identity(V)] * 2
    for h, result in ((g, compose_tensor(ids, g)),
                      (f, tensor_compose(f, ids))):
        before = dict(h.entries)
        assert result == h
        assert h.entries == before
        assert all(canonical(field, v) for v in result.entries.values())

# -- equality_check against a reference that always builds lhs - rhs ---------

def reference_equality_check(name, lhs, rhs, details=None):
    defect = lhs - rhs
    item = CheckItem(name, not defect.entries, dict(details or {}))
    if not item.ok:
        item.witness = defect
        item.details["defect_nonzeros"] = len(defect.entries)
    return item


@PROPERTY
@given(st.data())
def test_equality_check_matches_reference(data):
    group = data.draw(st.sampled_from(GROUPS))
    V, W = data.draw(graded_space(group)), data.draw(graded_space(group))
    lhs = data.draw(graded_morphism(V, W))
    kind = data.draw(st.sampled_from(["same", "rebuilt", "other"]))
    if kind == "same":
        rhs = lhs
    elif kind == "rebuilt":  # equal entries, another object
        rhs = Morphism(V, W, dict(lhs.entries))
    else:
        rhs = data.draw(graded_morphism(V, W))
    details = data.draw(st.sampled_from([None, {"lhs": "a ; b"}]))
    got = equality_check("eq", lhs, rhs, details)
    want = reference_equality_check("eq", lhs, rhs, details)
    assert got.ok == want.ok == (lhs.entries == rhs.entries)
    assert got.details == want.details
    assert got.witness == want.witness
    for machine in (False, True):
        assert got.render(machine) == want.render(machine)


def test_equality_check_rejects_different_endpoints():
    V, W = space(2), space(3)
    for lhs, rhs in [(Morphism.zero(V, V), Morphism.zero(V, W)),
                     (Morphism.zero(V, V), Morphism.zero(W, V)),
                     (Morphism.identity(V), Morphism.identity(W))]:
        for check in (equality_check, reference_equality_check):
            with pytest.raises(TypeError, match="^sum of morphisms with "
                                                "different endpoints$"):
                check("eq", lhs, rhs)


# -- differential tests: the sparse elimination against dense blocks ----------
#
# The reference cuts each degree block of a map out as a dense matrix and
# eliminates it with the dense `linalg` API, block after block, degrees in
# order of first occurrence.

def _blocks(degrees):
    """Indices grouped by degree, degrees in order of first occurrence."""
    groups = {}
    for idx, d in enumerate(degrees):
        groups.setdefault(d, []).append(idx)
    return list(groups), groups


def _dense_block(f, rows, cols):
    pos_r = {r: a for a, r in enumerate(rows)}
    pos_c = {c: b for b, c in enumerate(cols)}
    block = [[0] * len(cols) for _ in rows]
    for (i, j), v in f.entries.items():
        if i in pos_r and j in pos_c:
            block[pos_r[i]][pos_c[j]] = v
    return block


def dense_kernel(f):
    """(degrees of E, entries of iota) from `linalg.kernel_basis` per block."""
    order, col_groups = _blocks(f.dom.degrees)
    _, row_groups = _blocks(f.cod.degrees)
    degrees, entries = [], {}
    for d in order:
        cols = col_groups[d]
        block = _dense_block(f, row_groups.get(d, []), cols)
        for vec in linalg.kernel_basis(f.field, block, ncols=len(cols)):
            for b, c in enumerate(cols):
                if vec[b]:
                    entries[(c, len(degrees))] = vec[b]
            degrees.append(d)
    return tuple(degrees), entries


def dense_factor(c, iota):
    """The entries of x with iota o x = c from `linalg.solve` per block of
    c's domain, or FactorizationError naming the first inconsistent one."""
    _, amb_rows = _blocks(iota.cod.degrees)
    _, e_cols = _blocks(iota.dom.degrees)
    order, c_cols = _blocks(c.dom.degrees)
    entries = {}
    for d in order:
        rows, ecols, ccols = amb_rows.get(d, []), e_cols.get(d, []), c_cols[d]
        if not rows:  # c and x are zero in this degree
            continue
        X = linalg.solve(c.field, _dense_block(iota, rows, ecols),
                         _dense_block(c, rows, ccols))
        if X is None:
            raise FactorizationError(
                "image does not lie in the subobject (degree %r)" % (d,))
        for a, r in enumerate(ecols):
            for b, cc in enumerate(ccols):
                if X[a][b]:
                    entries[(r, cc)] = X[a][b]
    return entries


def dense_rank_and_inverse(f):
    """(rank, entries of the inverse or None) from the RREF of [A | I] per
    degree block A."""
    field = f.field
    order, col_groups = _blocks(f.dom.degrees)
    _, row_groups = _blocks(f.cod.degrees)
    rank, entries = 0, {}
    for d in order:
        cols, rows = col_groups[d], row_groups.get(d, [])
        n = len(cols)
        R, pivots = linalg.rref(field, [a + e for a, e in zip(
            _dense_block(f, rows, cols), linalg.identity(len(rows)))])
        left = [c for c in pivots if c < n]
        rank += len(left)
        if len(left) == n == len(rows):
            for a, c in enumerate(cols):
                for b, r in enumerate(rows):
                    if R[a][n + b]:
                        entries[(c, r)] = R[a][n + b]
    square = f.dom.dim == f.cod.dim == rank
    return rank, entries if square else None


@st.composite
def invertible_morphism(draw, V):
    """Identity plus a strictly upper triangular degree-preserving part."""
    f = draw(graded_morphism(V, V))
    entries = {(i, j): v for (i, j), v in f.entries.items() if i < j}
    entries.update({(i, i): 1 for i in range(V.dim)})
    return Morphism(V, V, entries)


DIFFERENTIAL = settings(max_examples=80, deadline=None)


@DIFFERENTIAL
@given(st.data())
def test_kernel_matches_dense_blocks(data):
    group = data.draw(st.sampled_from(GROUPS))
    V = data.draw(graded_space(group, 5))
    f = data.draw(graded_morphism(V, data.draw(graded_space(group, 4))))
    E, iota = kernel(f)
    assert (E.degrees, iota.entries) == dense_kernel(f)
    assert not compose(f, iota).entries


@DIFFERENTIAL
@given(st.data())
def test_factor_through_equaliser_matches_dense_blocks(data):
    group = data.draw(st.sampled_from(GROUPS))
    V = data.draw(graded_space(group, 5))
    if data.draw(st.booleans()):  # an equaliser: injective
        _, iota = kernel(data.draw(graded_morphism(
            V, data.draw(graded_space(group)))))
    else:
        iota = data.draw(graded_morphism(data.draw(graded_space(group)), V))
    W = data.draw(graded_space(group))
    if data.draw(st.booleans()):  # c = iota o x lies in the image
        c = compose(iota, data.draw(graded_morphism(W, iota.dom)))
    else:
        c = data.draw(graded_morphism(W, V))
    try:
        expected = Morphism(W, iota.dom, dense_factor(c, iota))
    except FactorizationError as exc:
        expected = str(exc)
    try:
        x = factor_through_equaliser(c, iota)
    except FactorizationError as exc:
        x = str(exc)
    assert x == expected


@DIFFERENTIAL
@given(st.data())
def test_is_isomorphism_matches_dense_blocks(data):
    group = data.draw(st.sampled_from(GROUPS))
    V = data.draw(graded_space(group, 4))
    kind = data.draw(st.sampled_from(["invertible", "square", "other"]))
    if kind == "invertible":
        f = data.draw(invertible_morphism(V))
    else:
        W = V if kind == "square" else data.draw(graded_space(group, 4))
        f = data.draw(graded_morphism(V, W))
    rep = is_isomorphism(f)
    rank, inverse = dense_rank_and_inverse(f)
    assert rep.rank == rank
    assert rep.is_iso == (inverse is not None)
    if rep.is_iso:
        assert rep.inverse.entries == inverse
    else:
        degrees, entries = dense_kernel(f)
        witness = rep.kernel_inclusion
        if degrees:
            assert (witness.dom.degrees, witness.entries) == (degrees, entries)
        else:
            assert witness is None


def test_kernel_and_factorisation_order_degrees_by_first_occurrence():
    Z3 = GROUPS[3]
    V = GradedSpace(Z3, (1, 0, 1))
    E, iota = kernel(Morphism.zero(V, GradedSpace(Z3, ())))
    assert E.degrees == (1, 1, 0)
    assert iota.entries == {(0, 0): 1, (2, 1): 1, (1, 2): 1}
    # a pivot at column 0 leaves degree 1 first among the free columns, but
    # degree 0 still comes first
    V = GradedSpace(Z3, (0, 1, 0))
    E, iota = kernel(Morphism(V, GradedSpace(Z3, (0,)), {(0, 0): 1}))
    assert E.degrees == (0, 1)
    assert iota.entries == {(2, 0): 1, (1, 1): 1}
    # c misses iota's image in degree 2 and in degree 1; degree 2 comes first
    # in c's domain
    U = GradedSpace(Z3, (1, 1, 2, 2))
    iota = Morphism(GradedSpace(Z3, (1, 2)), U, {(0, 0): 1, (2, 1): 1})
    c = Morphism(GradedSpace(Z3, (2, 1)), U, {(3, 0): 1, (1, 1): 1})
    with pytest.raises(FactorizationError,
                       match=r"^image does not lie in the subobject "
                             r"\(degree 2\)$"):
        factor_through_equaliser(c, iota)


def boxed(f):
    """f with every entry a Fraction, integral ones included; set past the
    constructor, which would turn the integral ones into ints."""
    g = Morphism.zero(f.dom, f.cod)
    g.entries = {k: Fraction(v) for k, v in f.entries.items()}
    return g


QQ_GROUPS = [g for g in GROUPS if not g.field.characteristic]


@DIFFERENTIAL
@given(st.data())
def test_int_and_fraction_entries_give_the_same_results(data):
    """Each operation gives equal entries and the same report text on
    int-form QQ morphisms and on Fraction-boxed copies of them."""
    group = data.draw(st.sampled_from(QQ_GROUPS))
    U, V, W = (data.draw(graded_space(group)) for _ in range(3))
    f = data.draw(graded_morphism(V, W))
    g = data.draw(graded_morphism(U, V))
    h = data.draw(graded_morphism(U, V.tensor(U)))
    sq = data.draw(st.one_of(invertible_morphism(V), graded_morphism(V, V)))
    iota = kernel(data.draw(graded_morphism(W, V)))[1]
    c = compose(iota, data.draw(graded_morphism(U, iota.dom))) \
        if data.draw(st.booleans()) else data.draw(graded_morphism(U, W))

    def results(f, g, h, sq, iota, c):
        rep = is_isomorphism(sq)
        out = [compose(f, g), tensor(f, g), compose_tensor([f, g], h),
               kernel(f)[1], rep.inverse or rep.kernel_inclusion]
        try:
            out.append(factor_through_equaliser(c, iota))
        except FactorizationError as exc:
            out.append(str(exc))
        return out

    plain = results(f, g, h, sq, iota, c)
    fractions = results(*map(boxed, (f, g, h, sq, iota, c)))
    for a, b in zip(plain, fractions):
        if isinstance(a, Morphism):
            assert a.entries == b.entries
            a, b = matrix_triples(a), matrix_triples(b)
        assert a == b


# -- differential tests: (co)equalisers and factorisations -------------------
#
# `equaliser` and `coequaliser` write the rows of f - g straight from the
# entry dicts, and a factorisation is read off the unit lines of the map it
# goes through when it has a full set of them.  The references below build
# f - g as a morphism, take its kernel or the transpose of the kernel of its
# transpose, and solve every factorisation by eliminating [iota | c].

F2, F101 = PrimeField(2), PrimeField(101)
# QQ, F_2 and F_101, each trivially and Z_n graded
ELIMINATION_GROUPS = [
    TRIV, Z2, GradingGroup.trivial(F2), GradingGroup.cyclic(2, F2, 1),
    GradingGroup.trivial(F101), GradingGroup.cyclic(4, F101, 10)]


def reference_cokernel(h):
    """(Q, Pi) as the transpose of the kernel inclusion of h's transpose."""
    _, iota = kernel(dualize(h))
    Pi = dualize(iota)
    return Pi.cod, Pi


@st.composite
def parallel_pair(draw, group, max_dim=4):
    """(f, g) with g equal to f, zero, random, or f with some entries kept
    (so f - g cancels there), some changed and some dropped."""
    V, W = draw(graded_space(group, max_dim)), draw(graded_space(group, max_dim))
    f = draw(graded_morphism(V, W))
    kind = draw(st.sampled_from(["equal", "zero", "random", "cancel"]))
    if kind == "equal":
        return f, Morphism(V, W, dict(f.entries))
    if kind == "zero":
        return f, Morphism.zero(V, W)
    other = draw(graded_morphism(V, W))
    if kind == "random":
        return f, other
    entries = {}
    for key, v in f.entries.items():
        how = draw(st.sampled_from(["keep", "change", "drop"]))
        if how == "keep":
            entries[key] = v
        elif how == "change" and key in other.entries:
            entries[key] = other.entries[key]
    for key, v in other.entries.items():
        if key not in f.entries and draw(st.booleans()):
            entries[key] = v
    return f, Morphism(V, W, entries)


@DIFFERENTIAL
@given(st.data())
def test_equaliser_and_coequaliser_match_the_difference(data):
    group = data.draw(st.sampled_from(ELIMINATION_GROUPS))
    f, g = data.draw(parallel_pair(group))
    if data.draw(st.booleans()):
        f, g = g, f
    E, iota = equaliser(f, g)
    E_ref, iota_ref = kernel(f - g)
    assert (E, E.degrees, iota) == (E_ref, E_ref.degrees, iota_ref)
    assert compose(f, iota) == compose(g, iota)
    Q, Pi = coequaliser(f, g)
    Q_ref, Pi_ref = reference_cokernel(f - g)
    assert (Q, Q.degrees, Pi) == (Q_ref, Q_ref.degrees, Pi_ref)
    assert Pi.dom.degrees == f.cod.degrees
    assert compose(Pi, f) == compose(Pi, g)
    Qc, Pic = cokernel(f)
    Qc_ref, Pic_ref = reference_cokernel(f)
    assert (Qc.degrees, Pic) == (Qc_ref.degrees, Pic_ref)


@DIFFERENTIAL
@given(st.data())
def test_kernel_tensor_id_matches_the_materialised_pair(data):
    group = data.draw(st.sampled_from(ELIMINATION_GROUPS))
    f, g = data.draw(parallel_pair(group, 3))
    W = data.draw(st.one_of(graded_space(group, 3), st.just(GradedSpace(group, ()))))
    idW = Morphism.identity(W)
    inc = equaliser(f, g)[1]
    E, iota, order = kernel_tensor_id(inc, W)
    E_ref, iota_ref = equaliser(tensor(f, idW), tensor(g, idW))
    assert (E, E.degrees, iota) == (E_ref, E_ref.degrees, iota_ref)
    # column p of the pair is Kronecker column order[p] of inc (x) id_W
    kron = tensor(inc, idW)
    assert sorted(order) == list(range(E.dim))
    assert {(i, order[p]): v for (i, p), v in iota.entries.items()} \
        == kron.entries


@pytest.mark.parametrize("group", [G for G in ELIMINATION_GROUPS if G.n > 1])
def test_kernel_tensor_id_regroups_the_kronecker_order_by_degree(group):
    # ker D is spanned by e1 - e0, e2 - e0 and e3, whose free columns are
    # their last rows 1, 2 and 3.  Over V (x) W their free columns 2..7
    # have degrees (0, n-1, 0, n-1, 1, 0) in Kronecker order, which
    # `kernel` groups as (0, 0, 0, n-1, n-1, 1).
    n = group.n
    V = GradedSpace(group, (0, 0, 0, 1))
    D = Morphism(V, GradedSpace(group, (0,)),
                 {(0, 0): 1, (0, 1): 1, (0, 2): 1})
    W = GradedSpace(group, (0, n - 1))
    E, iota, order = kernel_tensor_id(kernel(D)[1], W)
    E_ref, iota_ref = kernel(tensor(D, Morphism.identity(W)))
    assert E.degrees == (0, 0, 0, n - 1, n - 1, 1)
    assert order == [0, 2, 5, 1, 3, 4]
    assert (E, E.degrees, iota) == (E_ref, E_ref.degrees, iota_ref)


def eliminated_factor(c, iota):
    """The x with iota o x = c from one elimination of [iota | c], free
    unknowns zero, or the FactorizationError text naming the first degree
    of c's domain where c leaves iota's image."""
    n = iota.dom.dim
    rows = {}
    for (i, j), v in iota.entries.items():
        rows.setdefault(i, {})[j] = v
    for (i, j), v in c.entries.items():
        rows.setdefault(i, {})[n + j] = v
    pivot_rows = linalg.rref_rows(c.field, rows.values())
    bad = {c.dom.degrees[col - n] for col in pivot_rows if col >= n}
    if bad:
        d = next(d for d in c.dom.degrees if d in bad)
        return "image does not lie in the subobject (degree %r)" % (d,)
    return Morphism(c.dom, iota.dom, {
        (r, col - n): v for r, row in pivot_rows.items()
        for col, v in row.items() if col >= n})


def eliminated_cofactor(c, Pi):
    """The x with x o Pi = c from the elimination of the transposes."""
    x = eliminated_factor(dualize(c), dualize(Pi))
    return x if isinstance(x, str) else dualize(x)


@st.composite
def inclusion(draw, group):
    """A map into V: a kernel inclusion (a full set of unit rows), that
    inclusion times an invertible change of basis (injective, mostly
    without one), or a random map (often not injective)."""
    V = draw(graded_space(group, 5))
    _, iota = kernel(draw(graded_morphism(V, draw(graded_space(group)))))
    kind = draw(st.sampled_from(["kernel", "rebased", "random"]))
    if kind == "kernel" or iota.dom.dim == 0:
        return iota
    if kind == "rebased":
        return compose(iota, draw(invertible_morphism(iota.dom)))
    return draw(graded_morphism(draw(graded_space(group)), V))


def outcome(factorise, *args):
    try:
        return factorise(*args)
    except FactorizationError as exc:
        return str(exc)


@DIFFERENTIAL
@given(st.data())
def test_factor_through_equaliser_matches_elimination(data):
    group = data.draw(st.sampled_from(ELIMINATION_GROUPS))
    iota = data.draw(inclusion(group))
    U = data.draw(graded_space(group))
    if data.draw(st.booleans()):  # c = iota o x lies in the image
        c = compose(iota, data.draw(graded_morphism(U, iota.dom)))
    else:
        c = data.draw(graded_morphism(U, iota.cod))
    expected = eliminated_factor(c, iota)
    assert outcome(factor_through_equaliser, c, iota) == expected
    if not isinstance(expected, str):
        assert compose(iota, expected) == c


@DIFFERENTIAL
@given(st.data())
def test_factor_through_coequaliser_matches_elimination(data):
    group = data.draw(st.sampled_from(ELIMINATION_GROUPS))
    Pi = dualize(data.draw(inclusion(group)))
    U = data.draw(graded_space(group))
    if data.draw(st.booleans()):  # c = x o Pi factors through Pi
        c = compose(data.draw(graded_morphism(Pi.cod, U)), Pi)
    else:
        c = data.draw(graded_morphism(Pi.dom, U))
    expected = eliminated_cofactor(c, Pi)
    assert outcome(factor_through_coequaliser, c, Pi) == expected
    if not isinstance(expected, str):
        assert compose(expected, Pi) == c


def test_factorisation_reads_unit_lines_and_eliminates_without_them(
        monkeypatch):
    """A full set of unit lines is read off with no elimination; a column
    whose only 1 sits in a row with other nonzeros, or a c outside the
    image, goes through the elimination, with the same results."""
    calls = []
    eliminate = morphism._eliminate_factor

    def counted(c, iota):
        calls.append(iota)
        return eliminate(c, iota)

    monkeypatch.setattr(morphism, "_eliminate_factor", counted)
    V, E = space(3), space(2)
    unit = morph(E, V, [[1, 0], [2, 3], [0, 1]])  # rows 0 and 2 are unit rows
    mixed = morph(E, V, [[1, 1], [0, 2], [0, 0]])  # column 0's 1 shares row 0
    x = morph(E, E, [[1, 2], [0, 5]])
    for iota, eliminations in ((unit, 0), (mixed, 1)):
        calls.clear()
        c = compose(iota, x)
        assert factor_through_equaliser(c, iota) == x
        assert eliminated_factor(c, iota) == x
        Pi = dualize(iota)
        assert factor_through_coequaliser(dualize(c), Pi) == dualize(x)
        assert len(calls) == 2 * eliminations
    calls.clear()
    outside = morph(E, V, [[0, 0], [1, 0], [0, 0]])
    text = "image does not lie in the subobject (degree 0)"
    with pytest.raises(FactorizationError, match=r"^%s$" % re.escape(text)):
        factor_through_equaliser(outside, unit)
    assert eliminated_factor(outside, unit) == text
    with pytest.raises(FactorizationError, match=r"^%s$" % re.escape(text)):
        factor_through_coequaliser(dualize(outside), dualize(unit))
    assert len(calls) == 2
