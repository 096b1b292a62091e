from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal import linalg
from hopfgal.fields import QQ, PrimeField
from hopfgal.morphism import (FactorizationError, Morphism, braiding, compose,
                              compose_tensor, coequaliser, dualize, equaliser,
                              factor_through_coequaliser,
                              factor_through_equaliser, is_isomorphism,
                              kernel, tensor, tensor_many)
from hopfgal.spaces import GradedSpace, GradingGroup, unit_space, zero_space

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
    assert compose(f, iota).is_zero()


def test_zero_dimensional_spaces():
    Z = zero_space(TRIV)
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


# -- property tests: compose_tensor against the materialised product ---------

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


@st.composite
def graded_morphism(draw, dom, cod):
    """A degree-preserving morphism with each allowed entry nonzero w.p. 1/2."""
    field = dom.field
    if field.characteristic:
        value = st.integers(1, field.characteristic - 1).map(field.from_int)
    else:
        value = st.fractions(min_value=-3, max_value=3, max_denominator=2) \
            .filter(bool)
    entries = {}
    for i, di in enumerate(cod.degrees):
        for j, dj in enumerate(dom.degrees):
            if di == dj and draw(st.booleans()):
                entries[(i, j)] = draw(value)
    return Morphism(dom, cod, entries)


@st.composite
def factor(draw, group):
    """A random morphism, an identity or a braiding."""
    kind = draw(st.sampled_from(["random", "identity", "braiding"]))
    if kind == "braiding":
        return braiding(draw(graded_space(group, 2)),
                        draw(graded_space(group, 2)))
    V = draw(graded_space(group))
    if kind == "identity":
        return Morphism.identity(V)
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
    z = f.field.zero()
    pos_r = {r: a for a, r in enumerate(rows)}
    pos_c = {c: b for b, c in enumerate(cols)}
    block = [[z] * len(cols) for _ in rows]
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
            _dense_block(f, rows, cols), linalg.identity(field, len(rows)))])
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
    one = V.field.one()
    entries.update({(i, i): one for i in range(V.dim)})
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
    assert compose(f, iota).is_zero()


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
    one = Z3.field.one()
    V = GradedSpace(Z3, (1, 0, 1))
    E, iota = kernel(Morphism.zero(V, zero_space(Z3)))
    assert E.degrees == (1, 1, 0)
    assert iota.entries == {(0, 0): one, (2, 1): one, (1, 2): one}
    # a pivot at column 0 leaves degree 1 first among the free columns, but
    # degree 0 still comes first
    V = GradedSpace(Z3, (0, 1, 0))
    E, iota = kernel(Morphism(V, GradedSpace(Z3, (0,)), {(0, 0): one}))
    assert E.degrees == (0, 1)
    assert iota.entries == {(2, 0): one, (1, 1): one}
    # c misses iota's image in degree 2 and in degree 1; degree 2 comes first
    # in c's domain
    U = GradedSpace(Z3, (1, 1, 2, 2))
    iota = Morphism(GradedSpace(Z3, (1, 2)), U, {(0, 0): one, (2, 1): one})
    c = Morphism(GradedSpace(Z3, (2, 1)), U, {(3, 0): one, (1, 1): one})
    with pytest.raises(FactorizationError,
                       match=r"^image does not lie in the subobject "
                             r"\(degree 2\)$"):
        factor_through_equaliser(c, iota)
