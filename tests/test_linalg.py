from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal import linalg
from hopfgal.fields import QQ, PrimeField


def F(n, d=1):
    return Fraction(n, d)


def mat_mul(field, A, B):
    """Dense matrix product, for checking dense results."""
    q = len(B[0]) if B else 0
    C = linalg.zeros(field, len(A), q)
    for Ai, Ci in zip(A, C):
        for a, Bk in zip(Ai, B):
            if a:
                for j in range(q):
                    if Bk[j]:
                        Ci[j] = Ci[j] + a * Bk[j]
    return C


def test_rref_and_rank():
    A = [[F(1), F(2)], [F(2), F(4)]]
    R, pivots = linalg.rref(QQ, A)
    assert pivots == [0]
    assert R[0] == [F(1), F(2)]
    assert R[1] == [F(0), F(0)]
    assert linalg.rank(QQ, A) == 1


def test_kernel_basis():
    A = [[F(1), F(2)]]
    basis = linalg.kernel_basis(QQ, A)
    assert basis == [[F(-2), F(1)]]
    # zero-row matrix: full kernel
    assert len(linalg.kernel_basis(QQ, [], ncols=3)) == 3


def test_solve_consistent_and_not():
    A = [[F(1), F(0)], [F(0), F(0)]]
    B = [[F(3)], [F(0)]]
    X = linalg.solve(QQ, A, B)
    assert X == [[F(3)], [F(0)]]
    B_bad = [[F(3)], [F(1)]]
    assert linalg.solve(QQ, A, B_bad) is None


def test_inverse():
    A = [[F(0), F(1)], [F(1), F(0)]]
    assert linalg.inverse(QQ, A) == A
    assert linalg.inverse(QQ, [[F(1), F(2)], [F(2), F(4)]]) is None


def test_prime_field_roundtrip():
    gf7 = PrimeField(7)
    a = gf7.from_int(3)
    assert a / a == gf7.one()
    assert gf7.parse("1/2") == gf7.from_int(4)
    A = [[gf7.from_int(2), gf7.from_int(1)],
         [gf7.from_int(1), gf7.from_int(1)]]
    I = mat_mul(gf7, A, linalg.inverse(gf7, A))
    assert I == linalg.identity(gf7, 2)


# -- differential and property tests against the dense reference -------------

def dense_rref(field, A):
    """Dense Gauss-Jordan elimination, the reference for `linalg.rref`.

    Columns left to right, topmost nonzero entry as pivot, every cell
    updated.  Returns (R, pivot_columns).
    """
    R = [row[:] for row in A]
    m = len(R)
    n = len(R[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        pivot_row = None
        for i in range(r, m):
            if R[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        R[r], R[pivot_row] = R[pivot_row], R[r]
        inv = field.one() / R[r][c]
        R[r] = [x * inv for x in R[r]]
        for i in range(m):
            if i != r and R[i][c]:
                f = R[i][c]
                Ri, Rr = R[i], R[r]
                R[i] = [a - f * b for a, b in zip(Ri, Rr)]
        pivots.append(c)
        r += 1
    return R, pivots


FIELDS = [QQ, PrimeField(7), PrimeField(101)]
PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def sparse_matrix(draw, field, rows=None, cols=None):
    """A matrix of density about 1/3 with small entries (fractions over QQ),
    sometimes with a row that is a combination of two others."""
    m = draw(st.integers(1, 9)) if rows is None else rows
    n = draw(st.integers(1, 9)) if cols is None else cols
    if field.characteristic:
        value = st.integers(1, field.characteristic - 1).map(field.from_int)
    else:
        value = st.fractions(min_value=-4, max_value=4, max_denominator=3) \
            .filter(bool)
    cell = st.one_of(st.just(field.zero()), st.just(field.zero()), value)
    A = [[draw(cell) for _ in range(n)] for _ in range(m)]
    if m >= 3 and draw(st.booleans()):
        a, b = draw(value), draw(value)
        A[-1] = [a * x + b * y for x, y in zip(A[0], A[1])]
    return A


def _field_and_matrix(**shape):
    return st.sampled_from(FIELDS).flatmap(
        lambda f: st.tuples(st.just(f), sparse_matrix(f, **shape)))


@PROPERTY
@given(_field_and_matrix())
def test_rref_matches_dense_reference(fA):
    field, A = fA
    before = [row[:] for row in A]
    R, pivots = linalg.rref(field, A)
    assert (R, pivots) == dense_rref(field, A)
    assert all(type(x) is type(field.zero()) for row in R for x in row)
    assert A == before


@PROPERTY
@given(_field_and_matrix())
def test_kernel_basis_is_annihilated(fA):
    field, A = fA
    basis = linalg.kernel_basis(field, A)
    assert len(basis) == len(A[0]) - len(dense_rref(field, A)[1])
    for v in basis:
        assert mat_mul(field, A, [[x] for x in v]) == \
            linalg.zeros(field, len(A), 1)


@PROPERTY
@given(st.data())
def test_solve_verifies_or_reports_inconsistency(data):
    field, A = data.draw(_field_and_matrix())
    m, n = len(A), len(A[0])
    q = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        B = data.draw(sparse_matrix(field, rows=m, cols=q))
    else:  # consistent by construction
        B = mat_mul(field, A, data.draw(sparse_matrix(field, rows=n, cols=q)))
    X = linalg.solve(field, A, B)
    pivots = dense_rref(field, [a + b for a, b in zip(A, B)])[1]
    assert (X is None) == any(c >= n for c in pivots)
    if X is not None:
        assert mat_mul(field, A, X) == B


@PROPERTY
@given(st.integers(1, 7).flatmap(
    lambda n: _field_and_matrix(rows=n, cols=n)))
def test_inverse_matches_dense_reference(fA):
    field, A = fA
    n = len(A)
    R, pivots = dense_rref(field, [a + e for a, e in
                                   zip(A, linalg.identity(field, n))])
    expected = [row[n:] for row in R] if pivots == list(range(n)) else None
    assert linalg.inverse(field, A) == expected
    if expected is not None:
        assert mat_mul(field, expected, A) == linalg.identity(field, n)


def _raw_rows(field, A):
    """Dense rows as `rref_rows` input: dicts of nonzero raw scalars."""
    p = field.characteristic
    return [{j: x.v if p else x for j, x in enumerate(row) if x} for row in A]


@PROPERTY
@given(st.data())
def test_rref_rows_matches_dense_rref_and_solve(data):
    """The sparse-row entry gives the dense RREF's pivots and rows, and its
    pivot rows of [A | B] give `solve`'s least-pivot solution or its
    inconsistency."""
    field, A = data.draw(_field_and_matrix())
    m, n = len(A), len(A[0])
    q = data.draw(st.integers(1, 2))
    if data.draw(st.booleans()):
        B = data.draw(sparse_matrix(field, rows=m, cols=q))
    else:  # consistent by construction
        B = mat_mul(field, A, data.draw(sparse_matrix(field, rows=n, cols=q)))
    aug = [a + b for a, b in zip(A, B)]
    pivot_rows = linalg.rref_rows(field, _raw_rows(field, aug))
    R, pivots = dense_rref(field, aug)
    assert list(pivot_rows) == pivots
    p = field.characteristic
    box = field.from_int if p else (lambda v: v)
    for (c, row), dense in zip(pivot_rows.items(), R):
        assert row[c] == 1
        assert all(v and (0 < v < p if p else True) for v in row.values())
        assert [box(row[j]) if j in row else field.zero()
                for j in range(n + q)] == dense
    X = linalg.solve(field, A, B)
    if any(c >= n for c in pivot_rows):
        assert X is None
    else:
        least = linalg.zeros(field, n, q)
        for c, row in pivot_rows.items():
            for j in range(q):
                if n + j in row:
                    least[c][j] = box(row[n + j])
        assert least == X
