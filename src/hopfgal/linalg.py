"""Exact linear algebra over a `Field`, on one sparse elimination kernel.

`rref_rows` is the only elimination.  It takes a matrix as sparse rows,
dicts from column to nonzero raw scalar (Fractions over QQ, plain ints
mod p over F_p), reduces each row against the pivot rows kept so far and
then clears its own pivot column from them; it returns the pivot rows.
The program calls `rref_rows` for every kernel, factorisation, rank and
morphism system, and `inverse` for the inverse of an invertible map.

Dense matrices are lists of equal-length rows of field scalars.  `rref`
is the dense adapter: it reads dense rows into dicts, calls `rref_rows`
and writes the pivot rows back out, boxing only nonzero entries.
`kernel_basis`, `solve` and `rank` read their answers off it; with `rref`
they are the dense reference oracle the tests check the sparse paths
against, and they stay here, beside `inverse`, for the benchmark tracer.

The reduced row echelon form of a matrix is unique, so `rref` returns
exactly what dense Gauss-Jordan elimination (columns left to right,
topmost pivot) returns, whatever order the sparse kernel works in, which
keeps every output reproducible bit for bit.
"""

from __future__ import annotations


def zeros(field, m, n):
    z = field.zero()
    return [[z] * n for _ in range(m)]


def identity(field, n):
    z, o = field.zero(), field.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def _subtract(row, f, prow, p):
    """row -= f * prow in place (mod p when p); cancelled entries are dropped."""
    for j, x in prow.items():
        v = row.get(j, 0) - f * x
        if p:
            v %= p
        if v:
            row[j] = v
        else:
            del row[j]


def rref_rows(field, rows):
    """The canonical RREF of a sparse matrix given row by row.

    rows: an iterable of dicts from column to nonzero raw scalar (a
    Fraction over QQ, a plain int in [0, p) over F_p); the dicts are
    reduced in place.  Returns {pivot column: reduced row} in ascending
    pivot order; each reduced row is such a dict, with a 1 at its pivot
    and no entry in any other pivot column.
    """
    p = field.characteristic
    # pivot column -> row with a 1 there and a 0 in every other pivot column
    pivot_rows = {}
    for row in rows:
        # a pivot row has no entry in another pivot column, so these
        # subtractions leave row[c] of the later c unchanged
        for c in [c for c in row if c in pivot_rows]:
            _subtract(row, row[c], pivot_rows[c], p)
        if not row:
            continue
        c = min(row)
        if p:
            inv = pow(row[c], -1, p)
            row = {j: v * inv % p for j, v in row.items()}
        else:
            inv = field.one() / row[c]
            row = {j: v * inv for j, v in row.items()}
        for prow in pivot_rows.values():
            f = prow.get(c)
            if f:
                _subtract(prow, f, row, p)
        pivot_rows[c] = row
    return {c: pivot_rows[c] for c in sorted(pivot_rows)}


def rref(field, A):
    """Reduced row echelon form of dense rows.  Returns (R, pivot_columns).

    R has the shape of A: its nonzero rows in ascending pivot order, then
    its zero rows.  A is not modified.  A dense adapter over `rref_rows`.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    p = field.characteristic
    z = field.zero()
    # `x is not z` passes over the shared zero without a method call
    if p:
        rows = ({j: x.v for j, x in enumerate(dense) if x is not z and x.v}
                for dense in A)
    else:
        rows = ({j: x for j, x in enumerate(dense) if x is not z and x}
                for dense in A)
    pivot_rows = rref_rows(field, rows)
    R = []
    for row in pivot_rows.values():
        out = [z] * n
        for j, v in row.items():
            out[j] = field.from_int(v) if p else v
        R.append(out)
    R.extend([z] * n for _ in range(m - len(pivot_rows)))
    return R, list(pivot_rows)


def rank(field, A):
    return len(rref(field, A)[1])


def kernel_basis(field, A, ncols=None):
    """Basis of the right kernel of A, as a list of column vectors.

    Basis vectors are indexed by the free columns in ascending order, each
    with a 1 in its free position (the standard rref kernel basis).
    """
    if ncols is None:
        ncols = len(A[0]) if A else 0
    if not A:
        return [[field.one() if i == j else field.zero() for i in range(ncols)]
                for j in range(ncols)]
    R, pivots = rref(field, A)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    z, o = field.zero(), field.one()
    basis = []
    for fc in free:
        v = [z] * ncols
        v[fc] = o
        for row, pc in zip(R, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def solve(field, A, B):
    """Solve A X = B column-wise; least-pivot particular solution.

    Returns X (n x q) or None when inconsistent.  Free variables are zero.
    """
    m = len(A)
    n = len(A[0]) if A else 0
    q = len(B[0]) if B else 0
    if m == 0:
        return zeros(field, n, q)
    aug = [A[i] + B[i] for i in range(m)]
    R, pivots = rref(field, aug)
    pivots_in_A = [c for c in pivots if c < n]
    if len(pivots_in_A) != len(pivots):
        return None  # a pivot fell in the B block: inconsistent
    X = zeros(field, n, q)
    for r, pc in enumerate(pivots_in_A):
        for j in range(q):
            X[pc][j] = R[r][n + j]
    return X


def inverse(field, A):
    """The inverse of a square matrix, or None when A is singular.

    One elimination of [A | I]: it has a pivot in the I block exactly when
    A is singular, and for square A the X with A X = I also has X A = I.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        return None
    return solve(field, A, identity(field, n))
