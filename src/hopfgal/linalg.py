"""Exact linear algebra over a `Field`, on one sparse elimination kernel.

Scalars are the field's own: over QQ an int when integral and otherwise a
Fraction with denominator > 1, over F_p an int in [0, p).  `rref_rows` is
the only elimination.  It takes a matrix as sparse rows, dicts from column
to nonzero scalar, and works in two phases, each touching only entries
that are there:

- forward: each row is cleared of the pivot columns it holds, taken in
  increasing order from a heap that also receives the later pivot columns
  fill-in lands in, and its leading entry is scaled to 1 (no inversion
  and no rescaled copy when it is 1 already);
- back-substitution, once, in descending pivot order: the same clearing
  loop subtracts from each echelon row the final rows of the later pivot
  columns it holds.

It returns the pivot rows, which hold scalars in that form, so a row of
ints reduced against pivots of +-1 stays a row of ints.
The program calls `rref_rows` for every kernel, factorisation, rank and
morphism system, and `inverse` for the inverse of an invertible map.

Dense matrices are lists of equal-length rows of field scalars.  `rref`
is the dense adapter: it reads dense rows into dicts, calls `rref_rows`
and writes the pivot rows back out.
`kernel_basis`, `solve` and `rank` read their answers off it; with `rref`
they are the dense reference oracle the tests check the sparse paths
against, and they stay here, beside `inverse`, for the benchmark tracer.

The reduced row echelon form of a matrix is unique, so `rref` returns
exactly what dense Gauss-Jordan elimination (columns left to right,
topmost pivot) returns, whatever order the sparse kernel works in, which
keeps every output reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _forward(row, heap, echelon, p):
    """Clear from row, in place, every column that has an echelon row;
    heap holds the ones row has now.

    The columns are taken in increasing order: an echelon row has no entry
    left of its pivot, so subtracting it changes row only at that pivot
    and to its right, and a later pivot column it fills in is pushed.  A
    column pushed twice is found already cleared.  Back-substitution
    calls it with final rows, which hold no other pivot column, so no
    fill-in lands in a pivot column and the heap only pops.
    """
    heapify(heap)
    while heap:
        c = heappop(heap)
        f = row.get(c)
        if f is None:
            continue
        for j, x in echelon[c].items():
            v = row.get(j)
            if v is None:
                v = -f * x
                if j in echelon:
                    heappush(heap, j)
            else:
                v -= f * x
            if p:
                v %= p
            elif type(v) is Fraction and v.denominator == 1:
                v = v.numerator
            if v:
                row[j] = v
            else:
                del row[j]


def rref_rows(field, rows):
    """The canonical RREF of a sparse matrix given row by row.

    rows: an iterable of dicts from column to nonzero scalar in the
    field's canonical form (over QQ an int, or a Fraction with denominator
    > 1; over F_p an int in [0, p)); the dicts are reduced in place, and a
    reduced row may be returned as the very dict it came in.
    Returns {pivot column: reduced row} in ascending pivot order; each
    reduced row is such a dict, with a 1 at its pivot and no entry in any
    other pivot column.

    Forward phase: each row is cleared of the pivot columns it holds and
    its leading entry scaled to 1, with no inversion when it is 1 already.
    Back-substitution: in descending pivot order each echelon row
    subtracts the final rows of the later pivot columns it holds.
    """
    p = field.characteristic
    reduce = field.reduce
    # pivot column -> row with a 1 there and no entry to its left
    echelon = {}
    for row in rows:
        heap = [c for c in row if c in echelon]
        if heap:
            _forward(row, heap, echelon, p)
        if not row:
            continue
        c = min(row)
        lead = row[c]
        if lead != 1:
            inv = field.inv(lead)
            if p:
                row = {j: v * inv % p for j, v in row.items()}
            else:
                row = {j: reduce(v * inv) for j, v in row.items()}
        echelon[c] = row
    pivots = sorted(echelon)
    # a final row has no entry in another pivot column, so the subtractions
    # from one row commute and leave its other pivot columns untouched
    for c in reversed(pivots):
        row = echelon[c]
        _forward(row, [j for j in row if j != c and j in echelon], echelon, p)
    return {c: echelon[c] for c in pivots}


def rref(field, A):
    """Reduced row echelon form of dense rows.  Returns (R, pivot_columns).

    R has the shape of A: its nonzero rows in ascending pivot order, then
    its zero rows.  A is not modified.  A dense adapter over `rref_rows`;
    A's entries may be any field scalars, an integral Fraction too.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    reduce = field.reduce
    pivot_rows = rref_rows(field, ({j: reduce(x) for j, x in enumerate(dense)
                                    if x} for dense in A))
    R = []
    for row in pivot_rows.values():
        out = [0] * n
        for j, v in row.items():
            out[j] = v
        R.append(out)
    R.extend([0] * n for _ in range(m - len(pivot_rows)))
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
        return identity(ncols)
    R, pivots = rref(field, A)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(R, pivots):
            v[pc] = field.reduce(-row[fc])
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
        return zeros(n, q)
    aug = [A[i] + B[i] for i in range(m)]
    R, pivots = rref(field, aug)
    pivots_in_A = [c for c in pivots if c < n]
    if len(pivots_in_A) != len(pivots):
        return None  # a pivot fell in the B block: inconsistent
    X = zeros(n, q)
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
    return solve(field, A, identity(n))
