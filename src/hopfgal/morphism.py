"""Degree-preserving linear maps and the categorical operations on them.

A `Morphism` is a sparse exact matrix with typed domain and codomain.
Entries outside matching degrees are forbidden, so every morphism is
automatically a map of graded spaces.  Kernels, (co)equalisers,
factorisations and ranks come from one sparse elimination of the entries,
`linalg.rref_rows`, over all degrees at once; its canonical RREF makes
every basis reproducible, and kernel bases are grouped by degree, so they
are homogeneous.  The tensor product over a base
(`tensor_over`) and the cotensor product (`cotensor`) are the
(co)equalisers of the two middle (co)actions.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .spaces import GradedSpace


class FactorizationError(Exception):
    """A universal-property factorisation does not exist.

    Signals a violated commuting-diagram precondition upstream, not a bug
    in the solver.
    """


class Morphism:
    __slots__ = ("dom", "cod", "entries")

    def __init__(self, dom, cod, entries):
        if dom.group != cod.group:
            raise TypeError("domain and codomain over different grading groups")
        self.dom = dom
        self.cod = cod
        m, n = cod.dim, dom.dim
        cdeg, ddeg = cod.degrees, dom.degrees
        clean = {}
        for (i, j), v in entries.items():
            if not (0 <= i < m and 0 <= j < n):
                raise TypeError("entry (%d,%d) outside %dx%d" % (i, j, m, n))
            if not v:
                continue
            if cdeg[i] != ddeg[j]:
                raise TypeError(
                    "entry (%d,%d) violates degree preservation (%r vs %r)"
                    % (i, j, cdeg[i], ddeg[j]))
            clean[(i, j)] = v
        self.entries = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, dom, cod, rows):
        entries = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return cls(dom, cod, entries)

    @classmethod
    def identity(cls, V):
        one = V.field.one()
        return cls(V, V, {(i, i): one for i in range(V.dim)})

    @classmethod
    def zero(cls, dom, cod):
        return cls(dom, cod, {})

    # -- basics ------------------------------------------------------------

    @property
    def field(self):
        return self.dom.field

    def to_rows(self):
        z = self.field.zero()
        rows = [[z] * self.dom.dim for _ in range(self.cod.dim)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def __eq__(self, other):
        return (isinstance(other, Morphism) and other.dom == self.dom
                and other.cod == self.cod and other.entries == self.entries)

    def __hash__(self):
        return hash((self.dom, self.cod, frozenset(self.entries.items())))

    def __repr__(self):
        return "Morphism(%d x %d, %d nonzero)" % (
            self.cod.dim, self.dom.dim, len(self.entries))

    def is_zero(self):
        return not self.entries

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if other.dom != self.dom or other.cod != self.cod:
            raise TypeError("sum of morphisms with different endpoints")
        entries = dict(self.entries)
        for k, v in other.entries.items():
            s = entries.get(k)
            entries[k] = v if s is None else s + v
        return Morphism(self.dom, self.cod, entries)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Morphism(self.dom, self.cod, {k: -v for k, v in self.entries.items()})

    def scale(self, c):
        return Morphism(self.dom, self.cod, {k: c * v for k, v in self.entries.items()})

    def __matmul__(self, other):
        return compose(self, other)


def compose(f, g):
    """f o g (apply g first)."""
    if f.dom != g.cod:
        raise TypeError("compose: inner spaces differ (%r vs %r)" % (f.dom, g.cod))
    by_col = {}
    for (i, k), v in f.entries.items():
        by_col.setdefault(k, []).append((i, v))
    entries = {}
    for (k, j), gv in g.entries.items():
        for i, fv in by_col.get(k, ()):
            key = (i, j)
            s = entries.get(key)
            p = fv * gv
            entries[key] = p if s is None else s + p
    return Morphism(g.dom, f.cod, {k: v for k, v in entries.items() if v})


def tensor(f, g):
    """Kronecker product under the left-factor-major basis convention."""
    dom = f.dom.tensor(g.dom)
    cod = f.cod.tensor(g.cod)
    gd, gc = g.dom.dim, g.cod.dim
    entries = {}
    for (i, j), fv in f.entries.items():
        for (k, l), gv in g.entries.items():
            entries[(i * gc + k, j * gd + l)] = fv * gv
    return Morphism(dom, cod, entries)


def tensor_many(*fs):
    out = fs[0]
    for f in fs[1:]:
        out = tensor(out, f)
    return out


def compose_tensor(fs, g):
    """(f_1 (x) ... (x) f_k) o g without building the Kronecker product.

    Each nonzero of g in row r meets only column r of f_1 (x) ... (x) f_k,
    whose nonzeros are the products of one nonzero from column c_i of each
    f_i, where (c_1, ..., c_k) is r split left factor major.  The cost is
    nnz(g) times the product of those column counts; the product itself,
    with nnz(f_1) ... nnz(f_k) entries, is never built.
    """
    dom = fs[0].dom
    cod = fs[0].cod
    for f in fs[1:]:
        dom = dom.tensor(f.dom)
        cod = cod.tensor(f.cod)
    if dom != g.cod:
        raise TypeError("compose_tensor: inner spaces differ (%r vs %r)"
                        % (dom, g.cod))
    # per factor: column -> [(row, value)], with the factor's dims
    factors = []
    for f in fs:
        by_col = {}
        for (i, k), v in f.entries.items():
            by_col.setdefault(k, []).append((i, v))
        factors.append((by_col, f.dom.dim, f.cod.dim))
    entries = {}
    for (r, j), gv in g.entries.items():
        # split r right to left; terms are (row so far, product so far)
        terms = [(0, gv)]
        stride = 1
        for by_col, d_dom, d_cod in reversed(factors):
            r, c = divmod(r, d_dom)
            col = by_col.get(c)
            if col is None:
                terms = ()
                break
            terms = [(row + i * stride, v * fv)
                     for row, v in terms for i, fv in col]
            stride *= d_cod
        for i, v in terms:
            key = (i, j)
            s = entries.get(key)
            entries[key] = v if s is None else s + v
    return Morphism(g.dom, cod, {k: v for k, v in entries.items() if v})


def braiding(V, W):
    """tau_{V,W}: V (x) W -> W (x) V, e_i (x) f_j -> chi(|f_j|, |e_i|) f_j (x) e_i."""
    if V.group != W.group:
        raise TypeError("braiding of spaces over different grading groups")
    group = V.group
    entries = {}
    for i, di in enumerate(V.degrees):
        for j, dj in enumerate(W.degrees):
            entries[(j * V.dim + i, i * W.dim + j)] = group.chi(dj, di)
    return Morphism(V.tensor(W), W.tensor(V), entries)


def dualize(f):
    """Transpose; domain/codomain swap and degrees are negated."""
    return Morphism(
        f.cod.dual(), f.dom.dual(),
        {(j, i): v for (i, j), v in f.entries.items()})


# -- sparse elimination ------------------------------------------------------

def box(field, v):
    """The field element of a raw scalar as `linalg.rref_rows` takes and
    returns it (a Fraction over QQ, an int mod p over F_p)."""
    return field.from_int(v) if field.characteristic else v


def raw_rows(f, rows=None, shift=0):
    """f's nonzeros as sparse rows of raw scalars, row -> {column: value},
    added into `rows` with every column moved right by `shift`."""
    p = f.field.characteristic
    rows = {} if rows is None else rows
    for (i, j), v in f.entries.items():
        rows.setdefault(i, {})[j + shift] = v.v if p else v
    return rows


def _kernel_inclusion(dom, pivot_rows):
    """(E, iota) read off the canonical RREF of a map out of dom.

    One basis vector per free column: a 1 there and minus the pivot row's
    entry at each pivot.  Free columns are grouped by degree, degrees in
    order of first occurrence, ascending within a degree.
    """
    field = dom.field
    groups = {}
    for j, d in enumerate(dom.degrees):
        groups.setdefault(d, []).append(j)
    free = [j for cols in groups.values() for j in cols
            if j not in pivot_rows]
    position = {j: k for k, j in enumerate(free)}
    one = field.one()
    entries = {(j, k): one for k, j in enumerate(free)}
    for c, row in pivot_rows.items():
        for j, v in row.items():
            if j != c:
                entries[(c, position[j])] = box(field, -v)
    E = GradedSpace(dom.group, tuple(dom.degrees[j] for j in free))
    return E, Morphism(E, dom, entries)


def kernel(f):
    """(E, iota) with iota: E -> dom(f) a basis of ker f, homogeneous.

    One elimination over every degree at once: a degree-preserving map
    never mixes its degree blocks, so each RREF row lies in one of them.
    """
    pivot_rows = linalg.rref_rows(f.field, raw_rows(f).values())
    return _kernel_inclusion(f.dom, pivot_rows)


def cokernel(f):
    """(Q, Pi) with Pi: cod(f) -> Q surjective, Pi o f = 0, dim Q maximal."""
    Qd, iota_d = kernel(dualize(f))
    Pi = dualize(iota_d)
    return Pi.cod, Pi


def equaliser(f, g):
    """Equaliser of a parallel pair, computed as ker(f - g)."""
    if f.dom != g.dom or f.cod != g.cod:
        raise TypeError("equaliser of a non-parallel pair")
    return kernel(f - g)


def coequaliser(f, g):
    if f.dom != g.dom or f.cod != g.cod:
        raise TypeError("coequaliser of a non-parallel pair")
    return cokernel(f - g)


def tensor_over(act_right, act_left):
    """(M (x)_B N, Pi) from a right action M (x) B -> M and a left action
    B (x) N -> N; the coequaliser of the two middle contractions."""
    M, N = act_right.cod, act_left.cod
    f = tensor(act_right, Morphism.identity(N))
    g = tensor(Morphism.identity(M), act_left)
    return coequaliser(f, g)


def cotensor(coact_right, coact_left):
    """(M box_B N, iota) from a right coaction M -> M (x) B and a left
    coaction N -> B (x) N; the equaliser of the two middle insertions."""
    M, N = coact_right.dom, coact_left.dom
    f = tensor(coact_right, Morphism.identity(N))
    g = tensor(Morphism.identity(M), coact_left)
    return equaliser(f, g)


def factor_through_equaliser(c, iota):
    """The unique x with iota o x = c (iota assumed injective).

    One elimination of [iota | c]: free unknowns are zero, and a pivot in
    the c block names a degree where c leaves iota's image.
    """
    if c.cod != iota.cod:
        raise TypeError("factor_through_equaliser: codomains differ")
    field = c.field
    n = iota.dom.dim
    pivot_rows = linalg.rref_rows(
        field, raw_rows(c, raw_rows(iota), n).values())
    bad = {c.dom.degrees[col - n] for col in pivot_rows if col >= n}
    if bad:
        d = next(d for d in c.dom.degrees if d in bad)
        raise FactorizationError(
            "image does not lie in the subobject (degree %r)" % (d,))
    entries = {}
    for r, row in pivot_rows.items():
        for col, v in row.items():
            if col >= n:
                entries[(r, col - n)] = box(field, v)
    x = Morphism(c.dom, iota.dom, entries)
    if compose(iota, x) != c:
        raise FactorizationError("factorisation through equaliser failed")
    return x


def factor_through_coequaliser(c, Pi):
    """The unique x with x o Pi = c (Pi assumed surjective)."""
    if c.dom != Pi.dom:
        raise TypeError("factor_through_coequaliser: domains differ")
    x = dualize(factor_through_equaliser(dualize(c), dualize(Pi)))
    if compose(x, Pi) != c:
        raise FactorizationError("factorisation through coequaliser failed")
    return x


@dataclass
class InvertibilityReport:
    is_iso: bool
    inverse: Morphism | None
    rank: int
    kernel_dim: int
    cokernel_dim: int
    kernel_inclusion: Morphism | None

    @property
    def corank(self):
        return self.cokernel_dim


def is_isomorphism(f):
    """Exact invertibility check with witness: inverse or defect data.

    `kernel` gives the rank and the kernel witness; only a square map of
    full rank is then inverted.
    """
    E, iota = kernel(f)
    rk = f.dom.dim - E.dim
    coker_dim = f.cod.dim - rk
    if E.dim == 0 and coker_dim == 0:
        inv = linalg.inverse(f.field, f.to_rows())
        return InvertibilityReport(
            True, Morphism.from_rows(f.cod, f.dom, inv), rk, 0, 0, None)
    return InvertibilityReport(False, None, rk, E.dim, coker_dim,
                               iota if E.dim else None)
