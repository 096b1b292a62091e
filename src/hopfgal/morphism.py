"""Degree-preserving linear maps and the categorical operations on them.

A `Morphism` is a sparse exact matrix with typed domain and codomain.
Entries outside matching degrees are forbidden, so every morphism is
automatically a map of graded spaces.  (Co)equalisers are computed
degree-block by degree-block with deterministic pivoting, hence their
bases are reproducible and homogeneous.
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
        clean = {}
        for (i, j), v in entries.items():
            if not (0 <= i < cod.dim and 0 <= j < dom.dim):
                raise TypeError("entry (%d,%d) outside %dx%d" % (i, j, cod.dim, dom.dim))
            if not v:
                continue
            if cod.degrees[i] != dom.degrees[j]:
                raise TypeError(
                    "entry (%d,%d) violates degree preservation (%r vs %r)"
                    % (i, j, cod.degrees[i], dom.degrees[j]))
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


# -- degree-blocked elimination helpers -------------------------------------

def _blocks(degrees):
    """Indices grouped by degree, degrees in order of first occurrence."""
    order = []
    groups = {}
    for idx, d in enumerate(degrees):
        if d not in groups:
            groups[d] = []
            order.append(d)
        groups[d].append(idx)
    return order, groups


def _dense_block(f, rows, cols):
    z = f.field.zero()
    pos_r = {r: a for a, r in enumerate(rows)}
    pos_c = {c: b for b, c in enumerate(cols)}
    block = [[z] * len(cols) for _ in rows]
    for (i, j), v in f.entries.items():
        a = pos_r.get(i)
        b = pos_c.get(j)
        if a is not None and b is not None:
            block[a][b] = v
    return block


def kernel(f):
    """(E, iota) with iota: E -> dom(f) a basis of ker f, homogeneous."""
    field = f.field
    dom = f.dom
    order, col_groups = _blocks(dom.degrees)
    _, row_groups = _blocks(f.cod.degrees)
    degs = []
    entries = {}
    col = 0
    for d in order:
        cols = col_groups[d]
        rows = row_groups.get(d, [])
        block = _dense_block(f, rows, cols)
        for vec in linalg.kernel_basis(field, block, ncols=len(cols)):
            for b, c in enumerate(cols):
                if vec[b]:
                    entries[(c, col)] = vec[b]
            degs.append(d)
            col += 1
    E = GradedSpace(dom.group, tuple(degs))
    return E, Morphism(E, dom, entries)


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


def factor_through_equaliser(c, iota):
    """The unique x with iota o x = c (iota assumed injective)."""
    if c.cod != iota.cod:
        raise TypeError("factor_through_equaliser: codomains differ")
    field = c.field
    _, amb_rows = _blocks(iota.cod.degrees)
    _, e_cols = _blocks(iota.dom.degrees)
    order, c_cols = _blocks(c.dom.degrees)
    entries = {}
    for d in order:
        ccols = c_cols[d]
        rows = amb_rows.get(d, [])
        ecols = e_cols.get(d, [])
        A = _dense_block(iota, rows, ecols)
        B = _dense_block(c, rows, ccols)
        X = linalg.solve(field, A, B)
        if X is None:
            raise FactorizationError(
                "image does not lie in the subobject (degree %r)" % (d,))
        for a, r in enumerate(ecols):
            for b, cc in enumerate(ccols):
                if X[a][b]:
                    entries[(r, cc)] = X[a][b]
    # degrees present in c's codomain but with no c-columns need no work;
    # consistency outside matched degrees is checked here:
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
    """Exact invertibility check with witness: inverse or defect data."""
    K, iota = kernel(f)
    rk = f.dom.dim - K.dim
    coker_dim = f.cod.dim - rk
    if K.dim == 0 and coker_dim == 0:
        # invert degree-block by degree-block
        field = f.field
        order, col_groups = _blocks(f.dom.degrees)
        _, row_groups = _blocks(f.cod.degrees)
        entries = {}
        ok = True
        for d in order:
            cols = col_groups[d]
            rows = row_groups.get(d, [])
            if len(rows) != len(cols):
                ok = False
                break
            block = _dense_block(f, rows, cols)
            inv = linalg.inverse(field, block)
            if inv is None:
                ok = False
                break
            for a, c in enumerate(cols):
                for b, r in enumerate(rows):
                    if inv[a][b]:
                        entries[(c, r)] = inv[a][b]
        if ok:
            g = Morphism(f.cod, f.dom, entries)
            return InvertibilityReport(True, g, rk, 0, 0, None)
    return InvertibilityReport(False, None, rk, K.dim, coker_dim,
                               iota if K.dim else None)
