"""Degree-preserving linear maps and the categorical operations on them.

A `Morphism` is a sparse exact matrix with typed domain and codomain.
Its entries are the field's own nonzero scalars: over QQ an int, or a
Fraction with denominator > 1, and over F_p an int in (0, p).  The
constructor is the one place entries are put in that form (reduced mod p,
an integral Fraction turned into its numerator), so the operations here
build entries with the plain operators and leave normalising and
zero-dropping to it.  Entries outside matching degrees are forbidden, so
every morphism is automatically a map of graded spaces.  The constructor
takes over the dict it is given and checks it in place: one pass checks
the bounds of every key, zero-valued ones included, writes back each
value that was not canonical and collects the zeros, which are deleted
after it; a second checks degree preservation over the kept entries and
is skipped only for the trivial grading, where it cannot fail.  Every
caller hands it a fresh dict.  A canonical dict is never written to, so
two morphisms may share one: neither ever mutates it.
`compose_tensor` ((f_1 (x) ... (x) f_k) o g) and `tensor_compose`
(f o (g_1 (x) ... (x) g_k)) compose with a Kronecker product without
building it, or its inner space: they apply the legs one at a time, right
to left, each non-identity leg one pass over the entries and each
identity leg skipped, and under the trivial grading they check the inner
space by the product of the dims.  `braided_compose`, the sandwich
(m1 (x) m2) o (id (x) tau (x) id) o (f (x) g) of every braided law and
structure map, is one pass over pairs of columns of f and g.  With the
unit as its inner legs, where the braiding is the identity, it is the
overlapping composite (A (x) id) o (id (x) B): braided_compose(A, id,
id, B, (X, I), (Y, Z)) for B: W -> Y (x) Z, with no id (x) B built.
Kernels, (co)equalisers and ranks come from one sparse elimination,
`linalg.rref_rows`, over all degrees at once; its canonical RREF makes
every basis reproducible, and kernel bases are grouped by degree, so they
are homogeneous.  An equaliser eliminates the rows of f - g, and a
coequaliser or cokernel those of the transpose, written straight from the
entry dicts by the one row writer `sparse_rows`: neither -g, nor f - g,
nor a transpose is built as a morphism.  `kernel_tensor_id` reads the
kernel of D (x) id_W as ker(D) (x) id_W, with no second elimination: the
Kronecker product of D's kernel inclusion with id_W, its columns put in
the order `kernel` uses, and that order, which carries a map into the
pair back to the Kronecker basis.  A factorisation is read off unit
lines, a row (or column) whose only nonzero is a 1: x with iota o x = c
is c's rows at a unit row of iota for each of its columns, and x with
x o Pi = c is c's columns at a unit column of Pi for each of its rows.
Without a full set of them, or when that x fails the `compose` check
every factorisation ends in, one elimination of [iota | c] solves it or
names the degree where c leaves the image.  The tensor product over a
base (`tensor_over`) and the cotensor product (`cotensor`) are the
(co)equalisers of the two middle (co)actions.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import chain

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
        group = dom.group
        if group != cod.group:
            raise TypeError("domain and codomain over different grading groups")
        self.dom = dom
        self.cod = cod
        m, n = cod.dim, dom.dim
        p = dom.field.characteristic
        zeros = []
        # every key is bounds-checked, zero-valued ones included; a value
        # is written back only when it was not canonical
        if p:
            for k, v in entries.items():
                i, j = k
                if i < 0 or i >= m or j < 0 or j >= n:
                    raise TypeError("entry (%d,%d) outside %dx%d" % (i, j, m, n))
                w = v % p
                if not w:
                    zeros.append(k)
                elif w != v:
                    entries[k] = w
        else:
            for k, v in entries.items():
                i, j = k
                if i < 0 or i >= m or j < 0 or j >= n:
                    raise TypeError("entry (%d,%d) outside %dx%d" % (i, j, m, n))
                if not v:
                    zeros.append(k)
                elif type(v) is Fraction and v.denominator == 1:
                    entries[k] = v.numerator
        for k in zeros:
            del entries[k]
        # Z_1 has the one degree 0, so only a Z_n grading can be violated
        if group.n != 1:
            cdeg, ddeg = cod.degrees, dom.degrees
            for i, j in entries:
                if cdeg[i] != ddeg[j]:
                    raise TypeError(
                        "entry (%d,%d) violates degree preservation (%r vs %r)"
                        % (i, j, cdeg[i], ddeg[j]))
        self.entries = entries

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
        return cls(V, V, {(i, i): 1 for i in range(V.dim)})

    @classmethod
    def zero(cls, dom, cod):
        return cls(dom, cod, {})

    # -- basics ------------------------------------------------------------

    @property
    def field(self):
        return self.dom.field

    def to_rows(self):
        rows = [[0] * self.dom.dim for _ in range(self.cod.dim)]
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


def _by_column(f):
    """f's nonzeros by column: {column: [(row, value)]}."""
    by_col = {}
    for (i, k), v in f.entries.items():
        by_col.setdefault(k, []).append((i, v))
    return by_col


def compose(f, g):
    """f o g (apply g first)."""
    if f.dom != g.cod:
        raise TypeError("compose: inner spaces differ (%r vs %r)" % (f.dom, g.cod))
    by_col = _by_column(f)
    entries = {}
    for (k, j), gv in g.entries.items():
        for i, fv in by_col.get(k, ()):
            key = (i, j)
            s = entries.get(key)
            p = fv * gv
            entries[key] = p if s is None else s + p
    return Morphism(g.dom, f.cod, entries)


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


def _tensor_spaces(spaces):
    """V_1 (x) ... (x) V_k."""
    out = spaces[0]
    for V in spaces[1:]:
        out = out.tensor(V)
    return out


def _tensor_is(spaces, W):
    """Whether V_1 (x) ... (x) V_k == W.

    The product of the dims is compared first, so a product of another
    dimension than W's is never built.  Under the trivial grading every
    degree is 0, so the group and the dims decide.  A Z_n grading, or a
    factor over another group (which `tensor` rejects), builds the product
    and compares it.
    """
    dim = 1
    for V in spaces:
        dim *= V.dim
    if dim != W.dim:
        return False
    group = W.group
    if group.n == 1 and all(V.group == group for V in spaces):
        return True
    return _tensor_spaces(spaces) == W


def _is_identity(f):
    """Whether f is exactly id_V: dom == cod and entries {(i, i): 1}."""
    entries = f.entries
    return (len(entries) == f.dom.dim and f.dom == f.cod
            and all(i == j and v == 1 for (i, j), v in entries.items()))


def _fold_legs(entries, legs, columns):
    """Apply a Kronecker product to the rows (or, if `columns`, the
    columns) of `entries`, one leg at a time.

    The index it acts on runs over the product of the legs' input spaces,
    left leg major.  `legs` holds per leg (lines, d_in, d_out): lines maps
    an input coordinate x to its nonzeros [(y, value)], and is None for an
    identity leg.  Legs are applied right to left.  With S the product of
    the output dims of the legs already applied, an index splits as
    (prefix, x, suffix) with suffix < S and becomes prefix * d_out * S +
    y * S + suffix.  Each leg's lines are scaled by S once.  An identity
    leg leaves every index where it is and costs nothing, so with only
    identity legs `entries` itself comes back.
    """
    stride = 1
    for lines, d_in, d_out in reversed(legs):
        if lines is not None:
            out = {}
            get = out.get
            block = d_out * stride
            scaled = {x: [(y * stride, w) for y, w in line]
                      for x, line in lines.items()}
            if columns:
                for (o, r), v in entries.items():
                    q, s = divmod(r, stride)
                    q, x = divmod(q, d_in)
                    line = scaled.get(x)
                    if line is not None:
                        base = q * block + s
                        for y, w in line:
                            key = (o, base + y)
                            out[key] = get(key, 0) + v * w
            else:
                for (r, o), v in entries.items():
                    q, s = divmod(r, stride)
                    q, x = divmod(q, d_in)
                    line = scaled.get(x)
                    if line is not None:
                        base = q * block + s
                        for y, w in line:
                            key = (base + y, o)
                            out[key] = get(key, 0) + v * w
            entries = out
        stride *= d_out
    return entries


def compose_tensor(fs, g):
    """(f_1 (x) ... (x) f_k) o g without building the Kronecker product.

    A right-to-left fold over the legs (`_fold_legs`): each non-identity
    f_i is one pass over the current entries, sending row (prefix, c,
    suffix) to (prefix, r, suffix) for each nonzero (r, c) of f_i, and an
    identity leg is skipped.  The product is never built.  Its domain is
    checked against g.cod by `_tensor_is`, and its codomain is g.cod
    itself when every f_i is an endomorphism.  With only identity legs the
    result shares g's canonical dict, which the constructor never writes.
    """
    doms = [f.dom for f in fs]
    if not _tensor_is(doms, g.cod):
        raise TypeError("compose_tensor: inner spaces differ (%r vs %r)"
                        % (_tensor_spaces(doms), g.cod))
    legs = []
    for f in fs:
        if _is_identity(f):
            legs.append((None, f.dom.dim, f.dom.dim))
            continue
        legs.append((_by_column(f), f.dom.dim, f.cod.dim))
    if all(f.dom == f.cod for f in fs):
        cod = g.cod
    else:
        cod = _tensor_spaces([f.cod for f in fs])
    return Morphism(g.dom, cod, _fold_legs(g.entries, legs, False))


def tensor_compose(f, gs):
    """f o (g_1 (x) ... (x) g_k) without building the Kronecker product.

    The mirror of `compose_tensor`: the same fold over f's columns, each
    non-identity g_i sending column (prefix, r, suffix) to (prefix, c,
    suffix) for each nonzero (r, c) of g_i.  The codomain of the product
    is checked against f.dom by `_tensor_is`, and its domain is f.dom
    itself when every g_i is an endomorphism; with only identity legs the
    result shares f's dict.
    """
    cods = [g.cod for g in gs]
    if not _tensor_is(cods, f.dom):
        raise TypeError("tensor_compose: inner spaces differ (%r vs %r)"
                        % (f.dom, _tensor_spaces(cods)))
    legs = []
    for g in gs:
        if _is_identity(g):
            legs.append((None, g.cod.dim, g.cod.dim))
            continue
        by_row = {}
        for (k, j), v in g.entries.items():
            by_row.setdefault(k, []).append((j, v))
        legs.append((by_row, g.cod.dim, g.dom.dim))
    if all(g.dom == g.cod for g in gs):
        dom = f.dom
    else:
        dom = _tensor_spaces([g.dom for g in gs])
    return Morphism(dom, f.cod, _fold_legs(f.entries, legs, True))


def _split_columns(f, d):
    """{column: [(r // d, r % d, value)]} over f's nonzeros (r, column)."""
    cols = {}
    for (r, c), v in f.entries.items():
        r1, r2 = divmod(r, d)
        cols.setdefault(c, []).append((r1, r2, v))
    return cols


def braided_compose(m1, m2, f, g, U, V):
    """(m1 (x) m2) o (id_U1 (x) tau_{U2,V1} (x) id_V2) o (f (x) g) in one
    pass, U and V the factors of f.cod and g.cod: each pair of nonzeros
    (u1 (x) u2, c) of f and (v1 (x) v2, c') of g sends u1 (x) v1 through
    m1 and u2 (x) v2 through m2, scaled by chi(|v1|, |u2|), into column
    c * dim(g.dom) + c'.  The four factorings are checked by `_tensor_is`.
    """
    U1, U2 = U
    V1, V2 = V
    for spaces, W in ((U, f.cod), (V, g.cod), ((U1, V1), m1.dom),
                      ((U2, V2), m2.dom)):
        if not _tensor_is(spaces, W):
            raise TypeError("braided_compose: inner spaces differ (%r vs %r)"
                            % (_tensor_spaces(spaces), W))
    group = U2.group
    twist = None  # twist[u2][v1] = chi(|v1|, |u2|)
    if not group.is_trivial:
        rows = {d: [group.chi(e, d) for e in V1.degrees]
                for d in set(U2.degrees)}
        twist = [rows[d] for d in U2.degrees]
    dv1, dv2, d2, gd = V1.dim, V2.dim, m2.cod.dim, g.dom.dim
    lines1, lines2 = _by_column(m1), _by_column(m2)
    f_cols = _split_columns(f, U2.dim)
    g_cols = _split_columns(g, dv2)
    entries = {}
    for cf, f_col in f_cols.items():
        for cg, g_col in g_cols.items():
            col = cf * gd + cg
            for u1, u2, fv in f_col:
                a0, b0 = u1 * dv1, u2 * dv2
                tw = None if twist is None else twist[u2]
                for v1, v2, gv in g_col:
                    line1 = lines1.get(a0 + v1)
                    if line1 is None:
                        continue
                    line2 = lines2.get(b0 + v2)
                    if line2 is None:
                        continue
                    w = fv * gv
                    if tw is not None:
                        w *= tw[v1]
                    for a, av in line1:
                        wa = w * av
                        row = a * d2
                        for b, bv in line2:
                            key = (row + b, col)
                            t = entries.get(key)
                            p = wa * bv
                            entries[key] = p if t is None else t + p
    return Morphism(f.dom.tensor(g.dom), m1.cod.tensor(m2.cod), entries)


def braiding_endpoints(V, W):
    """(V (x) W, W (x) V), the domain and codomain of tau_{V,W}."""
    if V.group != W.group:
        raise TypeError("braiding of spaces over different grading groups")
    return V.tensor(W), W.tensor(V)


def braiding(V, W):
    """tau_{V,W}: V (x) W -> W (x) V, e_i (x) f_j -> chi(|f_j|, |e_i|) f_j (x) e_i."""
    dom, cod = braiding_endpoints(V, W)
    chi = V.group.chi
    rows = {d: [chi(e, d) for e in W.degrees] for d in set(V.degrees)}
    m, n = V.dim, W.dim
    entries = {}
    for i, di in enumerate(V.degrees):
        for j, c in enumerate(rows[di]):
            entries[(j * m + i, i * n + j)] = c
    return Morphism(dom, cod, entries)


def dualize(f):
    """Transpose; domain/codomain swap and degrees are negated."""
    return Morphism(
        f.cod.dual(), f.dom.dual(),
        {(j, i): v for (i, j), v in f.entries.items()})


# -- sparse elimination ------------------------------------------------------

def sparse_rows(f, g=None, transposed=False):
    """The sparse rows `linalg.rref_rows` takes, row -> {column: value}, of
    f - g (of f alone when g is None), or of its transpose if `transposed`,
    written straight from the entry dicts.

    An entry of f alone is taken as it is and one of g alone negated; a
    shared one is put through `field.reduce` and dropped when it cancels.
    Neither -g, nor f - g, nor a transpose is built as a morphism.
    """
    a, b = (1, 0) if transposed else (0, 1)
    rows = {}
    for key, v in f.entries.items():
        rows.setdefault(key[a], {})[key[b]] = v
    if g is not None:
        reduce = f.field.reduce
        for key, v in g.entries.items():
            row = rows.setdefault(key[a], {})
            j = key[b]
            w = row.get(j)
            if w is None:
                row[j] = reduce(-v)
                continue
            w = reduce(w - v)
            if w:
                row[j] = w
            else:
                del row[j]
    return rows


def _by_degree(space, columns):
    """The ascending list `columns` of `space` in the order kernel bases use:
    grouped by degree, degrees in order of first occurrence in `space`,
    ascending within a degree."""
    if space.group.n == 1:  # Z_1 has the one degree 0: one group
        return columns
    degrees = space.degrees
    groups = {d: [] for d in dict.fromkeys(degrees)}
    for j in columns:
        groups[degrees[j]].append(j)
    return list(chain.from_iterable(groups.values()))


def _free_basis(space, pivot_rows):
    """(degrees, entries) of the kernel basis read off a canonical RREF
    whose columns index `space`.

    One basis vector per free column, in `_by_degree` order: a 1 there and
    minus the pivot row's entry at each pivot, keyed (column, vector).
    """
    degrees = space.degrees
    free = _by_degree(space, [j for j in range(len(degrees))
                              if j not in pivot_rows])
    position = {j: k for k, j in enumerate(free)}
    entries = {(j, k): 1 for k, j in enumerate(free)}
    for c, row in pivot_rows.items():
        for j, v in row.items():
            if j != c:
                entries[(c, position[j])] = -v
    return tuple([degrees[j] for j in free]), entries


def _kernel_inclusion(dom, pivot_rows):
    """(E, iota) read off the canonical RREF of a map out of dom; the basis
    is `_free_basis`."""
    degrees, entries = _free_basis(dom, pivot_rows)
    E = GradedSpace(dom.group, degrees)
    return E, Morphism(E, dom, entries)


def _cokernel_projection(cod, pivot_rows):
    """(Q, Pi) read off the canonical RREF of the transpose of a map into
    cod: Pi is the transpose of that transpose's kernel inclusion.

    The free columns are grouped by the degrees of cod, which fall into
    the same groups, in the same order, as their negatives in the dual, so
    Q and Pi are what dualising the kernel of the transpose gives.
    """
    degrees, entries = _free_basis(cod, pivot_rows)
    Q = GradedSpace(cod.group, degrees)
    return Q, Morphism(cod, Q, {(k, j): v for (j, k), v in entries.items()})


def kernel(f):
    """(E, iota) with iota: E -> dom(f) a basis of ker f, homogeneous.

    One elimination over every degree at once: a degree-preserving map
    never mixes its degree blocks, so each RREF row lies in one of them.
    """
    pivot_rows = linalg.rref_rows(f.field, sparse_rows(f).values())
    return _kernel_inclusion(f.dom, pivot_rows)


def cokernel(f):
    """(Q, Pi) with Pi: cod(f) -> Q surjective, Pi o f = 0, dim Q maximal,
    read off the RREF of f's transposed rows."""
    pivot_rows = linalg.rref_rows(
        f.field, sparse_rows(f, transposed=True).values())
    return _cokernel_projection(f.cod, pivot_rows)


def equaliser(f, g):
    """Equaliser of a parallel pair: ker(f - g), eliminated from the rows
    of f - g (`sparse_rows`)."""
    if f.dom != g.dom or f.cod != g.cod:
        raise TypeError("equaliser of a non-parallel pair")
    pivot_rows = linalg.rref_rows(f.field, sparse_rows(f, g).values())
    return _kernel_inclusion(f.dom, pivot_rows)


def coequaliser(f, g):
    """Coequaliser of a parallel pair: coker(f - g), eliminated from the
    rows of its transpose."""
    if f.dom != g.dom or f.cod != g.cod:
        raise TypeError("coequaliser of a non-parallel pair")
    pivot_rows = linalg.rref_rows(
        f.field, sparse_rows(f, g, transposed=True).values())
    return _cokernel_projection(f.cod, pivot_rows)


def kernel_tensor_id(iota, W):
    """(E (x) W, iota (x) id_W, order) for a kernel inclusion iota: E -> V
    read off a canonical RREF, as `kernel` and `equaliser` give it.

    If iota is the kernel of D, then iota (x) id_W spans the kernel of
    D (x) id_W, and the canonical RREF of D (x) id_W has the free column
    j*m + x (m = dim W) for each free column j of D's and each x < m.  A
    basis vector's free column is the last row it holds, so the columns of
    iota (x) id_W are put in `_by_degree` order of those free columns,
    which makes the pair the one `kernel` reads off D (x) id_W.  order[p]
    is the Kronecker column k*m + x that is column p of the pair, so a map
    into the returned space is carried to the Kronecker basis of E (x) W
    by renaming its rows through order.  Under the trivial grading the
    Kronecker order is already that order.
    """
    F = tensor(iota, Morphism.identity(W))
    if F.dom.group.n == 1:
        return F.dom, F, range(F.dom.dim)
    m = W.dim
    last = {k: i for i, k in sorted(iota.entries)}
    column = {last[k] * m + x: k * m + x
              for k in range(iota.dom.dim) for x in range(m)}
    free = _by_degree(F.cod, sorted(column))
    order = [column[j] for j in free]
    position = {c: p for p, c in enumerate(order)}
    degrees = F.cod.degrees
    E = GradedSpace(F.dom.group, tuple([degrees[j] for j in free]))
    return E, Morphism(E, F.cod, {(i, position[c]): v
                                  for (i, c), v in F.entries.items()}), order


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


def _unit_lines(f, rows):
    """{line: k}: for each k, one line of f whose only nonzero is a 1 at k,
    or None when some k has none.

    With `rows` the lines are f's rows and k runs over its columns;
    otherwise the lines are its columns and k runs over its rows.  A full
    set of unit rows is an identity block, so f is injective; a full set
    of unit columns makes f surjective.
    """
    a, b = (0, 1) if rows else (1, 0)
    entries = f.entries
    count = Counter([key[a] for key in entries])
    line_of = {}
    for key, v in entries.items():
        if v == 1 and count[key[a]] == 1:
            line_of.setdefault(key[b], key[a])
    if len(line_of) < (f.dom.dim if rows else f.cod.dim):
        return None
    return {line: k for k, line in line_of.items()}


def _eliminate_factor(c, iota):
    """The x with iota o x = c from one elimination of [iota | c].

    Free unknowns are zero, and a pivot in the c block names a degree
    where c leaves iota's image.
    """
    n = iota.dom.dim
    rows = sparse_rows(iota)
    for (i, j), v in c.entries.items():
        rows.setdefault(i, {})[j + n] = v
    pivot_rows = linalg.rref_rows(c.field, rows.values())
    bad = {c.dom.degrees[col - n] for col in pivot_rows if col >= n}
    if bad:
        d = next(d for d in c.dom.degrees if d in bad)
        raise FactorizationError(
            "image does not lie in the subobject (degree %r)" % (d,))
    entries = {}
    for r, row in pivot_rows.items():
        for col, v in row.items():
            if col >= n:
                entries[(r, col - n)] = v
    return Morphism(c.dom, iota.dom, entries)


def factor_through_equaliser(c, iota):
    """The unique x with iota o x = c (iota assumed injective).

    When iota has a unit row for every column, x is c's rows at those
    rows.  Otherwise, or when that x fails the check iota o x == c, one
    elimination of [iota | c] (`_eliminate_factor`) solves it, or raises
    where c leaves iota's image.  Either way x passes that check.
    """
    if c.cod != iota.cod:
        raise TypeError("factor_through_equaliser: codomains differ")
    x = None
    unit = _unit_lines(iota, True)
    if unit is not None:
        x = Morphism(c.dom, iota.dom, {(unit[i], j): v for (i, j), v
                                       in c.entries.items() if i in unit})
    if x is None or compose(iota, x) != c:
        x = _eliminate_factor(c, iota)
        if compose(iota, x) != c:
            raise FactorizationError("factorisation through equaliser failed")
    return x


def factor_through_coequaliser(c, Pi):
    """The unique x with x o Pi = c (Pi assumed surjective).

    The mirror of `factor_through_equaliser`: x is c's columns at Pi's
    unit columns, or else the transpose of the elimination of
    [Pi^T | c^T].
    """
    if c.dom != Pi.dom:
        raise TypeError("factor_through_coequaliser: domains differ")
    x = None
    unit = _unit_lines(Pi, False)
    if unit is not None:
        x = Morphism(Pi.cod, c.cod, {(i, unit[j]): v for (i, j), v
                                     in c.entries.items() if j in unit})
    if x is None or compose(x, Pi) != c:
        x = dualize(_eliminate_factor(dualize(c), dualize(Pi)))
        if compose(x, Pi) != c:
            raise FactorizationError("factorisation through coequaliser failed")
    return x


# `inverse` and `kernel_inclusion` are Morphisms or None
InvertibilityReport = namedtuple("InvertibilityReport", (
    "is_iso", "inverse", "rank", "kernel_dim", "cokernel_dim",
    "kernel_inclusion"))


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
