"""Bundle data over a Hopf algebra and the principality checks.

The algebra side packages a comodule algebra P with a chosen base
subalgebra B and inclusion pi; the comonoid side packages a module
coalgebra with a base quotient coalgebra.  A principal bundle in Vect^op
is a faithfully flat Hopf-Galois extension, so the comonoid side is the
algebra side read in Vect^op, and `Bundle` holds the one pipeline,
written in Vect against the operation tables of `hopf` (`VECT`;
`VECT_OP` reverses composition, trades the two factorisations and takes
the cotensor for the balanced tensor product), which the structure laws
and the (co)invariants there are written against too.  It builds the
actions through pi, P (x)_B P, can, the three A-laws, the comparison map
from the (co)invariants' inclusion and the two laws of
`canonical_map_linearity`, and runs the stages: condition A (the laws on
pi, then the comparison map's isomorphism report), condition B (can
bijective, read off the `can_verdict` stage) and `check_principal`.
Each derived map and stage is a plain method under `memoised`, which
keeps its first result in the bundle's `_cache` under its name.
`AlgebraBundle` supplies P.mult, rho, H.unit and H.comult,
`CoalgebraBundle` P.comult, the action, H.counit and H.mult; each names
its items and supplies condition C (the comonoid side answers it
through its dual).  can is computed by factoring an explicit composite
through the deterministic (co)equaliser, so failures surface as
quantitative defects (corank of can, kernel of the comparison map)
rather than exceptions.

Condition C asks for a section s: P -> B (x) P of the left action q that
is left B-linear and H-colinear.  B acts on B (x) P through its left
factor only, so s splits along the last factor into one map P -> B[delta]
per basis vector of P, delta its degree and B[delta] = B with every degree
raised by delta, and s is B-linear exactly when each of them is: Hom_B(P,
B (x) P) = Hom_B(P, B) (x) P, degree by degree, for any structure
constants, with no algebra or action law needed.  So `b_linear_maps`
solves for a basis of the B-linear maps P -> B[delta], for delta = 0 and
each degree of P, and stacks it as Phi: P -> B (x) K; the sections are
s = (id_B (x) C) o Phi for an unknown C: K -> P, held only by the
splitting q s = id and the colinearity block.  The delta = 0 maps span
the trace ideal.  A colinear section is a section, so `faithful_flatness`
reuses it, and solves the splitting alone only when there is none.

Each such equation on an unknown s is a list of terms c * f o T(s) o g
with T(s) = id_X (x) s (x) id_Y, either leg absent.  `_assemble_system`
builds the column of each degree-matched unknown E_ij, the entry
i * dim dom + j, from vec(f o T(E_ij) o g), as sparse rows of the
field's own scalars (over QQ an int, or a Fraction with denominator > 1;
over F_p an int in [0, p)) that `linalg.rref_rows` eliminates directly.
It assembles one equation at a time and presolves: an unknown that a
homogeneous one-unknown row forces to zero joins a forced set, leaves
every row and is not assembled again, and that row is dropped; the
canonical RREF, hence the least-pivot solution, the nullspace basis and
every report byte, is that of the full system.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from . import linalg
from .hopf import (VECT, VECT_OP, action_laws, algebra_map_laws,
                   check_algebra, coinvariants_of, hom_laws)
# compose is only called through the tables, but stays bound here:
# bench/tracer.py rebinds and restores it in every module that holds it,
# and its self-test checks this module's binding
from .morphism import (FactorizationError, Morphism, compose,
                       compose_tensor, dualize, is_isomorphism, sparse_rows,
                       tensor)
from .report import Report, equality_check
from .spaces import GradedSpace, unit_space


# -- (co)module (co)algebra structures ---------------------------------------

class ComoduleAlgebra:
    """An algebra P with a coaction rho: P -> P (x) H that is an algebra map."""

    __slots__ = ("algebra", "hopf", "coaction")

    def __init__(self, algebra, hopf, coaction):
        P, H = algebra.space, hopf.space
        if coaction.dom != P or coaction.cod != P.tensor(H):
            raise TypeError("coaction has wrong shape")
        self.algebra = algebra
        self.hopf = hopf
        self.coaction = coaction

    @property
    def space(self):
        return self.algebra.space

    def dualize(self):
        return ModuleCoalgebra(self.algebra.dualize(), self.hopf.dualize(),
                               dualize(self.coaction))


class ModuleCoalgebra:
    """A coalgebra P with an action act: P (x) H -> P that is a coalgebra map."""

    __slots__ = ("coalgebra", "hopf", "action")

    def __init__(self, coalgebra, hopf, action):
        P, H = coalgebra.space, hopf.space
        if action.dom != P.tensor(H) or action.cod != P:
            raise TypeError("action has wrong shape")
        self.coalgebra = coalgebra
        self.hopf = hopf
        self.action = action

    @property
    def space(self):
        return self.coalgebra.space

    def dualize(self):
        return ComoduleAlgebra(self.coalgebra.dualize(), self.hopf.dualize(),
                               dualize(self.action))


def check_comodule_algebra(x):
    rep = Report()
    rep.extend(check_algebra(x.algebra), prefix="carrier.")
    rep.items.extend(action_laws(x.coaction, x.hopf, "coaction_coassoc",
                                 "coaction_counit", VECT_OP))
    rep.items.extend(algebra_map_laws(x.coaction, x.algebra, x.algebra,
                                      x.hopf, "coaction_mult",
                                      "coaction_unit"))
    return rep


def check_module_coalgebra(x):
    rep = Report()
    rep.extend(check_algebra(x.coalgebra, "coassociativity", "counit_right",
                             "counit_left", VECT_OP), prefix="carrier.")
    rep.items.extend(action_laws(x.action, x.hopf, "action_assoc",
                                 "action_unit"))
    # act is a coalgebra map out of the braided tensor coalgebra P (x) H
    rep.items.extend(algebra_map_laws(x.action, x.coalgebra, x.coalgebra,
                                      x.hopf, "action_comult",
                                      "action_counit", VECT_OP))
    return rep


# -- linear morphism-system solver -------------------------------------------
#
# A linear condition on an unknown s: dom -> cod is an equation
# (terms, rhs), meaning sum of c * f o T(s) o g over its terms == rhs.  Each
# term is (c, f, X, Y, g): an int c, morphisms f and g, f None for the
# identity of T(s)'s codomain, and the spaces X and Y of T(s) =
# id_X (x) s (x) id_Y, None for a missing leg.


def _unknowns(dom, cod):
    """The degree-matched entries (i, j) of s: dom -> cod, as i * dom.dim + j."""
    d = dom.dim
    return [i * d + j for i in range(cod.dim) for j in range(d)
            if cod.degrees[i] == dom.degrees[j]]


def _unknown_count(dom, cod):
    """len(_unknowns(dom, cod)), from the degree multiplicities."""
    per_degree = Counter(dom.degrees)
    return sum(per_degree[d] for d in cod.degrees)


def _legs(X, Y, dom, cod):
    """T's domain and codomain for T(s) = id_X (x) s (x) id_Y."""
    if X is not None:
        dom, cod = X.tensor(dom), X.tensor(cod)
    if Y is not None:
        dom, cod = dom.tensor(Y), cod.tensor(Y)
    return dom, cod


def _assemble_system(dom, cod, equations):
    """The stacked linear system of `equations` on s: dom -> cod, presolved,
    as sparse rows.

    Returns (n, rows, forced).  Column i * dom.dim + j is the unknown
    s_ij, for each degree-matched entry (i, j) of s, and column n =
    cod.dim * dom.dim is the right-hand side; rows maps a row index to a
    dict from column to nonzero scalar, both ascending; forced is the set
    of unknowns fixed at zero.  Each equation gives one row block, indexed
    by the entries (r, c) of its output as r * width + c.  A term's column
    for the unknown E_ij is vec(f o T(E_ij) o g): the products of column
    (x, i, y) of f with row (x, j, y) of g, summed over the legs (x, y).
    The nonzero columns of f and rows of g are split into i and the leg
    pair, and j and the leg pair, once per term, so for each unknown only
    the leg pairs where both are nonzero are visited, and its products go
    straight into the row dicts.  An identity f (None) is never split: its
    column (x, i, y) is the output row of that index, so each row of g is
    read once, at the output positions for i = 0, and E_ij moves them
    i * dim Y rows down (i rows without a Y leg).

    The blocks are assembled in order, each only over the unknowns still
    live.  A homogeneous row with one unknown k forces s_k = 0: k joins
    forced, leaves the live set and every row so far, and the row is not
    kept.  This is exact: e_k lies in the row space, so dropping multiples
    of it, from earlier rows and from the later blocks, leaves the row
    space as it is.  The canonical RREF of the full system is the pivot
    rows `linalg.rref_rows` returns on the rows, with {k: 1} added for
    each forced k; no other pivot row has an entry in column k.
    """
    p = dom.field.characteristic
    d = dom.dim
    n = cod.dim * d
    live = _unknowns(dom, cod)
    rows = {}
    forced = set()
    offset = 0
    for terms, rhs in equations:
        width = rhs.dom.dim
        prepared = []  # (f's columns by i, g's rows by j) per term
        integral = not p  # over QQ, no Fraction in the block's f and g
        for c, f, X, Y, g in terms:
            t_dom, t_cod = _legs(X, Y, dom, cod)
            f_ends = (t_cod, t_cod) if f is None else (f.dom, f.cod)
            if (*f_ends, g.dom, g.cod) != (t_cod, rhs.cod, rhs.dom, t_dom):
                raise TypeError("a term's f o T(s) o g does not have the "
                                "endpoints of its equation's right-hand side")
            if integral:
                integral = not any(type(v) is Fraction for h in (f, g)
                                   if h is not None for v in h.entries.values())
            # an index of T(s)'s (co)domain is (x, u, y) as (x * m + u) *
            # m_y + y, with m the dim of s's (co)domain and m_y = dim Y (1
            # without a Y leg); the leg pair (x, y) is keyed as x * m_y + y
            m_y = 1 if Y is None else Y.dim
            f_cols, g_rows = {}, {}
            if f is None:
                # the identity: T(E_ij)'s entry ((x, i, y), col) is the
                # output's, i * m_y rows below that of i = 0, so each g_j
                # is one list under one key, and each f_i one step
                for (k, col), v in g.entries.items():
                    x, j = divmod(k // m_y, d)
                    g_rows.setdefault(j, {0: []})[0].append(
                        (offset + (x * cod.dim * m_y + k % m_y) * width + col,
                         c * v))
                f_cols = {i: {0: [(i * m_y * width, 1)]}
                          for i in range(cod.dim)}
            else:
                # f's entry (r, (x, i, y)) lands in row offset + r * width
                for (r, k), v in f.entries.items():
                    x, i = divmod(k // m_y, cod.dim)
                    f_cols.setdefault(i, {}).setdefault(
                        x * m_y + k % m_y, []).append(
                            (offset + r * width, c * v))
                for (k, col), v in g.entries.items():
                    x, j = divmod(k // m_y, d)
                    g_rows.setdefault(j, {}).setdefault(
                        x * m_y + k % m_y, []).append((col, v))
            prepared.append((f_cols, g_rows))
        block = {}
        for k in live:
            i, j = divmod(k, d)
            for f_cols, g_rows in prepared:
                f_i = f_cols.get(i)
                if f_i is None:
                    continue
                g_j = g_rows.get(j)
                if g_j is None:
                    continue
                for x, f_col in f_i.items():
                    g_row = g_j.get(x)
                    if g_row is None:
                        continue
                    for a, fv in f_col:
                        for b, gv in g_row:
                            row = block.get(a + b)
                            if row is None:
                                block[a + b] = {k: fv * gv}
                            else:
                                row[k] = row.get(k, 0) + fv * gv
        for (r, col), v in rhs.entries.items():
            block.setdefault(offset + r * width + col, {})[n] = v
        offset += rhs.cod.dim * width
        settled = len(forced)
        for r in sorted(block):
            row = block.pop(r)
            if p:
                row = {k: v % p for k, v in row.items() if v % p}
            elif integral:
                if 0 in row.values():
                    row = {k: v for k, v in row.items() if v}
            else:
                row = {k: (v.numerator if type(v) is Fraction
                           and v.denominator == 1 else v)
                       for k, v in row.items() if v}
            if len(row) == 1 and n not in row:
                forced.update(row)  # its one unknown
            elif row:
                rows[r] = row
        if len(forced) > settled:
            empty = []
            for r, row in rows.items():
                for k in [k for k in row if k in forced]:
                    del row[k]
                if not row:
                    empty.append(r)
            for r in empty:
                del rows[r]
            live = [k for k in live if k not in forced]
    return n, rows, forced


def solve_morphism_system(dom, cod, equations):
    """Deterministic particular solution s: dom -> cod, or None.

    The least-pivot solution of the canonical RREF: free and forced
    unknowns are zero.
    """
    n, rows, _ = _assemble_system(dom, cod, equations)
    pivot_rows = linalg.rref_rows(dom.field, rows.values())
    if n in pivot_rows:  # a pivot in the right-hand side: inconsistent
        return None
    return Morphism(dom, cod, {divmod(c, dom.dim): row[n]
                               for c, row in pivot_rows.items() if n in row})


def morphism_nullspace(dom, cod, equations):
    """Basis of the space of s: dom -> cod solving the homogeneous system.

    One basis morphism per free unknown (neither pivot nor forced),
    ascending: 1 there and minus the free column of each pivot row at that
    row's pivot.
    """
    d = dom.dim
    n, rows, forced = _assemble_system(dom, cod, equations)
    for row in rows.values():
        row.pop(n, None)
    pivot_rows = linalg.rref_rows(dom.field, rows.values())
    basis = {k: {} for k in _unknowns(dom, cod)
             if k not in pivot_rows and k not in forced}
    for c, row in pivot_rows.items():
        for k, v in row.items():
            if k != c:
                basis[k][divmod(c, d)] = -v
    out = []
    for k, entries in basis.items():
        entries[divmod(k, d)] = 1
        out.append(Morphism(dom, cod, entries))
    return out


# -- the bundle pipeline -----------------------------------------------------

def memoised(fn):
    """fn(obj), computed on the first call and kept in obj._cache under
    fn's name; a call that raises keeps nothing.  Unlike functools.wraps,
    it sets no `__wrapped__`, which bench/tracer.py reads as a span."""
    key = fn.__name__

    def method(obj):
        cache = obj._cache
        if key not in cache:
            cache[key] = fn(obj)
        return cache[key]
    method.__name__, method.__doc__ = key, fn.__doc__
    return method


class Bundle:
    """The principal-bundle pipeline, written in Vect and run in a side's
    category.

    The comonoid side is the algebra side read in Vect^op, so every map
    conditions A and B read is built here once: the left and right
    actions through pi, (P (x)_B P, Pi), can, the three A-laws, the
    comparison map from the (co)invariants and the two sides of each
    `canonical_map_linearity` law.  A side sets `ops` (`hopf.VECT` or
    `hopf.VECT_OP`) and, in its own category, the structure maps m_P,
    coact (P -> P (x) H), u_H and cm_H; it names its items
    (`law_names`, `comparison_failure`, `linearity_names`) and supplies
    condition C (`equivariant_projectivity`, `faithful_flatness`).  Each
    side binds conditions A, B and C and `check_principal` in its own
    class `__dict__`, because bench/tracer.py patches the stages there.
    """

    def __init__(self, base, pi):
        self.base = base
        self.pi = pi
        self._cache = {}

    @memoised
    def left_action(self):
        """B (x) P -> P through pi."""
        return self.ops.tensor_compose(
            self.m_P, [self.pi, Morphism.identity(self.P.space)])

    @memoised
    def right_action(self):
        """P (x) B -> P through pi."""
        return self.ops.tensor_compose(
            self.m_P, [Morphism.identity(self.P.space), self.pi])

    @memoised
    def p_tensor_p(self):
        """(P (x)_B P, Pi)."""
        return self.ops.tensor_over(self.right_action(), self.left_action())

    def _second_leg(self, m, g):
        """(m (x) id_H) o (id_P (x) g), g into P (x) H: a braided sandwich
        whose inner legs are the unit, where the braiding is the
        identity."""
        P, H = self.P.space, self.H.space
        return self.ops.braided_compose(
            m, Morphism.identity(H), Morphism.identity(P), g,
            (P, unit_space(P.group)), (P, H))

    @memoised
    def canonical_map(self):
        _, Pi = self.p_tensor_p()
        return self.ops.factor_through_coequaliser(
            self._second_leg(self.m_P, self.coact), Pi)

    def _base_laws(self):
        """pi is an algebra map, and it equalises coact and id (x) u_H."""
        d, pi = self.ops, self.pi
        idP = Morphism.identity(self.P.space)
        mult, unit, equalises = self.law_names
        return hom_laws(pi, self.base, self.P, mult, unit, d) + [
            equality_check(equalises, d.compose(self.coact, pi),
                           d.compose_tensor([idP, self.u_H], pi))]

    def _comparison_map(self):
        """pi factored through the inclusion of the (co)invariants."""
        _, iota = coinvariants_of(self.coact, self.H, self.ops)
        return self.ops.factor_through_equaliser(self.pi, iota)

    def linearity_sides(self):
        """The (lhs, rhs) pairs of `canonical_map_linearity`'s two laws."""
        d = self.ops
        idP = Morphism.identity(self.P.space)
        idH = Morphism.identity(self.H.space)
        _, Pi = self.p_tensor_p()
        can = self.canonical_map()
        # left P-action on P (x)_B P, factored through id (x) Pi
        lact = d.factor_through_coequaliser(
            d.tensor_compose(Pi, [self.m_P, idP]), tensor(idP, Pi))
        # right H-coaction on P (x)_B P from the second leg
        coact = d.factor_through_coequaliser(
            self._second_leg(Pi, self.coact), Pi)
        return ((d.compose(can, lact), self._second_leg(self.m_P, can)),
                (d.compose_tensor([idP, self.cm_H], can),
                 d.compose_tensor([can, idH], coact)))

    @memoised
    def condition_A(self):
        rep = Report()
        rep.items.extend(self._base_laws())
        try:
            phi = self._comparison_map()
        except FactorizationError:
            return rep.add("A.comparison_iso", False,
                           details={"reason": self.comparison_failure})
        inv = is_isomorphism(phi)
        return rep.add("A.comparison_iso", inv.is_iso,
                       details={"rank": inv.rank, "kernel_dim": inv.kernel_dim,
                                "cokernel_dim": inv.cokernel_dim})

    @memoised
    def can_verdict(self):
        """The `is_isomorphism` report on can, or None when can does not
        exist."""
        try:
            can = self.canonical_map()
        except FactorizationError:
            return None
        return is_isomorphism(can)

    @memoised
    def condition_B(self):
        try:
            can = self.canonical_map()
        except FactorizationError as err:
            return Report().add("B.can_bijective", False,
                                details={"reason": str(err)})
        inv = self.can_verdict()
        detail = {"rank": inv.rank, "kernel_dim": inv.kernel_dim,
                  "corank": inv.cokernel_dim, "dim_dom": can.dom.dim,
                  "dim_cod": can.cod.dim}
        return Report().add("B.can_bijective", inv.is_iso, details=detail,
                            witness=inv.kernel_inclusion)

    def can_inverse(self):
        inv = self.can_verdict()
        return None if inv is None else inv.inverse

    @memoised
    def check_principal(self):
        rep = Report()
        rep.extend(self.condition_A())
        rep.extend(self.condition_B())
        rep.extend(self.equivariant_projectivity())
        rep.extend(self.faithful_flatness())
        s_inv = is_isomorphism(self.H.antipode)
        rep.add("antipode_bijective", True,
                details={"bijective": "true" if s_inv.is_iso else "false"})
        proj = rep["C.equivariant_projective"].ok
        flat = rep["C.faithfully_flat"].ok
        # the two condition-C criteria are equivalent only for a
        # bijective antipode; report agreement instead of assuming it
        rep.add("C.criteria_agree", True,
                details={"projective": str(proj).lower(),
                         "faithfully_flat": str(flat).lower(),
                         "equivalence_expected":
                         "true" if s_inv.is_iso else "false"})
        principal = (rep["A.comparison_iso"].ok and
                     rep["B.can_bijective"].ok and proj and flat)
        return rep.add("principal", principal)


class AlgebraBundle(Bundle):
    """A comodule algebra with a chosen base inclusion pi: B -> P."""

    def __init__(self, como, base, pi):
        if not isinstance(como, ComoduleAlgebra):
            raise TypeError("algebra-side bundle needs a ComoduleAlgebra")
        if pi.dom != base.space or pi.cod != como.space:
            raise TypeError("pi must map the base into the total space")
        super().__init__(base, pi)
        self.como = como
        self.P, self.H, self.rho = como.algebra, como.hopf, como.coaction
        self.m_P, self.coact = self.P.mult, self.rho
        self.u_H, self.cm_H = self.H.unit, self.H.comult

    side = "algebra"
    ops = VECT
    law_names = ("A.pi_mult", "A.pi_unit", "A.pi_equalises")
    linearity_names = ("can_left_P_linear", "can_right_H_colinear")
    comparison_failure = "pi does not land in the invariants"
    # bench/tracer.py patches the stages through each class's own __dict__
    condition_A = Bundle.condition_A
    condition_B = Bundle.condition_B
    check_principal = Bundle.check_principal

    @memoised
    def b_linear_maps(self):
        """(maps, K, Phi): maps[delta] is the `morphism_nullspace` basis of
        the left B-linear maps P -> B[delta], for delta = 0 and each degree
        of P, and Phi: P -> B (x) K stacks them, K one vector of degree
        delta per map in maps[delta].

        B[delta] = B (x) k_delta is B with every degree raised by delta,
        k_delta the line of degree delta, and f: P -> B[delta] is B-linear
        when f q = (m_B (x) id) (id_B (x) f)."""
        P, B = self.como.space, self.base.space
        BP, q = B.tensor(P), self.left_action()
        maps = {}
        for delta in sorted({0, *P.degrees}):
            line = GradedSpace(P.group, (delta,))
            shifted = B.tensor(line)
            m_B = tensor(self.base.mult, Morphism.identity(line))
            maps[delta] = morphism_nullspace(P, shifted, [(
                [(1, None, None, None, q),
                 (-1, m_B, B, None, Morphism.identity(BP))],
                Morphism.zero(BP, shifted))])
        stacked = [(delta, f) for delta in maps for f in maps[delta]]
        K = GradedSpace(P.group, tuple(delta for delta, _ in stacked))
        Phi = Morphism(P, B.tensor(K), {
            (b * K.dim + a, p): v for a, (_, f) in enumerate(stacked)
            for (b, p), v in f.entries.items()})
        return maps, K, Phi

    def _section_equations(self, colinear):
        """Linear conditions on C: K -> P for the section s = (id_B (x) C)
        Phi of the left action: q s = id and, when colinear,
        (id_B (x) rho) s = (s (x) id_H) rho."""
        P, B, H = self.como.space, self.base.space, self.H.space
        _, _, Phi = self.b_linear_maps()
        eqs = [([(1, self.left_action(), B, None, Phi)], Morphism.identity(P))]
        if colinear:
            rho_Phi = compose_tensor([Phi, Morphism.identity(H)], self.rho)
            eqs.append(
                ([(1, tensor(Morphism.identity(B), self.rho), B, None, Phi),
                  (-1, None, B, H, rho_Phi)],
                 Morphism.zero(P, B.tensor(P).tensor(H))))
        return eqs

    def _solve_section(self, colinear):
        """The section s: P -> B (x) P of `_section_equations`, or None."""
        _, K, Phi = self.b_linear_maps()
        C = solve_morphism_system(K, self.como.space,
                                  self._section_equations(colinear))
        return None if C is None else compose_tensor(
            [Morphism.identity(self.base.space), C], Phi)

    @memoised
    def equivariant_projectivity(self):
        P = self.como.space
        s = self._solve_section(colinear=True)
        unknowns = _unknown_count(P, self.base.space.tensor(P))
        return Report().add("C.equivariant_projective", s is not None,
                            details={"dim_unknowns": unknowns}, witness=s)

    def section(self):
        return self.equivariant_projectivity()[
            "C.equivariant_projective"].witness

    @memoised
    def faithful_flatness(self):
        P, B = self.como.space, self.base.space
        # a colinear section is a section; solve without colinearity only
        # when there is none
        s = self.section()
        if s is None:
            s = self._solve_section(colinear=False)
        rep = Report().add("C.projective", s is not None, witness=s)
        # trace ideal: the joint image of all left-B-linear maps P -> B,
        # spanned by their columns, the rows of their transposes
        maps, _, _ = self.b_linear_maps()
        columns = [row for f in maps[0]
                   for row in sparse_rows(f, transposed=True).values()]
        trace_rank = len(linalg.rref_rows(P.field, columns))
        rep.add("C.trace_ideal_full", trace_rank == B.dim,
                details={"trace_rank": trace_rank, "dim_base": B.dim})
        return rep.add("C.faithfully_flat",
                       s is not None and trace_rank == B.dim)

    def dualize(self):
        return CoalgebraBundle(self.como.dualize(), self.base.dualize(),
                               dualize(self.pi))


class CoalgebraBundle(Bundle):
    """A module coalgebra with a chosen base quotient pi: P -> B, the
    algebra side's pipeline run in Vect^op."""

    def __init__(self, modc, base, pi):
        if not isinstance(modc, ModuleCoalgebra):
            raise TypeError("comonoid-side bundle needs a ModuleCoalgebra")
        if pi.dom != modc.space or pi.cod != base.space:
            raise TypeError("pi must map the total space onto the base")
        super().__init__(base, pi)
        self.modc = modc
        self.P, self.H, self.action = modc.coalgebra, modc.hopf, modc.action
        self.m_P, self.coact = self.P.comult, self.action
        self.u_H, self.cm_H = self.H.counit, self.H.mult

    side = "comonoid"
    ops = VECT_OP
    law_names = ("A.pi_comult", "A.pi_counit", "A.pi_coequalises")
    linearity_names = ("can_left_P_colinear", "can_right_H_linear")
    comparison_failure = "pi does not factor the quotient"
    # the algebra side's maps, read in Vect^op
    right_coaction = Bundle.right_action
    left_coaction = Bundle.left_action
    p_cotensor_p = Bundle.p_tensor_p
    # bench/tracer.py patches the stages through each class's own __dict__
    condition_A = Bundle.condition_A
    condition_B = Bundle.condition_B
    check_principal = Bundle.check_principal

    @memoised
    def equivariant_projectivity(self):
        return self.dualize().equivariant_projectivity()

    @memoised
    def faithful_flatness(self):
        return self.dualize().faithful_flatness()

    @memoised
    def dualize(self):
        return AlgebraBundle(self.modc.dualize(), self.base.dualize(),
                             dualize(self.pi))


def canonical_map_linearity(b):
    """can is a map of left P-(co)modules and right H-(co)modules.

    On the algebra side: can is left P-linear for the induced action on
    P (x)_B P, and right H-colinear for the coaction inherited from the
    second leg; dually on the comonoid side.  Returns a two-item report;
    when can or an induced structure does not exist, both items fail with
    the factorisation's reason.
    """
    rep = Report()
    try:
        sides = b.linearity_sides()
    except FactorizationError as err:
        for name in b.linearity_names:
            rep.add(name, False, details={"reason": str(err)})
        return rep
    for name, (lhs, rhs) in zip(b.linearity_names, sides):
        rep.items.append(equality_check(name, lhs, rhs))
    return rep
