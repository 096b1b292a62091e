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
`canonical_map_linearity`, and runs the memoised stages: condition A
(the laws on pi, then the comparison map's isomorphism report),
condition B (can bijective, caching its verdict) and `check_principal`.
`AlgebraBundle` supplies P.mult, rho, H.unit and H.comult,
`CoalgebraBundle` P.comult, the action, H.counit and H.mult; each names
its items and supplies condition C (the comonoid side answers it
through its dual).  can is computed by factoring an explicit composite
through the deterministic (co)equaliser, so failures surface as
quantitative defects (corank of can, kernel of the comparison map)
rather than exceptions.

Condition C solves linear systems for an unknown morphism s (a section
P -> B (x) P of the left action, or a left-B-linear map P -> B).  Each
equation is a list of terms c * f o T(s) o g with T(s) one of s,
id_X (x) s and s (x) id_X.  `_assemble_system` builds the column of each
degree-matched unknown E_ij, the entry i * dim P + j, from vec(f o E_ij
o g) = (g^T (x) f) vec(E_ij), as sparse rows of the field's own scalars
(over QQ an int, or a Fraction with denominator > 1; over F_p an int in
[0, p)) that `linalg.rref_rows` eliminates directly.  It assembles one
equation at a time and presolves: an unknown that a homogeneous
one-unknown row forces to zero joins a forced set, leaves every row and
is not assembled again, and that row is dropped.  Nearly all section
unknowns are forced this way; the canonical RREF, hence the least-pivot
section, the nullspace basis and every report byte, is that of the full
system.  A colinear section solves the non-colinear system too, so
`faithful_flatness` reuses it.
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
                       dualize, is_isomorphism, sparse_rows, tensor,
                       tensor_compose)
from .report import Report, equality_check


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
# term is (c, f, X, side, g): an int c, morphisms f and g, and T(s) = s
# when X is None, id_X (x) s when side is LEFT, s (x) id_X when it is RIGHT.

LEFT, RIGHT = "left", "right"


def _unknowns(dom, cod):
    """The degree-matched entries (i, j) of s: dom -> cod, as i * dom.dim + j."""
    d = dom.dim
    return [i * d + j for i in range(cod.dim) for j in range(d)
            if cod.degrees[i] == dom.degrees[j]]


def _unknown_count(dom, cod):
    """len(_unknowns(dom, cod)), from the degree multiplicities."""
    per_degree = Counter(dom.degrees)
    return sum(per_degree[d] for d in cod.degrees)


def _legs(X, side, dom, cod):
    """T's domain and codomain for T(s) = s, id_X (x) s or s (x) id_X."""
    if X is None:
        return dom, cod
    if side == LEFT:
        return X.tensor(dom), X.tensor(cod)
    return dom.tensor(X), cod.tensor(X)


def _assemble_system(dom, cod, equations):
    """The stacked linear system of `equations` on s: dom -> cod, presolved,
    as sparse rows.

    Returns (n, rows, forced).  Column i * dom.dim + j is the unknown
    s_ij, for each degree-matched entry (i, j) of s, and column n =
    cod.dim * dom.dim is the right-hand side; rows maps a row index to a
    dict from column to nonzero scalar, both ascending; forced is the set
    of unknowns fixed at zero.  Each equation gives one row block, indexed
    by the entries (r, c) of its output as r * width + c.  A term's column
    for the unknown E_ij is vec(f o E_ij o g) = (g^T (x) f) vec(E_ij): the
    products of column (i, x) of f with row (j, x) of g, summed over x on
    the id_X leg.  The nonzero columns of f and rows of g are split into
    (i, x) and (j, x) once per term, so for each unknown only the legs x
    where both are nonzero are visited, and its products go straight into
    the row dicts.

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
        for c, f, X, side, g in terms:
            t_dom, t_cod = _legs(X, side, dom, cod)
            if (f.dom, f.cod, g.dom, g.cod) != (t_cod, rhs.cod, rhs.dom, t_dom):
                raise TypeError("a term's f o T(s) o g does not have the "
                                "endpoints of its equation's right-hand side")
            # an index of T(s)'s (co)domain is (u, x) as u * m + x, with
            # m = dim X (1 when T(s) = s), or as x * m + u on a left leg,
            # with m the dim of s's (co)domain
            left = side == LEFT
            m_f = cod.dim if left else 1 if X is None else X.dim
            m_g = d if left else m_f
            # f's entry (r, (i, x)) lands in output row offset + r * width
            f_cols = {}
            for (r, k), v in f.entries.items():
                i, x = divmod(k, m_f)
                if left:
                    i, x = x, i
                f_cols.setdefault(i, {}).setdefault(x, []).append(
                    (offset + r * width, c * v))
            g_rows = {}
            for (k, col), v in g.entries.items():
                j, x = divmod(k, m_g)
                if left:
                    j, x = x, j
                g_rows.setdefault(j, {}).setdefault(x, []).append((col, v))
            prepared.append((f_cols, g_rows))
            if integral:
                integral = not any(type(v) is Fraction for h in (f, g)
                                   for v in h.entries.values())
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
    one = dom.field.one()
    out = []
    for k, entries in basis.items():
        entries[divmod(k, d)] = one
        out.append(Morphism(dom, cod, entries))
    return out


# -- the bundle pipeline -----------------------------------------------------

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

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def left_action(self):
        """B (x) P -> P through pi."""
        return self._memo("left_action", lambda: self.ops.tensor_compose(
            self.m_P, [self.pi, Morphism.identity(self.P.space)]))

    def right_action(self):
        """P (x) B -> P through pi."""
        return self._memo("right_action", lambda: self.ops.tensor_compose(
            self.m_P, [Morphism.identity(self.P.space), self.pi]))

    def p_tensor_p(self):
        """(P (x)_B P, Pi)."""
        return self._memo("ptp", lambda: self.ops.tensor_over(
            self.right_action(), self.left_action()))

    def canonical_map(self):
        def build():
            d = self.ops
            idP = Morphism.identity(self.P.space)
            idH = Morphism.identity(self.H.space)
            composite = d.compose_tensor([self.m_P, idH],
                                         tensor(idP, self.coact))
            _, Pi = self.p_tensor_p()
            return d.factor_through_coequaliser(composite, Pi)
        return self._memo("can", build)

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
            d.compose_tensor([Pi, idH], tensor(idP, self.coact)), Pi)
        return ((d.compose(can, lact),
                 d.compose_tensor([self.m_P, idH], tensor(idP, can))),
                (d.compose_tensor([idP, self.cm_H], can),
                 d.compose_tensor([can, idH], coact)))

    def condition_A(self):
        def build():
            rep = Report()
            rep.items.extend(self._base_laws())
            try:
                phi = self._comparison_map()
            except FactorizationError:
                rep.add("A.comparison_iso", False,
                        details={"reason": self.comparison_failure})
                return rep
            inv = is_isomorphism(phi)
            rep.add("A.comparison_iso", inv.is_iso,
                    details={"rank": inv.rank, "kernel_dim": inv.kernel_dim,
                             "cokernel_dim": inv.cokernel_dim})
            return rep
        return self._memo("condA", build)

    def condition_B(self):
        def build():
            rep = Report()
            try:
                can = self.canonical_map()
            except FactorizationError as err:
                rep.add("B.can_bijective", False, details={"reason": str(err)})
                return rep
            inv = self._cache["can_verdict"] = is_isomorphism(can)
            detail = {"rank": inv.rank, "kernel_dim": inv.kernel_dim,
                      "corank": inv.corank, "dim_dom": can.dom.dim,
                      "dim_cod": can.cod.dim}
            rep.add("B.can_bijective", inv.is_iso, details=detail,
                    witness=inv.kernel_inclusion)
            return rep
        return self._memo("condB", build)

    def can_verdict(self):
        """Condition B's `is_isomorphism` report on can, or None when can
        does not exist."""
        self.condition_B()
        return self._cache.get("can_verdict")

    def can_inverse(self):
        inv = self.can_verdict()
        return None if inv is None else inv.inverse

    def check_principal(self):
        def build():
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
            rep.add("principal", principal)
            return rep
        return self._memo("principal", build)


class AlgebraBundle(Bundle):
    """A comodule algebra with a chosen base inclusion pi: B -> P."""

    def __init__(self, como, base, pi):
        if not isinstance(como, ComoduleAlgebra):
            raise TypeError("algebra-side bundle needs a ComoduleAlgebra")
        if pi.dom != base.space or pi.cod != como.space:
            raise TypeError("pi must map the base into the total space")
        super().__init__(base, pi)
        self.como = como
        H = como.hopf
        self.m_P, self.coact = como.algebra.mult, como.coaction
        self.u_H, self.cm_H = H.unit, H.comult

    side = "algebra"
    ops = VECT
    law_names = ("A.pi_mult", "A.pi_unit", "A.pi_equalises")
    linearity_names = ("can_left_P_linear", "can_right_H_colinear")
    comparison_failure = "pi does not land in the invariants"
    # bench/tracer.py patches the stages through each class's own __dict__
    condition_A = Bundle.condition_A
    condition_B = Bundle.condition_B
    check_principal = Bundle.check_principal

    @property
    def P(self):
        return self.como.algebra

    @property
    def H(self):
        return self.como.hopf

    @property
    def rho(self):
        return self.como.coaction

    def translation_map(self):
        """h -> can^{-1}(1 (x) h), defined when condition B holds."""
        def build():
            inv = self.can_inverse()
            if inv is None:
                return None
            idH = Morphism.identity(self.H.space)
            return tensor_compose(inv, [self.P.unit, idH])
        return self._memo("translation", build)

    def _projectivity_equations(self, colinear):
        """Linear conditions on a section s: P -> B (x) P of the left action:
        q s = id, s q = (m_B (x) id)(id_B (x) s) and, when colinear,
        (id_B (x) rho) s = (s (x) id_H) rho."""
        P, B, H = self.como.space, self.base.space, self.H.space
        BP = B.tensor(P)
        idP, idB, idBP = (Morphism.identity(s) for s in (P, B, BP))
        q = self.left_action()
        eqs = [
            ([(1, q, None, None, idP)], idP),
            ([(1, idBP, None, None, q),
              (-1, tensor(self.base.mult, idP), B, LEFT, idBP)],
             Morphism.zero(BP, BP)),
        ]
        if colinear:
            eqs.append(
                ([(1, tensor(idB, self.rho), None, None, idP),
                  (-1, Morphism.identity(BP.tensor(H)), H, RIGHT, self.rho)],
                 Morphism.zero(P, BP.tensor(H))))
        return eqs

    def _trace_ideal_equations(self):
        """Linear conditions on a left B-linear map f: P -> B:
        f q = m_B (id_B (x) f)."""
        P, B = self.como.space, self.base.space
        return [([(1, Morphism.identity(B), None, None, self.left_action()),
                  (-1, self.base.mult, B, LEFT,
                   Morphism.identity(B.tensor(P)))],
                 Morphism.zero(B.tensor(P), B))]

    def equivariant_projectivity(self):
        def build():
            P, B = self.como.space, self.base.space
            BP = B.tensor(P)
            s = solve_morphism_system(
                P, BP, self._projectivity_equations(colinear=True))
            rep = Report()
            rep.add("C.equivariant_projective", s is not None,
                    details={"dim_unknowns": _unknown_count(P, BP)},
                    witness=s)
            if s is not None:
                self._cache["section"] = s
            return rep
        return self._memo("projectivity", build)

    def section(self):
        self.equivariant_projectivity()
        return self._cache.get("section")

    def faithful_flatness(self):
        def build():
            P, B = self.como.space, self.base.space
            rep = Report()
            # the colinear system contains the whole non-colinear one, so a
            # section proves projectivity; solve the smaller system only
            # when the colinear one is inconsistent
            s = self.section()
            if s is None:
                s = solve_morphism_system(
                    P, B.tensor(P),
                    self._projectivity_equations(colinear=False))
            rep.add("C.projective", s is not None, witness=s)
            # trace ideal: the joint image of all left-B-linear maps P -> B,
            # spanned by their columns, the rows of their transposes
            maps = morphism_nullspace(P, B, self._trace_ideal_equations())
            columns = [row for f in maps
                       for row in sparse_rows(f, transposed=True).values()]
            trace_rank = len(linalg.rref_rows(P.field, columns))
            rep.add("C.trace_ideal_full", trace_rank == B.dim,
                    details={"trace_rank": trace_rank, "dim_base": B.dim})
            flat = (s is not None) and trace_rank == B.dim
            rep.add("C.faithfully_flat", flat)
            return rep
        return self._memo("flatness", build)

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
        H = modc.hopf
        self.m_P, self.coact = modc.coalgebra.comult, modc.action
        self.u_H, self.cm_H = H.counit, H.mult

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

    @property
    def P(self):
        return self.modc.coalgebra

    @property
    def H(self):
        return self.modc.hopf

    @property
    def action(self):
        return self.modc.action

    def equivariant_projectivity(self):
        return self._memo(
            "projectivity", lambda: self.dualize().equivariant_projectivity())

    def faithful_flatness(self):
        return self._memo(
            "flatness", lambda: self.dualize().faithful_flatness())

    def dualize(self):
        def build():
            return AlgebraBundle(self.modc.dualize(), self.base.dualize(),
                                 dualize(self.pi))
        return self._memo("dual", build)


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
