"""Bundle data over a Hopf algebra and the principality checks.

The algebra side packages a comodule algebra P with a chosen base
subalgebra B and inclusion pi; the comonoid side packages a module
coalgebra with a base quotient coalgebra.  `Bundle` runs the stages both
sides share, each memoised: condition A (the side's laws on pi, then the
comparison map from the (co)invariants and its isomorphism report),
condition B (can bijective, caching its inverse) and `check_principal`.
`AlgebraBundle` and `CoalgebraBundle` supply only their side's math: the
three A-laws, the factorisation of pi through the (co)invariants, the
canonical map, the condition-C checks (the comonoid side answers them
through its dual) and the two laws of `canonical_map_linearity`.  Both
sides compute can by factoring an explicit composite through the
deterministic (co)equaliser, so failures surface as quantitative
defects (corank of can, kernel of the comparison map) rather than
exceptions.

Condition C solves linear systems for an unknown morphism s (a section
P -> B (x) P of the left action, or a left-B-linear map P -> B).  Each
equation is a list of terms c * f o T(s) o g with T(s) one of s,
id_X (x) s and s (x) id_X.  `_assemble_system` builds the column of each
degree-matched unknown E_ij from vec(f o E_ij o g) = (g^T (x) f) vec(E_ij),
i.e. from column i of f and row j of g, as sparse rows that
`linalg.rref_rows` eliminates directly.  A colinear section solves the
non-colinear system too, so `faithful_flatness` reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .hopf import (Algebra, Coalgebra, braided_tensor_coalgebra,
                   braided_tensor_mult, check_algebra, check_coalgebra)
from .morphism import (FactorizationError, Morphism, box, coequaliser,
                       compose, compose_tensor, cotensor, dualize, equaliser,
                       factor_through_coequaliser, factor_through_equaliser,
                       is_isomorphism, raw_rows, tensor, tensor_over)
from .report import Report, equality_check


# -- (co)module (co)algebra structures ---------------------------------------

@dataclass(frozen=True)
class ComoduleAlgebra:
    """An algebra P with a coaction rho: P -> P (x) H that is an algebra map."""
    algebra: Algebra
    hopf: object
    coaction: Morphism

    def __post_init__(self):
        P, H = self.algebra.space, self.hopf.space
        if self.coaction.dom != P or self.coaction.cod != P.tensor(H):
            raise TypeError("coaction has wrong shape")

    @property
    def space(self):
        return self.algebra.space

    def dualize(self):
        return ModuleCoalgebra(self.algebra.dualize(), self.hopf.dualize(),
                               dualize(self.coaction))


@dataclass(frozen=True)
class ModuleCoalgebra:
    """A coalgebra P with an action act: P (x) H -> P that is a coalgebra map."""
    coalgebra: Coalgebra
    hopf: object
    action: Morphism

    def __post_init__(self):
        P, H = self.coalgebra.space, self.hopf.space
        if self.action.dom != P.tensor(H) or self.action.cod != P:
            raise TypeError("action has wrong shape")

    @property
    def space(self):
        return self.coalgebra.space

    def dualize(self):
        return ComoduleAlgebra(self.coalgebra.dualize(), self.hopf.dualize(),
                               dualize(self.action))


def check_comodule_algebra(x):
    P, H = x.space, x.hopf.space
    idP = Morphism.identity(P)
    rho = x.coaction
    rep = Report()
    rep.extend(check_algebra(x.algebra), prefix="carrier.")
    rep.items.append(equality_check(
        "coaction_coassoc",
        compose(tensor(rho, Morphism.identity(H)), rho),
        compose(tensor(idP, x.hopf.comult), rho)))
    rep.items.append(equality_check(
        "coaction_counit", compose(tensor(idP, x.hopf.counit), rho), idP))
    rep.items.append(equality_check(
        "coaction_mult",
        compose(rho, x.algebra.mult),
        braided_tensor_mult(x.algebra, x.hopf.algebra, tensor(rho, rho))))
    rep.items.append(equality_check(
        "coaction_unit", compose(rho, x.algebra.unit),
        tensor(x.algebra.unit, x.hopf.unit)))
    return rep


def check_module_coalgebra(x):
    P, H = x.space, x.hopf.space
    idP = Morphism.identity(P)
    act = x.action
    rep = Report()
    rep.extend(check_coalgebra(x.coalgebra), prefix="carrier.")
    rep.items.append(equality_check(
        "action_assoc",
        compose(act, tensor(act, Morphism.identity(H))),
        compose(act, tensor(idP, x.hopf.mult))))
    rep.items.append(equality_check(
        "action_unit", compose(act, tensor(idP, x.hopf.unit)), idP))
    ph = braided_tensor_coalgebra(x.coalgebra, x.hopf.coalgebra)
    rep.items.append(equality_check(
        "action_comult",
        compose(x.coalgebra.comult, act),
        compose_tensor([act, act], ph.comult)))
    rep.items.append(equality_check(
        "action_counit",
        compose(x.coalgebra.counit, act),
        tensor(x.coalgebra.counit, x.hopf.counit)))
    return rep


# -- base computation --------------------------------------------------------

def coinvariants(x):
    """(B, iota): the subalgebra {p : rho(p) = p (x) 1} of a comodule algebra."""
    P = x.space
    idP = Morphism.identity(P)
    Bsp, iota = equaliser(x.coaction, tensor(idP, x.hopf.unit))
    mult = factor_through_equaliser(
        compose(x.algebra.mult, tensor(iota, iota)), iota)
    unit = factor_through_equaliser(x.algebra.unit, iota)
    return Algebra(Bsp, mult, unit), iota


def invariants_base(x):
    """(B, Pi): the coequaliser quotient P/(p.h - p eps(h)) of a module coalgebra."""
    P = x.space
    idP = Morphism.identity(P)
    Bsp, Pi = coequaliser(tensor(idP, x.hopf.counit), x.action)
    comult = factor_through_coequaliser(
        compose(tensor(Pi, Pi), x.coalgebra.comult), Pi)
    counit = factor_through_coequaliser(x.coalgebra.counit, Pi)
    return Coalgebra(Bsp, comult, counit), Pi


# -- linear morphism-system solver -------------------------------------------
#
# A linear condition on an unknown s: dom -> cod is an equation
# (terms, rhs), meaning sum of c * f o T(s) o g over its terms == rhs.  Each
# term is (c, f, X, side, g): an int c, morphisms f and g, and T(s) = s
# when X is None, id_X (x) s when side is LEFT, s (x) id_X when it is RIGHT.

LEFT, RIGHT = "left", "right"


def _unknown_positions(dom, cod):
    return [(i, j) for i in range(cod.dim) for j in range(dom.dim)
            if cod.degrees[i] == dom.degrees[j]]


def _legs(X, side, dom, cod):
    """(T's domain, T's codomain, mi, mj, offsets): E_ij: dom -> cod under T
    lands in the entries (i * mi + oi, j * mj + oj) of T(E_ij), one per
    (oi, oj) in offsets (left factor major)."""
    if X is None:
        return dom, cod, 1, 1, [(0, 0)]
    if side == LEFT:
        return (X.tensor(dom), X.tensor(cod), 1, 1,
                [(x * cod.dim, x * dom.dim) for x in range(X.dim)])
    return (dom.tensor(X), cod.tensor(X), X.dim, X.dim,
            [(x, x) for x in range(X.dim)])


def _assemble_system(dom, cod, equations):
    """The stacked linear system of `equations` on s: dom -> cod, as sparse rows.

    Returns (positions, rows): positions lists the degree-matched unknowns
    (i, j), the entries of s; rows maps a row index to a dict from column
    to nonzero raw scalar (Fraction, or int mod p), ascending in the index.
    Column k < len(positions) is unknown k and column len(positions) is the
    right-hand side.  Each equation gives one row block, indexed by the
    entries (r, c) of its output as r * width + c.  A term's column for the
    unknown E_ij comes from vec(f o E_ij o g) = (g^T (x) f) vec(E_ij): the
    products of column i of f with row j of g, summed over x on the id_X
    legs.
    """
    field = dom.field
    p = field.characteristic
    positions = _unknown_positions(dom, cod)
    n = len(positions)
    targets = {}  # row -> raw right-hand side
    prepared = []  # (f by column, g by row, mi, mj, offsets) per term
    offset = 0
    for terms, rhs in equations:
        width = rhs.dom.dim
        for c, f, X, side, g in terms:
            t_dom, t_cod, *legs = _legs(X, side, dom, cod)
            if (f.dom, f.cod, g.dom, g.cod) != (t_cod, rhs.cod, rhs.dom, t_dom):
                raise TypeError("a term's f o T(s) o g does not have the "
                                "endpoints of its equation's right-hand side")
            # f's entry (r, k) lands in output row offset + r * width
            f_cols = {}
            for (r, k), v in f.entries.items():
                f_cols.setdefault(k, []).append(
                    (offset + r * width, c * (v.v if p else v)))
            g_rows = {}
            for (k, col), v in g.entries.items():
                g_rows.setdefault(k, []).append((col, v.v if p else v))
            prepared.append((f_cols, g_rows, *legs))
        for (r, col), v in rhs.entries.items():
            targets[offset + r * width + col] = v.v if p else v
        offset += rhs.cod.dim * width
    rows = {}
    for k, (i, j) in enumerate(positions):
        column = {}
        for f_cols, g_rows, mi, mj, offsets in prepared:
            for oi, oj in offsets:
                f_col = f_cols.get(i * mi + oi)
                g_row = g_rows.get(j * mj + oj)
                if f_col is None or g_row is None:
                    continue
                for a, fv in f_col:
                    for b, gv in g_row:
                        column[a + b] = column.get(a + b, 0) + fv * gv
        for row, v in column.items():
            if p:
                v %= p
            if v:
                rows.setdefault(row, {})[k] = v
    for row, v in targets.items():
        rows.setdefault(row, {})[n] = v
    return positions, {row: rows[row] for row in sorted(rows)}


def solve_morphism_system(dom, cod, equations):
    """Deterministic particular solution s: dom -> cod, or None.

    The least-pivot solution of the canonical RREF: free unknowns are zero.
    """
    field = dom.field
    positions, rows = _assemble_system(dom, cod, equations)
    n = len(positions)
    pivot_rows = linalg.rref_rows(field, rows.values())
    if n in pivot_rows:  # a pivot in the right-hand side: inconsistent
        return None
    return Morphism(dom, cod, {positions[c]: box(field, row[n])
                               for c, row in pivot_rows.items() if n in row})


def morphism_nullspace(dom, cod, equations):
    """Basis of the space of s: dom -> cod solving the homogeneous system.

    One basis morphism per free unknown, ascending: 1 there and minus the
    free column of each pivot row at that row's pivot.
    """
    field = dom.field
    positions, rows = _assemble_system(dom, cod, equations)
    n = len(positions)
    for row in rows.values():
        row.pop(n, None)
    pivot_rows = linalg.rref_rows(field, rows.values())
    basis = {k: {} for k in range(n) if k not in pivot_rows}
    for c, row in pivot_rows.items():
        for k, v in row.items():
            if k != c:
                basis[k][positions[c]] = box(field, -v)
    one = field.one()
    out = []
    for k, entries in basis.items():
        entries[positions[k]] = one
        out.append(Morphism(dom, cod, entries))
    return out


# -- the two bundle pipelines ------------------------------------------------

class Bundle:
    """The stages both sides share, run on a side's own maps.

    A subclass supplies `_base_laws` (the three A-laws), `_comparison_map`
    (pi factored through the (co)invariants) with `comparison_failure`,
    `canonical_map`, `equivariant_projectivity`, `faithful_flatness`, and
    `linearity_sides` with `linearity_names`.
    """

    def __init__(self, base, pi):
        self.base = base
        self.pi = pi
        self._cache = {}

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

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
            self._cache["comparison"] = (phi, inv.inverse)
            rep.add("A.comparison_iso", inv.is_iso,
                    details={"rank": inv.rank, "kernel_dim": inv.kernel_dim,
                             "cokernel_dim": inv.cokernel_dim})
            return rep
        return self._memo("condA", build)

    def comparison_iso(self):
        self.condition_A()
        return self._cache.get("comparison")

    def condition_B(self):
        def build():
            rep = Report()
            try:
                can = self.canonical_map()
            except FactorizationError as err:
                rep.add("B.can_bijective", False, details={"reason": str(err)})
                return rep
            inv = is_isomorphism(can)
            detail = {"rank": inv.rank, "kernel_dim": inv.kernel_dim,
                      "corank": inv.corank, "dim_dom": can.dom.dim,
                      "dim_cod": can.cod.dim}
            rep.add("B.can_bijective", inv.is_iso, details=detail,
                    witness=inv.kernel_inclusion)
            if inv.is_iso:
                self._cache["can_inverse"] = inv.inverse
            return rep
        return self._memo("condB", build)

    def can_inverse(self):
        self.condition_B()
        return self._cache.get("can_inverse")

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

    side = "algebra"
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

    def coinvariants(self):
        return self._memo("coinv", lambda: coinvariants(self.como))

    def left_action(self):
        """B (x) P -> P through pi."""
        idP = Morphism.identity(self.como.space)
        return compose(self.P.mult, tensor(self.pi, idP))

    def right_action(self):
        """P (x) B -> P through pi."""
        idP = Morphism.identity(self.como.space)
        return compose(self.P.mult, tensor(idP, self.pi))

    def p_tensor_p(self):
        """(P (x)_B P, Pi)."""
        return self._memo("ptp", lambda: tensor_over(
            self.right_action(), self.left_action()))

    def canonical_map(self):
        def build():
            P, H = self.como.space, self.H.space
            idP, idH = Morphism.identity(P), Morphism.identity(H)
            composite = compose(tensor(self.P.mult, idH), tensor(idP, self.rho))
            _, Pi = self.p_tensor_p()
            return factor_through_coequaliser(composite, Pi)
        return self._memo("can", build)

    def _base_laws(self):
        idP = Morphism.identity(self.como.space)
        return [
            equality_check("A.pi_mult", compose(self.pi, self.base.mult),
                           compose(self.P.mult, tensor(self.pi, self.pi))),
            equality_check("A.pi_unit", compose(self.pi, self.base.unit),
                           self.P.unit),
            equality_check("A.pi_equalises", compose(self.rho, self.pi),
                           compose(tensor(idP, self.H.unit), self.pi)),
        ]

    def _comparison_map(self):
        _, iota = self.coinvariants()
        return factor_through_equaliser(self.pi, iota)

    def translation_map(self):
        """h -> can^{-1}(1 (x) h), defined when condition B holds."""
        def build():
            inv = self.can_inverse()
            if inv is None:
                return None
            idH = Morphism.identity(self.H.space)
            return compose(inv, tensor(self.P.unit, idH))
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
            s = solve_morphism_system(
                P, B.tensor(P), self._projectivity_equations(colinear=True))
            rep = Report()
            rep.add("C.equivariant_projective", s is not None,
                    details={"dim_unknowns":
                             len(_unknown_positions(P, B.tensor(P)))},
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
                       for row in raw_rows(dualize(f)).values()]
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

    def linearity_sides(self):
        """The (lhs, rhs) pairs of `canonical_map_linearity`'s two laws."""
        P, H = self.como.space, self.H.space
        idP, idH = Morphism.identity(P), Morphism.identity(H)
        Q, Pi = self.p_tensor_p()
        can = self.canonical_map()
        # left P-action on P (x)_B P, factored through id (x) Pi
        lact = factor_through_coequaliser(
            compose(Pi, tensor(self.P.mult, idP)), tensor(idP, Pi))
        # right H-coaction on P (x)_B P from the second leg
        coact = factor_through_coequaliser(
            compose(tensor(Pi, idH), tensor(idP, self.rho)), Pi)
        return ((compose(can, lact),
                 compose(tensor(self.P.mult, idH), tensor(idP, can))),
                (compose(tensor(idP, self.H.comult), can),
                 compose(tensor(can, idH), coact)))


class CoalgebraBundle(Bundle):
    """A module coalgebra with a chosen base quotient pi: P -> B."""

    def __init__(self, modc, base, pi):
        if not isinstance(modc, ModuleCoalgebra):
            raise TypeError("comonoid-side bundle needs a ModuleCoalgebra")
        if pi.dom != modc.space or pi.cod != base.space:
            raise TypeError("pi must map the total space onto the base")
        super().__init__(base, pi)
        self.modc = modc

    side = "comonoid"
    linearity_names = ("can_left_P_colinear", "can_right_H_linear")
    comparison_failure = "pi does not factor the quotient"
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

    def invariants_base(self):
        return self._memo("invbase", lambda: invariants_base(self.modc))

    def right_coaction(self):
        """P -> P (x) B through pi."""
        idP = Morphism.identity(self.modc.space)
        return compose(tensor(idP, self.pi), self.P.comult)

    def left_coaction(self):
        """P -> B (x) P through pi."""
        idP = Morphism.identity(self.modc.space)
        return compose(tensor(self.pi, idP), self.P.comult)

    def p_cotensor_p(self):
        """(P box_B P, iota)."""
        return self._memo("pcp", lambda: cotensor(
            self.right_coaction(), self.left_coaction()))

    def canonical_map(self):
        def build():
            P, H = self.modc.space, self.H.space
            idP, idH = Morphism.identity(P), Morphism.identity(H)
            composite = compose(tensor(idP, self.action),
                                tensor(self.P.comult, idH))
            _, iota = self.p_cotensor_p()
            return factor_through_equaliser(composite, iota)
        return self._memo("can", build)

    def _base_laws(self):
        idP = Morphism.identity(self.modc.space)
        return [
            equality_check("A.pi_comult", compose(self.base.comult, self.pi),
                           compose(tensor(self.pi, self.pi), self.P.comult)),
            equality_check("A.pi_counit", compose(self.base.counit, self.pi),
                           self.P.counit),
            equality_check("A.pi_coequalises", compose(self.pi, self.action),
                           compose(self.pi, tensor(idP, self.H.counit))),
        ]

    def _comparison_map(self):
        _, Pi0 = self.invariants_base()
        return factor_through_coequaliser(self.pi, Pi0)

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

    def linearity_sides(self):
        """The (lhs, rhs) pairs of `canonical_map_linearity`'s two laws."""
        P, H = self.modc.space, self.H.space
        idP, idH = Morphism.identity(P), Morphism.identity(H)
        E, iota = self.p_cotensor_p()
        can = self.canonical_map()
        # left P-coaction on P box_B P, factored through id (x) iota
        lcoact = factor_through_equaliser(
            compose(tensor(self.P.comult, idP), iota), tensor(idP, iota))
        # right H-action on P box_B P from the second leg
        ract = factor_through_equaliser(
            compose(tensor(idP, self.action), tensor(iota, idH)), iota)
        return ((compose(lcoact, can),
                 compose(tensor(idP, can), tensor(self.P.comult, idH))),
                (compose(can, tensor(idP, self.H.mult)),
                 compose(ract, tensor(can, idH))))


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
