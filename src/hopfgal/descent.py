"""Descent data along the base inclusion of an algebra-side bundle.

Implements the comparison functor K (base modules to descent data), the
descended module (an equaliser), the unit/counit comparison maps whose
invertibility witnesses effective descent, the transport between descent
data and relative Hopf modules through the canonical map, and the
invariants functor.  Exhaustive or seeded sweeps over small base modules
corroborate the faithful-flatness verdict of the bundle module.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .morphism import (FactorizationError, Morphism, box, braiding,
                       cokernel, compose, equaliser,
                       factor_through_coequaliser, factor_through_equaliser,
                       is_isomorphism, tensor, tensor_over)
from .report import Report, equality_check
from .spaces import GradedSpace


@dataclass(frozen=True)
class BModule:
    """A right module over the bundle base."""
    carrier: GradedSpace
    action: Morphism  # V (x) B -> V

    def __post_init__(self):
        if self.action.cod != self.carrier:
            raise TypeError("action has wrong codomain")


def check_bmodule(v, base):
    V, B = v.carrier, base.space
    idV, idB = Morphism.identity(V), Morphism.identity(B)
    rep = Report()
    rep.items.append(equality_check(
        "module_assoc",
        compose(v.action, tensor(v.action, idB)),
        compose(v.action, tensor(idV, base.mult))))
    rep.items.append(equality_check(
        "module_unit", compose(v.action, tensor(idV, base.unit)), idV))
    return rep


class DescentDatum:
    """A right P-module E with a compatible map xi: E -> E (x)_B P."""

    def __init__(self, bundle, carrier, action, xi=None):
        self.bundle = bundle
        self.carrier = carrier
        self.action = action  # E (x) P -> E
        if action.dom != carrier.tensor(bundle.como.space) or \
                action.cod != carrier:
            raise TypeError("P-action has wrong shape")
        Q, Pi = self.tensor_b_p()
        if xi is None:
            xi = compose(Pi, tensor(Morphism.identity(carrier),
                                    bundle.P.unit))
        if xi.dom != carrier or xi.cod != Q:
            raise TypeError("xi has wrong shape")
        self.xi = xi

    def base_action(self):
        """The restricted right B-action on E."""
        idE = Morphism.identity(self.carrier)
        return compose(self.action, tensor(idE, self.bundle.pi))

    def tensor_b_p(self):
        if not hasattr(self, "_tbp"):
            self._tbp = tensor_over(self.base_action(),
                                    self.bundle.left_action())
        return self._tbp


def _q1_structure(d):
    """Helper maps on Q1 = E (x)_B P: the unit insertion and the collapse."""
    b = d.bundle
    E, P = d.carrier, b.como.space
    idE, idP = Morphism.identity(E), Morphism.identity(P)
    Q1, Pi1 = d.tensor_b_p()
    ins1 = compose(Pi1, tensor(idE, b.P.unit))
    collapse = factor_through_coequaliser(d.action, Pi1)
    return Q1, Pi1, ins1, collapse


def verify_descent_datum(d):
    b = d.bundle
    E, P = d.carrier, b.como.space
    idE, idP = Morphism.identity(E), Morphism.identity(P)
    rep = Report()
    rep.items.append(equality_check(
        "p_module_assoc",
        compose(d.action, tensor(d.action, idP)),
        compose(d.action, tensor(idE, b.P.mult))))
    rep.items.append(equality_check(
        "p_module_unit", compose(d.action, tensor(idE, b.P.unit)), idE))
    Q1, Pi1, ins1, collapse = _q1_structure(d)
    # Q2 = (E (x)_B P) (x)_B P with its projection from Q1 (x) P
    idB = Morphism.identity(b.base.space)
    q1_baction = factor_through_coequaliser(
        compose(Pi1, tensor(idE, b.right_action())), tensor(Pi1, idB))
    Q2, Pi2 = tensor_over(q1_baction, b.left_action())
    try:
        xi_tensor_id = factor_through_coequaliser(
            compose(Pi2, tensor(d.xi, idP)), Pi1)
        ins_mid = factor_through_coequaliser(
            compose(Pi2, tensor(ins1, idP)), Pi1)
        rep.items.append(equality_check(
            "descent_coassoc",
            compose(xi_tensor_id, d.xi), compose(ins_mid, d.xi)))
    except FactorizationError:
        rep.add("descent_coassoc", False,
                details={"reason": "xi is not B-balanced"})
    rep.items.append(equality_check(
        "descent_counit", compose(collapse, d.xi), idE))
    return rep


def comparison_K(v, bundle):
    """The descent datum (V (x)_B P, xi: v (x) x -> v (x) 1 (x) x)."""
    V, P = v.carrier, bundle.como.space
    idV, idP = Morphism.identity(V), Morphism.identity(P)
    Q, Pi = tensor_over(v.action, bundle.left_action())
    action = factor_through_coequaliser(
        compose(Pi, tensor(idV, bundle.P.mult)), tensor(Pi, idP))
    d = DescentDatum(bundle, Q, action)
    QE, PiE = d.tensor_b_p()
    xi = factor_through_coequaliser(
        compose(PiE, tensor(compose(Pi, tensor(idV, bundle.P.unit)), idP)),
        Pi)
    d.xi = xi
    return d


def descend(d):
    """(V, incl): the equaliser of xi and the unit insertion, as a B-module."""
    b = d.bundle
    _, _, ins1, _ = _q1_structure(d)
    Vsp, incl = equaliser(d.xi, ins1)
    idB = Morphism.identity(b.base.space)
    act = factor_through_equaliser(
        compose(d.base_action(), tensor(incl, idB)), incl)
    return BModule(Vsp, act), incl


def unit_Phi(d):
    """The multiplication map descend(d) (x)_B P -> E and its verdict."""
    b = d.bundle
    v, incl = descend(d)
    idP = Morphism.identity(b.como.space)
    _, Pi = tensor_over(v.action, b.left_action())
    phi = factor_through_coequaliser(
        compose(d.action, tensor(incl, idP)), Pi)
    return phi, is_isomorphism(phi)


def counit_Psi(v, bundle):
    """The comparison V -> descend(K(V)) and its verdict.

    Its composite with the descended inclusion is v -> [v (x) 1]; the map
    has nonzero kernel exactly when that insertion kills part of V, the
    finite-dimensional failure mode of faithful flatness.
    """
    d = comparison_K(v, bundle)
    vd, incl = descend(d)
    _, Pi = tensor_over(v.action, bundle.left_action())
    idV = Morphism.identity(v.carrier)
    eta = compose(Pi, tensor(idV, bundle.P.unit))
    psi = factor_through_equaliser(eta, incl)
    return psi, is_isomorphism(psi)


# -- relative Hopf modules and the transport ---------------------------------

@dataclass(frozen=True)
class RelativeHopfModule:
    """Algebra side: a right P-module with a compatible right H-comodule
    structure; the comonoid side is reached through bundle dualisation."""
    carrier: GradedSpace
    action: Morphism    # E (x) P -> E
    coaction: Morphism  # E -> E (x) H


def hopf_module_check(m, bundle):
    b = bundle
    P, H, E = b.como.space, b.H.space, m.carrier
    idE, idP, idH = (Morphism.identity(s) for s in (E, P, H))
    rep = Report()
    rep.items.append(equality_check(
        "p_module_assoc",
        compose(m.action, tensor(m.action, idP)),
        compose(m.action, tensor(idE, b.P.mult))))
    rep.items.append(equality_check(
        "p_module_unit", compose(m.action, tensor(idE, b.P.unit)), idE))
    rep.items.append(equality_check(
        "h_comodule_coassoc",
        compose(tensor(m.coaction, idH), m.coaction),
        compose(tensor(idE, b.H.comult), m.coaction)))
    rep.items.append(equality_check(
        "h_comodule_counit",
        compose(tensor(idE, b.H.counit), m.coaction), idE))
    rep.items.append(equality_check(
        "hopf_compatibility",
        compose(m.coaction, m.action),
        compose(tensor(m.action, b.H.mult),
                compose(tensor(tensor(idE, braiding(H, P)), idH),
                        tensor(m.coaction, b.rho)))))
    return rep


def kappa_transport(d):
    """The identification E (x)_B P -> E (x) H, [e (x) x] -> e.x_(0) (x) x_(1)."""
    b = d.bundle
    idE = Morphism.identity(d.carrier)
    idH = Morphism.identity(b.H.space)
    _, Pi1 = d.tensor_b_p()
    return factor_through_coequaliser(
        compose(tensor(d.action, idH), tensor(idE, b.rho)), Pi1)


def descent_to_hopf_module(d):
    """Transport a descent datum to a relative Hopf module along kappa."""
    kappa = kappa_transport(d)
    return RelativeHopfModule(d.carrier, d.action, compose(kappa, d.xi))


def hopf_module_to_descent(m, bundle):
    """The inverse transport; needs condition B for kappa to invert."""
    d = DescentDatum(bundle, m.carrier, m.action)
    kappa = kappa_transport(d)
    inv = is_isomorphism(kappa)
    if not inv.is_iso:
        raise FactorizationError("transport map is not invertible; "
                                 "condition B fails for this bundle")
    d.xi = compose(inv.inverse, m.coaction)
    return d


def invariants_functor(m, bundle):
    """(E^coH, incl): coaction invariants with the restricted B-action."""
    idE = Morphism.identity(m.carrier)
    Vsp, incl = equaliser(m.coaction,
                          tensor(idE, bundle.H.unit))
    idB = Morphism.identity(bundle.base.space)
    baction = compose(m.action, tensor(idE, bundle.pi))
    act = factor_through_equaliser(
        compose(baction, tensor(incl, idB)), incl)
    return BModule(Vsp, act), incl


def monad_presentation_report(d):
    """The concrete monad E (x) H: unit/multiplication laws and the
    transported P-action, checked on the carrier of a descent datum."""
    b = d.bundle
    E, P, H = d.carrier, b.como.space, b.H.space
    idE, idP, idH = (Morphism.identity(s) for s in (E, P, H))
    EH = E.tensor(H)
    idEH = Morphism.identity(EH)
    mu = tensor(idE, b.H.mult)
    eta = tensor(idE, b.H.unit)
    rep = Report()
    rep.items.append(equality_check(
        "monad_assoc",
        compose(mu, tensor(mu, idH)),
        compose(mu, tensor(idEH, b.H.mult))))
    rep.items.append(equality_check(
        "monad_unit_left", compose(mu, tensor(eta, idH)), idEH))
    rep.items.append(equality_check(
        "monad_unit_right", compose(mu, tensor(idEH, b.H.unit)), idEH))
    # the transported P-action nu on E (x) H
    nu = compose(tensor(d.action, b.H.mult),
                 compose(tensor(tensor(idE, braiding(H, P)), idH),
                         tensor(idEH, b.rho)))
    rep.items.append(equality_check(
        "nu_assoc",
        compose(nu, tensor(nu, idP)),
        compose(nu, tensor(idEH, b.P.mult))))
    rep.items.append(equality_check(
        "nu_unit", compose(nu, tensor(idEH, b.P.unit)), idEH))
    return rep


# -- enumeration of small base modules ---------------------------------------

def _field_roots(field, beta, alpha):
    """Roots of x^2 - beta x - alpha in the field, sorted canonically."""
    roots = []
    if field.characteristic == 0:
        disc = beta * beta + 4 * alpha
        if disc >= 0:
            num, den = disc.numerator, disc.denominator
            r = math.isqrt(num * den)
            if r * r == num * den:
                s = Fraction(r, den)
                roots = sorted({(beta + s) / 2, (beta - s) / 2})
    else:
        p = field.characteristic
        for k in range(p):
            x = field.from_int(k)
            if x * x - beta * x - alpha == field.zero():
                roots.append(x)
        roots = sorted(set(roots), key=lambda e: e.v)
    return roots


def _module_from_operator(base, T):
    """The right module on k^d where the second basis vector of B acts by T."""
    B = base.space
    d = len(T)
    V = GradedSpace(B.group, (0,) * d)
    field = B.field
    entries = {}
    # columns of the action V (x) B -> V: v_i (x) b_j
    unit_col = _unit_coordinates(base)
    for i in range(d):
        for j in range(B.dim):
            # b_j = unit_col[j] * 1 + w-part; with basis (1, w) of B we act
            # by c0*I + c1*T where b_j = c0*1 + c1*w
            c0, c1 = _basis_in_one_w(base, j)
            for r in range(d):
                val = (c0 if r == i else field.zero())
                val = val + c1 * T[r][i]
                if val:
                    entries[(r, i * B.dim + j)] = val
    return BModule(V, Morphism(V.tensor(B), V, entries))


def _unit_coordinates(base):
    rows = base.unit.to_rows()
    return [rows[i][0] for i in range(base.space.dim)]


def _basis_in_one_w(base, j):
    """Coordinates of the j-th basis vector of B in the (1, w) basis,
    where w is the canonical complement of the unit (dim B = 2 only)."""
    field = base.space.field
    u = _unit_coordinates(base)
    # pick the first index where the unit has a nonzero coordinate
    k = next(i for i, c in enumerate(u) if c)
    w_index = 1 - k
    # e_j = c0 * u + c1 * e_{w_index}  (u[w_index] may be nonzero)
    if j == w_index:
        c0 = field.zero()
        c1 = field.one()
    else:
        c0 = field.one() / u[k]
        c1 = -(u[w_index] / u[k]) if u[w_index] else field.zero()
    return c0, c1


def _w_structure(base):
    """For a commutative 2-dim base: (w_index, alpha, beta) with
    w^2 = alpha * 1 + beta * w in the (1, w) basis."""
    u = _unit_coordinates(base)
    k = next(i for i, c in enumerate(u) if c)
    w = 1 - k
    rows = base.mult.to_rows()
    # w * w in the original basis
    col = w * 2 + w
    ww = [rows[i][col] for i in range(2)]
    # ww = alpha * u + beta * e_w, read off at k (where e_w is 0) and at w
    alpha = ww[k] / u[k]
    return w, alpha, ww[w] - alpha * u[w]


def enumerate_bmodules(base, max_dim, seed=0, samples=6):
    """Right B-modules of dimension 1..max_dim.

    Exhaustive up to isomorphism for dim B = 1 and commutative dim B = 2
    (classification by the minimal polynomial of the non-unit generator);
    seeded random quotients of free modules otherwise.
    """
    B = base.space
    field = B.field
    out = []
    if B.dim == 1:
        for d in range(1, max_dim + 1):
            V = GradedSpace(B.group, (0,) * d)
            out.append(BModule(V, _scalar_action(base, V)))
        return out
    commutative = compose(base.mult, braiding(B, B)) == base.mult
    if B.dim == 2 and commutative:
        _, alpha, beta = _w_structure(base)
        roots = _field_roots(field, beta, alpha)
        zero, one = field.zero(), field.one()
        for d in range(1, max_dim + 1):
            if len(roots) == 2:
                # split with distinct roots: diagonal signatures
                for a in range(d + 1):
                    T = [[roots[0] if i == j and i < a else
                          (roots[1] if i == j else zero)
                          for j in range(d)] for i in range(d)]
                    out.append(_module_from_operator(base, T))
            elif len(roots) == 1:
                # double root r: T = r I + N with N^2 = 0, N of rank k
                r = roots[0]
                for k in range(0, d // 2 + 1):
                    T = [[r if i == j else zero for j in range(d)]
                         for i in range(d)]
                    for t in range(k):
                        T[2 * t][2 * t + 1] = one
                    out.append(_module_from_operator(base, T))
            else:
                # irreducible minimal polynomial: companion blocks, even dim
                if d % 2 == 0:
                    T = [[zero] * d for _ in range(d)]
                    for t in range(d // 2):
                        T[2 * t][2 * t + 1] = alpha
                        T[2 * t + 1][2 * t] = one
                        T[2 * t + 1][2 * t + 1] = beta
                    out.append(_module_from_operator(base, T))
        return out
    return _random_bmodules(base, max_dim, seed, samples)


def _scalar_action(base, V):
    """The unique module structure over a 1-dimensional base."""
    field = V.field
    u = _unit_coordinates(base)[0]
    return Morphism(V.tensor(base.space), V,
                    {(i, i): field.one() / u for i in range(V.dim)})


def _random_bmodules(base, max_dim, seed, samples):
    """Seeded random quotients of free modules k^k (x) B."""
    B = base.space
    field = B.field
    rng = random.Random(seed)
    out = [BModule(B, base.mult)] if B.dim <= max_dim else []
    for _ in range(samples):
        k = rng.randint(1, max(1, max_dim // max(1, B.dim) + 1))
        F = GradedSpace(B.group, (0,) * (k * B.dim))
        act = tensor(Morphism.identity(GradedSpace(B.group, (0,) * k)),
                     base.mult)
        # random submodule generated by a few random vectors
        gens = []
        for _g in range(rng.randint(1, 2)):
            gens.append([field.from_int(rng.randint(-2, 2))
                         for _i in range(F.dim)])
        closed = _module_closure(field, gens, act, B)
        quot_dim = F.dim - len(closed)
        if not 1 <= quot_dim <= max_dim:
            continue
        out.append(_quotient_module(field, closed, act, F, B))
    return out


def _module_closure(field, gens, act, B):
    """The canonical RREF rows of the submodule of F that gens generate
    under the right action act: F (x) B -> F.

    Adds the images of the current basis under every basis vector of B
    until the pivot count stops rising; rows are raw-scalar dicts.
    """
    p = field.characteristic
    # column i of F -> [(row r, basis index j of B, raw act[r, i (x) j])]
    act_cols = {}
    for (r, col), v in act.entries.items():
        i, j = divmod(col, B.dim)
        act_cols.setdefault(i, []).append((r, j, v.v if p else v))
    closed = linalg.rref_rows(
        field, [{i: x.v if p else x for i, x in enumerate(v) if x}
                for v in gens])
    while True:
        rows = [dict(row) for row in closed.values()]
        for row in closed.values():
            images = [{} for _ in range(B.dim)]
            for i, x in row.items():
                for r, j, a in act_cols.get(i, ()):
                    images[j][r] = images[j].get(r, 0) + a * x
            for image in images:
                if p:
                    image = {r: v % p for r, v in image.items()}
                rows.append({r: v for r, v in image.items() if v})
        grown = linalg.rref_rows(field, rows)
        if len(grown) == len(closed):
            return closed
        closed = grown


def _quotient_module(field, closed, act, F, B):
    incl_entries = {}
    basis = list(closed.values())
    S = GradedSpace(F.group, (0,) * len(basis))
    for c, row in enumerate(basis):
        for r, val in row.items():
            incl_entries[(r, c)] = box(field, val)
    incl = Morphism(S, F, incl_entries)
    Q, Pi = cokernel(incl)
    qact = factor_through_coequaliser(
        compose(Pi, act), tensor(Pi, Morphism.identity(B)))
    return BModule(Q, qact)


def sweep_phi_psi(bundle, max_dim=3, seed=0):
    """Check Phi and Psi on all enumerated base modules; one item each."""
    rep = Report()
    mods = enumerate_bmodules(bundle.base, max_dim, seed=seed)
    for n, v in enumerate(mods):
        _, verdict_psi = counit_Psi(v, bundle)
        d = comparison_K(v, bundle)
        _, verdict_phi = unit_Phi(d)
        rep.add("sweep.module_%02d_phi" % n, verdict_phi.is_iso,
                details={"dim": v.carrier.dim,
                         "kernel_dim": verdict_phi.kernel_dim})
        rep.add("sweep.module_%02d_psi" % n, verdict_psi.is_iso,
                details={"dim": v.carrier.dim,
                         "kernel_dim": verdict_psi.kernel_dim})
    return rep
