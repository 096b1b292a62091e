"""Descent data along the base inclusion of an algebra-side bundle.

Implements the comparison functor K (base modules to descent data), the
descended module (an equaliser), the unit/counit comparison maps whose
invertibility witnesses effective descent, the transport between descent
data and relative Hopf modules through the canonical map, and the
invariants functor.  Exhaustive or seeded sweeps over small base modules
corroborate the faithful-flatness verdict of the bundle module.  A
descent datum's derived maps, and its descended module, are kept through
`bundle.memoised`.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction

from . import linalg
from .bundle import memoised
from .hopf import VECT_OP, action_laws, coinvariants_of
from .morphism import (FactorizationError, Morphism, braided_compose,
                       braiding, cokernel, compose, equaliser,
                       factor_through_coequaliser, factor_through_equaliser,
                       is_isomorphism, tensor, tensor_compose, tensor_over)
from .report import Report, equality_check
from .spaces import GradedSpace, unit_space


class BModule:
    """A right module over the bundle base."""

    __slots__ = ("carrier", "action")

    def __init__(self, carrier, action):
        if action.cod != carrier:
            raise TypeError("action has wrong codomain")
        self.carrier = carrier
        self.action = action  # V (x) B -> V


def check_bmodule(v, base):
    return Report(action_laws(v.action, base, "module_assoc", "module_unit"))


def _restricted_bmodule(baction, incl, base):
    """(V, incl) as a B-module: the right B-action baction on the carrier
    restricted to the subspace incl: V -> carrier."""
    act = factor_through_equaliser(
        tensor_compose(baction, [incl, Morphism.identity(base.space)]), incl)
    return BModule(incl.dom, act), incl


class DescentDatum:
    """A right P-module E with a compatible map xi: E -> E (x)_B P.

    The maps built from E and its action alone are kept on first use;
    the descended module is kept until xi is reassigned.
    """

    def __init__(self, bundle, carrier, action, xi=None):
        self.bundle = bundle
        self.carrier = carrier
        self.action = action  # E (x) P -> E
        if action.dom != carrier.tensor(bundle.como.space) or \
                action.cod != carrier:
            raise TypeError("P-action has wrong shape")
        self._cache = {}
        if xi is None:
            xi = self.unit_insertion()
        if xi.dom != carrier or xi.cod != self.tensor_b_p()[0]:
            raise TypeError("xi has wrong shape")
        self.xi = xi

    @property
    def xi(self):
        return self._xi

    @xi.setter
    def xi(self, xi):
        self._xi = xi
        self._cache.pop("descend", None)

    @memoised
    def base_action(self):
        """The restricted right B-action on E."""
        return tensor_compose(
            self.action, [Morphism.identity(self.carrier), self.bundle.pi])

    @memoised
    def tensor_b_p(self):
        return tensor_over(self.base_action(), self.bundle.left_action())

    @memoised
    def unit_insertion(self):
        """E -> E (x)_B P, e -> [e (x) 1]."""
        return tensor_compose(
            self.tensor_b_p()[1],
            [Morphism.identity(self.carrier), self.bundle.P.unit])


def verify_descent_datum(d):
    """The P-module laws of d's action and the two descent laws of xi.

    The counit law needs the collapse E (x)_B P -> E of the action; when
    the action does not factor through E (x)_B P, both descent laws fail
    with that reason next to the P-module items.  When xi is not
    B-balanced, the coassociativity law fails with that reason.
    """
    b = d.bundle
    E, P = d.carrier, b.como.space
    idE, idP = Morphism.identity(E), Morphism.identity(P)
    rep = Report(action_laws(d.action, b.P, "p_module_assoc",
                             "p_module_unit"))
    # Q1 = E (x)_B P with its projection and the collapse Q1 -> E
    _, Pi1 = d.tensor_b_p()
    try:
        collapse = factor_through_coequaliser(d.action, Pi1)
    except FactorizationError:
        reason = "the P-action does not factor through E (x)_B P"
        for name in ("descent_coassoc", "descent_counit"):
            rep.add(name, False, details={"reason": reason})
        return rep
    # Q2 = (E (x)_B P) (x)_B P with its projection from Q1 (x) P
    idB = Morphism.identity(b.base.space)
    try:
        q1_baction = factor_through_coequaliser(
            tensor_compose(Pi1, [idE, b.right_action()]), tensor(Pi1, idB))
        _, Pi2 = tensor_over(q1_baction, b.left_action())
        xi_tensor_id = factor_through_coequaliser(
            tensor_compose(Pi2, [d.xi, idP]), Pi1)
        ins_mid = factor_through_coequaliser(
            tensor_compose(Pi2, [d.unit_insertion(), idP]), Pi1)
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
    """The descent datum (V (x)_B P, xi: v (x) x -> v (x) 1 (x) x).

    The datum also keeps `eta`: V -> V (x)_B P, v -> [v (x) 1], which
    `counit_of_K` factors through the descended module.
    """
    V, P = v.carrier, bundle.como.space
    idV, idP = Morphism.identity(V), Morphism.identity(P)
    Q, Pi = tensor_over(v.action, bundle.left_action())
    action = factor_through_coequaliser(
        tensor_compose(Pi, [idV, bundle.P.mult]), tensor(Pi, idP))
    d = DescentDatum(bundle, Q, action)
    _, PiE = d.tensor_b_p()
    eta = tensor_compose(Pi, [idV, bundle.P.unit])
    d.xi = factor_through_coequaliser(tensor_compose(PiE, [eta, idP]), Pi)
    d.eta = eta
    return d


@memoised
def descend(d):
    """(V, incl): the equaliser of xi and the unit insertion, as a B-module."""
    _, incl = equaliser(d.xi, d.unit_insertion())
    return _restricted_bmodule(d.base_action(), incl, d.bundle.base)


def unit_Phi(d):
    """The multiplication map descend(d) (x)_B P -> E and its verdict."""
    b = d.bundle
    v, incl = descend(d)
    idP = Morphism.identity(b.como.space)
    _, Pi = tensor_over(v.action, b.left_action())
    phi = factor_through_coequaliser(
        tensor_compose(d.action, [incl, idP]), Pi)
    return phi, is_isomorphism(phi)


def counit_of_K(d):
    """The comparison V -> descend(d) for d = comparison_K(v, bundle), and
    its verdict.

    Its composite with the descended inclusion is v -> [v (x) 1]; the map
    has nonzero kernel exactly when that insertion kills part of V, the
    finite-dimensional failure mode of faithful flatness.
    """
    _, incl = descend(d)
    psi = factor_through_equaliser(d.eta, incl)
    return psi, is_isomorphism(psi)


def counit_Psi(v, bundle):
    """The comparison V -> descend(K(V)) and its verdict; see `counit_of_K`."""
    return counit_of_K(comparison_K(v, bundle))


# -- relative Hopf modules and the transport ---------------------------------

# algebra side: a right P-module E with action E (x) P -> E and a compatible
# right H-coaction E -> E (x) H; the comonoid side is reached through bundle
# dualisation
RelativeHopfModule = namedtuple("RelativeHopfModule",
                                ("carrier", "action", "coaction"))


def hopf_module_check(m, bundle):
    b = bundle
    P, H, E = b.como.space, b.H.space, m.carrier
    rep = Report(action_laws(m.action, b.P, "p_module_assoc", "p_module_unit")
                 + action_laws(m.coaction, b.H, "h_comodule_coassoc",
                               "h_comodule_counit", VECT_OP))
    rep.items.append(equality_check(
        "hopf_compatibility",
        compose(m.coaction, m.action),
        braided_compose(m.action, b.H.mult, m.coaction, b.rho,
                        (E, H), (P, H))))
    return rep


def kappa_transport(d):
    """The identification E (x)_B P -> E (x) H, [e (x) x] -> e.x_(0) (x) x_(1)."""
    b = d.bundle
    E, P, H = d.carrier, b.como.space, b.H.space
    _, Pi1 = d.tensor_b_p()
    # (act (x) id_H) o (id_E (x) rho), a braided sandwich with a unit leg
    return factor_through_coequaliser(braided_compose(
        d.action, Morphism.identity(H), Morphism.identity(E), b.rho,
        (E, unit_space(E.group)), (P, H)), Pi1)


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
    _, incl = coinvariants_of(m.coaction, bundle.H)
    baction = tensor_compose(
        m.action, [Morphism.identity(m.carrier), bundle.pi])
    return _restricted_bmodule(baction, incl, bundle.base)


def monad_presentation_report(d):
    """The concrete monad E (x) H: unit/multiplication laws and the
    transported P-action, checked on the carrier of a descent datum."""
    b = d.bundle
    E, P, H = d.carrier, b.como.space, b.H.space
    idE, idH = Morphism.identity(E), Morphism.identity(H)
    idEH = Morphism.identity(E.tensor(H))
    mu = tensor(idE, b.H.mult)
    eta = tensor(idE, b.H.unit)
    # the transported P-action nu on E (x) H
    nu = braided_compose(d.action, b.H.mult, idEH, b.rho, (E, H), (P, H))
    return Report(
        action_laws(mu, b.H, "monad_assoc", "monad_unit_right")
        + [equality_check("monad_unit_left", tensor_compose(mu, [eta, idH]),
                          idEH)]
        + action_laws(nu, b.P, "nu_assoc", "nu_unit"))


# -- enumeration of small base modules ---------------------------------------

RANDOM_SAMPLES = 6  # random quotients drawn for a base of neither kind


def _sqrt_mod(a, p):
    """A square root of a modulo the odd prime p, or None (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    z = 2  # the least quadratic non-residue
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, r, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        # the least i with t^(2^i) = 1; then e > i
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (e - i - 1), p)
        c, r, t, e = b * b % p, r * b % p, t * b * b % p, i
    return r


def _field_roots(field, beta, alpha):
    """Roots of x^2 - beta x - alpha in the field, sorted canonically: the
    (beta +- s) / 2 for a square root s of the discriminant."""
    p = field.characteristic
    if p == 2:
        return [x for x in (0, 1)
                if not field.reduce(x * x - beta * x - alpha)]
    disc = beta * beta + 4 * alpha
    if p:
        s = _sqrt_mod(disc, p)
    else:
        num, den = disc.numerator, disc.denominator
        r = math.isqrt(max(num * den, 0))
        s = Fraction(r, den) if r * r == num * den else None
    if s is None:
        return []
    half = field.inv(2)
    return sorted({field.reduce((beta + s) * half),
                   field.reduce((beta - s) * half)})


def _module_from_operator(B, coordinates, T):
    """The right module on k^d where w acts by T, for a 2-dim base on the
    space B with the `_one_w` coordinates of its basis."""
    d = len(T)
    V = GradedSpace(B.group, (0,) * d)
    # with basis (1, w) of B, b_j = c0*1 + c1*w acts by c0*I + c1*T
    entries = {}
    # columns of the action V (x) B -> V: v_i (x) b_j
    for i in range(d):
        for j, (c0, c1) in enumerate(coordinates):
            for r in range(d):
                val = (c0 if r == i else 0) + c1 * T[r][i]
                if val:
                    entries[(r, i * B.dim + j)] = val
    return BModule(V, Morphism(V.tensor(B), V, entries))


def _unit_coordinates(base):
    get = base.unit.entries.get
    return [get((i, 0), 0) for i in range(base.space.dim)]


def _one_w(base):
    """A 2-dim base B in the basis (1, w), w the basis vector other than
    the first one where the unit has a nonzero coordinate: (coordinates,
    alpha, beta), with coordinates[j] = (c0, c1) for e_j = c0 * 1 + c1 * w,
    and w^2 = alpha * 1 + beta * w when B is commutative."""
    field = base.space.field
    u = _unit_coordinates(base)
    k = next(i for i, c in enumerate(u) if c)
    w = 1 - k
    # e_k = c0 * u + c1 * e_w  (u[w] may be nonzero)
    c0 = field.inv(u[k])
    e_k = (c0, field.reduce(-u[w] * c0))
    coordinates = [e_k, (0, 1)] if k == 0 else [(0, 1), e_k]
    # w * w in the original basis, = alpha * u + beta * e_w, read off at k
    # (where e_w is 0) and at w
    get = base.mult.entries.get
    ww = [get((i, 3 * w), 0) for i in range(2)]
    alpha = field.reduce(ww[k] * c0)
    return coordinates, alpha, field.reduce(ww[w] - alpha * u[w])


def enumerate_bmodules(base, max_dim, seed=0):
    """Right B-modules of dimension 1..max_dim.

    Exhaustive up to isomorphism for dim B = 1 and commutative dim B = 2
    (classification by the minimal polynomial of the non-unit generator);
    seeded random quotients of free modules otherwise, `RANDOM_SAMPLES`
    draws of which each gives a module when its quotient has dimension
    1..max_dim.
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
        coordinates, alpha, beta = _one_w(base)
        roots = _field_roots(field, beta, alpha)
        for d in range(1, max_dim + 1):
            if len(roots) == 2:
                # split with distinct roots: diagonal signatures
                for a in range(d + 1):
                    T = [[roots[0] if i == j and i < a else
                          (roots[1] if i == j else 0)
                          for j in range(d)] for i in range(d)]
                    out.append(_module_from_operator(B, coordinates, T))
            elif len(roots) == 1:
                # double root r: T = r I + N with N^2 = 0, N of rank k
                r = roots[0]
                for k in range(0, d // 2 + 1):
                    T = [[r if i == j else 0 for j in range(d)]
                         for i in range(d)]
                    for t in range(k):
                        T[2 * t][2 * t + 1] = 1
                    out.append(_module_from_operator(B, coordinates, T))
            else:
                # irreducible minimal polynomial: companion blocks, even dim
                if d % 2 == 0:
                    T = [[0] * d for _ in range(d)]
                    for t in range(d // 2):
                        T[2 * t][2 * t + 1] = alpha
                        T[2 * t + 1][2 * t] = 1
                        T[2 * t + 1][2 * t + 1] = beta
                    out.append(_module_from_operator(B, coordinates, T))
        return out
    return _random_bmodules(base, max_dim, seed)


def _scalar_action(base, V):
    """The unique module structure over a 1-dimensional base."""
    field = V.field
    u = _unit_coordinates(base)[0]
    return Morphism(V.tensor(base.space), V,
                    {(i, i): field.inv(u) for i in range(V.dim)})


def _random_bmodules(base, max_dim, seed):
    """Seeded random quotients of free modules k^k (x) B."""
    B = base.space
    field = B.field
    rng = random.Random(seed)
    out = [BModule(B, base.mult)] if B.dim <= max_dim else []
    for _ in range(RANDOM_SAMPLES):
        k = rng.randint(1, max(1, max_dim // max(1, B.dim) + 1))
        F = GradedSpace(B.group, (0,) * (k * B.dim))
        act = tensor(Morphism.identity(GradedSpace(B.group, (0,) * k)),
                     base.mult)
        # random submodule generated by a few random vectors
        gens = []
        for _ in range(rng.randint(1, 2)):
            gens.append([field.reduce(rng.randint(-2, 2))
                         for _ in range(F.dim)])
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
    until the pivot count stops rising; rows are sparse dicts.
    """
    reduce = field.reduce
    # column i of F -> [(row r, basis index j of B, act[r, i (x) j])]
    act_cols = {}
    for (r, col), v in act.entries.items():
        i, j = divmod(col, B.dim)
        act_cols.setdefault(i, []).append((r, j, v))
    closed = linalg.rref_rows(
        field, [{i: x for i, x in enumerate(v) if x} for v in gens])
    while True:
        rows = [dict(row) for row in closed.values()]
        for row in closed.values():
            images = [{} for _ in range(B.dim)]
            for i, x in row.items():
                for r, j, a in act_cols.get(i, ()):
                    images[j][r] = images[j].get(r, 0) + a * x
            for image in images:
                image = {r: reduce(v) for r, v in image.items()}
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
            incl_entries[(r, c)] = val
    incl = Morphism(S, F, incl_entries)
    Q, Pi = cokernel(incl)
    qact = factor_through_coequaliser(
        compose(Pi, act), tensor(Pi, Morphism.identity(B)))
    return BModule(Q, qact)


def sweep_phi_psi(bundle, max_dim=3, seed=0):
    """Check Phi and Psi on all enumerated base modules; one item each.

    A base whose unit is zero is one failing item: the enumeration reads
    modules off a nonzero coordinate of the unit.  A module whose K(V),
    Phi or Psi does not factor (P does not act on V (x)_B P) fails both
    of its items with that reason.
    """
    rep = Report()
    if not bundle.base.unit.entries:
        return rep.add("sweep.base_unit", False,
                       details={"reason": "the base's unit is zero"})
    mods = enumerate_bmodules(bundle.base, max_dim, seed=seed)
    for n, v in enumerate(mods):
        try:
            d = comparison_K(v, bundle)
            _, verdict_psi = counit_of_K(d)
            _, verdict_phi = unit_Phi(d)
        except FactorizationError as err:
            for name in ("phi", "psi"):
                rep.add("sweep.module_%02d_%s" % (n, name), False,
                        details={"dim": v.carrier.dim, "reason": str(err)})
            continue
        rep.add("sweep.module_%02d_phi" % n, verdict_phi.is_iso,
                details={"dim": v.carrier.dim,
                         "kernel_dim": verdict_phi.kernel_dim})
        rep.add("sweep.module_%02d_psi" % n, verdict_psi.is_iso,
                details={"dim": v.carrier.dim,
                         "kernel_dim": verdict_psi.kernel_dim})
    return rep
