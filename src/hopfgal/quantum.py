"""The quantum-category data attached to a comonoid-side bundle.

From a module-coalgebra bundle pi: P -> B with invertible canonical map
this module builds: the monoid P box_B P in P-bicomodules, and the
quantum category with object-of-objects B, object-of-morphisms
G = (P (x) P)^H (invariants of the diagonal H-action), source/target,
composition, unit, and the coalgebra structure inherited from
P (x) P^op.  Every "induced" structure map is obtained by an explicit
factorisation; a failed factorisation is reported, not raised.
"""

from __future__ import annotations

from collections import namedtuple
from types import SimpleNamespace

from .hopf import VECT_OP, Coalgebra, check_algebra, coinvariants_of, hom_laws
from .morphism import (FactorizationError, Morphism, braided_compose,
                       braiding, compose, compose_tensor, cotensor, equaliser,
                       factor_through_coequaliser, factor_through_equaliser,
                       tensor, tensor_compose, tensor_many)
from .report import Report, equality_check
from .spaces import unit_space


def multi_cotensor(rho_right, lambda_left, n, square=None):
    """The cotensor powers of one bicomodule carrier X from the square up
    to the n-th, one leg at a time: [(E_k, iota_k, j_k) for k = 2..n].

    rho_right: X -> X (x) B and lambda_left: X -> B (x) X.  The square is
    `cotensor(rho, lambda)`, or `square` when that (E, iota) is already
    built, with j_2 = iota_2.  Each later power extends the one before it:
    E_{k+1} is the equaliser, inside E_k (x) X, of the last pair of legs,
    rho on leg k and lambda on leg k + 1, each side one `compose_tensor`
    of F = iota_k (x) id_X.  The step j_{k+1}: E_{k+1} -> E_k (x) X is
    that equaliser's inclusion, already in the Kronecker basis of
    E_k (x) X, and iota_{k+1} = F o j_{k+1}.  Only X (x) X and each
    E_k (x) X are eliminated.
    """
    X = rho_right.dom
    idX = Morphism.identity(X)
    E, iota = cotensor(rho_right, lambda_left) if square is None else square
    powers = [(E, iota, iota)]
    for k in range(2, n):
        F = tensor(iota, idX)
        f = compose_tensor([idX] * (k - 1) + [rho_right, idX], F)
        g = compose_tensor([idX] * k + [lambda_left], F)
        E, j = equaliser(f, g)
        iota = compose(F, j)
        powers.append((E, iota, j))
    return powers


def _induced(rep, name, factor, c, through):
    """factor(c, through), or None when c does not factor; adds the item
    `name` with that verdict to rep."""
    try:
        out = factor(c, through)
    except FactorizationError:
        out = None
    rep.add(name, out is not None)
    return out


# P box_B P with its inclusion, the multiplication id box pi box id from the
# triple cotensor, and the unit P -> carrier from Delta
CotensorMonoid = namedtuple("CotensorMonoid", (
    "carrier", "iota", "mult", "unit", "rho_right", "lambda_left"))


def cotensor_monoid(b):
    """Build the monoid P box_B P of a comonoid-side bundle, with report."""
    P = b.modc.space
    idP = Morphism.identity(P)
    rho_r = b.right_coaction()
    lam_l = b.left_coaction()
    (E2, i2, _), (_, i3, _), (_, i4, _) = multi_cotensor(
        rho_r, lam_l, 4, b.p_cotensor_p())
    rep = Report()
    mult = _induced(rep, "monoid.mult_exists", factor_through_equaliser,
                    compose_tensor([idP, b.P.counit, idP], i3), i2)
    if mult is None:
        return None, rep
    unit = _induced(rep, "monoid.unit_exists", factor_through_equaliser,
                    b.P.comult, i2)
    if unit is None:
        return None, rep
    # associativity on the 4-fold cotensor: collapsing leg 2 then the
    # middle equals collapsing leg 3 then the middle
    a = factor_through_equaliser(
        compose_tensor([idP, b.P.counit, idP, idP], i4), i3)
    c = factor_through_equaliser(
        compose_tensor([idP, idP, b.P.counit, idP], i4), i3)
    rep.items.append(equality_check(
        "monoid.assoc", compose(mult, a), compose(mult, c)))
    # unit laws through the left/right coaction insertions
    j_l = factor_through_equaliser(compose_tensor([b.P.comult, idP], i2), i3)
    j_r = factor_through_equaliser(compose_tensor([idP, b.P.comult], i2), i3)
    rep.items.append(equality_check(
        "monoid.unit_left", compose(mult, j_l), Morphism.identity(E2)))
    rep.items.append(equality_check(
        "monoid.unit_right", compose(mult, j_r), Morphism.identity(E2)))
    return CotensorMonoid(E2, i2, mult, unit, rho_r, lam_l), rep


def diagonal_action(b):
    """The diagonal right H-action on P (x) P."""
    P, H = b.modc.space, b.H.space
    return braided_compose(b.action, b.action, Morphism.identity(P.tensor(P)),
                           b.H.comult, (P, P), (H, H))


def build_quantum_category(b):
    """All structure maps of the quantum category of a comonoid bundle.

    Returns (category or None, Report), the category a SimpleNamespace of
    its maps and spaces.  Requires condition B: the composition of
    morphisms goes through the inverse canonical map.
    """
    P, H, B = b.modc.space, b.H.space, b.base.space
    idP, idH, idB = (Morphism.identity(s) for s in (P, H, B))
    rep = Report()

    can_inv = b.can_inverse()
    if can_inv is None:
        rep.add("qcat.can_invertible", False)
        return None, rep
    rep.add("qcat.can_invertible", True)

    zeta = diagonal_action(b)
    G, PiG = coinvariants_of(zeta, b.H, VECT_OP)
    rep.add("qcat.dim_G", True, details={"dim": G.dim})

    I = unit_space(P.group)
    source = _induced(rep, "qcat.source_exists", factor_through_coequaliser,
                      tensor(b.pi, b.P.counit), PiG)
    target = _induced(rep, "qcat.target_exists", factor_through_coequaliser,
                      tensor(b.P.counit, b.pi), PiG)
    # right and left B-comodule structures on G, from the two legs: braided
    # sandwiches with a unit leg, (Pi_G (x) pi) o (id_P (x) Delta_P) and
    # (pi (x) Pi_G) o (Delta_P (x) id_P)
    rho_G = _induced(rep, "qcat.right_coaction_exists",
                     factor_through_coequaliser, braided_compose(
                         PiG, b.pi, idP, b.P.comult, (P, I), (P, P)), PiG)
    lam_G = _induced(rep, "qcat.left_coaction_exists",
                     factor_through_coequaliser, braided_compose(
                         b.pi, PiG, b.P.comult, idP, (P, P), (I, P)), PiG)
    # coalgebra structure from P (x) P^op, where Delta^op = tau o Delta
    comult_G = _induced(rep, "qcat.comult_exists", factor_through_coequaliser,
                        braided_compose(PiG, PiG, b.P.comult,
                                        compose(braiding(P, P), b.P.comult),
                                        (P, P), (P, P)), PiG)
    counit_G = _induced(rep, "qcat.counit_exists", factor_through_coequaliser,
                        tensor(b.P.counit, b.P.counit), PiG)
    # unit: B -> G induced from Pi_G o Delta_P along the surjection pi
    unit_G = _induced(rep, "qcat.unit_exists", factor_through_coequaliser,
                      compose(PiG, b.P.comult), b.pi)
    pieces = [source, target, rho_G, lam_G, comult_G, counit_G, unit_G]
    if any(x is None for x in pieces):
        return None, rep

    # G box_B G and the triple cotensor, with its step inclusion j12 into
    # (G box_B G) (x) G that associativity uses; the composition m_G on
    # G box_B G is solved from the ambient composite
    (GG, iota_GG, _), (_, iota_G3, j12) = multi_cotensor(rho_G, lam_G, 3)
    _, i2 = b.p_cotensor_p()
    # P (x) (P box P) (x) P -> G, folded by legs: Pi_G o ((act o (id_P (x)
    # shear)) (x) id_P), where shear = (eps (x) id_H) o can^-1: P box P -> H
    shear = compose_tensor([b.P.counit, idH], can_inv)
    composite = tensor_compose(
        PiG, [tensor_compose(b.action, [idP, shear]), idP])
    q = compose_tensor([PiG, PiG], tensor_many(idP, i2, idP))
    r = _induced(rep, "qcat.pairs_cover_exists", factor_through_equaliser,
                 q, iota_GG)
    if r is None:
        return None, rep
    mult_G = _induced(rep, "qcat.mult_exists", factor_through_coequaliser,
                      composite, r)
    if mult_G is None:
        return None, rep

    idG = Morphism.identity(G)
    coalg_G = Coalgebra(G, comult_G, counit_G)
    # coalgebra axioms of G
    rep.extend(check_algebra(coalg_G, "qcat.comult_coassoc",
                             "qcat.counit_right", "qcat.counit_left", VECT_OP))
    # source/target laws against the unit
    rep.items.append(equality_check(
        "qcat.source_unit", compose(source, unit_G), idB))
    rep.items.append(equality_check(
        "qcat.target_unit", compose(target, unit_G), idB))
    # source and target are coalgebra maps
    for name, f in (("source", source), ("target", target)):
        rep.items.extend(hom_laws(
            f, b.base, coalg_G, "qcat.%s_coalgebra_map" % name,
            "qcat.%s_counit" % name, VECT_OP))
    # unit laws of the composition
    try:
        ins_l = factor_through_equaliser(
            compose_tensor([unit_G, idG], lam_G), iota_GG)
        ins_r = factor_through_equaliser(
            compose_tensor([idG, unit_G], rho_G), iota_GG)
        rep.items.append(equality_check(
            "qcat.mult_unit_left", compose(mult_G, ins_l), idG))
        rep.items.append(equality_check(
            "qcat.mult_unit_right", compose(mult_G, ins_r), idG))
    except FactorizationError:
        rep.add("qcat.mult_unit_left", False,
                details={"reason": "unit insertion misses the cotensor"})
    # associativity of the composition on the triple cotensor
    try:
        j23 = factor_through_equaliser(iota_G3, tensor(idG, iota_GG))
        left = factor_through_equaliser(
            compose_tensor([mult_G, idG], j12), iota_GG)
        right = factor_through_equaliser(
            compose_tensor([idG, mult_G], j23), iota_GG)
        rep.items.append(equality_check(
            "qcat.mult_assoc",
            compose(mult_G, left), compose(mult_G, right)))
    except FactorizationError:
        rep.add("qcat.mult_assoc", False,
                details={"reason": "composition is not bicomodule-colinear"})
    qc = SimpleNamespace(
        objects=b.base, morphisms_space=G, projection=PiG,
        source=source, target=target, unit=unit_G, mult=mult_G,
        comult=comult_G, counit=counit_G,
        right_coaction=rho_G, left_coaction=lam_G,
        pairs_space=GG, pairs_inclusion=iota_GG)
    return qc, rep
