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

from .morphism import (FactorizationError, Morphism, braided_compose,
                       braiding, coequaliser, compose, compose_tensor,
                       cotensor, equaliser, factor_through_coequaliser,
                       factor_through_equaliser, kernel_tensor_id, tensor,
                       tensor_many)
from .report import Report, equality_check
from .spaces import unit_space


def multi_cotensor(rho_right, lambda_left, n):
    """(E, iota) for the n-fold cotensor power of one bicomodule carrier.

    rho_right: X -> X (x) B and lambda_left: X -> B (x) X; adjacent legs
    are matched pairwise by successive equalisers, so the resulting basis
    is deterministic.  The first pair acts on the first two legs only: its
    equaliser is X box_B X (x) X^(n-2), the `cotensor` of rho and lambda
    tensored with the identity of the other legs (`kernel_tensor_id`), so
    only X (x) X is eliminated.  Each later pair is one `compose_tensor`
    of the current inclusion per side, a single pass over its entries: the
    identity legs cost nothing and no Kronecker product is built.
    """
    X = rho_right.dom
    idX = Morphism.identity(X)
    if n < 2:
        return X, idX
    rest = unit_space(X.group)
    for _ in range(n - 2):
        rest = rest.tensor(X)
    E, iota = kernel_tensor_id(cotensor(rho_right, lambda_left)[1], rest)
    for k in range(1, n - 1):
        f = compose_tensor([idX] * k + [rho_right] + [idX] * (n - k - 1), iota)
        g = compose_tensor(
            [idX] * (k + 1) + [lambda_left] + [idX] * (n - k - 2), iota)
        E2, j = equaliser(f, g)
        E, iota = E2, compose(iota, j)
    return E, iota


class CotensorMonoid:
    """P box_B P with multiplication id box pi box id and unit from Delta."""

    def __init__(self, carrier, iota, mult, unit, rho_right, lambda_left):
        self.carrier = carrier
        self.iota = iota
        self.mult = mult  # triple cotensor -> carrier
        self.unit = unit  # P -> carrier
        self.rho_right = rho_right
        self.lambda_left = lambda_left


def cotensor_monoid(b):
    """Build the monoid P box_B P of a comonoid-side bundle, with report."""
    P = b.modc.space
    idP = Morphism.identity(P)
    rho_r = b.right_coaction()
    lam_l = b.left_coaction()
    E2, i2 = b.p_cotensor_p()
    E3, i3 = multi_cotensor(rho_r, lam_l, 3)
    rep = Report()
    try:
        collapse_mid = compose_tensor([idP, b.P.counit, idP], i3)
        mult = factor_through_equaliser(collapse_mid, i2)
        rep.add("monoid.mult_exists", True)
    except FactorizationError:
        rep.add("monoid.mult_exists", False)
        return None, rep
    try:
        unit = factor_through_equaliser(b.P.comult, i2)
        rep.add("monoid.unit_exists", True)
    except FactorizationError:
        rep.add("monoid.unit_exists", False)
        return None, rep
    # associativity on the 4-fold cotensor: collapsing leg 2 then the
    # middle equals collapsing leg 3 then the middle
    E4, i4 = multi_cotensor(rho_r, lam_l, 4)
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


class QuantumCategory:
    def __init__(self, **kw):
        self.__dict__.update(kw)


def diagonal_action(b):
    """The diagonal right H-action on P (x) P."""
    P, H = b.modc.space, b.H.space
    return braided_compose(b.action, b.action, Morphism.identity(P.tensor(P)),
                           b.H.comult, (P, P), (H, H))


def invariants_quotient(b, carrier, action):
    """(X^H, Pi): coequaliser of an H-action with the counit collapse."""
    idX = Morphism.identity(carrier)
    return coequaliser(tensor(idX, b.H.counit), action)


def build_quantum_category(b):
    """All structure maps of the quantum category of a comonoid bundle.

    Returns (QuantumCategory or None, Report).  Requires condition B: the
    composition of morphisms goes through the inverse canonical map.
    """
    P, H, B = b.modc.space, b.H.space, b.base.space
    idP, idH, idB = (Morphism.identity(s) for s in (P, H, B))
    rep = Report()

    can_inv = b.can_inverse()
    if can_inv is None:
        rep.add("qcat.can_invertible", False)
        return None, rep
    rep.add("qcat.can_invertible", True)

    PP = P.tensor(P)
    idPP = Morphism.identity(PP)
    zeta = diagonal_action(b)
    G, PiG = invariants_quotient(b, PP, zeta)
    rep.add("qcat.dim_G", True, details={"dim": G.dim})

    def induced_through_PiG(name, composite):
        try:
            out = factor_through_coequaliser(composite, PiG)
            rep.add("qcat.%s_exists" % name, True)
            return out
        except FactorizationError:
            rep.add("qcat.%s_exists" % name, False)
            return None

    source = induced_through_PiG("source", tensor(b.pi, b.P.counit))
    target = induced_through_PiG("target", tensor(b.P.counit, b.pi))
    # right and left B-comodule structures on G, from the two legs
    rho_G = induced_through_PiG(
        "right_coaction",
        compose_tensor([PiG, idB],
                       compose_tensor([idP, idP, b.pi],
                                      tensor(idP, b.P.comult))))
    lam_G = induced_through_PiG(
        "left_coaction",
        compose_tensor([idB, PiG],
                       compose_tensor([b.pi, idP, idP],
                                      tensor(b.P.comult, idP))))
    # coalgebra structure from P (x) P^op, where Delta^op = tau o Delta
    comult_G = induced_through_PiG("comult", braided_compose(
        PiG, PiG, b.P.comult, compose(braiding(P, P), b.P.comult),
        (P, P), (P, P)))
    counit_G = induced_through_PiG("counit", tensor(b.P.counit, b.P.counit))
    # unit: B -> G induced from Pi_G o Delta_P along the surjection pi
    try:
        unit_G = factor_through_coequaliser(compose(PiG, b.P.comult), b.pi)
        rep.add("qcat.unit_exists", True)
    except FactorizationError:
        rep.add("qcat.unit_exists", False)
        unit_G = None
    pieces = [source, target, rho_G, lam_G, comult_G, counit_G, unit_G]
    if any(x is None for x in pieces):
        return None, rep

    # composition m_G on G box_B G, solved from the ambient composite
    GG, iota_GG = multi_cotensor(rho_G, lam_G, 2)
    E2, i2 = b.p_cotensor_p()
    M_mid = compose_tensor([b.action, idP],
                           compose_tensor([idP, b.P.counit, idH, idP],
                                          tensor_many(idP, can_inv, idP)))
    composite = compose(PiG, M_mid)  # P (x) (P box P) (x) P -> G
    q = compose_tensor([PiG, PiG], tensor_many(idP, i2, idP))
    try:
        r = factor_through_equaliser(q, iota_GG)
        rep.add("qcat.pairs_cover_exists", True)
    except FactorizationError:
        rep.add("qcat.pairs_cover_exists", False)
        return None, rep
    try:
        mult_G = factor_through_coequaliser(composite, r)
        rep.add("qcat.mult_exists", True)
    except FactorizationError:
        rep.add("qcat.mult_exists", False)
        return None, rep

    idG = Morphism.identity(G)
    # coalgebra axioms of G
    rep.items.append(equality_check(
        "qcat.comult_coassoc",
        compose_tensor([comult_G, idG], comult_G),
        compose_tensor([idG, comult_G], comult_G)))
    rep.items.append(equality_check(
        "qcat.counit_left",
        compose_tensor([counit_G, idG], comult_G), idG))
    rep.items.append(equality_check(
        "qcat.counit_right",
        compose_tensor([idG, counit_G], comult_G), idG))
    # source/target laws against the unit
    rep.items.append(equality_check(
        "qcat.source_unit", compose(source, unit_G), idB))
    rep.items.append(equality_check(
        "qcat.target_unit", compose(target, unit_G), idB))
    # source and target are coalgebra maps
    rep.items.append(equality_check(
        "qcat.source_coalgebra_map",
        compose(b.base.comult, source),
        compose_tensor([source, source], comult_G)))
    rep.items.append(equality_check(
        "qcat.target_coalgebra_map",
        compose(b.base.comult, target),
        compose_tensor([target, target], comult_G)))
    rep.items.append(equality_check(
        "qcat.source_counit", compose(b.base.counit, source), counit_G))
    rep.items.append(equality_check(
        "qcat.target_counit", compose(b.base.counit, target), counit_G))
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
        G3, iota_G3 = multi_cotensor(rho_G, lam_G, 3)
        j12 = factor_through_equaliser(iota_G3, tensor(iota_GG, idG))
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
    qc = QuantumCategory(
        objects=b.base, morphisms_space=G, projection=PiG,
        source=source, target=target, unit=unit_G, mult=mult_G,
        comult=comult_G, counit=counit_G,
        right_coaction=rho_G, left_coaction=lam_G,
        pairs_space=GG, pairs_inclusion=iota_GG)
    return qc, rep
