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

from .hopf import VECT_OP, Coalgebra, check_algebra, coinvariants_of, hom_laws
from .morphism import (FactorizationError, Morphism, braided_compose,
                       braiding, compose, compose_tensor, cotensor, equaliser,
                       factor_through_coequaliser, factor_through_equaliser,
                       kernel_tensor_id, tensor, tensor_many)
from .report import Report, equality_check


def multi_cotensor(rho_right, lambda_left, n, square=None):
    """The cotensor powers of one bicomodule carrier X from the square up
    to the n-th, one leg at a time: [(E_k, iota_k, j_k) for k = 2..n].

    rho_right: X -> X (x) B and lambda_left: X -> B (x) X.  The square is
    `cotensor(rho, lambda)`, or `square` when that (E, iota) is already
    built, with j_2 = iota_2.  Each later power extends the one before it:
    E_k (x) X with iota_k (x) id_X (`kernel_tensor_id`, no elimination),
    then the equaliser j of the last pair of legs, rho on leg k and lambda
    on leg k + 1, one `compose_tensor` of that inclusion per side.  So
    iota_{k+1} = (iota_k (x) id_X) o j, and j_{k+1}: E_{k+1} -> E_k (x) X
    is j with its rows renamed through `kernel_tensor_id`'s order, which
    puts it in the Kronecker basis of E_k (x) X under every grading.  Only
    X (x) X and each E_k (x) X are eliminated, and each basis is the one
    successive equalisers of adjacent pairs give.
    """
    X = rho_right.dom
    idX = Morphism.identity(X)
    E, iota = cotensor(rho_right, lambda_left) if square is None else square
    powers = [(E, iota, iota)]
    for k in range(2, n):
        _, F, order = kernel_tensor_id(iota, X)
        f = compose_tensor([idX] * (k - 1) + [rho_right, idX], F)
        g = compose_tensor([idX] * k + [lambda_left], F)
        E_next, j = equaliser(f, g)
        iota = compose(F, j)
        j = Morphism(E_next, E.tensor(X),
                     {(order[p], e): v for (p, e), v in j.entries.items()})
        E = E_next
        powers.append((E, iota, j))
    return powers


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
    (E2, i2, _), (_, i3, _), (_, i4, _) = multi_cotensor(
        rho_r, lam_l, 4, b.p_cotensor_p())
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

    zeta = diagonal_action(b)
    G, PiG = coinvariants_of(zeta, b.H, VECT_OP)
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

    # G box_B G and the triple cotensor, with its inclusion j12 into
    # (G box_B G) (x) G that associativity uses; the composition m_G on
    # G box_B G is solved from the ambient composite
    (GG, iota_GG, _), (_, iota_G3, j12) = multi_cotensor(rho_G, lam_G, 3)
    _, i2 = b.p_cotensor_p()
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
    qc = QuantumCategory(
        objects=b.base, morphisms_space=G, projection=PiG,
        source=source, target=target, unit=unit_G, mult=mult_G,
        comult=comult_G, counit=counit_G,
        right_coaction=rho_G, left_coaction=lam_G,
        pairs_space=GG, pairs_inclusion=iota_GG)
    return qc, rep
