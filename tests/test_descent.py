import os
import random
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal import descent, linalg
from hopfgal.descent import (BModule, DescentDatum, _module_closure,
                             _restricted_bmodule, check_bmodule,
                             comparison_K, counit_Psi, descend,
                             enumerate_bmodules, sweep_phi_psi, unit_Phi,
                             verify_descent_datum)
from hopfgal.corpus import _algebra_side_text, default_root
from hopfgal.fields import QQ, PrimeField
from hopfgal.hopf import VECT_OP, Algebra, action_laws, coinvariants_of
from hopfgal.instances import parse_instance
from hopfgal.morphism import (FactorizationError, Morphism, braided_compose,
                              compose, factor_through_coequaliser,
                              factor_through_equaliser, is_isomorphism,
                              tensor, tensor_compose)
from hopfgal.report import Report, equality_check
from hopfgal.samples import (braided_line, cyclic_group_algebra,
                             dual_numbers_algebra, free_z2_bundle,
                             nonflat_bundle, s3_group_algebra,
                             set_action_bundle, sweedler_hopf,
                             trivial_algebra_bundle, z2_set_action_bundle)
from hopfgal.spaces import GradedSpace, GradingGroup, unit_space

F7 = PrimeField(7)


def flat_bundles():
    return [trivial_algebra_bundle(cyclic_group_algebra(QQ, 2)),
            trivial_algebra_bundle(sweedler_hopf(QQ)),
            trivial_algebra_bundle(braided_line(F7, 3, F7.from_int(2))),
            free_z2_bundle(QQ)]


def regular_datum(b):
    """E = P with xi(x) = [1 (x) x]."""
    P = b.como.space
    d = DescentDatum(b, P, b.P.mult)
    _, Pi = d.tensor_b_p()
    d.xi = compose(Pi, tensor(b.P.unit, Morphism.identity(P)))
    return d


def test_enumerate_dim1_base():
    b = trivial_algebra_bundle(cyclic_group_algebra(QQ, 2))
    mods = enumerate_bmodules(b.base, 3)
    assert [m.carrier.dim for m in mods] == [1, 2, 3]
    for m in mods:
        assert check_bmodule(m, b.base).ok


def test_enumerate_dim2_split_base():
    # B = QZ2 as an algebra: minimal polynomial x^2 - 1, distinct roots
    base = cyclic_group_algebra(QQ, 2).algebra
    mods = enumerate_bmodules(base, 3)
    # dims 1..3 with signature counts 2, 3, 4
    assert [m.carrier.dim for m in mods] == [1, 1, 2, 2, 2, 3, 3, 3, 3]
    for m in mods:
        assert check_bmodule(m, base).ok, check_bmodule(m, base).render()


def test_enumerate_dim2_nilpotent_base():
    base = dual_numbers_algebra(QQ)
    mods = enumerate_bmodules(base, 3)
    assert [m.carrier.dim for m in mods] == [1, 2, 2, 3, 3]
    for m in mods:
        assert check_bmodule(m, base).ok


def test_enumerate_irreducible_base():
    # QZ4-like: x^2 + 1 over Q is irreducible, so only even dims appear
    from hopfgal.hopf import Algebra
    from hopfgal.spaces import GradedSpace, GradingGroup, unit_space
    group = GradingGroup.trivial(QQ)
    B = GradedSpace(group, (0, 0))
    one = Fraction(1)
    mult = Morphism(B.tensor(B), B, {(0, 0): one, (1, 1): one, (1, 2): one,
                                     (0, 3): -one})
    unit = Morphism(unit_space(group), B, {(0, 0): one})
    base = Algebra(B, mult, unit)
    mods = enumerate_bmodules(base, 3)
    assert [m.carrier.dim for m in mods] == [2]
    assert check_bmodule(mods[0], base).ok


def test_canonical_datum_valid():
    for b in flat_bundles():
        d = regular_datum(b)
        rep = verify_descent_datum(d)
        assert rep.ok, rep.render()


def test_forced_invalid_datum():
    b = trivial_algebra_bundle(cyclic_group_algebra(QQ, 2))
    d = regular_datum(b)
    d.xi = Morphism.zero(d.xi.dom, d.xi.cod)
    rep = verify_descent_datum(d)
    assert not rep["descent_counit"].ok


def test_action_off_the_balanced_tensor_fails_the_descent_laws():
    # corpus free_z2: K(M) with its first action entry bumped no longer
    # factors through E (x)_B P, so no collapse exists
    with open(os.path.join(default_root(), "free_z2", "instance.txt"),
              encoding="utf-8") as fh:
        inst = parse_instance(fh.read())
    b = inst.bundles["main"]
    d = comparison_K(inst.bmodules["M"], b)
    entries = dict(d.action.entries)
    first = sorted(entries)[0]
    entries[first] += 1
    bumped = DescentDatum(b, d.carrier,
                          Morphism(d.action.dom, d.action.cod, entries))
    rep = verify_descent_datum(bumped)
    assert not rep["p_module_assoc"].ok and not rep["p_module_unit"].ok
    reason = "the P-action does not factor through E (x)_B P"
    for name in ("descent_coassoc", "descent_counit"):
        assert not rep[name].ok
        assert rep[name].details == {"reason": reason}


def test_comparison_K_gives_valid_data():
    for b in flat_bundles():
        for v in enumerate_bmodules(b.base, 2):
            d = comparison_K(v, b)
            assert verify_descent_datum(d).ok


def test_descend_of_canonical_datum_is_base():
    for b in flat_bundles():
        d = regular_datum(b)
        v, _ = descend(d)
        assert v.carrier.dim == b.base.space.dim
        assert check_bmodule(v, b.base).ok


def test_round_trip_on_modules():
    for b in flat_bundles():
        for v in enumerate_bmodules(b.base, 3):
            psi, verdict = counit_Psi(v, b)
            assert verdict.is_iso
            d = comparison_K(v, b)
            phi, verdict2 = unit_Phi(d)
            assert verdict2.is_iso


def test_sweep_report():
    b = free_z2_bundle(QQ)
    rep = sweep_phi_psi(b, max_dim=3)
    assert rep.ok, rep.render()


def test_sweep_builds_one_comparison_datum_per_module(monkeypatch):
    for b in (free_z2_bundle(QQ), nonflat_bundle(QQ)):
        mods = enumerate_bmodules(b.base, 3, seed=1)
        separate = []
        for v in mods:
            _, phi = unit_Phi(comparison_K(v, b))
            _, psi = counit_Psi(v, b)
            separate += [phi.is_iso, psi.is_iso]
        calls = []

        def counted(v, bundle):
            calls.append(v)
            return comparison_K(v, bundle)
        monkeypatch.setattr(descent, "comparison_K", counted)
        rep = sweep_phi_psi(b, max_dim=3, seed=1)
        monkeypatch.undo()
        assert len(calls) == len(mods)
        assert [item.ok for item in rep.items] == separate


def test_descend_is_kept_until_xi_changes():
    b = free_z2_bundle(QQ)
    d = comparison_K(enumerate_bmodules(b.base, 2)[0], b)
    first = descend(d)
    assert descend(d) is first
    d.xi = d.unit_insertion()  # the equaliser of ins with itself is all of E
    v, incl = descend(d)
    assert v.carrier == d.carrier
    assert is_isomorphism(incl).is_iso


def test_nonflat_psi_kernel_witness():
    b = nonflat_bundle(QQ)
    base = b.base
    v = BModule(base.space, base.mult)  # the regular module B
    psi, verdict = counit_Psi(v, b)
    assert not verdict.is_iso
    assert verdict.kernel_dim == 1
    # the kernel is spanned by the nilpotent generator t
    K = verdict.kernel_inclusion
    assert K.to_rows() == [[Fraction(0)], [Fraction(1)]]


# -- relative Hopf modules and the transport ---------------------------------
#
# The other side of the descent equivalence (Schneider, "Principal
# homogeneous spaces for arbitrary Hopf algebras", Israel J. Math. 72,
# 1990): a descent datum is a relative Hopf module through the canonical
# map.  No command prints it, so it lives here as an oracle for the
# descent data that `hopfgal.descent` builds.

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


def test_kappa_and_hopf_module_transport():
    for b in flat_bundles():
        d = regular_datum(b)
        kappa = kappa_transport(d)
        assert is_isomorphism(kappa).is_iso
        m = descent_to_hopf_module(d)
        assert hopf_module_check(m, b).ok
        # the canonical datum transports to the coaction rho itself
        assert m.coaction == b.rho
        d2 = hopf_module_to_descent(m, b)
        assert d2.xi == d.xi


def test_invariants_functor_agrees_with_descend():
    for b in flat_bundles():
        d = regular_datum(b)
        m = descent_to_hopf_module(d)
        v1, incl1 = invariants_functor(m, b)
        v2, incl2 = descend(d)
        assert v1.carrier.dim == v2.carrier.dim
        # same subspace of E: each inclusion factors through the other
        x = factor_through_equaliser(incl1, incl2)
        assert is_isomorphism(x).is_iso
        idB = Morphism.identity(b.base.space)
        assert compose(x, v1.action) == compose(v2.action, tensor(x, idB))


def test_monad_presentation():
    for b in flat_bundles():
        rep = monad_presentation_report(regular_datum(b))
        assert rep.ok, rep.render()


def test_hopf_module_forced_failure():
    b = trivial_algebra_bundle(cyclic_group_algebra(QQ, 3))
    d = regular_datum(b)
    m = descent_to_hopf_module(d)
    broken = RelativeHopfModule(
        m.carrier, m.action,
        compose(tensor(Morphism.identity(m.carrier), b.H.antipode),
                m.coaction))
    assert not hopf_module_check(broken, b).ok


# -- the submodule closure against the dense rank-growing reference ----------

def dense_closure(field, gens, act, B):
    """RREF rows of the span of gens and their images under act, grown
    until the dense rank stops rising."""
    vectors = [list(v) for v in gens]
    rows = act.to_rows()
    n = len(rows)
    while True:
        images = [[field.reduce(sum((rows[r][i * B.dim + j] * v[i]
                                     for i in range(n)), 0))
                   for r in range(n)]
                  for v in vectors for j in range(B.dim)]
        if linalg.rank(field, vectors + images) == linalg.rank(field, vectors):
            R, pivots = linalg.rref(field, vectors)
            return R[:len(pivots)]
        vectors += images


def closure_bases():
    """Right regular actions of k^2 (diagonal), Sweedler's algebra and
    k[S_3] over QQ and F_7."""
    out = []
    for field in (QQ, F7):
        diag = set_action_bundle(field, [0, 1, 2, 3], [0, 1],
                                 lambda a, b: (a + b) % 2, lambda a: a,
                                 lambda x, g: (x + 2 * g) % 4).base
        out += [diag, sweedler_hopf(field).algebra,
                s3_group_algebra(field).algebra]
    return out


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_module_closure_matches_dense_reference(data):
    base = data.draw(st.sampled_from(closure_bases()))
    B, field = base.space, base.space.field
    k = data.draw(st.integers(1, 2))
    act = tensor(Morphism.identity(GradedSpace(B.group, (0,) * k)), base.mult)
    gens = data.draw(st.lists(
        st.lists(st.integers(-2, 2).map(field.from_int),
                 min_size=k * B.dim, max_size=k * B.dim),
        min_size=1, max_size=2))
    closed = _module_closure(field, gens, act, B)
    assert [[row.get(i, 0) for i in range(k * B.dim)]
            for row in closed.values()] == \
        dense_closure(field, gens, act, B)


# -- random base modules and roots over F_p ----------------------------------

def test_random_bmodules_of_a_3_dim_base():
    # Z_2 acting freely on 6 points, x -> x + 3g: B = Fun(X/G) has dim 3,
    # neither 1 nor 2, so the enumeration draws seeded random quotients
    for field in (QQ, PrimeField(101)):
        base = z2_set_action_bundle(field, list(range(6)),
                                    lambda x, g: (x + 3 * g) % 6).base
        assert base.space.dim == 3
        for seed, dims in ((0, [3, 1, 3, 3]), (1, [3, 1, 1, 2])):
            mods = enumerate_bmodules(base, 3, seed)
            assert [m.carrier.dim for m in mods] == dims
            for m in mods:
                assert check_bmodule(m, base).ok
            again = enumerate_bmodules(base, 3, seed)
            assert [m.action.entries for m in again] == \
                [m.action.entries for m in mods]


def quadratic_algebra(field, a):
    """k[t]/(t^2 - a) on the basis (1, t)."""
    group = GradingGroup.trivial(field)
    B = GradedSpace(group, (0, 0))
    entries = {(0, 0): 1, (1, 1): 1, (1, 2): 1, (0, 3): a}
    return Algebra(B, Morphism(B.tensor(B), B, entries),
                   Morphism(unit_space(group), B, {(0, 0): 1}))


def test_enumerate_quadratic_bases_over_f7():
    # t^2 - 2 splits with roots 3 and 4, t^2 has the double root 0 and
    # t^2 - 3 is irreducible: signatures, nilpotent ranks, companion blocks
    for a, roots, count in ((2, [3, 4], 9), (0, [0], 5), (3, [], 1)):
        assert descent._field_roots(F7, 0, a) == roots
        base = quadratic_algebra(F7, a)
        mods = enumerate_bmodules(base, 3)
        assert len(mods) == count
        for m in mods:
            assert check_bmodule(m, base).ok


def brute_force_roots(field, beta, alpha):
    return [x for x in range(field.characteristic)
            if not field.reduce(x * x - beta * x - alpha)]


def test_field_roots_match_brute_force():
    # 17 - 1 = 2^4: Tonelli-Shanks runs its loop more than once
    for p in (2, 3, 5, 7, 11, 13, 17):
        F = PrimeField(p)
        for beta in range(p):
            for alpha in range(p):
                assert descent._field_roots(F, beta, alpha) == \
                    brute_force_roots(F, beta, alpha), (p, beta, alpha)
    F = PrimeField(101)
    rng = random.Random(0)
    for _ in range(200):
        beta, alpha = rng.randrange(101), rng.randrange(101)
        assert descent._field_roots(F, beta, alpha) == \
            brute_force_roots(F, beta, alpha), (beta, alpha)


def test_sweep_over_a_61_bit_prime_field(tmp_path):
    # B = k[t]/(t^2): the roots of x^2 come from a square root mod p, where
    # a search over all of F_p would never end
    src = os.path.dirname(os.path.dirname(descent.__file__))
    out = {}
    for p in (101, 2**61 - 1):
        path = tmp_path / ("nonflat_%d.txt" % p)
        path.write_text(_algebra_side_text(nonflat_bundle(PrimeField(p)))[0])
        proc = subprocess.run(
            [sys.executable, "-m", "hopfgal.cli", "descent", str(path),
             "--sweep-dim", "2"], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stderr) == (1, ""), p
        out[p] = proc.stdout
    assert out[2**61 - 1] == out[101]
    assert out[101].endswith("check=sweep.module_02_psi verdict=fail dim=2 "
                             "kernel_dim=1\nresult=fail\n")
