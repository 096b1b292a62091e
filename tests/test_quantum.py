import io
import os
import sys
from contextlib import redirect_stdout

from hopfgal import cli, linalg, morphism
from hopfgal.fields import QQ, PrimeField
import pytest

from hopfgal.corpus import default_root
from hopfgal.bundle import CoalgebraBundle
from hopfgal.morphism import (Morphism, compose, compose_tensor,
                              factor_through_coequaliser,
                              factor_through_equaliser, kernel, tensor,
                              tensor_many)
from hopfgal.quantum import (_induced, build_quantum_category,
                             cotensor_monoid, diagonal_action, multi_cotensor)
from hopfgal.report import Report
from hopfgal.samples import (braided_line, cyclic_group_algebra,
                             nonfree_z2_bundle, pair_groupoid_bundle,
                             superline, sweedler_hopf,
                             trivial_coalgebra_bundle, z2_set_action_bundle)
from test_bundle import SAMPLE_BUNDLES, comonoid_bundles
from test_morphism import difference


def coinvariant_dim_oracle(b):
    """dim (P (x) P)^H computed directly from a matrix rank."""
    zeta = diagonal_action(b)
    PP = b.modc.space.tensor(b.modc.space)
    collapse = tensor_many(Morphism.identity(PP), b.H.counit)
    diff = zeta.entries.copy()
    for key, val in collapse.entries.items():
        diff[key] = diff.get(key, 0) - val
    rows = [[diff.get((i, j), 0)
             for j in range(zeta.dom.dim)] for i in range(PP.dim)]
    return PP.dim - linalg.rank(PP.field, rows)


def test_pair_groupoid_category():
    b = pair_groupoid_bundle(QQ, 2)
    qc, rep = build_quantum_category(b)
    assert rep.ok, rep.render()
    assert qc.morphisms_space.dim == 4
    P = b.modc.space
    idP = Morphism.identity(P)
    # source and target read off the two legs
    assert compose(qc.source, qc.projection) == tensor_many(idP, b.P.counit)
    assert compose(qc.target, qc.projection) == tensor_many(b.P.counit, idP)
    # composition is the pair-groupoid one: (a,b) o (b,c) = (a,c)
    k = factor_through_equaliser(
        compose(tensor_many(qc.projection, qc.projection),
                tensor_many(idP, b.P.comult, idP)),
        qc.pairs_inclusion)
    expected = compose(qc.projection, tensor_many(idP, b.P.counit, idP))
    assert compose(qc.mult, k) == expected


def test_trivial_z2_category():
    b = trivial_coalgebra_bundle(cyclic_group_algebra(QQ, 2))
    qc, rep = build_quantum_category(b)
    assert rep.ok, rep.render()
    assert qc.morphisms_space.dim == 2
    assert qc.morphisms_space.dim == coinvariant_dim_oracle(b)
    # object-of-objects is the unit, so source and target agree
    assert qc.source == qc.target


def test_sweedler_category():
    b = trivial_coalgebra_bundle(sweedler_hopf(QQ))
    qc, rep = build_quantum_category(b)
    assert rep.ok, rep.render()
    assert qc.morphisms_space.dim == 4
    assert qc.morphisms_space.dim == coinvariant_dim_oracle(b)


def test_braided_line_category():
    h = braided_line(PrimeField(7), 3, 2)
    b = trivial_coalgebra_bundle(h)
    qc, rep = build_quantum_category(b)
    assert rep.ok, rep.render()
    assert qc.morphisms_space.dim == coinvariant_dim_oracle(b)


def test_cotensor_monoid_trivial():
    b = trivial_coalgebra_bundle(cyclic_group_algebra(QQ, 2))
    mon, rep = cotensor_monoid(b)
    assert rep.ok, rep.render()
    # base is the unit, so the carrier is all of P (x) P
    assert mon.carrier.dim == 4


def test_cotensor_monoid_pair_groupoid():
    b = pair_groupoid_bundle(QQ, 3)
    mon, rep = cotensor_monoid(b)
    assert rep.ok, rep.render()
    # cotensoring over P itself collapses to P
    assert mon.carrier.dim == 3


def test_cotensor_monoid_sweedler():
    b = trivial_coalgebra_bundle(sweedler_hopf(QQ))
    mon, rep = cotensor_monoid(b)
    assert rep.ok, rep.render()
    assert mon.carrier.dim == 16


def test_non_invertible_can_refuses():
    b = nonfree_z2_bundle(QQ).dualize()
    qc, rep = build_quantum_category(b)
    assert qc is None
    assert not rep["qcat.can_invertible"].ok


def test_composition_matches_the_kronecker_product_composite():
    # the composite through can^-1 that the composition is solved from,
    # written with id_P (x) can^-1 (x) id_P built as a Kronecker product:
    # the leg-folded one in build_quantum_category must induce the same m_G
    bundles = comonoid_bundles()
    for name, build in SAMPLE_BUNDLES.items():
        b = build()
        bundles["sample_" + name] = (
            b if isinstance(b, CoalgebraBundle) else b.dualize())
    checked = []
    for name, b in bundles.items():
        can_inv = b.can_inverse()
        if can_inv is None:
            continue
        qc, _ = build_quantum_category(b)
        if qc is None:
            continue
        idP = Morphism.identity(b.modc.space)
        idH = Morphism.identity(b.H.space)
        _, i2 = b.p_cotensor_p()
        PiG = qc.projection
        old = compose(PiG, compose_tensor(
            [b.action, idP], compose_tensor([idP, b.P.counit, idH, idP],
                                            tensor_many(idP, can_inv, idP))))
        r = factor_through_equaliser(
            compose_tensor([PiG, PiG], tensor_many(idP, i2, idP)),
            qc.pairs_inclusion)
        assert factor_through_coequaliser(old, r) == qc.mult, name
        checked.append(name)
    # the Z_1, Z_2 and Z_3 gradings, comonoid-side and dualised bundles
    for name in ("pair_groupoid_qq", "corpus_mc_trivial_z2_main",
                 "corpus_trivial_braided_line_f7_main", "free_z2_f7",
                 "sample_superline_qq", "set_action_free_x4_qq"):
        assert name in checked
    assert len(checked) >= 20


def successive_equaliser_multi_cotensor(rho_right, lambda_left, n):
    """The n-fold cotensor power with every equaliser pair built as a
    Kronecker product composed with the current inclusion, and equalised
    as the kernel of the difference of the two sides, without `equaliser`."""
    X = rho_right.dom
    idX = Morphism.identity(X)
    ambient = tensor_many(*[idX] * n).dom
    E, iota = ambient, Morphism.identity(ambient)
    for k in range(n - 1):
        f = tensor_many(*([idX] * k + [rho_right] + [idX] * (n - k - 1)))
        g = tensor_many(*([idX] * (k + 1) + [lambda_left] + [idX] * (n - k - 2)))
        E2, j = kernel(difference(compose(f, iota), compose(g, iota)))
        E, iota = E2, compose(iota, j)
    return E, iota


def _pair_groupoid_coactions():
    b = pair_groupoid_bundle(QQ, 3)
    return b.right_coaction(), b.left_coaction()


def _free_z2_coactions():
    # Z_2 acting freely on 4 points by x -> x + 2g, on the comonoid side
    b = z2_set_action_bundle(QQ, [0, 1, 2, 3],
                             lambda x, g: (x + 2 * g) % 4).dualize()
    return b.right_coaction(), b.left_coaction()


def _braided_line_coactions():
    # the Z_3-graded braided line coacting on itself on both sides
    h = braided_line(PrimeField(7), 3, 2)
    return h.comult, h.comult


def _superline_coactions():
    # the Z_2-graded superline coacting on itself on both sides
    h = superline(QQ)
    return h.comult, h.comult


def _trivial_braided_line_coactions():
    # the trivial comonoid-side bundle of the Z_3 braided line over F_7:
    # from the cube on, its Kronecker bases differ from the degree-grouped
    # bases of successive equalisers
    b = trivial_coalgebra_bundle(braided_line(PrimeField(7), 3, 2))
    return b.right_coaction(), b.left_coaction()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("coactions", [
    _pair_groupoid_coactions, _free_z2_coactions, _braided_line_coactions,
    _superline_coactions, _trivial_braided_line_coactions])
def test_multi_cotensor_matches_successive_equalisers(coactions, n):
    # the same subspace of X^(x)k as the reference, in any basis: each
    # inclusion factors through the other, and the two factor maps are
    # inverse to each other
    rho, lam = coactions()
    X = rho.dom
    powers = multi_cotensor(rho, lam, n)
    assert len(powers) == n - 1
    previous = Morphism.identity(X)
    for k, (E, iota, j) in enumerate(powers, 2):
        E_ref, iota_ref = successive_equaliser_multi_cotensor(rho, lam, k)
        assert E.group == E_ref.group
        assert sorted(E.degrees) == sorted(E_ref.degrees)
        assert iota.cod == iota_ref.cod
        x = factor_through_equaliser(iota_ref, iota)
        y = factor_through_equaliser(iota, iota_ref)
        assert compose(x, y) == Morphism.identity(E)
        assert compose(y, x) == Morphism.identity(E_ref)
        if rho.cod.dim == X.dim:  # over the one-dim base, X box X = X (x) X
            assert E.dim == iota.cod.dim
        else:
            assert 0 < E.dim < iota.cod.dim
        # the step inclusion lands in the Kronecker basis of E_{k-1} (x) X
        step = tensor(previous, Morphism.identity(X))
        assert j.dom == E
        assert compose(step, j) == iota
        previous = iota


@pytest.mark.parametrize("coactions", [
    _pair_groupoid_coactions, _superline_coactions, _braided_line_coactions,
    _trivial_braided_line_coactions])
def test_step_inclusion_is_the_factorisation_through_the_kronecker_product(
        coactions):
    # Z_1, the Z_2 superline and the Z_3 braided line over F_7: j is the
    # equaliser's inclusion into the Kronecker basis of E_k (x) X
    rho, lam = coactions()
    idX = Morphism.identity(rho.dom)
    powers = multi_cotensor(rho, lam, 4)
    for (_, inner, _), (_, iota, j) in zip(powers, powers[1:]):
        assert j == factor_through_equaliser(iota, tensor(inner, idX))


def test_qcat_eliminates_each_cotensor_square_once(monkeypatch):
    # P box P is shared by the canonical map, the cotensor monoid and the
    # quantum category, and every higher power extends the one before it,
    # so only P box P and G box G are cotensors of their own
    calls = []
    original = morphism.cotensor

    def counting(*args):
        calls.append(args[0].dom.dim)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("hopfgal") and module is not None:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    path = os.path.join(default_root(), "pair_groupoid", "instance.txt")
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(["qcat", path])
    assert code == 0 and out.getvalue().endswith("result=pass\n")
    assert len(calls) == 2


# -- failed factorisations are reported items --------------------------------

def _edited_mc_trivial_z2(tmp_path, edit):
    path = os.path.join(default_root(), "mc_trivial_z2", "instance.txt")
    with open(path) as fh:
        lines = fh.read().splitlines()
    edit(lines)
    out = tmp_path / "instance.txt"
    out.write_text("\n".join(lines) + "\n")
    return str(out)


def _qcat_stdout(path):
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(["qcat", path])
    return code, out.getvalue()


def test_qcat_reports_the_maps_that_do_not_factor(tmp_path):
    # P's action sends p_1 (x) h_0 to 3 p_1 instead of p_1: the diagonal
    # action has no invariants left, and G = 0 carries neither source,
    # target nor counit
    def edit(lines):
        assert lines[40] == "  1 2 1"
        lines[40] = "  1 2 3"
    code, out = _qcat_stdout(_edited_mc_trivial_z2(tmp_path, edit))
    assert code == 1
    assert out == (
        "check=dim_base verdict=pass dim=1\n"
        "check=monoid.assoc verdict=pass\n"
        "check=monoid.mult_exists verdict=pass\n"
        "check=monoid.unit_exists verdict=pass\n"
        "check=monoid.unit_left verdict=pass\n"
        "check=monoid.unit_right verdict=pass\n"
        "check=qcat.can_invertible verdict=pass\n"
        "check=qcat.comult_exists verdict=pass\n"
        "check=qcat.counit_exists verdict=fail\n"
        "check=qcat.dim_G verdict=pass dim=0\n"
        "check=qcat.left_coaction_exists verdict=pass\n"
        "check=qcat.right_coaction_exists verdict=pass\n"
        "check=qcat.source_exists verdict=fail\n"
        "check=qcat.target_exists verdict=fail\n"
        "check=qcat.unit_exists verdict=pass\n"
        "result=fail\n")


def test_qcat_reports_a_unit_outside_the_cotensor_square(tmp_path):
    # Delta_P gains p_0 -> p_1 (x) p_1: it no longer lands in P box_B P,
    # and can is not invertible
    def edit(lines):
        assert lines[29] == "  3 1 1"
        lines.insert(29, "  3 0 1")
    code, out = _qcat_stdout(_edited_mc_trivial_z2(tmp_path, edit))
    assert code == 1
    assert out == (
        "check=dim_base verdict=pass dim=1\n"
        "check=monoid.mult_exists verdict=pass\n"
        "check=monoid.unit_exists verdict=fail\n"
        "check=qcat.can_invertible verdict=fail\n"
        "result=fail\n")


def test_induced_reports_a_map_that_does_not_factor():
    # the identity of k^2 does not factor through the counit k^2 -> k;
    # the counit itself does
    b = pair_groupoid_bundle(QQ, 2)
    eps = b.P.counit
    rep = Report()
    assert _induced(rep, "x_exists", factor_through_coequaliser,
                    Morphism.identity(eps.dom), eps) is None
    assert _induced(rep, "y_exists", factor_through_coequaliser,
                    eps, eps) == Morphism.identity(eps.cod)
    assert [(item.name, item.ok) for item in rep.items] == [
        ("x_exists", False), ("y_exists", True)]
