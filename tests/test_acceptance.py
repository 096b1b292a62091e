"""End-to-end acceptance gate: one pass/fail line per criterion."""

import itertools
import os
import random
import time

from hopfgal import linalg
from hopfgal.bundle import AlgebraBundle, canonical_map_linearity
from hopfgal.corpus import corpus_commands, default_root, run_commands
from hopfgal.descent import (BModule, comparison_K, counit_Psi, descend,
                             descent_to_hopf_module, hopf_module_check,
                             hopf_module_to_descent, invariants_functor,
                             monad_presentation_report, sweep_phi_psi,
                             verify_descent_datum)
from hopfgal.dsl import parse, print_expr, run_assertions
from hopfgal.fields import QQ, PrimeField
from hopfgal.instances import parse_instance
from hopfgal.morphism import (Morphism, compose, dualize,
                              factor_through_equaliser, tensor, tensor_many)
from hopfgal.quantum import build_quantum_category, diagonal_action
from hopfgal.samples import (braided_line, cyclic_group_algebra, fun_z2,
                             nonflat_bundle, pair_groupoid_bundle,
                             s3_group_algebra, sweedler_hopf,
                             trivial_algebra_bundle, trivial_coalgebra_bundle,
                             z2_set_action_bundle)
from test_dsl import random_well_typed

CORPUS = default_root()


def _verdict(number, label, ok):
    print("criterion %d (%s): %s" % (number, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (number, label)


def _corpus_instances():
    out = {}
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name, "instance.txt"),
                  encoding="utf-8") as fh:
            out[name] = parse_instance(fh.read())
    return out


def _algebra_side(bundle):
    return bundle if isinstance(bundle, AlgebraBundle) else bundle.dualize()


def test_criterion_1_trivial_bundle_suite():
    start = time.monotonic()
    hopfs = [cyclic_group_algebra(QQ, 2), braided_line(PrimeField(7), 3, 2),
             s3_group_algebra(QQ), sweedler_hopf(QQ), fun_z2(QQ)]
    ok = True
    for h in hopfs:
        b = trivial_algebra_bundle(h)
        idH = Morphism.identity(h.space)
        _, Pi = b.p_tensor_p()
        antipode_formula = compose(Pi, compose(tensor(h.antipode, idH),
                                               h.comult))
        ok = (ok and b.condition_A().ok and b.condition_B().ok
              and b.translation_map() == antipode_formula
              and b.check_principal()["principal"].ok)
    elapsed = time.monotonic() - start
    _verdict(1, "trivial-bundle suite, %.2fs" % elapsed, ok and elapsed <= 5.0)


def test_criterion_2_group_action_oracle():
    disagreements = 0
    for size in (1, 2, 3):
        xelems = list(range(size))
        for sigma in itertools.permutations(xelems):
            if any(sigma[sigma[x]] != x for x in xelems):
                continue
            b = z2_set_action_bundle(
                QQ, xelems, lambda x, g, s=sigma: x if g == 0 else s[x])
            can_bijective = b.condition_B()["B.can_bijective"].ok
            free = all(sigma[x] != x for x in xelems)
            if can_bijective != free:
                disagreements += 1
    _verdict(2, "group-action freeness oracle", disagreements == 0)


# condition-A items are named by the structure they constrain, so the two
# sides use dual names for the same verdict
_DUAL_NAMES = {"A.pi_comult": "A.pi_mult", "A.pi_counit": "A.pi_unit",
               "A.pi_coequalises": "A.pi_equalises"}


def test_criterion_3_duality_consistency():
    ok = True
    for name, inst in _corpus_instances().items():
        for b in inst.bundles.values():
            a = _algebra_side(b)
            d = a.dualize()
            mine = {_DUAL_NAMES.get(it.name, it.name): it.ok
                    for it in a.check_principal().items}
            dual = {_DUAL_NAMES.get(it.name, it.name): it.ok
                    for it in d.check_principal().items}
            ok = ok and mine == dual
            _, Pi = a.p_tensor_p()
            _, iota = d.p_cotensor_p()
            compare = factor_through_equaliser(dualize(Pi), iota)
            ok = ok and (compose(compare, dualize(a.canonical_map()))
                         == d.canonical_map())
    _verdict(3, "duality consistency on the corpus", ok)


def test_criterion_4_descent_equivalence():
    ok = True
    for name, inst in _corpus_instances().items():
        for b in inst.bundles.values():
            a = _algebra_side(b)
            if not a.faithful_flatness()["C.faithfully_flat"].ok:
                continue
            ok = ok and sweep_phi_psi(a, max_dim=3).ok
    nf = nonflat_bundle(QQ)
    _, psi_verdict = counit_Psi(BModule(nf.base.space, nf.base.mult), nf)
    witness = psi_verdict.kernel_inclusion
    ok = (ok and not psi_verdict.is_iso and psi_verdict.kernel_dim > 0
          and witness is not None and witness.entries)
    _verdict(4, "descent equivalence sweep and non-flat kernel witness", ok)


def test_criterion_5_proposition_suite():
    ok = True
    for name, inst in _corpus_instances().items():
        for b in inst.bundles.values():
            a = _algebra_side(b)
            ok = ok and canonical_map_linearity(a).ok
            if not a.condition_B().ok:
                continue
            d = comparison_K(BModule(a.base.space, a.base.mult), a)
            ok = ok and verify_descent_datum(d).ok
            ok = ok and monad_presentation_report(d).ok
            m = descent_to_hopf_module(d)
            ok = ok and hopf_module_check(m, a).ok
            d2 = hopf_module_to_descent(m, a)
            ok = ok and d2.xi == d.xi
            # invariants functor agrees with the equaliser of xi
            v1, i1 = invariants_functor(m, a)
            v2, i2 = descend(d)
            x = factor_through_equaliser(i1, i2)
            y = factor_through_equaliser(i2, i1)
            idB = Morphism.identity(a.base.space)
            ok = (ok and compose(x, y) == Morphism.identity(v1.carrier)
                  and compose(y, x) == Morphism.identity(v2.carrier)
                  and compose(x, v1.action) == compose(v2.action,
                                                       tensor(x, idB)))
    _verdict(5, "descent/Hopf-module proposition suite", ok)


def _coinvariant_dim_oracle(b):
    zeta = diagonal_action(b)
    PP = b.modc.space.tensor(b.modc.space)
    collapse = tensor_many(Morphism.identity(PP), b.H.counit)
    diff = zeta.entries.copy()
    for key, val in collapse.entries.items():
        diff[key] = diff.get(key, 0) - val
    rows = [[diff.get((i, j), 0)
             for j in range(zeta.dom.dim)] for i in range(PP.dim)]
    return PP.dim - linalg.rank(PP.field, rows)


def test_criterion_6_quantum_category_suite():
    ok = True
    for b, expected_dim in (
            (trivial_coalgebra_bundle(cyclic_group_algebra(QQ, 2)), 2),
            (pair_groupoid_bundle(QQ, 2), 4)):
        qc, rep = build_quantum_category(b)
        ok = (ok and rep.ok and qc is not None
              and qc.morphisms_space.dim == expected_dim
              and qc.morphisms_space.dim == _coinvariant_dim_oracle(b))
    _verdict(6, "quantum-category suite with dimension oracle", ok)


def test_criterion_7_dsl_suite():
    ok = True
    for name, inst in _corpus_instances().items():
        with open(os.path.join(CORPUS, name, "assertions.txt"),
                  encoding="utf-8") as fh:
            ok = ok and run_assertions(fh.read(), inst).ok
    env = _corpus_instances()["trivial_braided_line_f7"]
    rng = random.Random(int(os.environ.get("HGL_SEED", "0")))
    for _ in range(1000):
        e = random_well_typed(env, rng, steps=6)
        ok = ok and parse(print_expr(e)) == e
    _verdict(7, "DSL diagram assertions and 1000 round-trips", ok)


def test_criterion_8_determinism():
    ok = True
    for name, commands in corpus_commands().items():
        directory = os.path.join(CORPUS, name)
        first = run_commands(directory, commands)
        second = run_commands(directory, commands)
        with open(os.path.join(directory, "expected.txt"),
                  encoding="utf-8") as fh:
            expected = fh.read()
        ok = ok and first == second == expected
    _verdict(8, "byte-identical corpus reports", ok)
