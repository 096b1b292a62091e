import os
import random
import re
import sys
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal import dsl, morphism
from hopfgal.corpus import default_root
from hopfgal.dsl import (AssertionFileError, Call, Environment, Name,
                         ParseError, Seq, Tensor, assert_equal, evaluate,
                         parse, print_expr, run_assertions, typecheck)
from hopfgal.fields import QQ, PrimeField
from hopfgal.instances import parse_instance
from hopfgal.morphism import compose, tensor
from hopfgal.samples import (braided_line, cyclic_group_algebra, superline,
                             sweedler_hopf, trivial_algebra_bundle,
                             trivial_coalgebra_bundle)
from hopfgal.spaces import GradedSpace, GradingGroup
from test_morphism import BRAIDED_GROUPS, graded_morphism


def z2_env():
    h = cyclic_group_algebra(QQ, 2)
    b = trivial_coalgebra_bundle(h)
    return h, b, Environment(
        spaces={"V": h.space, "W": h.space.tensor(h.space)},
        hopfs={"H": h}, modules={"P": b.modc})


def test_parse_shapes():
    e = parse("id(P) * cu(H)")
    assert e == Tensor(Call("id", ("P",)), Call("cu", ("H",)))
    e = parse("(cm(P) * id(H)) ; (id(P) * act(P))")
    assert isinstance(e, Seq) and isinstance(e.first, Tensor)
    # classical order: f o g composes g first
    assert parse("f o g") == Seq(Name("g"), Name("f"))
    assert parse("f ; g") == Seq(Name("f"), Name("g"))
    # precedence: * binds tighter than ;
    assert parse("a * b ; c") == Seq(Tensor(Name("a"), Name("b")), Name("c"))


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse("id(P ;")
    assert exc.value.position == 6
    assert ")" in exc.value.expected or "," in exc.value.expected
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("m(a,b)")  # wrong arity
    with pytest.raises(ParseError):
        parse("f ; ; g")


def test_typecheck_can_composite():
    h, b, env = z2_env()
    dom, cod = typecheck(parse("(cm(P) * id(H)) ; (id(P) * act(P))"), env)
    assert dom.dim == 4 and cod.dim == 4
    assert dom == h.space.tensor(h.space)


def test_typecheck_mismatch():
    h, b, env = z2_env()
    with pytest.raises(TypeError):
        typecheck(parse("cu(H) ; m(H)"), env)
    assert typecheck(parse("id(V)"), env) == (h.space, h.space)
    with pytest.raises(TypeError):
        typecheck(parse("nosuch"), env)


def test_evaluate_matches_canonical_composite():
    h, b, env = z2_env()
    got = evaluate(parse("(cm(P) * id(H)) ; (id(P) * act(P))"), env)
    idP = got.dom  # not a morphism; rebuild directly
    from hopfgal.morphism import Morphism
    idP = Morphism.identity(h.space)
    want = compose(tensor(idP, b.action), tensor(h.comult, idP))
    assert got == want


def test_evaluate_braiding_and_antipode():
    h, b, env = z2_env()
    sq = evaluate(parse("br(V,V) ; br(V,V)"), env)
    from hopfgal.morphism import Morphism
    assert sq == Morphism.identity(h.space.tensor(h.space))
    rep = assert_equal(parse("cm(H) ; (S(H) * id(H)) ; m(H)"),
                       parse("cu(H) ; u(H)"), env)
    assert rep.ok


def test_superline_braiding_sign():
    h = superline()
    env = Environment(spaces={"V": h.space}, hopfs={"H": h})
    sq = evaluate(parse("br(V,V) ; br(V,V)"), env)
    from hopfgal.morphism import Morphism
    assert sq == Morphism.identity(h.space.tensor(h.space))
    single = evaluate(parse("br(V,V)"), env)
    # the odd-odd block of the flip carries the sign -1
    assert single.entries[(1 * 2 + 1, 1 * 2 + 1)] == QQ.parse("-1")


def test_assert_equal_failure_witness():
    h, b, env = z2_env()
    rep = assert_equal(parse("cm(H) ; (S(H) * id(H)) ; m(H)"),
                       parse("id(V)"), env)
    assert not rep.ok
    item = rep.items[0]
    assert "first_difference" in item.details
    assert item.witness is not None
    with pytest.raises(TypeError):
        assert_equal(parse("cu(H)"), parse("id(V)"), env)


def test_run_assertions():
    h, b, env = z2_env()
    text = """
# antipode axiom, both sides
EXPECT cm(H) ; (S(H) * id(H)) ; m(H) == cu(H) ; u(H)
EXPECT br(V,V) ; br(V,V) == id(V) * id(V)
"""
    rep = run_assertions(text, env)
    assert rep.ok and len(rep.items) == 2
    bad = run_assertions("EXPECT cu(H) ; u(H) == id(V)", env)
    assert not bad.ok


# -- random well-typed expressions, for round-trip fuzzing --------------------

def atom_pool(env):
    """All atomic expressions of an environment with their endpoints."""
    pool = [(Name(n), f.dom, f.cod) for n, f in env.morphisms.items()]
    for n in env.spaces:
        V = env.spaces[n]
        pool.append((Call("id", (n,)), V, V))
        for n2 in env.spaces:
            W = env.spaces[n2]
            pool.append((Call("br", (n, n2)), V.tensor(W), W.tensor(V)))
    for n, h in env.hopfs.items():
        H = h.space
        pool.extend([(Call("m", (n,)), H.tensor(H), H),
                     (Call("u", (n,)), h.unit.dom, H),
                     (Call("cm", (n,)), H, H.tensor(H)),
                     (Call("cu", (n,)), H, h.counit.cod),
                     (Call("S", (n,)), H, H)])
    for n, x in env.comodules.items():
        pool.extend([(Call("m", (n,)), x.space.tensor(x.space), x.space),
                     (Call("u", (n,)), x.algebra.unit.dom, x.space),
                     (Call("coact", (n,)), x.coaction.dom, x.coaction.cod)])
    for n, x in env.modules.items():
        pool.extend([(Call("cm", (n,)), x.space, x.space.tensor(x.space)),
                     (Call("cu", (n,)), x.space, x.coalgebra.counit.cod),
                     (Call("act", (n,)), x.action.dom, x.action.cod)])
    return pool


def random_well_typed(env, rng, steps=5):
    """One random well-typed expression; used for round-trip fuzzing."""
    pool = atom_pool(env)
    expr, dom, cod = pool[rng.randrange(len(pool))]
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.4:
            other = pool[rng.randrange(len(pool))]
            if rng.random() < 0.5:
                expr, dom, cod = (Tensor(expr, other[0]),
                                  dom.tensor(other[1]), cod.tensor(other[2]))
            else:
                expr, dom, cod = (Tensor(other[0], expr),
                                  other[1].tensor(dom), other[2].tensor(cod))
        else:
            nxt = [a for a in pool if a[1] == cod]
            if nxt:
                follow = nxt[rng.randrange(len(nxt))]
                expr, cod = Seq(expr, follow[0]), follow[2]
    return expr


def test_roundtrip_random():
    h, b, env = z2_env()
    rng = random.Random(7)
    for _ in range(300):
        e = random_well_typed(env, rng, steps=6)
        assert parse(print_expr(e)) == e
        typecheck(e, env)  # well-typed by construction


def test_atom_pool_covers_structures():
    h, b, env = z2_env()
    heads = {a[0].head for a in atom_pool(env) if isinstance(a[0], Call)}
    assert {"id", "br", "m", "u", "cm", "cu", "S", "act"} <= heads


# -- fused evaluation against a plain tensor-then-compose evaluator ----------

def reference_evaluate(e, env):
    """Every `*` built as a Kronecker product, every `;` a plain compose."""
    if isinstance(e, (Name, Call)):
        return env.atom_morphism(e)
    if isinstance(e, Tensor):
        return tensor(reference_evaluate(e.left, env),
                      reference_evaluate(e.right, env))
    return compose(reference_evaluate(e.second, env),
                   reference_evaluate(e.first, env))


def hopf_env(h):
    return Environment(
        spaces={"V": h.space}, hopfs={"H": h},
        comodules={"P": trivial_algebra_bundle(h).como},
        modules={"Q": trivial_coalgebra_bundle(h).modc},
        morphisms={"s": h.antipode})


F7 = PrimeField(7)
ENVS = {"sweedler": hopf_env(sweedler_hopf(QQ)),
        "superline": hopf_env(superline()),
        "braided_line_f7": hopf_env(braided_line(F7, 3, F7.from_int(2)))}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ENVS)), st.integers(0, 2 ** 32 - 1))
def test_fused_evaluate_matches_reference(name, seed):
    env = ENVS[name]
    e = random_well_typed(env, random.Random(seed), steps=4)
    got = evaluate(e, env)
    want = reference_evaluate(e, env)
    assert (got.dom, got.cod, got.entries) == (want.dom, want.cod, want.entries)


def test_fused_shapes_match_reference():
    env = ENVS["superline"]
    for src in ["(m(H) * id(H)) ; m(H)", "cm(H) ; (id(H) * cm(H))",
                "cm(H) ; (S(H) * id(H)) ; m(H)",
                "(id(V) * br(V,V)) ; (br(V,V) * id(V))",
                "(coact(P) * coact(P)) ; (id(P) * br(H,P) * id(H)) ; "
                "(m(P) * m(H))",
                "(id(Q) * cm(H)) ; (br(Q,H) * id(H)) ; (act(Q) * id(H))",
                "(s * id(V)) ; ((s * s) ; br(V,V))"]:
        e = parse(src)
        assert evaluate(e, env) == reference_evaluate(e, env), src


def test_evaluate_rejects_an_ill_typed_composite_with_the_same_text():
    h, b, env = z2_env()
    cases = {
        "cu(H) ; m(H)":
            "cannot compose 'm(H)' after 'cu(H)': middle objects differ "
            "(dim 1, degrees (0,) vs dim 4, degrees (0, 0, 0, 0))",
        "(id(H) * id(H)) ; cu(H)":
            "cannot compose 'cu(H)' after 'id(H) * id(H)': middle objects "
            "differ (dim 4, degrees (0, 0, 0, 0) vs dim 2, degrees (0, 0))",
        "id(V) * (cu(H) ; m(H))":
            "cannot compose 'm(H)' after 'cu(H)': middle objects differ "
            "(dim 1, degrees (0,) vs dim 4, degrees (0, 0, 0, 0))",
        "m(H) ; (id(V) * cm(H))":
            "cannot compose 'id(V) * cm(H)' after 'm(H)': middle objects "
            "differ (dim 2, degrees (0, 0) vs dim 4, degrees (0, 0, 0, 0))",
    }
    for src, text in cases.items():
        with pytest.raises(TypeError, match="^%s$" % re.escape(text)):
            evaluate(parse(src), env)


def test_typecheck_reads_id_and_br_endpoints_without_building_them(
        monkeypatch):
    h, b, env = z2_env()
    built = []
    init = morphism.Morphism.__init__

    def counting(self, dom, cod, entries):
        built.append((dom, cod))
        init(self, dom, cod, entries)

    monkeypatch.setattr(morphism.Morphism, "__init__", counting)
    e = parse("br(V,W) ; (id(W) * id(V)) ; br(W,V) ; (br(V,V) * id(V))")
    dom, cod = typecheck(e, env)
    assert built == []
    f = evaluate(e, env)
    assert built and (f.dom, f.cod) == (dom, cod)


def test_braiding_across_grading_groups_is_rejected_alike():
    env = Environment(spaces={
        "V": GradedSpace(GradingGroup.trivial(QQ), (0,)),
        "W": GradedSpace(GradingGroup.cyclic(2, QQ, -1), (1,))})
    text = "^braiding of spaces over different grading groups$"
    for check in (typecheck, evaluate):
        with pytest.raises(TypeError, match=text):
            check(parse("br(V,W)"), env)


# -- braided sandwiches: one braided_compose, typechecked by their legs ------

SANDWICHES = [
    "(f * g) ; (id(U1) * br(U2,V1) * id(V2)) ; (m1 * m2)",
    "(f * g) ; ((id(U1) * br(U2,V1) * id(V2)) ; (m1 * m2))",
    "(f * g) ; (id(U1) * (br(U2,V1) * id(V2))) ; (m1 * m2)",
    "(m1 * m2) o (id(U1) * br(U2,V1) * id(V2)) o (f * g)",
    "(m1 * m2) o ((id(U1) * br(U2,V1) * id(V2)) o (f * g))",
]


def graded_spaces(group, min_dim):
    return st.lists(st.integers(0, group.n - 1), min_size=min_dim,
                    max_size=3).map(lambda d: GradedSpace(group, tuple(d)))


def chain_env(data, group, first_split, last_split, min_dim):
    """Spaces U1, U2, V1, V2 and morphisms f, g, m1, m2 with f * g landing
    in U1 (x) U2 (x) V1 (x) V2 split after `first_split` factors, and
    m1 * m2 starting at U1 (x) V1 (x) U2 (x) V2 split after `last_split`;
    a braided sandwich exactly when both splits are 2."""
    U1, U2, V1, V2 = (data.draw(graded_spaces(group, min_dim))
                      for _ in range(4))

    def halves(factors, k):
        return (reduce(GradedSpace.tensor, factors[:k]),
                reduce(GradedSpace.tensor, factors[k:]))

    fc, gc = halves([U1, U2, V1, V2], first_split)
    m1d, m2d = halves([U1, V1, U2, V2], last_split)
    morphisms = {
        "f": data.draw(graded_morphism(data.draw(graded_spaces(group, 1)), fc)),
        "g": data.draw(graded_morphism(data.draw(graded_spaces(group, 1)), gc)),
        "m1": data.draw(graded_morphism(m1d, data.draw(graded_spaces(group, 1)))),
        "m2": data.draw(graded_morphism(m2d, data.draw(graded_spaces(group, 1)))),
    }
    return Environment(spaces={"U1": U1, "U2": U2, "V1": V1, "V2": V2},
                       morphisms=morphisms)


def assert_matches_generic_walk(e, env):
    """typecheck and evaluate agree with the generic walk, which never
    takes the sandwich path, and with the Kronecker reference."""
    dom, cod = typecheck(e, env)
    got = evaluate(e, env)
    with mock.patch.object(dsl, "_sandwich", return_value=None):
        generic = typecheck(e, env)
    want = reference_evaluate(e, env)
    assert [(s.group, s.degrees) for s in (dom, cod)] == \
        [(s.group, s.degrees) for s in generic]
    assert (got.dom, got.cod, got.entries) == (want.dom, want.cod, want.entries)
    assert (got.dom, got.cod) == (dom, cod)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sandwiches_are_one_braided_compose_equal_to_the_generic_walk(data):
    group = data.draw(st.sampled_from(BRAIDED_GROUPS))
    env = chain_env(data, group, 2, 2, min_dim=1)
    for src in SANDWICHES:
        e = parse(src)
        assert dsl._sandwich(e, env) is not None, src
        assert_matches_generic_walk(e, env)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_chains_whose_legs_split_elsewhere_keep_the_generic_walk(data):
    group = data.draw(st.sampled_from(BRAIDED_GROUPS))
    splits = data.draw(st.sampled_from(
        [(k, l) for k in (1, 2, 3) for l in (1, 2, 3) if (k, l) != (2, 2)]))
    # every factor of dim >= 2, so no other split lands in the same spaces
    env = chain_env(data, group, *splits, min_dim=2)
    for src in SANDWICHES:
        e = parse(src)
        assert dsl._sandwich(e, env) is None, src
        assert_matches_generic_walk(e, env)


def corpus_env(entry):
    with open(os.path.join(default_root(), entry, "instance.txt")) as fh:
        return parse_instance(fh.read())


@pytest.mark.parametrize("entry, braiding", [("free_z2", "br(H,P)"),
                                              ("pair_groupoid", "br(P,H)")])
def test_sandwich_lines_of_the_corpus_are_one_braided_compose(
        monkeypatch, entry, braiding):
    # the comodule-algebra and the module-coalgebra diagram
    with open(os.path.join(default_root(), entry, "assertions.txt")) as fh:
        line, = [x for x in fh.read().splitlines() if braiding in x]
    calls = []
    for original in (morphism.braided_compose, morphism.tensor):
        def counting(*args, _original=original):
            calls.append(_original.__name__)
            return _original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("hopfgal") and module is not None:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counting)
    assert run_assertions(line, corpus_env(entry)).ok
    assert calls == ["braided_compose"]


def test_sandwich_shaped_lines_with_a_wrong_space_keep_their_error_text():
    env = corpus_env("free_z2")
    sixteen = "dim 16, degrees (%s)" % ", ".join(["0"] * 16)
    eight = "dim 8, degrees (%s)" % ", ".join(["0"] * 8)
    middle = "id(P) * br(H,P) * id(H)"
    cases = [
        ("(coact(P) * coact(P)) ; (id(P) * br(H,P) * id(B)) ; (m(P) * m(H))",
         "cannot compose 'id(P) * br(H, P) * id(B)' after 'coact(P) * "
         "coact(P)': middle objects differ (%s vs %s)" % (sixteen, eight)),
        ("(coact(P) * coact(P)) ; (id(P) * br(H,Q) * id(H)) ; (m(P) * m(H))",
         "unknown space name 'Q'"),
        ("(coact(P) * m(P)) ; (%s) ; (m(P) * m(H))" % middle,
         "cannot compose 'id(P) * br(H, P) * id(H)' after 'coact(P) * m(P)'"
         ": middle objects differ (%s vs %s)" % (eight, sixteen)),
        ("(m(P) * m(H)) o (%s) o (m(P) * coact(P))" % middle,
         "cannot compose 'id(P) * br(H, P) * id(H) ; m(P) * m(H)' after "
         "'m(P) * coact(P)': middle objects differ (%s vs %s)"
         % (eight, sixteen)),
        ("(coact(P) * coact(P)) ; ((%s) ; (cm(H) * m(H)))" % middle,
         "cannot compose 'cm(H) * m(H)' after 'id(P) * br(H, P) * id(H)': "
         "middle objects differ (%s vs %s)" % (sixteen, eight)),
        ("(coact(P) * coact(P)) ; (%s) ; (m(P) * cm(H))" % middle,
         "cannot compose 'm(P) * cm(H)' after 'coact(P) * coact(P) ; id(P) "
         "* br(H, P) * id(H)': middle objects differ (%s vs %s)"
         % (sixteen, eight)),
        # a well-typed sandwich, typechecked by its legs, whose endpoints
        # differ from the other side's
        ("(coact(P) * coact(P)) ; (%s) ; (m(P) * id(HH))" % middle,
         "cannot compare 'coact(P) * coact(P) ; id(P) * br(H, P) * id(H) ; "
         "m(P) * id(HH)' with 'm(P) ; coact(P)': endpoints differ "
         "(4 -> 8 vs 4 -> 4)"),
    ]
    for lhs, text in cases:
        with pytest.raises(AssertionFileError,
                           match="^line 1: %s$" % re.escape(text)):
            run_assertions("EXPECT %s == m(P) ; coact(P)" % lhs, env)


def test_id_and_br_atoms_above_the_entry_limit_are_not_built(monkeypatch):
    group = GradingGroup.trivial(QQ)
    env = Environment(spaces={"V": GradedSpace(group, (0,) * 4),
                              "W": GradedSpace(group, (0,) * 3)})
    monkeypatch.setattr(dsl, "MAX_ATOM_ENTRIES", 12)
    assert run_assertions("EXPECT br(V,W) ; br(W,V) == id(V) * id(W)\n",
                          env).ok
    monkeypatch.setattr(dsl, "MAX_ATOM_ENTRIES", 11)
    with pytest.raises(AssertionFileError, match=r"^line 2: br\(V, W\) would "
                       r"hold 12 entries, above the limit 11$"):
        run_assertions("EXPECT id(V) == id(V)\n"
                       "EXPECT br(V,W) == br(V,W)\n", env)
    monkeypatch.setattr(dsl, "MAX_ATOM_ENTRIES", 3)
    with pytest.raises(AssertionFileError, match=r"^line 1: id\(V\) would "
                       r"hold 4 entries, above the limit 3$"):
        run_assertions("EXPECT id(V) == id(V)\n", env)
