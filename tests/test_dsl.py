import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal import morphism
from hopfgal.dsl import (Call, Environment, Name, ParseError, Seq, Tensor,
                         assert_equal, evaluate, parse, print_expr,
                         run_assertions, typecheck)
from hopfgal.fields import QQ, PrimeField
from hopfgal.morphism import compose, tensor
from hopfgal.samples import (braided_line, cyclic_group_algebra, superline,
                             sweedler_hopf, trivial_algebra_bundle,
                             trivial_coalgebra_bundle)
from hopfgal.spaces import GradedSpace, GradingGroup


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
