import os
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal.corpus import default_root
from hopfgal.dsl import run_assertions
from hopfgal.fields import (PROVABLE_PRIME_BOUND, QQ, FieldError, PrimeField,
                            is_prime, parse_int)
from hopfgal.hopf import Algebra, Coalgebra, HopfAlgebra
from hopfgal.instances import (Instance, InstanceError, InstanceWriter,
                               parse_instance, serialize_hopf)
from hopfgal.samples import (braided_line, cyclic_group_algebra, fun_z2,
                             s3_group_algebra, superline, sweedler_hopf)
from hopfgal.spaces import unit_space
from test_morphism import GROUPS, graded_morphism, graded_space

CORPUS = default_root()


def read(name, fname="instance.txt"):
    with open(os.path.join(CORPUS, name, fname), encoding="utf-8") as fh:
        return fh.read()


def test_parse_corpus_instance():
    inst = parse_instance(read("trivial_z2"))
    assert inst.field is QQ
    assert inst.spaces["P"].dim == 2
    assert set(inst.bundles) == {"main"}
    b = inst.bundles["main"]
    assert b.check_principal().ok
    assert inst.bmodules["M"].carrier.dim == 1


def test_parse_graded_instance():
    inst = parse_instance(read("trivial_braided_line_f7"))
    assert inst.field.characteristic == 7
    assert inst.group.n == 3
    assert inst.spaces["H"].degrees == (0, 1, 2)
    assert inst.bundles["main"].condition_B().ok


def test_environment_runs_assertions():
    inst = parse_instance(read("free_z2"))
    rep = run_assertions(read("free_z2", "assertions.txt"), inst)
    assert rep.ok, rep.render()


@pytest.mark.parametrize("text,lineno", [
    ("field bogus", 1),
    ("field rational\nspace P dim 2", 2),          # space before grading
    ("field rational\ngrading trivial\nspace P dim 2\n"
     "morphism f P P\n  0 0 1", 4),                # missing end
    ("field rational\ngrading trivial\nspace P dim 2\n"
     "morphism f P P\n  5 0 1\nend", 5),           # entry out of range
    ("field rational\ngrading trivial\nalgebra A m=no u=no", 3),
    ("field rational\ngrading trivial\nwhatever P", 3),
    ("field rational\ngrading cyclic 3", 2),
    ("# only comments\n", 2),                      # no field at all
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(InstanceError) as exc:
        parse_instance(text)
    assert exc.value.lineno == lineno


def test_bad_scalar_rejected():
    text = ("field prime 5\ngrading trivial\nspace P dim 1\n"
            "morphism f P P\n  0 0 1/5\nend")
    with pytest.raises(InstanceError) as exc:
        parse_instance(text)
    assert exc.value.lineno == 5


DIVISION_BY_ZERO = [
    ("field prime 7\ngrading trivial\nspace P dim 1\n"
     "morphism f P P\n  0 0 3/7\nend\n", "line 5: division by zero in F_7"),
    ("field prime 7\ngrading cyclic 2 gen 3/7\n",
     "line 2: division by zero in F_7"),
    ("field rational\ngrading trivial\nspace P dim 1\n"
     "morphism f P P\n  0 0 1/0\nend\n", "line 5: Fraction(1, 0)"),
]


@pytest.mark.parametrize("text, message", DIVISION_BY_ZERO)
def test_division_by_zero_is_a_line_error(text, message):
    with pytest.raises(InstanceError) as exc:
        parse_instance(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("literal, value", [
    ("4/2", 2), ("-6/3", -2), ("3/7", Fraction(3, 7)), ("-5", -5)])
def test_rational_literals_parse_to_the_canonical_scalar(literal, value):
    """An integral value is an int, any other a Fraction, in the field's
    parser and in a parsed entry alike."""
    inst = parse_instance("field rational\ngrading trivial\nspace P dim 1\n"
                          "morphism f P P\n  0 0 %s\nend\n" % literal)
    for v in (QQ.parse(literal), inst.morphisms["f"].entries[(0, 0)]):
        assert v == value and type(v) is type(value)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(101)],
                         ids=repr)
@pytest.mark.parametrize("literal", [
    "3/-6", "-14/7", "10/4", "1/7", "7/14", "-3/-21", "0/-5", "-5/101",
    "1/0"])
def test_fraction_literals_match_fraction_arithmetic(field, literal):
    """`p/q` is the Fraction p/q reduced into the field, whatever the signs
    and common factors of p and q; a q that is 0 in the field raises the
    field's own ZeroDivisionError."""
    num, den = (int(t) for t in literal.split("/"))
    p = field.characteristic
    if (den % p if p else den) == 0:
        message = "division by zero in F_%d" % p if p else "Fraction(1, 0)"
        with pytest.raises(ZeroDivisionError,
                           match="^%s$" % re.escape(message)):
            field.parse(literal)
        return
    value = Fraction(num, den)
    if p:
        value = value.numerator * pow(value.denominator, -1, p) % p
    elif value.denominator == 1:
        value = value.numerator
    parsed = field.parse(literal)
    assert parsed == value and type(parsed) is type(value)


# -- parser fuzz and writer/parser round trip --------------------------------

FUZZ = settings(max_examples=150, deadline=None)
CORPUS_TEXTS = [read(name) for name in sorted(os.listdir(CORPUS))
                if os.path.isdir(os.path.join(CORPUS, name))]
# a few malformed tokens; with the instance's own tokens (swapped names,
# indices and keywords) none can declare a space or tensor product large
# enough to make parsing itself slow
MALFORMED = {"", "-1", "1/0", "x", "*", "=", "#", "1*1", "dim", "end"}


def parses_or_rejects(text):
    """The parser's contract: a valid Instance or a `line N:` InstanceError."""
    try:
        inst = parse_instance(text)
    except InstanceError as exc:
        assert str(exc).startswith("line %d: " % exc.lineno)
        return
    assert isinstance(inst, Instance) and inst.field is not None


@FUZZ
@given(st.text())
def test_parser_fuzz_any_text(text):
    parses_or_rejects(text)


def mutate(text, rng):
    """One to four edits of an instance: a token replaced, deleted or
    inserted, a `key=name` reference pointed at another declared name, or
    a line dropped or copied."""
    tokens = sorted(set(text.split()) | MALFORMED)
    lines = text.splitlines()
    names = sorted({line.split()[1] for line in lines
                    if len(line.split()) > 1 and not line[0].isspace()})
    for _ in range(rng.randint(1, 4)):
        if not lines:
            break
        k = rng.randrange(len(lines))
        words = lines[k].split()
        op = rng.choice(["replace", "delete", "insert", "rename",
                         "drop_line", "copy_line"])
        if op == "drop_line":
            del lines[k]
            continue
        if op == "copy_line":
            lines.insert(k, rng.choice(lines))
            continue
        keyed = [j for j, w in enumerate(words) if "=" in w]
        if op == "rename" and keyed:
            j = rng.choice(keyed)
            words[j] = words[j].split("=")[0] + "=" + rng.choice(names)
        elif op == "insert" or not words:
            words.insert(rng.randint(0, len(words)), rng.choice(tokens))
        elif op == "delete":
            del words[rng.randrange(len(words))]
        else:
            words[rng.randrange(len(words))] = rng.choice(tokens)
        lines[k] = " ".join(words)
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(CORPUS_TEXTS), st.randoms(use_true_random=False))
def test_parser_fuzz_mutated_corpus_instance(text, rng):
    parses_or_rejects(mutate(text, rng))


@FUZZ
@given(st.data())
def test_writer_parser_round_trip_morphism(data):
    group = data.draw(st.sampled_from(GROUPS))
    V, W = data.draw(graded_space(group)), data.draw(graded_space(group))
    f = data.draw(graded_morphism(V, W))
    g = data.draw(graded_morphism(V.tensor(W), W))
    w = InstanceWriter(group.field, group)
    w.space("V", V)
    w.space("W", W)
    w.morphism("f", f)
    w.morphism("g", g, domspec="V*W")
    inst = parse_instance(w.text())
    assert inst.field == group.field and inst.group == group
    assert inst.spaces["V"] == V and inst.spaces["W"] == W
    assert inst.morphisms["f"] == f and inst.morphisms["g"] == g


F5, F7 = PrimeField(5), PrimeField(7)
SAMPLE_HOPFS = [
    lambda field: cyclic_group_algebra(field, 1),
    lambda field: cyclic_group_algebra(field, 3),
    s3_group_algebra, fun_z2, sweedler_hopf, superline,
]


@st.composite
def hopf_algebra(draw):
    """A sample Hopf algebra or its dual, or random structure constants of
    Hopf-algebra shape (the parser checks shapes, not axioms)."""
    kind = draw(st.sampled_from(["sample", "braided_line", "shaped"]))
    if kind == "sample":
        h = draw(st.sampled_from(SAMPLE_HOPFS))(
            draw(st.sampled_from([QQ, F5, F7])))
    elif kind == "braided_line":
        h = braided_line(F7, 3, F7.from_int(2))
    else:
        group = draw(st.sampled_from(GROUPS))
        H, one = draw(graded_space(group)), unit_space(group)
        HH = H.tensor(H)
        return HopfAlgebra(
            Algebra(H, draw(graded_morphism(HH, H)),
                    draw(graded_morphism(one, H))),
            Coalgebra(H, draw(graded_morphism(H, HH)),
                      draw(graded_morphism(H, one))),
            draw(graded_morphism(H, H)))
    return h.dualize() if draw(st.booleans()) else h


@FUZZ
@given(hopf_algebra())
def test_writer_parser_round_trip_hopf(h):
    w = InstanceWriter(h.space.field, h.space.group)
    serialize_hopf(w, "H", h)
    assert parse_instance(w.text()).hopfs["H"] == h


# -- integer tokens and primality -------------------------------------------

@pytest.mark.parametrize("text", ["1_0", "+1", " 1", "1 ", "1\n", "\u0661",
                                  "\uff17", "--1", "", "-", "0x1", "1.0"])
def test_parse_int_rejects_what_int_accepts_beyond_the_format(text):
    with pytest.raises(FieldError, match="invalid integer"):
        parse_int(text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=6),
                 st.text(alphabet="-0123456789_+ ", max_size=6)))
def test_parse_int_is_the_ascii_integer_grammar(text):
    if re.fullmatch(r"-?[0-9]+", text, flags=re.ASCII):
        assert parse_int(text) == int(text)
    else:
        with pytest.raises(FieldError):
            parse_int(text)


def test_parse_int_and_field_parse():
    assert [parse_int(t) for t in ("0", "-0", "007", "-12")] == [0, 0, 7, -12]
    assert QQ.parse("-3/4") == QQ.parse("3/-4") == QQ.from_int(-3) / 4
    for text in ("1_0", "1/2_0", "+1/2", "1/ 2"):
        with pytest.raises(FieldError):
            QQ.parse(text)


def test_is_prime_against_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert all(is_prime(n) == trial(n) for n in range(3000))


@pytest.mark.parametrize("p", [2, 41, 43, 2**31 - 1, 2**61 - 1,
                               PROVABLE_PRIME_BOUND - 168])
def test_prime_fields_accepted(p):
    # bound - 168 is the largest prime below the bound
    assert is_prime(p)
    assert parse_instance("field prime %d\n" % p).field.characteristic == p


@pytest.mark.parametrize("n", [
    (2**61 - 1) * (2**31 - 1),
    3825123056546413051,         # strong pseudoprime to the bases 2..31
    318665857834031151167461,    # strong pseudoprime to the bases 2..37
    41 * 43,
])
def test_large_composites_rejected(n):
    assert not is_prime(n)
    with pytest.raises(InstanceError, match="line 1: .* is not prime"):
        parse_instance("field prime %d\n" % n)


def test_probable_primes_above_the_bound_are_input_errors():
    for n in (PROVABLE_PRIME_BOUND, 2**89 - 1):
        with pytest.raises(InstanceError,
                           match="line 1: cannot prove %d prime" % n):
            parse_instance("field prime %d\n" % n)
    assert not is_prime(2**89 + 1)  # divisible by 3, decided above the bound
