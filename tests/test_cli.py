import hashlib
import io
import os
import resource
import shutil
import subprocess
import sys
from contextlib import redirect_stdout, redirect_stderr

import pytest

from hopfgal import morphism
from hopfgal.cli import _bundle, _load, main
from hopfgal.corpus import (_algebra_side_text, corpus_commands, default_root,
                            run_commands)
from hopfgal.fields import QQ, PrimeField
from hopfgal.instances import InstanceWriter, serialize_hopf
from hopfgal.samples import cyclic_group_algebra, set_action_bundle
from test_instances import DIVISION_BY_ZERO

CORPUS = default_root()


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def inst(name):
    return os.path.join(CORPUS, name, "instance.txt")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_limited(argv):
    """The CLI in a child process under a 1 GiB address-space limit, so an
    input that makes it allocate without bound fails fast instead of
    filling the host's memory."""
    src = os.path.dirname(os.path.dirname(morphism.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "hopfgal.cli"] + argv,
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=_limit_address_space, capture_output=True, text=True,
        timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_check_pass_and_fail():
    code, out, _ = run(["check", inst("trivial_z2"), "--what", "all"])
    assert code == 0 and out.strip().endswith("result=pass")
    code, out, _ = run(["check", inst("superline"), "--what", "hopf"])
    assert code == 0


def test_check_nothing_to_do_is_input_error():
    # reported at the line after the last, as a missing bundle block is
    assert run(["check", inst("superline"), "--what", "comodule"]) == (
        2, "", "error: line 26: nothing to check for --what comodule\n")


def test_principal_exit_codes():
    code, out, _ = run(["principal", inst("free_z2")])
    assert code == 0 and "can_inverse=[" in out
    code, out, _ = run(["principal", inst("nonfree_z2")])
    assert code == 1 and "corank=1" in out and "can_defect_cokernel=[" in out
    code, out, _ = run(["principal", inst("free_z2"), "--dualize"])
    assert code == 0


def test_principal_decides_condition_B_once(monkeypatch):
    # a non-invertible can prints its defect from condition B's verdict
    path = inst("nonfree_z2")
    can = _bundle(_load(path)).canonical_map()
    args = []
    original = morphism.is_isomorphism

    def recording(f):
        args.append(f)
        return original(f)

    for name, module in list(sys.modules.items()):
        if name.startswith("hopfgal") and module is not None:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, recording)
    code, out, _ = run(["principal", path])
    assert code == 1 and "can_defect_cokernel=[" in out
    assert sum(f == can for f in args) == 1


def test_descent_module_and_sweep():
    code, out, _ = run(["descent", inst("trivial_z2"), "--module", "M"])
    assert code == 0 and "check=psi_iso verdict=pass" in out
    code, out, _ = run(["descent", inst("nonflat"), "--module", "M"])
    assert code == 1 and "check=psi_iso verdict=fail" in out
    code, _, err = run(["descent", inst("trivial_z2"), "--module", "nope"])
    assert code == 2 and "nope" in err
    code, out, _ = run(["descent", inst("trivial_z2"), "--sweep-dim", "2"])
    assert code == 0


def edited_corpus_entry(tmp_path, name, old, new):
    """The path of corpus entry `name`'s instance.txt with old replaced."""
    with open(inst(name), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    path = tmp_path / (name + ".txt")
    path.write_text(text.replace(old, new), encoding="utf-8")
    return str(path)


def test_descent_module_over_another_base_is_input_error(tmp_path):
    # P_m: P (x) P -> P, while the base of free_z2 is B, not P
    path = edited_corpus_entry(tmp_path, "free_z2", "bmodule M act=M_act",
                               "bmodule M act=P_m")
    code, out, err = run(["descent", path, "--module", "M"])
    assert (code, out) == (2, "")
    assert err == ("error: line 0: bmodule 'M' does not act by V (x) B -> V "
                   "for the bundle's base B\n")


@pytest.mark.parametrize("argv, message", [
    (["descent", inst("mc_trivial_z2")],
     "line 63: no algebra bundle block in instance"),
    (["principal", "--side", "algebra", inst("mc_trivial_z2")],
     "line 63: no algebra bundle block in instance"),
    (["qcat", inst("superline")],
     "line 26: no matching bundle block in instance"),
])
def test_missing_bundle_block_names_the_line_after_the_last(argv, message):
    # as parse_instance reports a missing field: the files have 62 and 25
    # lines
    assert run(argv) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("name, argv", [
    # a 1-dimensional base, whose one module structure inverts the unit
    ("free_z2", ["descent", "--sweep-dim", "1"]),
    ("free_z2", ["principal", "--sweep-dim", "1"]),
    # a commutative 2-dimensional base, enumerated in the basis (1, w)
    ("nonflat", ["descent", "--sweep-dim", "2"]),
])
def test_sweep_over_a_base_with_zero_unit_fails_cleanly(tmp_path, name, argv):
    path = edited_corpus_entry(tmp_path, name,
                               "morphism B_u 1 B\n  0 0 1\nend",
                               "morphism B_u 1 B\nend")
    code, out, err = run(argv[:1] + [path] + argv[1:])
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines()
            if line.startswith("check=sweep.")] == [
        "check=sweep.base_unit verdict=fail reason=the base's unit is zero"]


SWEEP_ITEMS = ["check=sweep.module_00_%s verdict=fail dim=1" % name
               for name in ("phi", "psi")]


@pytest.mark.parametrize("argv, items", [
    (["descent", "--module", "M"],
     ["check=%s verdict=fail" % name for name in ("phi_iso", "psi_iso")]),
    (["descent", "--sweep-dim", "1"], SWEEP_ITEMS),
    (["principal", "--sweep-dim", "1"], SWEEP_ITEMS),
])
def test_p_without_an_action_on_v_tensor_b_p_fails_cleanly(tmp_path, argv,
                                                           items):
    # 1 * 1 gains an x term, so P's multiplication is no longer
    # associative and does not descend to an action on V (x)_B P
    path = edited_corpus_entry(tmp_path, "trivial_z2",
                               "  1 2 1\nend\nmorphism P_u",
                               "  1 2 1\n  1 0 1\nend\nmorphism P_u")
    code, out, err = run(argv[:1] + [path] + argv[1:])
    assert (code, err) == (1, "") and out.endswith("result=fail\n")
    for item in items:
        assert (item + " reason=image does not lie in the subobject "
                "(degree 0)") in out.splitlines()


def test_qcat():
    code, out, _ = run(["qcat", inst("mc_trivial_z2")])
    assert code == 0 and "check=qcat.dim_G verdict=pass dim=2" in out
    code, out, _ = run(["qcat", inst("pair_groupoid")])
    assert code == 0 and "dim=4" in out
    # an algebra-side instance reaches qcat through dualization
    code, out, _ = run(["qcat", inst("trivial_z2")])
    assert code == 0


def test_eval():
    code, out, _ = run(["eval", inst("trivial_z2"),
                        os.path.join(CORPUS, "trivial_z2", "assertions.txt")])
    assert code == 0
    code, _, err = run(["eval", inst("trivial_z2"), "missing.txt"])
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ("EXPECT foo == id(H)\n", "line 1: unknown morphism name 'foo'"),
    ("# a comment\n\nEXPECT id(H) ; == id(H)\n",
     "line 3: parse error at position 8: expected (|name, found "
     "'end of input'"),
    ("EXPECT id(H) == id(H)\nfoo\n",
     "line 2: expected EXPECT <expr> == <expr>, found 'foo'"),
])
def test_eval_error_names_its_line(tmp_path, text, message):
    path = tmp_path / "assertions.txt"
    path.write_text(text)
    code, out, err = run(["eval", inst("free_z2"), str(path)])
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_machine_mode_tabs():
    code, out, _ = run(["check", inst("trivial_z2"), "--machine"])
    assert code == 0 and "\t" in out


@pytest.mark.parametrize("text, message", DIVISION_BY_ZERO)
def test_division_by_zero_exit_2(tmp_path, text, message):
    path = tmp_path / "division.txt"
    path.write_text(text)
    code, out, err = run(["check", str(path)])
    assert code == 2 and out == "" and err == "error: %s\n" % message


@pytest.mark.parametrize("argv", [
    ["principal", "{bad}"], ["check", "{bad}"],
    ["eval", "{bad}", "{good}"], ["eval", "{good}", "{bad}"],
])
def test_non_utf8_file_is_input_error(tmp_path, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"field rational\n\xff\n")
    paths = {"bad": str(bad), "good": inst("trivial_z2")}
    code, out, err = run([arg.format(**paths) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: line 0: %s: 'utf-8' codec can't decode "
                          "byte 0xff" % bad)


def test_malformed_file_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("field rational\nnonsense here\n")
    code, _, err = run(["check", str(bad)])
    assert code == 2 and "line 2" in err


GRADED = "field rational\ngrading trivial\n"


@pytest.mark.parametrize("text, message", [
    ("field\n", "line 1: expected: field rational | field prime p"),
    ("field prime\n", "line 1: expected: field rational | field prime p"),
    ("field rational\ngrading\n",
     "line 2: expected: grading trivial | grading cyclic n gen g"),
    (GRADED + "space H\n", "line 3: expected: space name dim d [degrees ...]"),
    (GRADED + "space H dim\n",
     "line 3: expected: space name dim d [degrees ...]"),
    # neither allocates: the bound is checked before the degree tuple
    (GRADED + "space H dim 4611686018427387904\n",
     "line 3: dimension 4611686018427387904 above the limit 16777216"),
    (GRADED + "space H dim 9223372036854775808\n",
     "line 3: dimension 9223372036854775808 above the limit 16777216"),
])
def test_truncated_or_oversized_directive_is_input_error(tmp_path, text,
                                                         message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert run(["check", str(path)]) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("space, header, dim", [
    ("V dim 4096", "V*V*V", 1 << 36), ("V dim 16777216", "V*V", 1 << 48)])
def test_header_product_above_the_limit_is_input_error(tmp_path, space,
                                                       header, dim):
    # the dims are multiplied before the product space is built
    path = tmp_path / "huge_product.txt"
    path.write_text(GRADED + "space %s\nmorphism f %s 1\n  0 0 1\nend\n"
                    % (space, header))
    assert run_limited(["check", str(path)]) == (
        2, "", "error: line 4: dimension %d above the limit 16777216\n" % dim)


TRIVIAL_HOPF = "".join(
    "morphism %s %s\n  0 0 1\nend\n" % (name, ends) for name, ends in [
        ("m", "H*H H"), ("u", "1 H"), ("cm", "H H*H"), ("cu", "H 1"),
        ("S", "H H")]) + "hopf H m=m u=u cm=cm cu=cu S=S\n"


@pytest.mark.parametrize("grading", [
    "cyclic 9223372036854775808 gen 1", "cyclic 9223372036854775808 gen -1"])
def test_huge_grading_order_is_checked_without_a_loop_over_it(tmp_path,
                                                              grading):
    # gen^n = 1 took n multiplications, so this never returned
    path = tmp_path / "huge_order.txt"
    path.write_text("field rational\ngrading %s\nspace H dim 1\n%s"
                    % (grading, TRIVIAL_HOPF))
    code, out, err = run(["check", str(path), "--what", "hopf"])
    assert (code, err) == (0, "") and out.endswith("result=pass\n")


@pytest.mark.parametrize("name, message", [
    ("bad_degree.txt", "line 6: entry (0,1) violates degree preservation"),
    ("bad_algebra_shape.txt", "line 13: multiplication has wrong shape"),
    ("unit_before_grading.txt", "line 3: unit space before grading"),
    ("negative_dim.txt", "line 4: negative dimension -1"),
    ("huge_prime.txt", "is not prime"),
    ("huge_generator_order.txt", "line 3: bicharacter generator 37 has order"
     " above the limit 65536"),
    ("unprovable_prime.txt", "line 2: cannot prove 618970019642690137449562111"
     " prime"),
    ("underscore_dim.txt", "line 4: invalid integer '1_0'"),
    ("underscore_entry.txt", "line 6: invalid integer '1_0'"),
    ("plus_index.txt", "line 6: invalid integer '+1'"),
    ("nonascii_degree.txt", "line 4: invalid integer '\u0661'"),
])
def test_structure_rejected_by_a_constructor_is_input_error(name, message):
    bad = os.path.join(os.path.dirname(__file__), "instances", name)
    code, out, err = run(["check", bad])
    assert code == 2 and out == "" and message in err


def test_bundle_side_must_be_algebra_or_comonoid(tmp_path):
    with open(inst("free_z2"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[55] == "bundle main side=algebra total=P base=B pi=pi"
    lines[55] = "bundle main side=both total=P base=B pi=pi"
    path = tmp_path / "instance.txt"
    path.write_text("\n".join(lines) + "\n")
    assert run(["check", str(path)]) == (
        2, "", "error: line 56: side must be algebra or comonoid\n")


def test_corpus_replay_matches_expected():
    for name, commands in corpus_commands().items():
        directory = os.path.join(CORPUS, name)
        with open(os.path.join(directory, "expected.txt"),
                  encoding="utf-8") as fh:
            expected = fh.read()
        assert run_commands(directory, commands) == expected, name


@pytest.mark.parametrize("flags", [[], ["--dualize"]])
def test_principal_without_canonical_map_fails_cleanly(flags):
    # pi sends the base unit to g in P = k[Z_2], which is not coinvariant,
    # so can: P (x)_B P -> P (x) H does not factor
    bad = os.path.join(os.path.dirname(__file__), "instances", "bad_pi.txt")
    code, out, err = run(["principal", bad] + flags)
    assert code == 1 and err == ""
    assert "check=B.can_bijective verdict=fail reason=" in out
    assert "can=[" not in out and out.endswith("result=fail\n")


def test_check_over_a_61_bit_prime_field(tmp_path):
    # 2^61 - 1: trial division up to its square root never finished
    w = InstanceWriter(PrimeField(2**61 - 1), cyclic_group_algebra(
        PrimeField(2**61 - 1), 2).space.group)
    serialize_hopf(w, "H", cyclic_group_algebra(PrimeField(2**61 - 1), 2))
    path = tmp_path / "mersenne61.txt"
    path.write_text(w.text())
    code, out, err = run(["check", str(path), "--what", "hopf"])
    assert code == 0 and err == "" and out.endswith("result=pass\n")


@pytest.mark.parametrize("seed", ["abc", "1.5", "1_0", ""])
def test_non_integer_seed_is_input_error(monkeypatch, seed):
    # exit 1 means a check ran and failed, so a bad seed must not reach it
    monkeypatch.setenv("HGL_SEED", seed)
    for argv in (["descent", inst("trivial_z2")],
                 ["principal", inst("trivial_z2"), "--sweep-dim", "1"]):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err == "error: line 0: HGL_SEED must be an integer, not %r\n" \
            % seed


def test_seed_is_read_only_by_a_sweep(monkeypatch):
    monkeypatch.setenv("HGL_SEED", "abc")
    code, out, _ = run(["descent", inst("trivial_z2"), "--module", "M"])
    assert code == 0 and out.endswith("result=pass\n")
    code, out, _ = run(["principal", inst("free_z2")])
    assert code == 0 and out.endswith("result=pass\n")


@pytest.mark.parametrize("argv, value", [
    (["descent", "--sweep-dim", "0"], "0"),
    (["descent", "--sweep-dim", "-1"], "-1"),
    (["descent", "--module", "M", "--sweep-dim", "0"], "0"),
    (["principal", "--sweep-dim", "-2"], "-2 (0 means no sweep)"),
])
def test_vacuous_sweep_is_input_error(argv, value):
    code, out, err = run(argv[:1] + [inst("trivial_z2")] + argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: line 0: nothing to sweep for --sweep-dim %s\n" % value


def test_principal_sweep_dim_zero_means_no_sweep():
    code, plain, _ = run(["principal", inst("trivial_z2")])
    code0, swept0, _ = run(["principal", inst("trivial_z2"), "--sweep-dim", "0"])
    code1, swept1, _ = run(["principal", inst("trivial_z2"), "--sweep-dim", "1"])
    assert code == code0 == code1 == 0
    assert swept0 == plain and "sweep." not in plain
    assert "check=sweep.module_00_phi verdict=pass" in swept1
    code, out, _ = run(["descent", inst("trivial_z2"), "--sweep-dim", "1"])
    assert code == 0 and "check=sweep.module_00_psi verdict=pass" in out


def _set_action_text(npoints, ngroup, act):
    """instance.txt of Z_ngroup acting on X = Z_npoints over QQ."""
    b = set_action_bundle(QQ, list(range(npoints)), list(range(ngroup)),
                          lambda a, c: (a + c) % ngroup,
                          lambda a: (-a) % ngroup, act)
    return _algebra_side_text(b)[0]


@pytest.mark.parametrize("name, text, expected", [
    ("free_z4_x32", lambda: _set_action_text(32, 4, lambda x, g: (x + 8 * g) % 32),
     (0, "4fd6926507baa6539a11a39ffe281b23be2f661079c63c77993230489c3cc335")),
    # x -> -x fixes 0 and 16: not free, so condition B fails
    ("nonfree_z2_x32", lambda: _set_action_text(32, 2,
                                                lambda x, g: -x % 32 if g else x),
     (1, "69ca8af60c97e900f4065de3957be7b612c90739006ce054b0a646de2ebf406e")),
    ("free_z4_x64", lambda: _set_action_text(64, 4, lambda x, g: (x + 16 * g) % 64),
     (0, "aff168a51b4b96311245833e2d194e7fbeacdce3f75c5b93534930481f1769f9")),
])
def test_principal_bytes_where_condition_C_presolve_bites(tmp_path, name, text,
                                                         expected):
    # most of the ~10^4 (x32) and ~10^5 (x64) section unknowns are forced
    # to zero; the x32 reports' sha256 was recorded before the Condition-C
    # system was presolved, the x64 one while forced unknowns still went
    # through the elimination as unit rows
    path = tmp_path / (name + ".txt")
    path.write_text(text(), encoding="utf-8")
    code, out, err = run(["principal", str(path)])
    assert err == ""
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == expected


@pytest.mark.parametrize("line, message", [
    ("EXPECT foo(H) == id(H)",
     "parse error at position 1: expected S|act|br|cm|coact|cu|id|m|u, "
     "found 'foo'"),
    ("EXPECT id == id(H)",
     "parse error at position 3: expected (, found 'end of input'"),
    ("EXPECT id(H) ) == id(H)",
     "parse error at position 7: expected *|;|end of input|o, found ')'"),
    ("EXPECT id(H) + id(H) == id(H)",
     "parse error at position 7: expected *|;|end of input|o, found '+'"),
    ("EXPECT id(H) ; m(Q) == id(H)", "no algebra named 'Q'"),
])
def test_malformed_expression_is_input_error(tmp_path, line, message):
    # an unknown head, a head without arguments, a stray token after a
    # complete expression, and an object name the instance does not hold
    path = tmp_path / "assertions.txt"
    path.write_text("EXPECT id(H) == id(H)\n%s\n" % line)
    code, out, err = run(["eval", inst("trivial_z2"), str(path)])
    assert (code, out, err) == (2, "", "error: line 2: %s\n" % message)


@pytest.mark.parametrize("expr", [
    "(" * 400 + "id(H)" + ")" * 400, " ; ".join(["id(H)"] * 1200)],
    ids=["parentheses", "chain"])
def test_deeply_nested_expression_is_input_error(tmp_path, expr):
    # deep parentheses and a long chain of compositions both recurse past
    # the interpreter's limit in the parser or the typecheck
    path = tmp_path / "assertions.txt"
    path.write_text("EXPECT %s == id(H)\n" % expr)
    assert run(["eval", inst("trivial_z2"), str(path)]) == (
        2, "", "error: line 1: expression nested too deeply\n")


@pytest.mark.parametrize("grading, dim, line", [
    ("trivial", 8192, "EXPECT id(V) * id(V) == id(V) * id(V)"),
    ("trivial", 8192, "EXPECT br(V,V) == br(V,V)"),
    # a graded braided sandwich, whose leg split is read before the generic
    # walk reaches its products
    ("cyclic 2 gen -1", 16384,
     "EXPECT (id(V) * id(V)) ; (id(V) * br(V,V) * id(V)) ; (id(V) * id(V))"
     " == id(V)"),
])
def test_expression_product_above_the_limit_is_input_error(tmp_path, grading,
                                                           dim, line):
    # each product an expression forms is checked before it is built
    instance = tmp_path / "instance.txt"
    instance.write_text("field rational\ngrading %s\nspace V dim %d\n"
                        % (grading, dim))
    assertions = tmp_path / "assertions.txt"
    assertions.write_text(line + "\n")
    assert run_limited(["eval", str(instance), str(assertions)]) == (
        2, "", "error: line 1: dimension %d above the limit 16777216\n"
        % (dim * dim))


@pytest.mark.parametrize("spaces, lines, message", [
    ("V dim 1048577", "EXPECT id(V) == id(V)",
     "line 1: id(V) would hold 1048577 entries"),
    ("V dim 1025\nspace W dim 1024",
     "EXPECT id(V) == id(V)\nEXPECT br(V,W) == br(V,W)",
     "line 2: br(V, W) would hold 1049600 entries"),
    ("V dim 4096", "EXPECT id(V) * id(V) == id(V) * id(V)",
     "line 1: id(V) * id(V) would hold 16777216 entries"),
])
def test_atom_above_the_entry_limit_is_input_error(tmp_path, spaces, lines,
                                                   message):
    # the product check passes, and the atom, or the Kronecker product of
    # atoms, is rejected before its entries are built
    instance = tmp_path / "instance.txt"
    instance.write_text("field rational\ngrading trivial\nspace %s\n" % spaces)
    assertions = tmp_path / "assertions.txt"
    assertions.write_text(lines + "\n")
    assert run_limited(["eval", str(instance), str(assertions)]) == (
        2, "", "error: %s, above the limit 1048576\n" % message)


@pytest.mark.parametrize("argv", [
    ["descent", inst("trivial_z2"), "--sweep-dim", "100000"],
    ["principal", inst("nonflat"), "--sweep-dim", "3000"],
    ["descent", inst("trivial_z2"), "--sweep-dim", "129"],
    ["principal", inst("nonflat"), "--sweep-dim", "129"],
])
def test_sweep_above_the_limit_is_input_error(argv):
    # rejected before the instance is read, so before any module is built
    assert run_limited(argv) == (
        2, "", "error: line 0: --sweep-dim %s above the limit 128\n" % argv[-1])


# `hopfgal [command] -h`: argparse's text at 78 columns, its width when
# stdout is not a terminal and COLUMNS is unset
HELP = {
    (): """\
usage: hopfgal [-h] {check,principal,descent,qcat,eval} ...

Exact checks for noncommutative principal bundles.

positional arguments:
  {check,principal,descent,qcat,eval}
    check               run axiom suites
    principal           bundle conditions A, B, C
    descent             descent data and comparison functor
    qcat                build and verify the quantum category
    eval                run an EXPECT assertion file

options:
  -h, --help            show this help message and exit
""",
    ("check",): """\
usage: hopfgal check [-h] [--machine]
                     [--what {hopf,comodule,module-coalgebra,all}]
                     file

positional arguments:
  file                  instance file

options:
  -h, --help            show this help message and exit
  --machine             tab-separated records
  --what {hopf,comodule,module-coalgebra,all}
""",
    ("principal",): """\
usage: hopfgal principal [-h] [--machine] [--side {algebra,comonoid}]
                         [--dualize] [--sweep-dim SWEEP_DIM]
                         file

positional arguments:
  file                  instance file

options:
  -h, --help            show this help message and exit
  --machine             tab-separated records
  --side {algebra,comonoid}
  --dualize             run the transposed pipeline
  --sweep-dim SWEEP_DIM
                        also sweep base modules up to this dimension
""",
    ("descent",): """\
usage: hopfgal descent [-h] [--machine] [--module MODULE]
                       [--sweep-dim SWEEP_DIM]
                       file

positional arguments:
  file                  instance file

options:
  -h, --help            show this help message and exit
  --machine             tab-separated records
  --module MODULE       bmodule name from the instance
  --sweep-dim SWEEP_DIM
""",
    ("qcat",): """\
usage: hopfgal qcat [-h] [--machine] file

positional arguments:
  file        instance file

options:
  -h, --help  show this help message and exit
  --machine   tab-separated records
""",
    ("eval",): """\
usage: hopfgal eval [-h] [--machine] file exprfile

positional arguments:
  file        instance file
  exprfile    assertion file

options:
  -h, --help  show this help message and exit
  --machine   tab-separated records
""",
}


def run_argparse_exit(argv):
    """(exit code, stdout, stderr) of a command argparse ends itself: a help
    request or a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            pytest.raises(SystemExit) as exit_:
        main(argv)
    return exit_.value.code, out.getvalue(), err.getvalue()


def test_cli_never_asks_the_terminal_for_its_size(monkeypatch):
    def probe(*args, **kwargs):
        raise AssertionError("shutil.get_terminal_size called")

    monkeypatch.setattr(shutil, "get_terminal_size", probe)
    for argv in (["check", inst("trivial_z2")],
                 ["principal", inst("free_z2")],
                 ["descent", inst("trivial_z2"), "--module", "M"],
                 ["qcat", inst("mc_trivial_z2")],
                 ["eval", inst("trivial_z2"),
                  os.path.join(CORPUS, "trivial_z2", "assertions.txt")]):
        code, out, _ = run(argv)
        assert code == 0 and out.endswith("result=pass\n"), argv
    # help and usage come out at 78 columns whatever COLUMNS says
    for columns in ("30", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for words, text in HELP.items():
            prog = " ".join(("hopfgal",) + words)
            required = ("file, exprfile" if words == ("eval",)
                        else "file" if words else "command")
            usage = text.split("\n\n")[0] + "\n"
            assert run_argparse_exit(list(words) + ["-h"]) == (
                0, text, ""), (columns, prog)
            assert run_argparse_exit(list(words)) == (
                2, "", usage + "%s: error: the following arguments are "
                "required: %s\n" % (prog, required)), (columns, prog)
