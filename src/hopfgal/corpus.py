"""The bundled example corpus.

Each corpus entry is a directory `corpus/<name>/` holding an instance
file, a DSL assertion file encoding the commuting diagrams that instance
should satisfy, and the expected byte-exact output of a fixed list of
CLI commands.  `python3 -m hopfgal.corpus <root>` regenerates everything.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

from .cli import main
from .fields import QQ, PrimeField
from .instances import InstanceWriter, serialize_hopf
from .morphism import Morphism, compose, tensor
from . import samples


def _braiding_is_symmetric(group):
    field = group.field
    return all(field.reduce(group.chi(a, b) * group.chi(b, a)) == 1
               for a in range(group.n) for b in range(group.n))


def _hopf_assertions(group):
    lines = [
        "# algebra and coalgebra axioms of H",
        "EXPECT (m(H) * id(H)) ; m(H) == (id(H) * m(H)) ; m(H)",
        "EXPECT (u(H) * id(H)) ; m(H) == id(H)",
        "EXPECT (id(H) * u(H)) ; m(H) == id(H)",
        "EXPECT cm(H) ; (cm(H) * id(H)) == cm(H) ; (id(H) * cm(H))",
        "EXPECT cm(H) ; (cu(H) * id(H)) == id(H)",
        "EXPECT cm(H) ; (id(H) * cu(H)) == id(H)",
        "# antipode law, both sides",
        "EXPECT cm(H) ; (S(H) * id(H)) ; m(H) == cu(H) ; u(H)",
        "EXPECT cm(H) ; (id(H) * S(H)) ; m(H) == cu(H) ; u(H)",
        "# hexagon and naturality of the braiding",
        "EXPECT br(HH,H) == (id(H) * br(H,H)) ; (br(H,H) * id(H))",
        "EXPECT (m(H) * id(H)) ; br(H,H) == br(HH,H) ; (id(H) * m(H))",
    ]
    if _braiding_is_symmetric(group):
        lines.append("EXPECT br(H,H) ; br(H,H) == id(H) * id(H)")
    return lines


def _algebra_side_text(b):
    """instance.txt and assertions.txt for an algebra-side bundle."""
    P, H = b.como.space, b.H.space
    idP, idH = Morphism.identity(P), Morphism.identity(H)
    w = InstanceWriter(P.field, P.group)
    serialize_hopf(w, "H", b.H)
    w.space("HH", H.tensor(H))
    w.space("P", P)
    w.morphism("P_m", b.como.algebra.mult, domspec="P*P", codspec="P")
    w.morphism("P_u", b.como.algebra.unit, domspec="1", codspec="P")
    w.raw("algebra P_alg m=P_m u=P_u")
    w.morphism("P_coact", b.rho, domspec="P", codspec="P*H")
    w.raw("comodule_algebra P algebra=P_alg hopf=H coact=P_coact")
    w.space("B", b.base.space)
    w.morphism("B_m", b.base.mult, domspec="B*B", codspec="B")
    w.morphism("B_u", b.base.unit, domspec="1", codspec="B")
    w.raw("algebra B m=B_m u=B_u")
    w.morphism("pi", b.pi, domspec="B", codspec="P")
    w.raw("bundle main side=algebra total=P base=B pi=pi")
    can_ambient = compose(tensor(b.como.algebra.mult, idH), tensor(idP, b.rho))
    w.morphism("can_ambient", can_ambient, domspec="P*P", codspec="P*H")
    w.morphism("M_act", b.base.mult, domspec="B*B", codspec="B")
    w.raw("bmodule M act=M_act")

    assertions = _hopf_assertions(P.group) + [
        "# the coaction is an algebra map (comodule-algebra diagram)",
        "EXPECT (coact(P) * coact(P)) ; (id(P) * br(H,P) * id(H)) ;"
        " (m(P) * m(H)) == m(P) ; coact(P)",
        "EXPECT coact(P) ; (id(P) * cm(H)) == coact(P) ; (coact(P) * id(H))",
        "EXPECT coact(P) ; (id(P) * cu(H)) == id(P)",
        "# the pre-factorisation composite of the canonical map",
        "EXPECT (id(P) * coact(P)) ; (m(P) * id(H)) == can_ambient",
    ]
    return w.text(), "\n".join(assertions) + "\n"


def _comonoid_side_text(b):
    """instance.txt and assertions.txt for a comonoid-side bundle."""
    P, H = b.modc.space, b.H.space
    idP, idH = Morphism.identity(P), Morphism.identity(H)
    w = InstanceWriter(P.field, P.group)
    serialize_hopf(w, "H", b.H)
    w.space("HH", H.tensor(H))
    w.space("P", P)
    w.morphism("P_cm", b.P.comult, domspec="P", codspec="P*P")
    w.morphism("P_cu", b.P.counit, domspec="P", codspec="1")
    w.raw("coalgebra P_co cm=P_cm cu=P_cu")
    w.morphism("P_act", b.action, domspec="P*H", codspec="P")
    w.raw("module_coalgebra P coalgebra=P_co hopf=H act=P_act")
    w.space("B", b.base.space)
    w.morphism("B_cm", b.base.comult, domspec="B", codspec="B*B")
    w.morphism("B_cu", b.base.counit, domspec="B", codspec="1")
    w.raw("coalgebra B cm=B_cm cu=B_cu")
    w.morphism("pi", b.pi, domspec="P", codspec="B")
    w.raw("bundle main side=comonoid total=P base=B pi=pi")
    can_ambient = compose(tensor(idP, b.action), tensor(b.P.comult, idH))
    w.morphism("can_ambient", can_ambient, domspec="P*H", codspec="P*P")

    assertions = _hopf_assertions(P.group) + [
        "# the action is a coalgebra map (module-coalgebra diagram)",
        "EXPECT act(P) ; cm(P) == (cm(P) * cm(H)) ;"
        " (id(P) * br(P,H) * id(H)) ; (act(P) * act(P))",
        "EXPECT act(P) ; cu(P) == cu(P) * cu(H)",
        "EXPECT (id(P) * m(H)) ; act(P) == (act(P) * id(H)) ; act(P)",
        "EXPECT (id(P) * u(H)) ; act(P) == id(P)",
        "# the pre-factorisation composite of the canonical map",
        "EXPECT (cm(P) * id(H)) ; (id(P) * act(P)) == can_ambient",
    ]
    return w.text(), "\n".join(assertions) + "\n"


def _hopf_only_text(h):
    w = InstanceWriter(h.space.field, h.space.group)
    serialize_hopf(w, "H", h)
    w.space("HH", h.space.tensor(h.space))
    return w.text(), "\n".join(_hopf_assertions(h.space.group)) + "\n"


FULL_COMMANDS = [
    ["check", "--what", "all"],
    ["principal"],
    ["principal", "--dualize"],
    ["descent", "--module", "M"],
    ["descent", "--sweep-dim", "3"],
    ["eval"],
]
QCAT = [["qcat"]]


def _entries():
    e = {}

    def trivial(name, h, qcat=True):
        b = samples.trivial_algebra_bundle(h)
        e[name] = (_algebra_side_text(b),
                   FULL_COMMANDS + (QCAT if qcat else []))

    trivial("trivial_z2", samples.cyclic_group_algebra(QQ, 2))
    trivial("trivial_z3", samples.cyclic_group_algebra(QQ, 3))
    trivial("trivial_s3", samples.s3_group_algebra(QQ), qcat=False)
    trivial("trivial_sweedler", samples.sweedler_hopf(QQ))
    trivial("trivial_fun_z2", samples.fun_z2(QQ))
    trivial("trivial_braided_line_f7",
            samples.braided_line(PrimeField(7), 3, 2))
    e["free_z2"] = (_algebra_side_text(samples.free_z2_bundle(QQ)),
                    FULL_COMMANDS + QCAT)
    e["nonfree_z2"] = (_algebra_side_text(samples.nonfree_z2_bundle(QQ)),
                       [["check", "--what", "all"], ["principal"],
                        ["principal", "--dualize"], ["eval"]])
    e["nonflat"] = (_algebra_side_text(samples.nonflat_bundle(QQ)),
                    [["check", "--what", "all"], ["principal"],
                     ["descent", "--module", "M"], ["eval"]])
    e["mc_trivial_z2"] = (
        _comonoid_side_text(
            samples.trivial_coalgebra_bundle(samples.cyclic_group_algebra(QQ, 2))),
        [["check", "--what", "all"], ["principal", "--side", "comonoid"],
         ["qcat"], ["eval"]])
    e["pair_groupoid"] = (
        _comonoid_side_text(samples.pair_groupoid_bundle(QQ, 2)),
        [["check", "--what", "all"], ["principal", "--side", "comonoid"],
         ["qcat"], ["eval"]])
    e["superline"] = (_hopf_only_text(samples.superline()),
                      [["check", "--what", "hopf"], ["eval"]])
    return e


def run_commands(directory, commands):
    """Execute the CLI command list on one corpus entry; canonical text."""
    instance = os.path.join(directory, "instance.txt")
    out = []
    for cmd in commands:
        argv = [cmd[0], instance] + cmd[1:]
        if cmd[0] == "eval":
            argv.append(os.path.join(directory, "assertions.txt"))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out.append("$ hopfgal %s\n%sexit %d\n"
                   % (" ".join(cmd), buf.getvalue(), code))
    return "".join(out)


def build_corpus(root):
    """(Re)write every corpus entry under `root`; returns entry names."""
    names = []
    for name, ((instance, assertions), commands) in sorted(_entries().items()):
        directory = os.path.join(root, name)
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "instance.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(instance)
        with open(os.path.join(directory, "assertions.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(assertions)
        with open(os.path.join(directory, "expected.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(run_commands(directory, commands))
        names.append(name)
    return names


def corpus_commands():
    """name -> CLI command list, for replaying a built corpus."""
    return {name: commands
            for name, (_, commands) in sorted(_entries().items())}


def default_root():
    return os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "corpus")


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else default_root()
    for entry in build_corpus(target):
        print(entry)
