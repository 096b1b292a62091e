"""The plain-text instance file format: its parser and its writer.

An instance file declares, in order of use: a scalar field, a grading
group, named graded spaces, named sparse morphisms, then structured
objects (algebras, coalgebras, Hopf algebras, (co)module structures,
bundles, base modules) referencing earlier names.  Blank lines and `#`
comments are ignored.  All scalars are exact (integers or `p/q`, digits
mod p over a prime field).  Every integer token (dimensions, degrees,
indices, the prime, the grading order, numerators and denominators) is
an optional minus sign and ASCII digits.

A morphism entry line in the writer's `i j v` form (spaces only, an
integer value) is read by one compiled pattern, with no split and no
field parse; any other line of a block (a comment, a blank line, a
fraction, a tab, `end`) goes through the general reader.  Both share the
range check, so every error keeps its message and line.
"""

from __future__ import annotations

import re

from .bundle import (AlgebraBundle, CoalgebraBundle, ComoduleAlgebra,
                     ModuleCoalgebra)
from .descent import BModule
from .dsl import Environment
from .fields import QQ, PrimeField, parse_int
from .hopf import Algebra, Coalgebra, HopfAlgebra
from .morphism import Morphism, _tensor_spaces
from .spaces import MAX_DIM, GradedSpace, GradingGroup, unit_space


# a morphism entry in the writer's form: spaces only, an integer value
_ENTRY = re.compile(r" *([0-9]+) +([0-9]+) +(-?[0-9]+) *")


class InstanceError(Exception):
    def __init__(self, lineno, message):
        self.lineno = lineno
        super().__init__("line %d: %s" % (lineno, message))


class Instance(Environment):
    """A parsed instance file: the named objects assertion expressions
    refer to, and the field, grading, bundles and base modules."""

    def __init__(self):
        super().__init__()
        self.field = None
        self.group = None
        self.bundles = {}
        self.bmodules = {}
        # the line after the last, where an error about a missing block
        # points
        self.end_line = 1


def _space_product(inst, spec, lineno):
    if spec == "1":
        if inst.group is None:
            raise InstanceError(lineno, "unit space before grading")
        return unit_space(inst.group)
    spaces = [_lookup(inst.spaces, part, lineno, "space")
              for part in spec.split("*")]
    dim = 1
    for V in spaces:
        dim *= V.dim
    _check_dim(dim, lineno)
    return _tensor_spaces(spaces)


def _check_dim(dim, lineno):
    if dim > MAX_DIM:
        raise InstanceError(lineno, "dimension %d above the limit %d"
                            % (dim, MAX_DIM))


def _keywords(words, lineno, required):
    out = {}
    for w in words:
        if "=" not in w:
            raise InstanceError(lineno, "expected key=value, got %r" % w)
        k, v = w.split("=", 1)
        out[k] = v
    missing = [k for k in required if k not in out]
    if missing:
        raise InstanceError(lineno, "missing %s" % ", ".join(missing))
    return out


def _lookup(pool, name, lineno, kind):
    if name not in pool:
        raise InstanceError(lineno, "unknown %s %r" % (kind, name))
    return pool[name]


def parse_instance(text):
    inst = Instance()
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        lineno = i + 1
        line = lines[i].split("#", 1)[0].strip()
        i += 1
        if not line:
            continue
        words = line.split()
        head = words[0]
        try:
            if head == "field":
                if words[1:2] == ["rational"]:
                    inst.field = QQ
                elif words[1:2] == ["prime"] and len(words) > 2:
                    inst.field = PrimeField(parse_int(words[2]))
                else:
                    raise InstanceError(
                        lineno, "expected: field rational | field prime p")
            elif head == "grading":
                if inst.field is None:
                    raise InstanceError(lineno, "grading before field")
                if words[1:2] == ["trivial"]:
                    inst.group = GradingGroup.trivial(inst.field)
                elif words[1:2] == ["cyclic"]:
                    if len(words) != 5 or words[3] != "gen":
                        raise InstanceError(
                            lineno, "expected: grading cyclic n gen g")
                    inst.group = GradingGroup.cyclic(
                        parse_int(words[2]), inst.field,
                        inst.field.parse(words[4]))
                else:
                    raise InstanceError(lineno, "expected: grading trivial |"
                                        " grading cyclic n gen g")
            elif head == "space":
                if inst.group is None:
                    raise InstanceError(lineno, "space before grading")
                if len(words) < 4 or words[2] != "dim":
                    raise InstanceError(lineno, "expected: space name dim d [degrees ...]")
                name = words[1]
                dim = parse_int(words[3])
                if dim < 0:
                    raise InstanceError(lineno, "negative dimension %d" % dim)
                _check_dim(dim, lineno)
                if len(words) > 4:
                    if words[4] != "degrees" or len(words) != 5 + dim:
                        raise InstanceError(lineno, "expected %d degrees" % dim)
                    degrees = tuple(parse_int(w) for w in words[5:])
                else:
                    degrees = (0,) * dim
                inst.spaces[name] = GradedSpace(inst.group, degrees)
            elif head == "morphism":
                if len(words) != 4:
                    raise InstanceError(lineno, "expected: morphism name dom cod")
                name = words[1]
                dom = _space_product(inst, words[2], lineno)
                cod = _space_product(inst, words[3], lineno)
                entries = {}
                while i < len(lines):
                    entry_lineno = i + 1
                    line = lines[i]
                    i += 1
                    fast = _ENTRY.fullmatch(line)
                    try:
                        if fast:
                            # the constructor reduces an integer value
                            r, c, value = map(int, fast.groups())
                        else:
                            entry = line.split("#", 1)[0].strip()
                            if not entry:
                                continue
                            if entry == "end":
                                break
                            parts = entry.split()
                            if len(parts) != 3:
                                raise InstanceError(entry_lineno,
                                                    "expected: i j value")
                            r, c = parse_int(parts[0]), parse_int(parts[1])
                            value = inst.field.parse(parts[2])
                    except (ValueError, ZeroDivisionError) as exc:
                        raise InstanceError(entry_lineno, str(exc))
                    if not (0 <= r < cod.dim and 0 <= c < dom.dim):
                        raise InstanceError(entry_lineno, "entry out of range")
                    entries[(r, c)] = value
                else:
                    raise InstanceError(lineno, "morphism %r missing end" % name)
                inst.morphisms[name] = Morphism(dom, cod, entries)
            elif head == "algebra":
                kw = _keywords(words[2:], lineno, ("m", "u"))
                m = _lookup(inst.morphisms, kw["m"], lineno, "morphism")
                u = _lookup(inst.morphisms, kw["u"], lineno, "morphism")
                inst.algebras[words[1]] = Algebra(m.cod, m, u)
            elif head == "coalgebra":
                kw = _keywords(words[2:], lineno, ("cm", "cu"))
                cm = _lookup(inst.morphisms, kw["cm"], lineno, "morphism")
                cu = _lookup(inst.morphisms, kw["cu"], lineno, "morphism")
                inst.coalgebras[words[1]] = Coalgebra(cm.dom, cm, cu)
            elif head == "hopf":
                kw = _keywords(words[2:], lineno, ("m", "u", "cm", "cu", "S"))
                ms = {k: _lookup(inst.morphisms, v, lineno, "morphism")
                      for k, v in kw.items()}
                inst.hopfs[words[1]] = HopfAlgebra(
                    Algebra(ms["m"].cod, ms["m"], ms["u"]),
                    Coalgebra(ms["cm"].dom, ms["cm"], ms["cu"]), ms["S"])
            elif head == "comodule_algebra":
                kw = _keywords(words[2:], lineno, ("algebra", "hopf", "coact"))
                inst.comodules[words[1]] = ComoduleAlgebra(
                    _lookup(inst.algebras, kw["algebra"], lineno, "algebra"),
                    _lookup(inst.hopfs, kw["hopf"], lineno, "hopf"),
                    _lookup(inst.morphisms, kw["coact"], lineno, "morphism"))
            elif head == "module_coalgebra":
                kw = _keywords(words[2:], lineno, ("coalgebra", "hopf", "act"))
                inst.modules[words[1]] = ModuleCoalgebra(
                    _lookup(inst.coalgebras, kw["coalgebra"], lineno, "coalgebra"),
                    _lookup(inst.hopfs, kw["hopf"], lineno, "hopf"),
                    _lookup(inst.morphisms, kw["act"], lineno, "morphism"))
            elif head == "bundle":
                kw = _keywords(words[2:], lineno,
                               ("side", "total", "base", "pi"))
                pi = _lookup(inst.morphisms, kw["pi"], lineno, "morphism")
                if kw["side"] == "algebra":
                    inst.bundles[words[1]] = AlgebraBundle(
                        _lookup(inst.comodules, kw["total"], lineno,
                                "comodule_algebra"),
                        _lookup(inst.algebras, kw["base"], lineno, "algebra"),
                        pi)
                elif kw["side"] == "comonoid":
                    inst.bundles[words[1]] = CoalgebraBundle(
                        _lookup(inst.modules, kw["total"], lineno,
                                "module_coalgebra"),
                        _lookup(inst.coalgebras, kw["base"], lineno,
                                "coalgebra"),
                        pi)
                else:
                    raise InstanceError(lineno, "side must be algebra or comonoid")
            elif head == "bmodule":
                kw = _keywords(words[2:], lineno, ("act",))
                act = _lookup(inst.morphisms, kw["act"], lineno, "morphism")
                inst.bmodules[words[1]] = BModule(act.cod, act)
            else:
                raise InstanceError(lineno, "unknown directive %r" % head)
        except InstanceError:
            raise
        except (ValueError, ZeroDivisionError, IndexError, KeyError,
                TypeError) as exc:
            # TypeError: a constructor rejected the declared data, e.g. a
            # morphism entry that breaks degree preservation
            raise InstanceError(lineno, str(exc) or repr(exc))
    inst.end_line = len(lines) + 1
    if inst.field is None:
        raise InstanceError(inst.end_line, "no field declared")
    return inst


# -- serialization -------------------------------------------------------------

def _morphism_block(name, domspec, codspec, f):
    lines = ["morphism %s %s %s" % (name, domspec, codspec)]
    for (r, c) in sorted(f.entries):
        lines.append("  %d %d %s" % (r, c, f.entries[(r, c)]))
    lines.append("end")
    return lines


class InstanceWriter:
    """Accumulates declarations and serializes them in declaration order."""

    def __init__(self, field, group):
        self.lines = []
        if field.characteristic == 0:
            self.lines.append("field rational")
        else:
            self.lines.append("field prime %d" % field.characteristic)
        if group.n == 1:
            self.lines.append("grading trivial")
        else:
            self.lines.append("grading cyclic %d gen %s" % (group.n, group.gen))
        self._specs = {}

    def space(self, name, V):
        degs = ""
        if any(d != 0 for d in V.degrees):
            degs = " degrees " + " ".join(str(d) for d in V.degrees)
        self.lines.append("space %s dim %d%s" % (name, V.dim, degs))
        self._specs[V] = name
        return name

    def _spec(self, V):
        if V in self._specs:
            return self._specs[V]
        if V.is_unit:
            return "1"
        raise KeyError("space with degrees %s not registered" % (V.degrees,))

    def morphism(self, name, f, domspec=None, codspec=None):
        self.lines.extend(_morphism_block(
            name, domspec or self._spec(f.dom), codspec or self._spec(f.cod), f))
        return name

    def raw(self, line):
        self.lines.append(line)

    def text(self):
        return "\n".join(self.lines) + "\n"


def serialize_hopf(w, name, h):
    two = "%s*%s" % (name, name)
    w.space(name, h.space)
    w.morphism(name + "_m", h.mult, domspec=two)
    w.morphism(name + "_u", h.unit)
    w.morphism(name + "_cm", h.comult, codspec=two)
    w.morphism(name + "_cu", h.counit)
    w.morphism(name + "_S", h.antipode)
    w.raw("hopf %s m=%s_m u=%s_u cm=%s_cm cu=%s_cu S=%s_S"
          % ((name,) + (name,) * 5))
    return name
