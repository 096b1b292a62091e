"""A typed expression language for composites of structure morphisms.

Expressions name the structure maps of objects held in an Environment:
`id(V)`, `m(A)`, `u(A)`, `cm(C)`, `cu(C)`, `S(H)`, `br(V,W)`, `act(X)`,
`coact(X)`, or bare user-defined morphism names.  `*` is the tensor
product and binds tighter than composition; `;` composes in diagrammatic
order (f;g means g after f) and `o` in classical order.  Assertion files
contain one `EXPECT <expr> == <expr>` per line.
"""

from __future__ import annotations

from .hopf import Value
from .morphism import (Morphism, _tensor_is, braided_compose, braiding,
                       braiding_endpoints, compose, compose_tensor,
                       tensor_compose, tensor_many)
from .report import Report, equality_check
from .spaces import MAX_ATOM_ENTRIES, MAX_DIM

HEADS = {"id": 1, "m": 1, "u": 1, "cm": 1, "cu": 1, "S": 1, "br": 2,
         "act": 1, "coact": 1}


class ParseError(Exception):
    def __init__(self, position, expected, found):
        self.position = position  # 1-based character column
        self.expected = frozenset(expected)
        self.found = found
        super().__init__("parse error at position %d: expected %s, found %r"
                         % (position, "|".join(sorted(expected)), found))


class AssertionFileError(Exception):
    """A line of an assertion file that does not parse or typecheck."""

    def __init__(self, lineno, message):
        super().__init__("line %d: %s" % (lineno, message))


class Name(Value):
    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


class Call(Value):
    __slots__ = ("head", "args")

    def __init__(self, head, args):
        self.head = head
        self.args = args


class Tensor(Value):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Seq(Value):
    """Diagrammatic composite: `first`, then `second`."""

    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first = first
        self.second = second


# -- tokenizer ---------------------------------------------------------------

_SYMBOLS = "();,*"


def _tokens(src):
    """Yield (kind, text, 1-based position); kind in name/op/symbol/end."""
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            yield ("symbol", ch, i + 1)
            i += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            yield ("op" if word == "o" else "name", word, i + 1)
            i = j
            continue
        yield ("symbol", ch, i + 1)
        i += 1
    yield ("end", "", n + 1)


class _Parser:
    def __init__(self, src):
        self.toks = list(_tokens(src))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind, text=None, expected=None):
        k, t, p = self.toks[self.pos]
        if k != kind or (text is not None and t != text):
            raise ParseError(p, expected or {text or kind}, t or "end of input")
        self.pos += 1
        return t, p

    def expr(self):
        node = self.ten()
        while True:
            k, t, _ = self.peek()
            if (k, t) == ("symbol", ";"):
                self.pos += 1
                node = Seq(node, self.ten())
            elif k == "op":
                self.pos += 1
                node = Seq(self.ten(), node)
            else:
                return node

    def ten(self):
        node = self.atom()
        while self.peek()[:2] == ("symbol", "*"):
            self.pos += 1
            node = Tensor(node, self.atom())
        return node

    def atom(self):
        k, t, p = self.peek()
        if (k, t) == ("symbol", "("):
            self.pos += 1
            node = self.expr()
            self.take("symbol", ")", expected={")", ";", "o", "*"})
            return node
        if k != "name":
            raise ParseError(p, {"name", "("}, t or "end of input")
        self.pos += 1
        if self.peek()[:2] != ("symbol", "("):
            if t in HEADS:
                raise ParseError(self.peek()[2], {"("}, self.peek()[1] or "end of input")
            return Name(t)
        if t not in HEADS:
            raise ParseError(p, set(HEADS), t)
        self.pos += 1
        args = [self.take("name", expected={"name"})[0]]
        while self.peek()[:2] == ("symbol", ","):
            self.pos += 1
            args.append(self.take("name", expected={"name"})[0])
        self.take("symbol", ")", expected={")", ","})
        if len(args) != HEADS[t]:
            raise ParseError(p, {"%s with %d argument(s)" % (t, HEADS[t])}, t)
        return Call(t, tuple(args))


def parse(src):
    p = _Parser(src)
    node = p.expr()
    k, t, pos = p.peek()
    if k != "end":
        raise ParseError(pos, {";", "o", "*", "end of input"}, t)
    return node


def print_expr(e):
    """Canonical text form: diagrammatic `;` only, minimal parentheses."""
    if isinstance(e, Name):
        return e.text
    if isinstance(e, Call):
        return "%s(%s)" % (e.head, ", ".join(e.args))
    if isinstance(e, Tensor):
        left = print_expr(e.left)
        if isinstance(e.left, Seq):
            left = "(%s)" % left
        right = print_expr(e.right)
        if isinstance(e.right, (Seq, Tensor)):
            right = "(%s)" % right
        return "%s * %s" % (left, right)
    first = print_expr(e.first)
    second = print_expr(e.second)
    if isinstance(e.second, Seq):
        second = "(%s)" % second
    return "%s ; %s" % (first, second)


# -- environment and evaluation ----------------------------------------------

class Environment:
    """Named objects expressions may refer to.

    spaces: name -> GradedSpace; hopfs: name -> HopfAlgebra;
    algebras / coalgebras: plain (co)algebras; comodules: ComoduleAlgebra;
    modules: ModuleCoalgebra; morphisms: user-named Morphisms.
    """

    def __init__(self, spaces=None, hopfs=None, algebras=None,
                 coalgebras=None, comodules=None, modules=None,
                 morphisms=None):
        self.spaces = dict(spaces or {})
        self.hopfs = dict(hopfs or {})
        self.algebras = dict(algebras or {})
        self.coalgebras = dict(coalgebras or {})
        self.comodules = dict(comodules or {})
        self.modules = dict(modules or {})
        self.morphisms = dict(morphisms or {})

    def space(self, name):
        if name in self.spaces:
            return self.spaces[name]
        for pool in (self.hopfs, self.algebras, self.coalgebras,
                     self.comodules, self.modules):
            if name in pool:
                return pool[name].space
        raise TypeError("unknown space name %r" % name)

    def _structure(self, name, pools, kind):
        for pool in pools:
            if name in pool:
                return pool[name]
        raise TypeError("no %s named %r" % (kind, name))

    def atom_endpoints(self, e):
        """(domain, codomain) of an atom; `id` and `br` are not built."""
        if isinstance(e, Call) and e.head in ("id", "br"):
            V = self.space(e.args[0])
            if e.head == "id":
                return V, V
            W = self.space(e.args[1])
            _check_product(V, W)
            return braiding_endpoints(V, W)
        f = self.atom_morphism(e)
        return f.dom, f.cod

    def atom_morphism(self, e):
        if isinstance(e, Name):
            if e.text not in self.morphisms:
                raise TypeError("unknown morphism name %r" % e.text)
            return self.morphisms[e.text]
        head, args = e.head, e.args
        if head == "id":
            V = self.space(args[0])
            _check_atom_entries(e, V.dim)
            return Morphism.identity(V)
        if head == "br":
            V, W = self.space(args[0]), self.space(args[1])
            _check_atom_entries(e, V.dim * W.dim)
            return braiding(V, W)
        if head in ("m", "u"):
            obj = self._structure(
                args[0], (self.algebras, self.hopfs,
                          {k: v.algebra for k, v in self.comodules.items()}),
                "algebra")
            return obj.mult if head == "m" else obj.unit
        if head in ("cm", "cu"):
            obj = self._structure(
                args[0], (self.coalgebras, self.hopfs,
                          {k: v.coalgebra for k, v in self.modules.items()}),
                "coalgebra")
            return obj.comult if head == "cm" else obj.counit
        if head == "S":
            return self._structure(args[0], (self.hopfs,), "Hopf algebra").antipode
        if head == "act":
            return self._structure(args[0], (self.modules,),
                                   "module coalgebra").action
        return self._structure(args[0], (self.comodules,),
                               "comodule algebra").coaction


def _leaves(e):
    """The factors of a `*` tree, left to right."""
    if isinstance(e, Tensor):
        return _leaves(e.left) + _leaves(e.right)
    return [e]


def _sandwich(e, env):
    """The legs of a braided sandwich, or None.

    A sandwich is a chain (f * g) ; (id(U1) * br(U2,V1) * id(V2)) ;
    (m1 * m2), in either parenthesisation, whose legs split at the
    braiding: f and g land in U1 (x) U2 and V1 (x) V2, and m1 and m2 start
    at U1 (x) V1 and U2 (x) V2.  It returns ((f, g, m1, m2), their
    (domain, codomain) pairs, (U1, U2), (V1, V2)), read from the four legs
    alone, so the four-fold middle space is never built.  Any other
    expression, or a leg that fails to typecheck, gives None and takes the
    generic walk, which raises its own error.
    """
    if not isinstance(e, Seq):
        return None
    if isinstance(e.first, Seq):
        first, middle, last = e.first.first, e.first.second, e.second
    elif isinstance(e.second, Seq):
        first, middle, last = e.first, e.second.first, e.second.second
    else:
        return None
    mid = _leaves(middle)
    if not (isinstance(first, Tensor) and isinstance(last, Tensor)
            and [getattr(x, "head", None) for x in mid] == ["id", "br", "id"]):
        return None
    legs = (first.left, first.right, last.left, last.right)
    try:
        U1, U2, V1, V2 = [env.space(name) for x in mid for name in x.args]
        ends = [typecheck(x, env) for x in legs]
        split = (_tensor_is((U1, U2), ends[0][1])
                 and _tensor_is((V1, V2), ends[1][1])
                 and _tensor_is((U1, V1), ends[2][0])
                 and _tensor_is((U2, V2), ends[3][0]))
    except TypeError:
        return None
    return (legs, ends, (U1, U2), (V1, V2)) if split else None


def _check_product(V, W):
    """TypeError when V (x) W is above MAX_DIM, before it is built."""
    if V.dim * W.dim > MAX_DIM:
        raise TypeError("dimension %d above the limit %d"
                        % (V.dim * W.dim, MAX_DIM))


def _check_atom_entries(e, count):
    """TypeError when the atom e would hold more than MAX_ATOM_ENTRIES
    entries, before it is built."""
    if count > MAX_ATOM_ENTRIES:
        raise TypeError("%s would hold %d entries, above the limit %d"
                        % (print_expr(e), count, MAX_ATOM_ENTRIES))


def _products(V, W, X, Y):
    """(V (x) W, X (x) Y), each checked by `_check_product`."""
    _check_product(V, W)
    _check_product(X, Y)
    return V.tensor(W), X.tensor(Y)


def typecheck(e, env):
    """(domain, codomain) of a well-typed expression; TypeError otherwise,
    and for a space product above MAX_DIM."""
    if isinstance(e, (Name, Call)):
        return env.atom_endpoints(e)
    if isinstance(e, Tensor):
        ld, lc = typecheck(e.left, env)
        rd, rc = typecheck(e.right, env)
        return _products(ld, rd, lc, rc)
    sandwich = _sandwich(e, env)
    if sandwich is not None:
        (fd, _), (gd, _), (_, c1), (_, c2) = sandwich[1]
        return _products(fd, gd, c1, c2)
    fd, fc = typecheck(e.first, env)
    sd, sc = typecheck(e.second, env)
    if fc != sd:
        raise TypeError(
            "cannot compose %r after %r: middle objects differ "
            "(dim %d, degrees %s vs dim %d, degrees %s)"
            % (print_expr(e.second), print_expr(e.first),
               fc.dim, fc.degrees, sd.dim, sd.degrees))
    return fd, sc


def evaluate(e, env):
    """The morphism of e, after one `typecheck` of the whole expression."""
    typecheck(e, env)
    return _evaluate(e, env)


def _factors(e, env):
    """The evaluated factors of a `*` tree, left to right."""
    return [_evaluate(x, env) for x in _leaves(e)]


def _evaluate(e, env):
    """`evaluate` of a typechecked expression.  A `*` side of a `;` is
    composed factor by factor and never built as a Kronecker product, and
    a braided sandwich is one `braided_compose` of its four legs."""
    if isinstance(e, (Name, Call)):
        return env.atom_morphism(e)
    if isinstance(e, Tensor):
        return tensor_many(*_factors(e, env))
    sandwich = _sandwich(e, env)
    if sandwich is not None:
        (f, g, m1, m2), _, U, V = sandwich
        return braided_compose(_evaluate(m1, env), _evaluate(m2, env),
                               _evaluate(f, env), _evaluate(g, env), U, V)
    if isinstance(e.second, Tensor):
        return compose_tensor(_factors(e.second, env), _evaluate(e.first, env))
    if isinstance(e.first, Tensor):
        return tensor_compose(_evaluate(e.second, env), _factors(e.first, env))
    return compose(_evaluate(e.second, env), _evaluate(e.first, env))


def assert_equal(lhs, rhs, env, name="expect"):
    ld, lc = typecheck(lhs, env)
    rd, rc = typecheck(rhs, env)
    if (ld, lc) != (rd, rc):
        raise TypeError(
            "cannot compare %r with %r: endpoints differ (%d -> %d vs %d -> %d)"
            % (print_expr(lhs), print_expr(rhs), ld.dim, lc.dim, rd.dim, rc.dim))
    item = equality_check(name, _evaluate(lhs, env), _evaluate(rhs, env),
                          details={"lhs": print_expr(lhs),
                                   "rhs": print_expr(rhs)})
    if not item.ok:
        (i, j), v = sorted(item.witness.entries.items())[0]
        item.details["first_difference"] = "%d %d %s" % (i, j, v)
    return Report([item])


def run_assertions(text, env):
    """Run `EXPECT <expr> == <expr>` lines; blank lines and # comments skip.

    A line that does not parse or typecheck, or nests too deeply for the
    recursive parser and walks, raises `AssertionFileError` with its line
    number.
    """
    rep = Report()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("EXPECT ") or " == " not in line:
            raise AssertionFileError(
                lineno, "expected EXPECT <expr> == <expr>, found %r" % line)
        lhs_src, rhs_src = line[len("EXPECT "):].split(" == ", 1)
        try:
            rep.extend(assert_equal(parse(lhs_src), parse(rhs_src), env,
                                    name="line_%03d" % lineno))
        except (ParseError, TypeError) as exc:
            raise AssertionFileError(lineno, str(exc)) from exc
        except RecursionError:
            raise AssertionFileError(
                lineno, "expression nested too deeply") from None
    return rep
