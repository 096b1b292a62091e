"""Outside-in tracer: per-layer spans around hopfgal's public functions.

The program is not edited.  `Tracer.install()` rebinds each traced
function in every `hopfgal.*` module namespace that holds the same object
(`from .morphism import compose` copies the binding into bundle, descent,
quantum, dsl and hopf) and patches the traced class methods.
`Tracer.uninstall()` restores every binding.

Spans are aggregated in memory per name and read out at the end:

- `calls` and `s` (inclusive time) count only the outermost span of a
  name, because e.g. `CoalgebraBundle.equivariant_projectivity` re-enters
  through its dual; `s` leaves out the bookkeeping of the spans under it;
- `self_s` is a span's time minus the time of its child spans, summed over
  every span of the name;
- work counters (`cells`, `nnz`, `entries`, ...) are summed over outermost
  spans as well; counters taken from a call's arguments also keep their
  largest single-call value.

The tracer's own bookkeeping (counting nonzeros, say) runs outside the
span's timer and is charged to no span's self time; each frame also sums
its descendants' bookkeeping, which is taken out of its inclusive time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

_now = time.perf_counter
PACKAGE = "hopfgal."


class Stat:
    __slots__ = ("calls", "s", "self_s", "counts", "peaks", "under")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.counts = Counter()
        self.peaks = Counter()  # largest single-call value of each pre count
        self.under = Counter()  # calls with an open span of another name


# -- work counters: (pre(args) -> dict, post(result, args) -> dict) ----------

def _rref_pre(field, A):
    m = len(A)
    n = len(A[0]) if m else 0
    nnz = sum(1 for row in A for x in row if x)
    return {"cells": m * n, "nnz": nnz}


def _rref_post(result, args):
    return {"rank": len(result[1])}


def _solve_post(result, args):
    return {"inconsistent": int(result is None)}


def _nnz_out(result, args):
    return {"nnz_out": len(result.entries)}


def _init_post(result, args):
    return {"entries": len(args[0].entries)}


def _dim_out(result, args):
    return {"dim_out": result.dim}


def _unknowns(dom, cod, equations):
    per_degree = Counter(dom.degrees)
    return {"unknowns": sum(per_degree[d] for d in cod.degrees)}


def _modules(result, args):
    return {"modules": len(result)}


# (module, function) -> span name, counters
FUNCTIONS = [
    ("linalg", "rref", "linalg.rref", _rref_pre, _rref_post),
    ("linalg", "solve", "linalg.solve", None, _solve_post),
    ("linalg", "kernel_basis", "linalg.kernel_basis", None, None),
    ("linalg", "inverse", "linalg.inverse", None, None),
    ("linalg", "rank", "linalg.rank", None, None),
    ("bundle", "solve_morphism_system", "bundle.solve_morphism_system",
     _unknowns, None),
    ("bundle", "morphism_nullspace", "bundle.morphism_nullspace", None, None),
    ("bundle", "canonical_map_linearity", "bundle.canonical_map_linearity",
     None, None),
    ("bundle", "check_comodule_algebra", "bundle.check_comodule_algebra",
     None, None),
    ("morphism", "compose", "morphism.compose", None, _nnz_out),
    ("morphism", "tensor", "morphism.tensor", None, _nnz_out),
    ("morphism", "kernel", "morphism.kernel", None, None),
    ("morphism", "is_isomorphism", "morphism.is_isomorphism", None, None),
    ("morphism", "factor_through_equaliser",
     "morphism.factor_through_equaliser", None, None),
    ("morphism", "factor_through_coequaliser",
     "morphism.factor_through_coequaliser", None, None),
    ("morphism", "dualize", "morphism.dualize", None, None),
    ("morphism", "braiding", "morphism.braiding", None, None),
    ("descent", "sweep_phi_psi", "descent.sweep_phi_psi", None, None),
    ("descent", "enumerate_bmodules", "descent.enumerate_bmodules",
     None, _modules),
    ("descent", "comparison_K", "descent.comparison_K", None, None),
    ("descent", "unit_Phi", "descent.unit_Phi", None, None),
    ("descent", "counit_Psi", "descent.counit_Psi", None, None),
    ("quantum", "cotensor_monoid", "quantum.cotensor_monoid", None, None),
    ("quantum", "build_quantum_category", "quantum.build_quantum_category",
     None, None),
    ("quantum", "multi_cotensor", "quantum.multi_cotensor", None, None),
    ("hopf", "check_hopf", "hopf.check_hopf", None, None),
    ("dsl", "run_assertions", "dsl.run_assertions", None, None),
    ("instances", "parse_instance", "instances.parse_instance", None, None),
    ("report", "matrix_triples", "report.matrix_triples", None, None),
    ("cli", "main", "cli.main", None, None),
]

# (module, class, method) -> span name, counters
METHODS = [
    ("morphism", "Morphism", "__init__", "morphism.init", None, _init_post),
    ("spaces", "GradedSpace", "tensor", "spaces.tensor", None, _dim_out),
    ("report", "Report", "render", "report.render", None, None),
] + [
    ("bundle", cls, stage, "bundle." + stage, None, None)
    for cls in ("AlgebraBundle", "CoalgebraBundle")
    for stage in ("condition_A", "condition_B", "equivariant_projectivity",
                  "faithful_flatness", "check_principal")
]

# Names whose callers are recorded (Stat.under): rare, elimination-level.
ATTRIBUTED = ("linalg.",)


class Tracer:
    """Install with `install()`, run, then `uninstall()` and read `stats`."""

    def __init__(self):
        self.stats = {}
        self._stack = []          # open spans: [name, child s, bookkeeping s]
        self._open = Counter()    # name -> number of open spans
        self._restore = []        # (namespace owner, attribute, original)

    def _wrap(self, name, fn, pre, post):
        stats, stack, open_ = self.stats, self._stack, self._open
        stat = stats.setdefault(name, Stat())
        attributed = name.startswith(ATTRIBUTED)

        def span(*args, **kwargs):
            t_enter = _now()
            counts = pre(*args, **kwargs) if pre is not None else None
            outer = not open_[name]
            if attributed:
                stat.under.update(n for n, k in open_.items() if k and n != name)
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            open_[name] += 1
            result = ok = None
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = _now()
                stack.pop()
                open_[name] -= 1
                stat.self_s += (t1 - t0) - frame[1]
                if outer:
                    stat.calls += 1
                    stat.s += (t1 - t0) - frame[2]
                    if ok and counts:
                        stat.counts.update(counts)
                        for key, value in counts.items():
                            if value > stat.peaks[key]:
                                stat.peaks[key] = value
                    if ok and post is not None:
                        stat.counts.update(post(result, args))
                if stack:
                    t_exit = _now()
                    stack[-1][1] += t_exit - t_enter
                    stack[-1][2] += frame[2] + (t_exit - t_enter) - (t1 - t0)
            return result

        span.__wrapped__ = fn
        return span

    def install(self):
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and name.startswith(PACKAGE)}
        for mod, attr, name, pre, post in FUNCTIONS:
            original = getattr(modules[PACKAGE + mod], attr)
            wrapper = self._wrap(name, original, pre, post)
            for owner in modules.values():
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._restore.append((owner, key, original))
                        setattr(owner, key, wrapper)
        for mod, cls_name, attr, name, pre, post in METHODS:
            cls = getattr(modules[PACKAGE + mod], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, pre, post))
        return self

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def stat(self, name):
        return self.stats.get(name) or Stat()
