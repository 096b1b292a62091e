"""Command-line front end.

Subcommands: `check` (axiom suites), `principal` (bundle conditions),
`descent` (descent data and the comparison functor), `qcat` (the quantum
category), `eval` (assertion files).  Exit code 0 means every check
passed, 1 means some check failed, 2 means the input could not be read.
Reports are canonical: sorted by check name, byte-identical across runs;
`HGL_SEED` (an integer, default 0) fixes the sampling seed of module
sweeps; a sweep of no dimension or above `MAX_SWEEP_DIM`, or a bad seed,
is an input error.  Help and usage are formatted at 78 columns whatever
the terminal, so they are byte-reproducible like the reports.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .bundle import (AlgebraBundle, canonical_map_linearity,
                     check_comodule_algebra, check_module_coalgebra)
from .descent import (check_bmodule, comparison_K, counit_of_K, descend,
                      sweep_phi_psi, unit_Phi, verify_descent_datum)
from .dsl import AssertionFileError, run_assertions
from .fields import FieldError, parse_int
from .hopf import check_hopf
from .instances import InstanceError, parse_instance
from .morphism import FactorizationError, cokernel
from .quantum import build_quantum_category, cotensor_monoid
from .report import Report, matrix_triples


# The largest --sweep-dim.  A sweep builds every base module of dimension
# 1..max_dim, on a commutative 2-dim base up to d + 1 of dimension d with a
# dense d x d matrix each, and its memory grows about as max_dim^3: the
# nonflat corpus bundle peaks near 90 MiB at 128 and 520 MiB at 256.
MAX_SWEEP_DIM = 128

# Help and usage at a fixed width: 78 is argparse's own width when stdout is
# not a terminal and COLUMNS is unset.  A fixed width also spares each
# parser and argument the terminal-size probe argparse makes otherwise.
_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


def _check_sweep_dim(sweep_dim):
    if sweep_dim > MAX_SWEEP_DIM:
        raise InstanceError(0, "--sweep-dim %d above the limit %d"
                            % (sweep_dim, MAX_SWEEP_DIM))


def _seed():
    """The sweep seed from `HGL_SEED` (default 0), an integer as the
    instance format writes one."""
    text = os.environ.get("HGL_SEED", "0")
    try:
        return parse_int(text)
    except FieldError:
        raise InstanceError(0, "HGL_SEED must be an integer, not %r" % text)


def _read(path):
    """The text of a UTF-8 file; one that cannot be read or decoded is an
    input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InstanceError(0, "%s: %s" % (path, exc.strerror or exc))
    except UnicodeDecodeError as exc:
        raise InstanceError(0, "%s: %s" % (path, exc))


def _load(path):
    return parse_instance(_read(path))


def _bundle(inst, side=None):
    pool = inst.bundles
    for key in sorted(pool):
        b = pool[key]
        if side is None or b.side == side:
            return b
    raise InstanceError(inst.end_line, "no %s bundle block in instance"
                        % (side or "matching"))


def _emit(rep, machine, extra_lines=()):
    print(rep.render(machine))
    for line in extra_lines:
        print(line)
    print("result=%s" % ("pass" if rep.ok else "fail"))
    return 0 if rep.ok else 1


def cmd_check(args):
    inst = _load(args.file)
    rep = Report()
    what = args.what
    if what in ("hopf", "all"):
        for name in sorted(inst.hopfs):
            rep.extend(check_hopf(inst.hopfs[name]), prefix="hopf.%s." % name)
    if what in ("comodule", "all"):
        for name in sorted(inst.comodules):
            rep.extend(check_comodule_algebra(inst.comodules[name]),
                       prefix="comodule.%s." % name)
    if what in ("module-coalgebra", "all"):
        for name in sorted(inst.modules):
            rep.extend(check_module_coalgebra(inst.modules[name]),
                       prefix="module_coalgebra.%s." % name)
    if not rep.items:
        raise InstanceError(inst.end_line,
                            "nothing to check for --what %s" % what)
    return _emit(rep, args.machine)


def cmd_principal(args):
    if args.sweep_dim < 0:
        raise InstanceError(0, "nothing to sweep for --sweep-dim %d (0 means "
                            "no sweep)" % args.sweep_dim)
    _check_sweep_dim(args.sweep_dim)
    seed = _seed() if args.sweep_dim else None
    inst = _load(args.file)
    b = _bundle(inst, side=args.side)
    if args.dualize:
        b = b.dualize()
    rep = Report()
    rep.extend(b.check_principal())
    rep.extend(canonical_map_linearity(b))
    if args.sweep_dim:
        alg = b if isinstance(b, AlgebraBundle) else b.dualize()
        rep.extend(sweep_phi_psi(alg, max_dim=args.sweep_dim, seed=seed))
    try:
        can = b.canonical_map()
    except FactorizationError:
        # no can to print: B.can_bijective already fails with the reason
        return _emit(rep, args.machine)
    extra = ["can=[%s]" % matrix_triples(can)]
    verdict = b.can_verdict()
    if verdict.is_iso:
        extra.append("can_inverse=[%s]" % matrix_triples(verdict.inverse))
    if verdict.kernel_dim:
        extra.append("can_defect_kernel=[%s]"
                     % matrix_triples(verdict.kernel_inclusion))
    if verdict.cokernel_dim:
        _, proj = cokernel(can)
        extra.append("can_defect_cokernel=[%s]" % matrix_triples(proj))
    return _emit(rep, args.machine, extra)


def cmd_descent(args):
    if args.sweep_dim < 1:
        raise InstanceError(0, "nothing to sweep for --sweep-dim %d"
                            % args.sweep_dim)
    _check_sweep_dim(args.sweep_dim)
    seed = None if args.module is not None else _seed()
    inst = _load(args.file)
    b = _bundle(inst, side="algebra")
    rep = Report()
    if args.module is not None:
        if args.module not in inst.bmodules:
            raise InstanceError(0, "no bmodule named %r" % args.module)
        v = inst.bmodules[args.module]
        if v.action.dom != v.carrier.tensor(b.base.space):
            raise InstanceError(0, "bmodule %r does not act by V (x) B -> V "
                                "for the bundle's base B" % args.module)
        rep.extend(check_bmodule(v, b.base), prefix="module.")
        try:
            d = comparison_K(v, b)
        except FactorizationError as err:
            # P does not act on V (x)_B P: no datum to check or descend
            for label in ("phi_iso", "psi_iso"):
                rep.add(label, False, details={"reason": str(err)})
            return _emit(rep, args.machine)
        rep.extend(verify_descent_datum(d), prefix="datum.")
        w, _ = descend(d)
        rep.add("descended_dim", True, details={"dim": w.carrier.dim})
        for label, builder in (("phi_iso", lambda: unit_Phi(d)),
                               ("psi_iso", lambda: counit_of_K(d))):
            _, verdict = builder()
            rep.add(label, verdict.is_iso,
                    details={"rank": verdict.rank,
                             "kernel_dim": verdict.kernel_dim,
                             "cokernel_dim": verdict.cokernel_dim},
                    witness=None if verdict.is_iso else verdict.kernel_inclusion)
    else:
        rep.extend(sweep_phi_psi(b, max_dim=args.sweep_dim, seed=seed))
    return _emit(rep, args.machine)


def cmd_qcat(args):
    inst = _load(args.file)
    b = _bundle(inst)
    if isinstance(b, AlgebraBundle):
        b = b.dualize()
    rep = Report()
    rep.add("dim_base", True, details={"dim": b.base.space.dim})
    _, mon_rep = cotensor_monoid(b)
    rep.extend(mon_rep)
    _, qc_rep = build_quantum_category(b)
    rep.extend(qc_rep)
    return _emit(rep, args.machine)


def cmd_eval(args):
    inst = _load(args.file)
    text = _read(args.exprfile)
    try:
        rep = run_assertions(text, inst)
    except AssertionFileError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return _emit(rep, args.machine)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hopfgal",
        description="Exact checks for noncommutative principal bundles.",
        formatter_class=_FORMATTER)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, func):
        p = sub.add_parser(name, help=summary, formatter_class=_FORMATTER)
        p.add_argument("file", help="instance file")
        p.add_argument("--machine", action="store_true",
                       help="tab-separated records")
        p.set_defaults(func=func)
        return p

    p = command("check", "run axiom suites", cmd_check)
    p.add_argument("--what", default="all",
                   choices=["hopf", "comodule", "module-coalgebra", "all"])

    p = command("principal", "bundle conditions A, B, C", cmd_principal)
    p.add_argument("--side", choices=["algebra", "comonoid"])
    p.add_argument("--dualize", action="store_true",
                   help="run the transposed pipeline")
    p.add_argument("--sweep-dim", type=int, default=0,
                   help="also sweep base modules up to this dimension")

    p = command("descent", "descent data and comparison functor",
                cmd_descent)
    p.add_argument("--module", help="bmodule name from the instance")
    p.add_argument("--sweep-dim", type=int, default=3)

    command("qcat", "build and verify the quantum category", cmd_qcat)

    p = command("eval", "run an EXPECT assertion file", cmd_eval)
    p.add_argument("exprfile", help="assertion file")

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
