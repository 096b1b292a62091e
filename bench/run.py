"""hopfgal benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The CLI is driven in-process through
`hopfgal.cli.main(argv)` from `src/`; every command's exit code and stdout
pass a correctness gate (see `workloads.Command.check`).

--trace 0 measures with tracing off: passes over the workload's command
list (in a seed-shuffled order, with HGL_SEED = seed) for about --seconds,
at least one, each after ten timed set-ups.  --trace 1 alternates
untraced passes and passes under the outside-in tracer (`tracer.py`) for
about --seconds, at least one of each, and reports per-layer metrics: the
spans of the first traced pass, and the tracing overhead as the median
over pairs of a traced pass and the untraced pass before it.  The last
stdout line is the JSON result; the lines above it print the same numbers
for a reader, with quartiles, sample counts and unscaled pass times.

Set-up and command times are read on `calibrate.Clock`, which samples the
host's speed ten times a second with a fixed stdlib-only kernel and scales
wall time to a reference host speed: the host's speed drifts by up to 2x in
phases of a second or so, and the scaled times cancel that drift.
Per-layer span times are not scaled.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.join(workloads.ROOT, "src")
SETUP_REPEATS = 10
MIN_PASSES = 1

# Per-layer metrics: span name -> the fields reported for it.
SPAN_FIELDS = [
    ("linalg.rref", ("calls", "self_s", "cells", "nnz", "density",
                     "max_cells", "rank")),
    ("linalg.solve", ("calls", "self_s", "inconsistent")),
    ("linalg.kernel_basis", ("calls", "self_s")),
    ("linalg.inverse", ("calls", "self_s")),
    ("linalg.rank", ("calls",)),
    ("bundle.solve_morphism_system", ("calls", "self_s", "unknowns")),
    ("bundle.morphism_nullspace", ("calls", "self_s")),
] + [("bundle." + stage, ("s",)) for stage in (
    "condition_A", "condition_B", "equivariant_projectivity",
    "faithful_flatness", "canonical_map_linearity", "check_principal",
    "check_comodule_algebra")] + [
    ("morphism.init", ("calls", "self_s", "entries")),
    ("morphism.compose", ("calls", "self_s", "nnz_out")),
    ("morphism.tensor", ("calls", "self_s", "nnz_out")),
] + [("morphism." + f, ("calls", "self_s")) for f in (
    "kernel", "is_isomorphism", "factor_through_equaliser",
    "factor_through_coequaliser")] + [
    ("morphism.dualize", ("calls",)),
    ("morphism.braiding", ("calls",)),
    ("spaces.tensor", ("calls", "self_s", "dim_out")),
] + [("descent." + f, ("s",)) for f in (
    "sweep_phi_psi", "enumerate_bmodules", "comparison_K", "unit_Phi",
    "counit_Psi")] + [("quantum." + f, ("s",)) for f in (
    "cotensor_monoid", "build_quantum_category", "multi_cotensor")] + [
    ("hopf.check_hopf", ("s",)),
    ("dsl.run_assertions", ("s",)),
    ("instances.parse_instance", ("calls", "s")),
    ("report.render", ("s",)),
    ("report.matrix_triples", ("s",)),
]

# Metrics computed from more than one span, or from the untraced pass.
EXTRA_LAYER = [
    ("descent.modules_swept", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("fields.qq_cmd_s", "s", "lower"),
    ("fields.fp_cmd_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

BETTER_HIGHER = ("density", "rank")


def _field_unit(field):
    if field in ("s", "self_s"):
        return "s"
    return "ratio" if field == "density" else "count"


def per_layer_specs():
    """[(metric name, unit, better)] in report order."""
    out = []
    for span, fields in SPAN_FIELDS:
        for field in fields:
            out.append(("%s.%s" % (span, field), _field_unit(field),
                        "higher" if field in BETTER_HIGHER else "lower"))
    return out + EXTRA_LAYER


END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("largest_s", "s"),
              ("peak_rss_mib", "MiB")]


def import_program():
    """Import hopfgal afresh from the checkout's src/; returns hopfgal.cli."""
    for name in [n for n in sys.modules
                 if n == "hopfgal" or n.startswith("hopfgal.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("hopfgal.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError("hopfgal imported from %s, not %s"
                          % (cli.__file__, SRC))
    return cli


def setup(clock, name, seed):
    """Import hopfgal and read the workload's files, SETUP_REPEATS times.

    Returns the CLI module, the workload's commands in the seed's order and
    each set-up's (start, end) stamps on `clock`.
    """
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = clock.stamp()
        cli = import_program()
        cmds = workloads.load(name)
        spans.append((t0, clock.stamp()))
    random.Random(seed).shuffle(cmds)
    return cli, cmds, spans


class Pass:
    """One run over the command list: outputs, times and failures.

    `spans` holds each command's (start, end) stamps on the run's clock;
    `scale()` turns them into `times`, scaled seconds, and `wall`, their
    sum.  `raw_wall` is the pass's unscaled program time.
    """

    def __init__(self):
        self.outputs = {}
        self.spans = {}
        self.times = {}
        self.failures = []
        self.wall = 0.0
        self.raw_wall = 0.0

    def scale(self, clock):
        self.times = {k: clock.scaled(a, b) for k, (a, b) in self.spans.items()}
        self.wall = sum(self.times.values())
        self.raw_wall = sum(b - a for a, b in self.spans.values())


def run_pass(clock, cli, cmds, seed, reference=None):
    """Time each command; gate its output; compare with `reference` pass."""
    p = Pass()
    for cmd in cmds:
        t0 = clock.stamp()
        stdout, code, error = workloads.run(cli.main, cmd)
        p.spans[cmd.key] = (t0, clock.stamp())
        p.outputs[cmd.key] = stdout
        if error is None:
            error = cmd.check(stdout, code, seed)
        if error is None and reference is not None \
                and stdout != reference.outputs[cmd.key]:
            error = "stdout differs from the first pass"
        if error is not None:
            p.failures.append((cmd.key, error))
    return p


def describe(label, values, unit, what):
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    print("%s = %.6g %s  (median of %d %s; q1=%.6g q3=%.6g)"
          % (label, statistics.median(values), unit, len(values), what, q1, q3))


def repeat(step, seconds, at_least):
    """Call step() until about `seconds` have passed, at least `at_least` times."""
    t_start = time.perf_counter()
    walls = []
    while True:
        t0 = time.perf_counter()
        step()
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        if len(walls) >= at_least and elapsed + statistics.median(walls) > seconds:
            return


def layer_metrics(tr, untraced, traced, cmds):
    """Spans of the first traced pass; overhead from pairs of passes."""
    values = {}
    for span, fields in SPAN_FIELDS:
        st = tr.stat(span)
        for field in fields:
            if field in ("calls", "s", "self_s"):
                v = getattr(st, field)
            elif field == "density":
                v = st.counts["nnz"] / st.counts["cells"] if st.counts["cells"] else 0.0
            elif field == "max_cells":
                v = st.peaks["cells"]
            else:
                v = st.counts[field]
            values["%s.%s" % (span, field)] = v
    values["descent.modules_swept"] = tr.stat("descent.enumerate_bmodules").counts["modules"]
    values["cli.self_s"] = tr.stat("cli.main").self_s
    values["fields.qq_cmd_s"] = sum(untraced[0].times[c.key] for c in cmds
                                    if c.field == "QQ")
    values["fields.fp_cmd_s"] = sum(untraced[0].times[c.key] for c in cmds
                                    if c.field != "QQ")
    # Each traced pass runs right after an untraced one: pairing them
    # cancels most of the host's slower drifts in speed.
    values["trace.overhead_frac"] = statistics.median(
        t.wall / u.wall for u, t in zip(untraced, traced)) - 1.0
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hopfgal", "__init__.py")):
        print("error: no hopfgal sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["HGL_SEED"] = str(args.seed)

    # Set-up is repeated before every pass, so that its median samples the
    # whole run, as pass_s does.
    setup_spans, cmds, untraced, traced, tracers = [], [], [], [], []

    def untraced_pass():
        cli, loaded, spans = setup(clock, args.workload, args.seed)
        cmds[:] = loaded
        setup_spans.extend(spans)
        untraced.append(run_pass(clock, cli, cmds, args.seed,
                                 untraced[0] if untraced else None))
        return cli, cmds

    def traced_pair():
        cli, cmds = untraced_pass()
        tracers.append(tracer.Tracer())
        with tracers[-1]:
            traced.append(run_pass(clock, cli, cmds, args.seed, untraced[0]))

    with calibrate.Clock() as clock:
        if args.trace:
            repeat(traced_pair, args.seconds, 1)
        else:
            repeat(untraced_pass, args.seconds, MIN_PASSES)
    for p in untraced + traced:
        p.scale(clock)
    setup_times = [clock.scaled(a, b) for a, b in setup_spans]
    largest = workloads.LARGEST[args.workload]
    print("workload=%s seed=%d commands=%d trace=%d"
          % (args.workload, args.seed, len(cmds), args.trace))
    print("host speed: %d samples, kernel median %.4g ms (reference %.4g ms)"
          % (len(clock.kernel), 1e3 * statistics.median(clock.kernel),
             1e3 * calibrate.REFERENCE_S))
    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    attempted = len(cmds) * len(passes)
    for key, why in failures:
        print("FAIL %s: %s" % (key, why), file=sys.stderr)
    print("%s.failed_frac = %.6g  (%d of %d commands)"
          % (args.workload, len(failures) / attempted, len(failures), attempted))

    metrics = {}
    if args.trace:
        values = layer_metrics(tracers[0], untraced, traced, cmds)
        for metric, unit, _ in per_layer_specs():
            value = values[metric]
            print("%s.%s = %s %s" % (args.workload, metric, value if
                                     isinstance(value, int) else "%.6g" % value, unit))
            metrics[metric] = {"value": values[metric], "unit": unit}
    else:
        pass_times = [p.wall for p in untraced]
        largest_times = [p.times[largest] for p in untraced]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        describe(args.workload + ".setup_s", setup_times, "s", "set-ups")
        describe(args.workload + ".pass_s", pass_times, "s", "passes")
        describe(args.workload + ".largest_s", largest_times, "s",
                 "runs of `%s`" % largest)
        print("unscaled pass times: %s s"
              % " ".join("%.4g" % p.raw_wall for p in untraced))
        print("%s.peak_rss_mib = %.6g MiB  (ru_maxrss of this process)"
              % (args.workload, rss))
        values = {"setup_s": statistics.median(setup_times),
                  "pass_s": statistics.median(pass_times),
                  "largest_s": statistics.median(largest_times),
                  "peak_rss_mib": rss}
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
