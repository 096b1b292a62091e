"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import gen_inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)

import hopfgal.cli  # noqa: E402
from hopfgal import bundle, morphism, spaces  # noqa: E402


def _pass(cmds):
    with calibrate.Clock() as clock:
        return run.run_pass(clock, hopfgal.cli, cmds, workloads.DEFAULT_SEED)


def _corpus(entry, first_word=None):
    return [c for c in workloads.load("corpus")
            if c.case == entry and (first_word is None or c.args[0] == first_word)]


def _traced(cmds):
    tr = tracer.Tracer()
    with tr:
        p = _pass(cmds)
    return tr, p


def test_tracer_restores_every_binding():
    compose, init = morphism.compose, morphism.Morphism.__init__
    tensor, stage = spaces.GradedSpace.tensor, bundle.AlgebraBundle.condition_A
    tr, p = _traced(_corpus("free_z2"))
    assert not p.failures
    assert tr.stat("morphism.compose").calls > 0
    assert bundle.compose is morphism.compose is compose
    assert morphism.Morphism.__init__ is init
    assert spaces.GradedSpace.tensor is tensor
    assert bundle.AlgebraBundle.condition_A is stage
    for name, mod in list(sys.modules.items()):
        if name.startswith("hopfgal"):
            for key, value in vars(mod).items():
                assert not hasattr(value, "__wrapped__"), (name, key)


def test_traced_stdout_equals_untraced_on_every_corpus_command():
    cmds = workloads.load("corpus")
    untraced = _pass(cmds)
    tr, traced = _traced(cmds)
    assert not untraced.failures and not traced.failures
    for cmd in cmds:
        assert traced.outputs[cmd.key] == untraced.outputs[cmd.key], cmd.key


def test_clock_scales_by_the_kernel_times_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with calibrate.Clock() as clock:
        a = clock.stamp()
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            sum(range(1000))
        b = clock.stamp()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.kernel) >= 4
    ref = (b - a) * calibrate.REFERENCE_S
    assert ref / max(clock.kernel) <= clock.scaled(a, b) <= ref / min(clock.kernel)
    assert clock.scaled(a, b) == pytest.approx(
        clock.scaled(a, (a + b) / 2) + clock.scaled((a + b) / 2, b))


def test_oracle_agrees_with_a_regenerated_case(tmp_path):
    case = "nonfree_z2_x6_qq"
    written = gen_inputs.write_inputs(str(tmp_path))
    for fname in ("instance.txt", "assertions.txt"):
        with open(os.path.join(workloads.INPUTS, case, fname)) as committed, \
                open(os.path.join(str(tmp_path), case, fname)) as fresh:
            assert fresh.read() == committed.read()
    with open(workloads.ORACLE) as fh:
        oracle = json.load(fh)
    assert oracle["cases"] == written
    cmd = workloads.Command(str(tmp_path / case), case, ["principal"], "QQ",
                            oracle=oracle["commands"]["%s principal" % case])
    stdout, code, error = workloads.run(hopfgal.cli.main, cmd)
    assert error is None and code == 1
    assert cmd.check(stdout, code, workloads.DEFAULT_SEED) is None


def _axioms(key):
    return [c for c in workloads.load("axioms") if c.key == key]


@pytest.mark.parametrize("cmds", [
    lambda: _corpus("superline", "check"),
    lambda: _axioms("trivial_z12_qq check --what all"),
], ids=["corpus superline check", "axioms trivial_z12_qq check"])
def test_elimination_in_a_hopf_check_comes_from_the_antipode_inversion(cmds):
    tr, p = _traced(cmds())
    assert not p.failures
    rref = tr.stat("linalg.rref")
    assert rref.calls > 0
    assert rref.under["morphism.is_isomorphism"] == rref.calls
    assert tr.stat("morphism.is_isomorphism").calls == 1


def test_count_metrics_repeat_exactly():
    cmds = _corpus("trivial_sweedler")
    first, _ = _traced(cmds)
    second, _ = _traced(cmds)
    for name, st in first.stats.items():
        again = second.stat(name)
        assert (st.calls, st.counts, st.peaks) == \
            (again.calls, again.counts, again.peaks), name


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_specs()
    assert [w["name"] for w in spec["workloads"]] == workloads.NAMES
